"""Batch cost engine: batch/scalar parity and front-end behaviour.

The load-bearing guarantee of :mod:`repro.model.engine` is that both
of its evaluation paths return objective vectors *bit-identical* to the
seed scalar path (``GenomeCodec.decode`` → ``DesignPoint.macro_cost`` →
``objectives_of``): persisted cache entries and per-seed NSGA-II
trajectories must not move when the engine changes.  The two paths are
the vectorised numpy batch (``evaluate_batch``) and the memoised scalar
path (``CostEngine.macro_costs``, which the mapping problem evaluates
through).  Every comparison here is exact equality on floats, never
``approx``.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import DcimSpec
from repro.dse.genome import GenomeCodec
from repro.dse.problem import DcimProblem, objectives_of
from repro.model.engine import CostEngine
from repro.tech.cells import CellLibrary

LIB = CellLibrary.default()

#: The engine's evaluation paths: ``numpy`` is the vectorised batch,
#: ``python`` the memoised scalar path.
PATHS = ["python", "numpy"]

PRECISIONS = ["INT2", "INT4", "INT8", "INT16", "FP8", "BF16", "FP16", "FP32"]


def scalar_objectives(problem, genomes):
    """The seed evaluation path, kept verbatim as the parity reference."""
    codec, lib = problem.codec, problem.library
    return [objectives_of(codec.decode(g).macro_cost(lib)) for g in genomes]


def engine_objectives(problem, genomes, path):
    """Objective rows for ``genomes`` through one engine path."""
    if path == "numpy":
        return problem.evaluate_batch(genomes)
    points = problem.codec.decode_batch(genomes)
    return [objectives_of(cost) for cost in problem.engine.macro_costs(points)]


def make_spec(wstore, precision):
    """A spec, or None when the codec rejects the combination."""
    spec = DcimSpec(wstore=wstore, precision=precision)
    try:
        GenomeCodec(spec)
    except ValueError:
        return None
    return spec


class TestBatchScalarParity:
    """The acceptance-criterion tests: exact equality with the seed path."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("precision", ["INT4", "INT8", "BF16", "FP16"])
    def test_full_space_bit_identical(self, precision, path):
        problem = DcimProblem(DcimSpec(wstore=4096, precision=precision), LIB)
        genomes = problem.codec.enumerate()
        assert engine_objectives(problem, genomes, path) == scalar_objectives(
            problem, genomes
        )

    @settings(max_examples=40, deadline=None)
    @given(
        wstore_exp=st.integers(min_value=9, max_value=18),
        precision=st.sampled_from(PRECISIONS),
        path=st.sampled_from(PATHS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_specs_bit_identical(self, wstore_exp, precision, path, seed):
        spec = make_spec(2**wstore_exp, precision)
        if spec is None:  # combination the exponent encoding rejects
            return
        problem = DcimProblem(spec, LIB)
        rng = random.Random(seed)
        genomes = [problem.sample(rng) for _ in range(12)]
        assert engine_objectives(problem, genomes, path) == scalar_objectives(
            problem, genomes
        )

    @pytest.mark.parametrize("precision", ["INT8", "BF16"])
    def test_numpy_and_python_backends_agree(self, precision):
        problem = DcimProblem(DcimSpec(wstore=8192, precision=precision), LIB)
        genomes = problem.codec.enumerate()
        assert engine_objectives(problem, genomes, "numpy") == engine_objectives(
            problem, genomes, "python"
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_scalar_evaluate_is_a_batch_of_one(self, path):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        for genome in problem.codec.enumerate()[:8]:
            assert problem.evaluate(genome) == engine_objectives(
                problem, [genome], path
            )[0]

    def test_duplicate_genomes_keep_input_order(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        a, b = problem.codec.enumerate()[:2]
        batch = problem.evaluate_batch([a, b, a, b, b])
        assert batch[0] == batch[2] == problem.evaluate(a)
        assert batch[1] == batch[3] == batch[4] == problem.evaluate(b)


class TestBatchCostColumns:
    @pytest.mark.parametrize("path", PATHS)
    def test_columns_match_macro_cost(self, path):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="BF16"), LIB)
        genomes = problem.codec.enumerate()[:16]
        points = problem.codec.decode_batch(genomes)
        costs = [p.macro_cost(LIB) for p in points]
        if path == "python":
            assert problem.engine.macro_costs(points) == costs
            return
        batch = problem.engine.evaluate_points(points)
        assert batch.arch == "fp-prealign"
        assert len(batch) == len(points)
        assert batch.area == tuple(c.area for c in costs)
        assert batch.delay == tuple(c.delay for c in costs)
        assert batch.energy_per_pass == tuple(c.energy_per_pass for c in costs)
        assert batch.cycles_per_pass == tuple(c.cycles_per_pass for c in costs)
        assert batch.ops_per_pass == tuple(c.ops_per_pass for c in costs)
        assert batch.sram_bits == tuple(c.sram_bits for c in costs)
        assert batch.throughput() == tuple(c.throughput for c in costs)

    def test_column_types_are_plain_python(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        genomes = problem.codec.enumerate()[:4]
        points = problem.codec.decode_batch(genomes)
        batch = problem.engine.evaluate_points(points)
        assert all(type(a) is float for a in batch.area)
        assert all(type(c) is int for c in batch.cycles_per_pass)
        for row in batch.objectives():
            assert all(type(v) is float for v in row)

    def test_mixed_precision_batch_groups_and_scatters(self):
        int_points = DcimProblem(
            DcimSpec(wstore=4096, precision="INT8"), LIB
        ).exhaustive_front()[:3]
        fp_points = DcimProblem(
            DcimSpec(wstore=4096, precision="BF16"), LIB
        ).exhaustive_front()[:3]
        mixed = [int_points[0], fp_points[0], int_points[1], fp_points[1],
                 fp_points[2], int_points[2]]
        engine = CostEngine(LIB)
        batch = engine.evaluate_points(mixed)
        assert batch.arch == "mixed"
        expected = [objectives_of(p.macro_cost(LIB)) for p in mixed]
        assert batch.objectives() == expected

    def test_empty_batches(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        assert problem.evaluate_batch([]) == []
        assert len(problem.engine.evaluate_points([])) == 0
        assert problem.engine.evaluate_points([]).objectives() == []


class TestMacroCostWrapper:
    @pytest.mark.parametrize("precision", ["INT8", "BF16"])
    def test_macro_costs_identical_to_design_point(self, precision):
        problem = DcimProblem(DcimSpec(wstore=4096, precision=precision), LIB)
        points = problem.codec.decode_batch(problem.codec.enumerate()[:12])
        assert problem.engine.macro_costs(points) == [
            p.macro_cost(LIB) for p in points
        ]

    def test_component_memo_is_shared_across_calls(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        points = problem.codec.decode_batch(problem.codec.enumerate())
        problem.engine.macro_costs(points)
        memo_size = len(problem.engine._memo)
        problem.engine.macro_costs(points)  # second pass: no new entries
        assert len(problem.engine._memo) == memo_size
        assert memo_size < 6 * len(points)  # far fewer uniques than genomes


class TestDecodeBatch:
    def test_decode_batch_matches_scalar_decode(self):
        codec = GenomeCodec(DcimSpec(wstore=8192, precision="INT8"))
        genomes = codec.enumerate()
        assert codec.decode_batch(genomes) == [codec.decode(g) for g in genomes]

    def test_decode_params_match_decoded_points(self):
        codec = GenomeCodec(DcimSpec(wstore=8192, precision="FP16"))
        genomes = codec.enumerate()
        n, h, l, k = codec.decode_params(genomes)
        points = codec.decode_batch(genomes)
        assert n == [p.n for p in points]
        assert h == [p.h for p in points]
        assert l == [p.l for p in points]
        assert k == [p.k for p in points]

    def test_infeasible_genome_raises_everywhere(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        bad = (0, 0, 0, 0)  # violates a + b + c == log2(Wstore)
        with pytest.raises(ValueError, match="infeasible"):
            problem.codec.decode_params([bad])
        with pytest.raises(ValueError, match="infeasible"):
            problem.evaluate_batch([bad])
        with pytest.raises(ValueError, match="infeasible"):
            problem.evaluate(bad)


class TestEngineLifecycle:
    def test_engine_survives_pickling(self):
        """A problem (and its engine) round-trips through pickle."""
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        genomes = problem.codec.enumerate()[:8]
        before = problem.evaluate_batch(genomes)
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.evaluate_batch(genomes) == before

    def test_problem_defaults_keep_equality_semantics(self):
        spec = DcimSpec(wstore=4096, precision="INT8")
        assert DcimProblem(spec, LIB) == DcimProblem(spec, LIB)
