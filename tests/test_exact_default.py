"""Exact fronts by default: every built-in DCIM space enumerates.

The exponent encoding keeps each DCIM space at the paper's bounds to at
most 672 genomes, under :data:`DEFAULT_EXHAUSTIVE_THRESHOLD`, so the
explorer, campaigns and :meth:`SegaDcim.compile` all return the exact
enumerated front unless the GA is forced (``exhaustive_threshold=0`` /
``exhaustive=False``).
"""

import pytest

from repro import DcimSpec, SegaDcim
from repro.core.precision import STANDARD_PRECISIONS
from repro.dse.explorer import (
    DEFAULT_EXHAUSTIVE_THRESHOLD,
    DesignSpaceExplorer,
)
from repro.dse.genome import GenomeCodec
from repro.dse.nsga2 import NSGA2Config
from repro.dse.problem import DcimProblem
from repro.service import CampaignConfig, CampaignRequest, run_campaign
from repro.service.campaign import execute_request
from repro.service.events import EventKind

WSTORES = [1 << e for e in range(12, 19)]  # 4K .. 256K
PRECISIONS = list(STANDARD_PRECISIONS)
CELLS = [(w, p) for p in PRECISIONS for w in WSTORES]


def design_key(point):
    return (point.n, point.h, point.l, point.k)


def reference_enumerate(codec: GenomeCodec) -> list:
    """The codec's enumeration as first written: every (a, b) cell, c
    from the sum constraint, bounds re-read through the properties."""
    out = []
    for a in range(codec.min_a, codec.max_a + 1):
        for b in range(0, codec.max_b + 1):
            c = codec.total_exponent - a - b
            if 0 <= c <= codec.max_c:
                for k_idx in range(len(codec.k_choices)):
                    out.append((a, b, c, k_idx))
    return out


class TestEnumerationParity:
    @pytest.mark.parametrize("max_n", [None, 512])
    @pytest.mark.parametrize("wstore,precision", CELLS)
    def test_same_genomes_in_the_same_order(self, wstore, precision, max_n):
        codec = GenomeCodec(
            DcimSpec(wstore=wstore, precision=precision, max_n=max_n)
        )
        assert codec.enumerate() == reference_enumerate(codec)

    def test_custom_bounds(self):
        for spec in (
            DcimSpec(wstore=1 << 20, precision="FP32", max_l=1 << 12,
                     max_h=1 << 12, min_n_factor=0),
            DcimSpec(wstore=1 << 14, precision="INT8", max_l=2, max_h=8),
            DcimSpec(wstore=1 << 12, precision="INT4", max_n=64),
        ):
            codec = GenomeCodec(spec)
            assert codec.enumerate() == reference_enumerate(codec)


class TestDefaultStrategy:
    def test_threshold_covers_every_default_space(self):
        largest = max(
            len(GenomeCodec(DcimSpec(wstore=1 << e, precision=p)).enumerate())
            for p in PRECISIONS
            for e in range(12, 40)
        )
        assert largest == 672
        assert largest <= DEFAULT_EXHAUSTIVE_THRESHOLD

    @pytest.mark.parametrize("wstore,precision", CELLS)
    def test_every_cell_enumerates_its_exact_front(self, wstore, precision):
        spec = DcimSpec(wstore=wstore, precision=precision)
        explorer = DesignSpaceExplorer()
        assert explorer.plan(spec).strategy == "exhaustive"
        result = explorer.explore_auto(spec, seed=0)
        assert result.strategy == "exhaustive"
        assert result.generations_run == 0
        points, objectives = DcimProblem(spec).exhaustive_front_with_objectives()
        got = dict(zip(map(design_key, result.points), map(tuple, result.objectives)))
        assert got == dict(zip(map(design_key, points), objectives))

    def test_fp32_256k_exact_front_beats_the_default_ga(self):
        spec = DcimSpec(wstore=256 * 1024, precision="FP32")
        exact = DesignSpaceExplorer().explore_auto(spec, seed=0)
        ga = DesignSpaceExplorer().explore(spec, seed=0)
        assert exact.strategy == "exhaustive" and ga.strategy == "ga"
        assert exact.front_hypervolume() >= ga.front_hypervolume()

    def test_none_threshold_means_the_default(self):
        assert (
            DesignSpaceExplorer(exhaustive_threshold=None).exhaustive_threshold
            == DEFAULT_EXHAUSTIVE_THRESHOLD
        )
        assert (
            CampaignConfig(exhaustive_threshold=None).exhaustive_threshold
            == DEFAULT_EXHAUSTIVE_THRESHOLD
        )

    def test_none_picks_the_same_strategy_on_both_paths(self):
        spec = {"wstore": 8 * 1024, "precision": "INT8"}
        wire = execute_request(
            CampaignRequest(
                specs=(spec,), population_size=8, generations=2,
                exhaustive_threshold=None,
            )
        )
        direct = run_campaign(
            [DcimSpec(**spec)],
            CampaignConfig(
                nsga2=NSGA2Config(population_size=8, generations=2),
                exhaustive_threshold=None,
            ),
        )
        assert wire.strategies == direct.strategies == ("exhaustive",)


class TestEnumeratedOnce:
    def counting_explorer(self, calls, **kwargs):
        class CountingProblem(DcimProblem):
            def enumerate_genomes(self):
                calls.append(self.spec)
                return super().enumerate_genomes()

        return DesignSpaceExplorer(
            problem_factory=lambda spec: CountingProblem(spec), **kwargs
        )

    def test_explore_auto_enumerates_each_spec_once(self):
        calls = []
        spec = DcimSpec(wstore=8 * 1024, precision="INT8")
        result = self.counting_explorer(calls).explore_auto(spec)
        assert result.strategy == "exhaustive"
        assert calls == [spec]

    def test_plan_hands_its_genomes_to_explore_exhaustive(self):
        calls = []
        spec = DcimSpec(wstore=8 * 1024, precision="INT8")
        explorer = self.counting_explorer(calls)
        plan = explorer.plan(spec)
        assert plan.strategy == "exhaustive"
        assert len(plan.genomes) == 224
        result = explorer.explore_exhaustive(spec, plan=plan)
        assert result.evaluations == 224
        assert calls == [spec]

    def test_forced_ga_never_enumerates(self):
        calls = []
        explorer = self.counting_explorer(calls, exhaustive_threshold=0)
        plan = explorer.plan(DcimSpec(wstore=8 * 1024, precision="INT8"))
        assert plan.strategy == "ga" and plan.genomes is None
        assert calls == []


class TestCampaignDefault:
    def test_fp32_256k_campaign_is_exhaustive(self):
        events = []
        result = run_campaign(
            [DcimSpec(wstore=256 * 1024, precision="FP32")],
            observer=events.append,
        )
        assert result.strategies == ("exhaustive",)
        assert result.results[0].generations_run == 0
        assert not any(e.kind is EventKind.GENERATION_DONE for e in events)
        points, _ = DcimProblem(
            DcimSpec(wstore=256 * 1024, precision="FP32")
        ).exhaustive_front_with_objectives()
        assert {design_key(p) for p in result.merged_points} == set(
            map(design_key, points)
        )


class TestCompilerDefault:
    SPEC = DcimSpec(wstore=256 * 1024, precision="FP32")

    @pytest.fixture(scope="class")
    def compiler(self):
        return SegaDcim()

    def test_compile_enumerates_by_default(self, compiler):
        result = compiler.compile(self.SPEC, generate=False, layout=False)
        assert result.exploration.strategy == "exhaustive"
        exact = {design_key(p) for p in DcimProblem(self.SPEC).exhaustive_front()}
        assert {design_key(p) for p in result.exploration.points} == exact

    def test_exhaustive_false_forces_the_ga(self, compiler):
        result = compiler.compile(
            self.SPEC, exhaustive=False, generate=False, layout=False
        )
        assert result.exploration.strategy == "ga"
        assert result.exploration.generations_run > 0

    def test_exhaustive_true_always_enumerates(self):
        spec = DcimSpec(wstore=1 << 24, precision="INT8", max_l=1 << 12,
                        max_h=1 << 12, min_n_factor=0)
        compiler = SegaDcim(config=NSGA2Config(population_size=8, generations=2))
        compiler.explorer.exhaustive_threshold = 16
        assert compiler.explore(spec).strategy == "ga"
        assert compiler.explore(spec, exhaustive=True).strategy == "exhaustive"

    def test_compile_mixed_enumerates_by_default(self, compiler):
        result = compiler.compile_mixed(
            wstore=8 * 1024, precisions=["INT8", "BF16"]
        )
        assert [e.strategy for e in result.extras["explorations"]] == [
            "exhaustive", "exhaustive",
        ]
