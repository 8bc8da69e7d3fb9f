"""GA kernel speedup gate: the point of the vectorisation PR.

Non-dominated sorting plus crowding on a GA-sized population
(256 individuals, 4 objectives — the paper-scale NSGA-II working set)
must run at least 3x faster through the numpy kernels than through the
pure-Python reference, while returning bit-identical ranks, orders and
crowding values.  The measured rows are appended to
``.benchmarks/results/dse_runtime.txt`` next to the evaluation-core speedups.
"""

import random
import struct
import timeit

from repro.dse.kernels import GAKernels
from repro.dse.kernels import python as py_kernels
from repro.obs.metrics import NULL_REGISTRY
from repro.reporting import ascii_table


class ReferenceKernels(GAKernels):
    """The facade driving the pure-Python reference kernels instead."""

    _impl = py_kernels

    def as_matrix(self, objectives):
        return objectives

POPULATION = 256  # parents + offspring of a paper-sized (128) GA
OBJECTIVES = 4  # [A, D, E, -T]
MARKER = "GA kernel sort+crowding"


def _population(seed=0):
    rng = random.Random(seed)
    # Quantised objectives: plenty of exact ties, like real fronts.
    return [
        tuple(round(rng.uniform(0.0, 10.0), 1) for _ in range(OBJECTIVES))
        for _ in range(POPULATION)
    ]


def _sort_and_crowd(kernels, objectives):
    """One generation's bookkeeping: full sort + crowding per front."""
    matrix = kernels.as_matrix(objectives)
    ranks, fronts = kernels.nondominated_sort(matrix)
    out = []
    for front in fronts:
        perm, dist = kernels.crowding(matrix, front)
        out.append((perm, dist))
    return ranks, fronts, out


def _bits(value):
    return struct.pack("<d", float(value))


def _append_section(results_dir, text):
    """Append our section to dse_runtime.txt, replacing a prior one."""
    path = results_dir / "dse_runtime.txt"
    existing = path.read_text() if path.exists() else ""
    if MARKER in existing:
        existing = existing[: existing.index(MARKER)].rstrip() + "\n"
    path.write_text(existing + ("\n" if existing else "") + text + "\n")
    print()
    print(text)


def test_numpy_kernels_speedup(results_dir):
    objectives = _population()
    np_k = GAKernels(registry=NULL_REGISTRY)
    py_k = ReferenceKernels(registry=NULL_REGISTRY)

    # Wrong-but-fast must fail before any timing happens.
    np_ranks, np_fronts, np_crowd = _sort_and_crowd(np_k, objectives)
    py_ranks, py_fronts, py_crowd = _sort_and_crowd(py_k, objectives)
    assert np_ranks == py_ranks
    assert np_fronts == py_fronts
    for (np_perm, np_dist), (py_perm, py_dist) in zip(np_crowd, py_crowd):
        assert np_perm == py_perm
        assert [_bits(v) for v in np_dist] == [_bits(v) for v in py_dist]

    t_python = min(
        timeit.repeat(
            lambda: _sort_and_crowd(py_k, objectives), number=1, repeat=5
        )
    )
    t_numpy = min(
        timeit.repeat(
            lambda: _sort_and_crowd(np_k, objectives), number=1, repeat=5
        )
    )
    speedup = t_python / t_numpy
    label = f"{POPULATION} individuals x {OBJECTIVES} objectives"
    _append_section(
        results_dir,
        f"{MARKER} ({label}):\n"
        + ascii_table(
            ["kernels", "gate", "measured"],
            [
                ("python reference", "-", f"{t_python * 1e3:.2f} ms"),
                (
                    "numpy kernels",
                    ">= 3x vs python",
                    f"{t_numpy * 1e3:.2f} ms ({speedup:.1f}x)",
                ),
            ],
        ),
    )
    assert speedup >= 3.0


def test_sort_crowding_benchmark(benchmark):
    objectives = _population()
    kernels = GAKernels(registry=NULL_REGISTRY)
    ranks, fronts, _ = benchmark(_sort_and_crowd, kernels, objectives)
    assert len(ranks) == POPULATION
    assert sum(len(f) for f in fronts) == POPULATION
