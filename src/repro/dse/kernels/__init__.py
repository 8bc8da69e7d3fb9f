"""Array-native NSGA-II primitives.

The GA's per-generation bookkeeping — non-dominated sorting, crowding
distance, the archive front filter — is the dominant cost now that
evaluation is batched.  :mod:`repro.dse.kernels.numpy` implements those
primitives on float64 arrays: an O(M·N²) dominance matrix built one
objective column at a time, and stable argsorts per objective.
:mod:`repro.dse.kernels.python` is the pure-Python reference they are
tested against; it returns the same ranks, the same front orders
(including every tie-break) and the same float64 crowding values, and
nothing at run time uses it.

The *variation* operators (tournament, uniform crossover, step
mutation) and the hash-based archive dedup live here as shared code:
they draw from the run's single ``random.Random`` stream in a frozen
order (tournament × 2, crossover, then per child mutation + repair),
and the problem's ``repair`` hook consumes that stream too, so
vectorising them would change per-seed results.  They operate on the
parallel rank/crowding arrays the sort kernels produce, which is what
makes the whole loop array-native.

:class:`GAKernels` is the facade ``nsga2()`` drives; it times every
sort/crowding call into the ``repro_ga_sort_seconds`` /
``repro_ga_crowding_seconds`` histograms of the process metrics
registry.  Timing happens outside all rng draws, so instrumentation
never perturbs a run.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

import numpy as np

from repro.dse.kernels import numpy as _array_kernels
from repro.obs.metrics import get_registry

__all__ = [
    "GAKernels",
    "tournament_index",
    "uniform_crossover",
    "step_mutation",
    "breed_offspring",
    "novel_genomes",
]

Genome = tuple[int, ...]


class GAKernels:
    """Sort/crowding/front kernels plus their instrumentation.

    Args:
        registry: metrics registry to time kernel calls into; defaults
            to the process registry
            (:func:`repro.obs.metrics.get_registry`).  With the null
            registry every observation is a no-op.
    """

    _impl = _array_kernels

    def __init__(self, registry=None) -> None:
        registry = get_registry() if registry is None else registry
        self._sort_seconds = registry.histogram(
            "repro_ga_sort_seconds",
            "Wall time of one non-dominated sort kernel call",
        ).labels()
        self._crowding_seconds = registry.histogram(
            "repro_ga_crowding_seconds",
            "Wall time of one crowding-distance kernel call",
        ).labels()

    def as_matrix(self, objectives: Sequence[Sequence[float]]) -> np.ndarray:
        """(N, M) float64 array (exact conversion from CPython floats)."""
        if not len(objectives):
            return np.empty((0, 0), dtype=float)
        return np.asarray(objectives, dtype=float)

    def nondominated_sort(self, matrix) -> tuple[list[int], list[list[int]]]:
        """(ranks, fronts-as-index-lists) for an ``as_matrix`` result."""
        start = time.perf_counter()
        result = self._impl.nondominated_sort(matrix)
        self._sort_seconds.observe(time.perf_counter() - start)
        return result

    def crowding(self, matrix, front: Sequence[int]) -> tuple[list[int], list[float]]:
        """(post-sort permutation, crowding per position) for one front."""
        start = time.perf_counter()
        result = self._impl.crowding(matrix, front)
        self._crowding_seconds.observe(time.perf_counter() - start)
        return result

    def pareto_filter(self, matrix) -> list[int]:
        """Non-dominated row indices in input order (archive front)."""
        start = time.perf_counter()
        result = self._impl.pareto_filter(matrix)
        self._sort_seconds.observe(time.perf_counter() - start)
        return result


# Variation operators ------------------------------------------------------
#
# These are deliberately *not* vectorised: they share one Random stream
# with the problem's repair hook in a frozen draw order, which is the
# bit-parity contract.  They consume the rank/crowding arrays the sort
# kernels produce.


def tournament_index(
    rng: random.Random, ranks: Sequence[int], crowding: Sequence[float]
) -> int:
    """Binary tournament on (rank, crowding); returns the winning index.

    Consumes exactly one ``rng.sample`` of two indices — the same draw
    the pre-kernel implementation made over the population list.
    """
    i, j = rng.sample(range(len(ranks)), 2)
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    return i if crowding[i] > crowding[j] else j


def uniform_crossover(
    rng: random.Random, mother: Genome, father: Genome, prob: float
) -> tuple[Genome, Genome]:
    """Per-gene uniform crossover (one skip draw, then one per gene)."""
    if rng.random() >= prob:
        return mother, father
    child_a = list(mother)
    child_b = list(father)
    for i in range(len(mother)):
        if rng.random() < 0.5:
            child_a[i], child_b[i] = child_b[i], child_a[i]
    return tuple(child_a), tuple(child_b)


def step_mutation(
    rng: random.Random, genome: Genome, steps: Sequence[int], prob: float
) -> Genome:
    """Random-step mutation (one gate draw per gene, one step when hit)."""
    genes = list(genome)
    for i, step in enumerate(steps):
        if rng.random() < prob:
            delta = rng.randint(-step, step)
            genes[i] += delta
    return tuple(genes)


def breed_offspring(
    rng: random.Random,
    genomes: Sequence[Genome],
    ranks: Sequence[int],
    crowding: Sequence[float],
    steps: Sequence[int],
    crossover_prob: float,
    mutation_prob: float,
    repair: Callable[[Genome, random.Random], Genome],
    count: int,
) -> list[Genome]:
    """Breed a full offspring batch from parallel population arrays.

    Per pair the rng stream is: tournament × 2, crossover draws, then
    for each child the mutation draws followed by ``repair`` (which may
    draw too).  The loop overshoots by at most one child and truncates,
    exactly like the pre-kernel implementation.
    """
    children: list[Genome] = []
    while len(children) < count:
        mother = genomes[tournament_index(rng, ranks, crowding)]
        father = genomes[tournament_index(rng, ranks, crowding)]
        for child in uniform_crossover(rng, mother, father, crossover_prob):
            child = step_mutation(rng, child, steps, mutation_prob)
            children.append(repair(child, rng))
    return children[:count]


def novel_genomes(
    genomes: Sequence[Genome], known: Sequence[Genome] | dict
) -> list[Genome]:
    """Hash-based archive dedup: unseen genomes in first-seen order.

    ``known`` is anything supporting ``in`` by genome (the run's
    archive dict).  Duplicates within ``genomes`` collapse to their
    first occurrence — the order the evaluator batch receives.
    """
    pending: dict[Genome, None] = {}
    for genome in genomes:
        if genome not in known and genome not in pending:
            pending[genome] = None
    return list(pending)
