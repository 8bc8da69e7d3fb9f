"""Output checks: the benchmark's own exact fronts and front comparisons.

The exact front of a DCIM spec is computed here, independently of the
program's Pareto code (``repro.core.pareto`` is never called): every
genome of the spec is enumerated through the problem's codec, scored
through the problem's cost model, and filtered with a naive dominance
loop (each candidate against every other point).

A returned front is then held to three rules:

1. every returned point is a genuine design of one of the op's specs,
   with the objective vector that design really scores (a perturbed
   point fails);
2. no returned point dominates another;
3. every point of the exact merged front that comes from a spec the
   program explored exhaustively is returned (a dropped point fails).
   Points of GA-explored specs only count towards ``recall``: a GA
   front is approximate by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def naive_front(objectives: list[tuple]) -> set[tuple]:
    """Non-dominated vectors, by comparing each candidate with every point."""
    if not objectives:
        return set()
    matrix = np.asarray(objectives, dtype=float)
    keep = set()
    for row, vector in zip(matrix, objectives):
        no_worse = (matrix <= row).all(axis=1)
        better = (matrix < row).any(axis=1)
        if not (no_worse & better).any():
            keep.add(tuple(vector))
    return keep


def spec_key(spec) -> tuple:
    return (spec.wstore, spec.precision.name, spec.max_l, spec.max_h,
            spec.min_n_factor, spec.max_n)


def design_key(precision, n, h, l, k) -> tuple:
    name = precision if isinstance(precision, str) else precision.name
    return (name, int(n), int(h), int(l), int(k))


@dataclass
class SpecSpace:
    """One spec's enumerated space and exact front."""

    pairs: set = field(default_factory=set)
    front: set = field(default_factory=set)


class ExactFronts:
    """Exact per-spec fronts, enumerated once per spec and kept."""

    def __init__(self) -> None:
        self._spaces: dict[tuple, SpecSpace] = {}

    def space(self, spec) -> SpecSpace:
        key = spec_key(spec)
        space = self._spaces.get(key)
        if space is None:
            from repro.dse.problem import DcimProblem

            problem = DcimProblem(spec)
            genomes = problem.enumerate_genomes()
            objectives = [tuple(o) for o in problem.evaluate_batch(genomes)]
            pairs = set()
            for genome, vector in zip(genomes, objectives):
                point = problem.decode(genome)
                pairs.add((design_key(point.precision, point.n, point.h, point.l, point.k), vector))
            space = SpecSpace(pairs=pairs, front=naive_front(objectives))
            self._spaces[key] = space
        return space

    def check(self, returned: list[tuple[tuple, tuple]], specs, strategies) -> "FrontCheck":
        """Hold ``returned`` (design key, objectives) pairs to the rules."""
        spaces = [self.space(spec) for spec in specs]
        known = set().union(*(s.pairs for s in spaces))
        errors = []
        foreign = [pair for pair in returned if pair not in known]
        if foreign:
            errors.append(f"{len(foreign)} returned point(s) are not designs of the specs "
                          f"with their true objectives, e.g. {foreign[0]}")
        vectors = [tuple(v) for _, v in returned]
        undominated = naive_front(vectors)
        dominated = [v for v in vectors if v not in undominated]
        if dominated:
            errors.append(f"{len(dominated)} returned point(s) are dominated by another returned point")
        candidates = set().union(*(s.front for s in spaces))
        exact = naive_front(sorted(candidates))
        got = set(vectors)
        recall = len(exact & got) / len(exact) if exact else 1.0
        required = set()
        for space, strategy in zip(spaces, strategies):
            if strategy == "exhaustive":
                required |= exact & space.front
        dropped = required - got
        if dropped:
            errors.append(f"{len(dropped)} exact-front point(s) of exhaustively explored specs "
                          "are missing")
        return FrontCheck(recall=recall, errors=errors)


@dataclass
class FrontCheck:
    recall: float
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def frontier_pairs(frontier) -> list[tuple[tuple, tuple]]:
    """(design key, objectives) pairs of API ``FrontierPoint`` records."""
    return [
        (design_key(p.precision, p.n, p.h, p.l, p.k), tuple(p.objectives))
        for p in frontier
    ]


def design_pairs(points, objectives) -> list[tuple[tuple, tuple]]:
    """(design key, objectives) pairs of ``DesignPoint`` + objective rows."""
    return [
        (design_key(p.precision, p.n, p.h, p.l, p.k), tuple(float(x) for x in row))
        for p, row in zip(points, objectives)
    ]


def response_identity(response) -> dict:
    """The parts of a ``CampaignResponse`` that must be bit-identical.

    Wall time, cache counters and fresh-evaluation counts depend on
    what the server's cache already held, so they stay out.
    """
    payload = response.to_dict()
    return {
        key: payload[key]
        for key in ("frontier", "evaluations", "per_spec_evaluations",
                    "problem", "strategies", "ga_backend")
        if key in payload
    }
