"""MOGA-based design space explorer (Fig. 4 centre block).

Explores a specification — by exact enumeration when its design space
is enumerable and within :data:`DEFAULT_EXHAUSTIVE_THRESHOLD` (every
DCIM space at the paper's bounds), by NSGA-II otherwise — decodes the
resulting front into :class:`~repro.core.spec.DesignPoint` objects,
and can merge fronts from several specifications (e.g. an INT and an
FP candidate precision for the same application) into one
cross-architecture frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.core.pareto import hypervolume, normalize_objectives, pareto_front
from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.nsga2 import (
    NSGA2Config,
    NSGA2Result,
    ProgressObserver,
    nsga2,
)
from repro.dse.problem import DcimProblem
from repro.tech.cells import CellLibrary

__all__ = [
    "DEFAULT_EXHAUSTIVE_THRESHOLD",
    "ExplorationPlan",
    "ExplorationResult",
    "DesignSpaceExplorer",
    "merge_exploration_results",
]

#: Largest enumerable design space (decoded genome count) that defaults
#: to exhaustive enumeration instead of the GA.  Every DCIM space at the
#: paper's default bounds enumerates well under it (12 H x 7 L values
#: times the k choices: at most 672 genomes, for FP32), and 4096 is at
#: least the 64 x 60 = 3840 breeding steps of a default NSGA-II run.
#: Measured on a 2-vCPU Xeon VM (median of 5): FP32 256K enumerates
#: 648 genomes in 15 ms against 156 ms for the default GA; custom bounds
#: reach parity near 3k genomes (3088: 184 vs 179 ms), and at 4224
#: genomes enumeration takes 266 ms against the GA's 166 ms, still exact
#: (594 front points against the GA's 278).  Above that the quadratic
#: Pareto filter dominates (6888 genomes: 728 vs 201 ms), so larger
#: spaces run the GA.
DEFAULT_EXHAUSTIVE_THRESHOLD = 4096


class ExplorationPlan(NamedTuple):
    """How one spec will be explored (:meth:`DesignSpaceExplorer.plan`).

    Attributes:
        strategy: ``"exhaustive"`` or ``"ga"``.
        problem: the spec's problem object, built once for both the
            choice and the exploration.
        genomes: the enumerated design space on the exhaustive path
            (``None`` on the GA path).
    """

    strategy: str
    problem: object
    genomes: list | None


@dataclass
class ExplorationResult:
    """The Pareto frontier for one specification.

    Attributes:
        spec: the explored specification.
        points: non-dominated design points, sorted by area.
        objectives: matching ``[A, D, E, -T]`` normalised objective rows.
        evaluations: objective evaluations spent by the GA.
        history: per-generation rank-0 objective snapshots.
        generations_run: GA generations actually completed (fewer than
            configured when the run was cancelled).
        stopped_early: True when a ``should_stop`` hook ended the GA
            before all configured generations.
        strategy: how the frontier was obtained — ``"ga"`` (NSGA-II) or
            ``"exhaustive"`` (full enumeration; exact by construction).
    """

    spec: DcimSpec
    points: list[DesignPoint]
    objectives: np.ndarray
    evaluations: int = 0
    history: list[list[tuple[float, ...]]] = field(default_factory=list)
    generations_run: int = 0
    stopped_early: bool = False
    strategy: str = "ga"

    def __len__(self) -> int:
        return len(self.points)

    def front_hypervolume(self) -> float:
        """Hypervolume of the normalised front w.r.t. the (1.1, ...) box.

        A scalar front-quality figure used by the convergence ablation.
        """
        if len(self.points) == 0:
            return 0.0
        unit = normalize_objectives(self.objectives)
        return hypervolume(unit, [1.1] * unit.shape[1])


class DesignSpaceExplorer:
    """Drives NSGA-II per architecture and merges the outcomes.

    Args:
        library: normalised cell library (the "Customized Cell Library"
            input of Fig. 4).
        config: NSGA-II hyper-parameters.
        cache: optional shared persistent evaluation cache
            (:class:`repro.service.cache.EvaluationCache`); evaluations
            are served from and written back to it.
        executor: optional batch executor
            (:class:`repro.service.executor.BatchExecutor`) that
            evaluates each generation's new genomes.
        problem_factory: optional ``spec -> problem`` hook replacing the
            default :class:`DcimProblem` construction; this is how the
            campaign layer dispatches through the
            :mod:`repro.problems` registry.  The returned object must
            implement the :class:`~repro.dse.nsga2.Problem` protocol
            plus ``decode``.
        exhaustive_threshold: largest enumerable design space
            :meth:`explore_auto` resolves to exhaustive enumeration;
            ``None`` means :data:`DEFAULT_EXHAUSTIVE_THRESHOLD`, and
            ``0`` disables the exhaustive default and always runs the
            GA.
    """

    def __init__(
        self,
        library: CellLibrary | None = None,
        config: NSGA2Config | None = None,
        cache=None,
        executor=None,
        problem_factory: Callable | None = None,
        exhaustive_threshold: int | None = DEFAULT_EXHAUSTIVE_THRESHOLD,
    ) -> None:
        self.library = library or CellLibrary.default()
        self.config = config or NSGA2Config()
        self.cache = cache
        self.executor = executor
        self.problem_factory = problem_factory
        self.exhaustive_threshold = (
            DEFAULT_EXHAUSTIVE_THRESHOLD
            if exhaustive_threshold is None
            else exhaustive_threshold
        )

    def _problem(self, spec: DcimSpec) -> DcimProblem:
        if self.problem_factory is not None:
            return self.problem_factory(spec)
        return DcimProblem(spec, self.library)

    def _evaluator(self, problem: DcimProblem):
        if self.cache is None and self.executor is None:
            return None
        from repro.service.executor import ProblemEvaluator

        return ProblemEvaluator(problem, cache=self.cache, executor=self.executor)

    def explore(
        self,
        spec: DcimSpec,
        seed: int | None = None,
        observer: ProgressObserver | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> ExplorationResult:
        """Explore one specification and return its Pareto frontier.

        Args:
            observer: forwarded to :func:`repro.dse.nsga2.nsga2` — called
                with a :class:`~repro.dse.nsga2.GenerationProgress` after
                each generation; attaching one never changes the result.
            should_stop: cooperative cancellation hook polled between
                generations; a stopped run returns the frontier over
                everything evaluated so far (``stopped_early=True``).
        """
        problem = self._problem(spec)
        config = self.config
        if seed is not None:
            config = replace(config, seed=seed)
        result: NSGA2Result = nsga2(
            problem,
            config,
            evaluator=self._evaluator(problem),
            observer=observer,
            should_stop=should_stop,
        )
        points = [problem.decode(ind.genome) for ind in result.front]
        objectives = [ind.objectives for ind in result.front]
        order = np.argsort([o[0] for o in objectives]) if objectives else []
        points = [points[i] for i in order]
        objectives = [objectives[i] for i in order]
        return ExplorationResult(
            spec=spec,
            points=points,
            objectives=np.array(objectives, dtype=float).reshape(len(points), -1),
            evaluations=result.evaluations,
            history=result.history,
            generations_run=result.generations_run,
            stopped_early=result.stopped_early,
        )

    def plan(self, spec: DcimSpec) -> ExplorationPlan:
        """Build the spec's problem and pick its exploration strategy.

        Exhaustive wins when the problem can enumerate its genomes (the
        optional ``enumerate_genomes`` hook) and the space is no larger
        than ``exhaustive_threshold``; everything else runs the GA.  The
        space is enumerated once: hand the plan to
        :meth:`explore_exhaustive` to evaluate the very genomes that
        sized it.
        """
        problem = self._problem(spec)
        if self.exhaustive_threshold and hasattr(problem, "enumerate_genomes"):
            genomes = problem.enumerate_genomes()
            if len(genomes) <= self.exhaustive_threshold:
                return ExplorationPlan("exhaustive", problem, genomes)
        return ExplorationPlan("ga", problem, None)

    def explore_auto(
        self,
        spec: DcimSpec,
        seed: int | None = None,
        observer: ProgressObserver | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> ExplorationResult:
        """Explore one spec with the strategy :meth:`plan` picks.

        Enumerable spaces up to the threshold get the exact exhaustive
        frontier (the GA could only ever approximate it); larger or
        non-enumerable spaces run NSGA-II.  The chosen strategy is
        recorded on the result.
        """
        plan = self.plan(spec)
        if plan.strategy == "exhaustive":
            return self.explore_exhaustive(spec, should_stop=should_stop, plan=plan)
        return self.explore(
            spec, seed=seed, observer=observer, should_stop=should_stop
        )

    def explore_exhaustive(
        self,
        spec: DcimSpec,
        should_stop: Callable[[], bool] | None = None,
        *,
        plan: ExplorationPlan | None = None,
    ) -> ExplorationResult:
        """Exact frontier by enumeration (baseline / small spaces).

        Evaluation routes through the same cached batch evaluator the GA
        uses, so an exhaustive run both warms and is served by the
        shared evaluation cache.  ``evaluations`` counts the full
        enumeration (every genome is requested, wherever it is served
        from).  An exhaustive ``plan`` from :meth:`plan` supplies the
        problem and genomes, so the spec is not built or enumerated
        again.
        """
        if plan is not None and plan.genomes is not None:
            problem, genomes = plan.problem, plan.genomes
        else:
            problem, genomes = self._problem(spec), None
            if not hasattr(problem, "enumerate_genomes"):
                raise ValueError(
                    f"problem {type(problem).__name__} cannot enumerate its "
                    "design space; run the GA instead"
                )
        if should_stop is not None and should_stop():
            return ExplorationResult(
                spec=spec,
                points=[],
                objectives=np.empty((0, 0)),
                stopped_early=True,
                strategy="exhaustive",
            )
        if genomes is None:
            genomes = problem.enumerate_genomes()
        evaluator = self._evaluator(problem)
        if evaluator is not None:
            objectives = list(evaluator.evaluate_batch(genomes))
        else:
            objectives = list(problem.evaluate_batch(genomes))
        front = pareto_front(list(zip(genomes, objectives)), objectives)
        points = [problem.decode(g) for g, _ in front]
        kept = [o for _, o in front]
        order = np.argsort([o[0] for o in kept]) if kept else []
        points = [points[i] for i in order]
        kept = [kept[i] for i in order]
        return ExplorationResult(
            spec=spec,
            points=points,
            objectives=np.array(kept, dtype=float).reshape(len(points), -1),
            evaluations=len(genomes),
            strategy="exhaustive",
        )

    def explore_many(
        self, specs: list[DcimSpec], seed: int | None = None
    ) -> list[ExplorationResult]:
        """Explore several specifications (one NSGA-II run each)."""
        return [
            self.explore(spec, None if seed is None else seed + i)
            for i, spec in enumerate(specs)
        ]

    @staticmethod
    def merge_fronts(results: list[ExplorationResult]) -> list[DesignPoint]:
        """Cross-architecture non-dominated merge of several frontiers.

        This yields the paper's "high-quality Pareto-frontier set
        containing both integer and floating-point solutions": objective
        vectors from all runs compete in one dominance filter.
        """
        return merge_exploration_results(results)[0]


def merge_exploration_results(
    results: list[ExplorationResult],
) -> tuple[list[DesignPoint], np.ndarray]:
    """Merge several frontiers into one dominance-filtered, area-sorted set.

    The single merge implementation shared by
    :meth:`DesignSpaceExplorer.merge_fronts` and the campaign runner:
    one :func:`~repro.core.pareto.pareto_front` call over the
    concatenated fronts, carrying the objective rows alongside and
    sorting by area (objective 0) like :class:`ExplorationResult` does.
    """
    points: list[DesignPoint] = []
    objectives: list[tuple[float, ...]] = []
    for result in results:
        points.extend(result.points)
        objectives.extend(map(tuple, result.objectives))
    if not points:
        return [], np.empty((0, 0))
    merged = pareto_front(list(zip(points, objectives)), objectives)
    merged.sort(key=lambda po: po[1][0])
    merged_points = [p for p, _ in merged]
    merged_objs = np.array([o for _, o in merged], dtype=float)
    return merged_points, merged_objs
