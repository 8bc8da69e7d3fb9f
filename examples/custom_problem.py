"""Register a user-defined optimisation problem and serve it.

The campaign stack is problem-agnostic: anything registered with
:func:`repro.problems.register_problem` is reachable from
``run_campaign``, the v2 ``CampaignRequest`` wire format, the job
queue, the HTTP server (including ``GET /api/problems`` discovery) and
the run registry — without touching any of them.

This example registers a toy *accumulator buffer* sizing problem: pick
the bank count, words per bank and word width of an on-chip buffer,
trading total bit capacity against an analytic area/energy/latency
model.  It is deliberately tiny (no repo models involved) so the
registry contract itself is the whole story:

1. a frozen dataclass describes the JSON-able spec,
2. a problem object implements the NSGA-II protocol
   (``sample``/``repair``/``evaluate``/``mutation_steps``/``decode``),
3. a :class:`~repro.problems.ProblemDefinition` subclass binds the two
   plus objective metadata, and registers itself.

Run with: ``PYTHONPATH=src python examples/custom_problem.py``
"""

import random
from dataclasses import dataclass

from repro.dse.nsga2 import NSGA2Config
from repro.problems import (
    GASizing,
    ProblemDefinition,
    SpecValidationError,
    problem_names,
    register_problem,
)
from repro.service import CampaignConfig, CampaignRequest, JobQueue, run_campaign

# 1. The JSON-able specification -----------------------------------------


@dataclass(frozen=True)
class BufferSpec:
    """What the user asks of the buffer: capacity and a width ceiling."""

    min_kibit: int = 64
    max_width: int = 64

    def __post_init__(self) -> None:
        if self.min_kibit < 1:
            raise ValueError(f"min_kibit must be >= 1, got {self.min_kibit}")
        if self.max_width < 8:
            raise ValueError(f"max_width must be >= 8, got {self.max_width}")


# 2. The GA-facing problem object ----------------------------------------


class BufferProblem:
    """Genome ``(banks_exp, words_exp, width_exp)``; all powers of two."""

    def __init__(self, spec: BufferSpec) -> None:
        self.spec = spec
        # 1..32 banks, 16..4096 words, 8..max_width bits: the width
        # ceiling lives in the genome bounds, so every genome decodes
        # to exactly the design that was scored.
        max_width_exp = max(spec.max_width.bit_length() - 1, 3)
        self.BOUNDS = ((0, 5), (4, 12), (3, max_width_exp))

    def sample(self, rng: random.Random):
        return tuple(rng.randint(lo, hi) for lo, hi in self.BOUNDS)

    def repair(self, genome, rng: random.Random):
        return tuple(
            min(max(g, lo), hi) for g, (lo, hi) in zip(genome, self.BOUNDS)
        )

    def mutation_steps(self):
        return (1, 2, 1)

    def decode(self, genome):
        banks, words, width = (1 << g for g in genome)
        return {"banks": banks, "words": words, "width": width}

    def evaluate(self, genome):
        banks, words, width = (1 << g for g in genome)
        kibit = banks * words * width / 1024
        # Toy analytics: area grows with bits plus per-bank overhead,
        # energy with word width, latency shrinks with banking.
        area = kibit * (1.0 + 0.05 * banks)
        energy = width * (1.0 + words / 4096)
        latency = words / banks
        shortfall = max(0.0, self.spec.min_kibit - kibit)
        penalty = 1e3 * shortfall  # soft capacity constraint
        return (area + penalty, energy + penalty, latency + penalty)

    def evaluate_batch(self, genomes):
        return [self.evaluate(g) for g in genomes]


# 3. The registry entry ---------------------------------------------------


class BufferDefinition(ProblemDefinition):
    name = "buffer"
    title = "Accumulator buffer sizing (example)"
    description = "Toy banks x words x width sizing with analytic costs."
    objectives = ("area", "energy", "latency")
    spec_type = BufferSpec
    sizing = GASizing(population_size=16, generations=10)

    def to_spec(self, spec_request):
        return spec_request  # the wire form is already concrete

    def spec_label(self, spec):
        return f"buffer:{spec.min_kibit}Kib"

    def parse_cli_spec(self, text):
        try:
            return BufferSpec(min_kibit=int(text))
        except ValueError as exc:
            raise SpecValidationError(self.name, str(exc)) from None

    def make_problem(self, spec, library=None):
        return BufferProblem(spec)


def main() -> None:
    register_problem(BufferDefinition())
    print(f"registered problems: {', '.join(problem_names())}\n")

    # Programmatic campaign through the generic runner.
    result = run_campaign(
        [BufferSpec(min_kibit=64)],
        CampaignConfig(
            nsga2=NSGA2Config(population_size=16, generations=10),
            problem="buffer",
        ),
    )
    print(f"front of {len(result.merged_points)} buffer designs "
          f"({result.evaluations} evaluations):")
    for point, objectives in zip(
        result.merged_points[:5], result.merged_objectives[:5]
    ):
        area, energy, latency = objectives
        print(f"  {point['banks']:>2} banks x {point['words']:>4} words "
              f"x {point['width']:>3}b -> area {area:7.1f}  "
              f"energy {energy:6.1f}  latency {latency:6.1f}")

    # The same problem through the wire format and the job queue — this
    # is exactly what the HTTP server would execute for a POSTed v2
    # payload {"schema_version": 2, "problem": "buffer", ...}.
    request = CampaignRequest(
        problem="buffer",
        specs=({"min_kibit": 128},),
        population_size=16,
        generations=8,
    )
    queue = JobQueue()
    job_id = queue.submit(request)
    queue.run_all()
    response = queue.result(job_id)
    print(f"\nvia the job queue: {len(response.frontier)} frontier points "
          f"for problem {response.problem!r} "
          f"(fingerprint {request.fingerprint()[:12]}...)")


if __name__ == "__main__":
    main()
