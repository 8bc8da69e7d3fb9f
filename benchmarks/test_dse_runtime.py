"""Section IV runtime claims.

"The MOGA-based design exploration for a particular array size and
computing precision can be finished in 30 minutes" (on a Xeon server);
"each DCIM design can be generated within one hour".

Our analytical estimation models make both dramatically faster; the
bench records actual wall-clock for the paper-sized configuration
(Wstore=64K, full NSGA-II) and asserts the paper's budgets hold with
huge margin.
"""

import time
import timeit

from repro.core.spec import DcimSpec, DesignPoint
from repro.dse import DesignSpaceExplorer, NSGA2Config
from repro.dse.problem import DcimProblem, objectives_of
from repro.layout import PnrFlow
from repro.reporting import ascii_table
from repro.rtl import generate_rtl
from repro.tech import GENERIC28


def full_ga_run():
    explorer = DesignSpaceExplorer(
        config=NSGA2Config(population_size=64, generations=60, seed=0)
    )
    return explorer.explore(DcimSpec(wstore=64 * 1024, precision="INT8"))


def _engine_vs_scalar():
    """Time the batch engine against the seed scalar loop (full space).

    Returns (rows, speedup) with the batch result asserted bit-identical
    to the scalar loop first — a wrong-but-fast engine must fail here.
    """
    problem = DcimProblem(DcimSpec(wstore=64 * 1024, precision="INT8"))
    genomes = problem.codec.enumerate()
    codec, lib = problem.codec, problem.library

    def scalar_loop():
        return [objectives_of(codec.decode(g).macro_cost(lib)) for g in genomes]

    def batch_eval():
        return problem.evaluate_batch(genomes)

    assert batch_eval() == scalar_loop()  # also warms the component memo
    t_scalar = min(timeit.repeat(scalar_loop, number=1, repeat=5))
    t_batch = min(timeit.repeat(batch_eval, number=1, repeat=5))
    speedup = t_scalar / t_batch
    rows = [
        (f"evaluation core: scalar loop ({len(genomes)} genomes)", "-",
         f"{t_scalar * 1e3:.2f} ms"),
        ("evaluation core: batch engine",
         ">= 3x vs scalar", f"{t_batch * 1e3:.2f} ms ({speedup:.1f}x)"),
    ]
    return rows, speedup


def test_dse_runtime_budget(record):
    start = time.perf_counter()
    result = full_ga_run()
    elapsed = time.perf_counter() - start
    assert elapsed < 30 * 60  # the paper's 30-minute budget
    design = DesignPoint(precision="INT8", n=64, h=128, l=64, k=8)
    gen_start = time.perf_counter()
    rtl = generate_rtl(design)
    layout = PnrFlow(GENERIC28).run(design)
    gen_elapsed = time.perf_counter() - gen_start
    assert gen_elapsed < 60 * 60  # the paper's 1-hour budget
    engine_rows, speedup = _engine_vs_scalar()
    record(
        "dse_runtime",
        "Runtime vs the paper's budgets:\n"
        + ascii_table(
            ["stage", "budget", "measured"],
            [
                ("DSE (64K INT8, NSGA-II 64x60)", "30 min",
                 f"{elapsed:.2f} s ({result.evaluations} evals)"),
                ("generation (RTL + P&R)", "60 min",
                 f"{gen_elapsed * 1e3:.1f} ms ({len(rtl.modules)} modules, "
                 f"{layout.area_mm2:.3f} mm2)"),
            ]
            + engine_rows,
        ),
    )
    assert speedup >= 3.0


def test_batch_engine_benchmark(benchmark):
    problem = DcimProblem(DcimSpec(wstore=64 * 1024, precision="INT8"))
    genomes = problem.codec.enumerate()
    problem.evaluate_batch(genomes)  # warm the component memo
    result = benchmark(problem.evaluate_batch, genomes)
    assert len(result) == len(genomes)


def test_dse_benchmark(benchmark):
    result = benchmark(full_ga_run)
    assert len(result.points) > 20


def test_generation_benchmark(benchmark):
    design = DesignPoint(precision="BF16", n=64, h=128, l=64, k=8)

    def generate():
        return generate_rtl(design), PnrFlow(GENERIC28).run(design)

    rtl, layout = benchmark(generate)
    assert layout.area_mm2 > 0
