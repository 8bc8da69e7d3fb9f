"""System-level study: how many macros, and how to schedule them.

Takes the Transformer-block workload, compiles a macro for it, then
sweeps the number of macro instances under both schedules (sequential
data-parallel vs layer-pipelined) — the system-sizing question that
follows once the paper's compiler has produced a macro.

Usage::

    python examples/multi_macro_system.py
"""

from repro import SegaDcim
from repro.reporting import ascii_table
from repro.workloads import (
    macros_for_residency,
    map_system,
    recommend_spec,
    transformer_block,
)


def main() -> None:
    layers = transformer_block(d_model=256, seq_len=128)
    compiler = SegaDcim()
    spec = recommend_spec(layers, "INT8")
    result = compiler.compile(spec, generate=False, layout=False)
    design = result.selected
    print(f"Macro: {design.describe()}")
    print(f"Tiles for full residency: {macros_for_residency(layers, design)} macros\n")

    rows = []
    for n_macros in (1, 2, 4, 8):
        for schedule in ("sequential", "pipelined"):
            sm = map_system(layers, design, compiler.tech, n_macros, schedule)
            rows.append(
                (
                    n_macros,
                    schedule,
                    f"{sm.latency_us:.1f}",
                    f"{sm.throughput_inferences_s:.0f}",
                    f"{sm.energy_uj:.1f}",
                    f"{sm.area_mm2:.2f}",
                )
            )
    print(
        ascii_table(
            ["macros", "schedule", "latency_us", "inferences/s",
             "energy_uJ/inf", "area_mm2"],
            rows,
        )
    )
    print(
        "\nSequential scheduling cuts latency until per-layer passes run\n"
        "out; pipelining trades single-inference latency for steady-state\n"
        "throughput at the same energy per inference."
    )


if __name__ == "__main__":
    main()
