"""Edge CNN accelerator under a hard area budget.

Explores INT8 macros for a small CNN, distills the frontier with an
edge-class area budget (0.8 mm^2) and contrasts the distilled pick with
the unconstrained knee — demonstrating the "user distillation" stage of
the SEGA-DCIM flow (Fig. 4).

Usage::

    python examples/cnn_edge_int8.py
"""

from repro import DcimSpec, Requirements, SegaDcim
from repro.reporting import ascii_table
from repro.workloads import map_network, recommend_spec, tiny_cnn


def main() -> None:
    layers = tiny_cnn()
    compiler = SegaDcim()
    spec = recommend_spec(layers, "INT8")
    print(f"Workload: tiny CNN, largest layer -> Wstore={spec.wstore}")

    budget = Requirements(max_area_mm2=0.8)
    constrained = compiler.compile(
        spec, requirements=budget, strategy="max_tops",
        generate=False, layout=False,
    )
    unconstrained = compiler.compile(
        spec, strategy="knee", generate=False, layout=False,
    )

    rows = []
    for label, result in (("edge (<=0.8mm2)", constrained), ("knee", unconstrained)):
        mapping = map_network(layers, result.selected, compiler.tech)
        m = result.metrics
        rows.append(
            (
                label,
                result.selected.describe(),
                f"{m.layout_area_mm2:.3f}",
                f"{m.tops:.2f}",
                f"{m.tops_per_watt:.1f}",
                f"{mapping.latency_us:.0f}",
                f"{mapping.energy_uj:.1f}",
            )
        )
    print(
        ascii_table(
            ["pick", "design", "area_mm2", "peak_TOPS", "TOPS/W",
             "cnn_latency_us", "cnn_energy_uJ"],
            rows,
        )
    )
    print(
        f"\nFrontier had {len(unconstrained.exploration.points)} designs; "
        f"{len(constrained.distilled)} satisfied the edge budget."
    )


if __name__ == "__main__":
    main()
