"""Full signoff flow: compile, then verify every artifact like a tapeout.

Runs the complete SEGA-DCIM pipeline for a BF16 macro and then the
signoff battery this reproduction provides:

1. Verilog lint (elaboration substitute) of the generated bundle,
2. DRC + LVS on the mock-P&R layout,
3. gate-level equivalence of the datapath vs the golden model,
4. static timing analysis of the gate-level adder tree vs the
   estimation model's array-stage delay,
5. toggle-measured switching power at the paper's sparsity,
6. Monte-Carlo parametric yield, and
7. artifact workspace with manifest.

Usage::

    python examples/flow_signoff.py [output_dir]
"""

import sys
from pathlib import Path

from repro import DcimSpec, SegaDcim
from repro.core.manifest import write_artifacts
from repro.layout.checks import run_drc, run_lvs
from repro.model.variation import monte_carlo
from repro.netlist import analyze_timing, build_adder_tree
from repro.netlist.power import measure_power
from repro.reporting import ascii_table
from repro.rtl.lint import lint_bundle


def main(out_dir: str = "build/signoff") -> None:
    compiler = SegaDcim()
    spec = DcimSpec(wstore=8 * 1024, precision="BF16")
    print(f"Compiling {spec.precision.name} Wstore={spec.wstore} ...")
    result = compiler.compile(spec, verify=True)
    design = result.selected
    print(result.summary())

    rows = []
    lint = lint_bundle(result.rtl)
    rows.append(("RTL lint", "CLEAN" if lint.passed else "FAIL",
                 f"{len(lint.modules)} modules"))
    drc = run_drc(result.layout)
    rows.append(("DRC", "CLEAN" if drc.passed else "FAIL",
                 f"{len(result.layout.floorplan.placements)} blocks"))
    lvs = run_lvs(result.layout)
    rows.append(("LVS", "CLEAN" if lvs.passed else "FAIL", "3 part groups"))
    rows.append((
        "gate-level equivalence",
        "PASS" if result.verification.passed else "FAIL",
        f"{result.verification.trials} trials",
    ))

    # STA on a representative column tree vs the model's array stage.
    tree = build_adder_tree(min(design.h, 64), design.k)
    sta = analyze_timing(tree)
    model_delay = design.macro_cost().stage_delays["array"]
    rows.append((
        "STA (tree h<=64)",
        f"{compiler.tech.delay_ns(sta.critical_delay):.2f} ns",
        f"model bound {compiler.tech.delay_ns(model_delay):.2f} ns",
    ))

    power = measure_power(tree, vectors=100, density=0.1)
    rows.append((
        "toggle power @10% density",
        f"{compiler.tech.energy_fj(power.energy_per_vector, activity=1.0):.0f} fJ/vec",
        f"activity {power.activity:.2f}",
    ))

    mc = monte_carlo(design, compiler.tech, samples=500)
    nominal = result.metrics.delay_ns
    rows.append((
        "MC yield @ +10% period",
        f"{mc.yield_at(nominal * 1.1):.1%}",
        f"{mc.samples} dies",
    ))

    print("\nSignoff summary:")
    print(ascii_table(["check", "result", "detail"], rows))

    manifest = write_artifacts(result, Path(out_dir), compiler.tech)
    print(f"\nartifacts: {manifest.parent}")
    assert lint.passed and drc.passed and lvs.passed
    assert result.verification.passed


if __name__ == "__main__":
    main(*sys.argv[1:2])
