"""Quickstart: compile one INT8 DCIM macro end to end.

Runs the full SEGA-DCIM pipeline for an 8K-weight INT8 specification
(the Fig. 6(a) scenario): explore the design space, distill the Pareto
frontier, pick the knee design, generate its Verilog, place-and-route
it, and verify a scaled gate-level twin against the golden model.

Usage::

    python examples/quickstart.py [output_dir]
"""

import sys
from pathlib import Path

from repro import DcimSpec, SegaDcim
from repro.rtl import write_bundle


def main(out_dir: str = "build/quickstart") -> None:
    compiler = SegaDcim()
    spec = DcimSpec(wstore=8 * 1024, precision="INT8")

    print(f"Compiling a {spec.precision.name} macro with Wstore={spec.wstore} ...")
    result = compiler.compile(spec, verify=True)

    print()
    print(result.summary())
    print()
    print(f"Pareto frontier: {len(result.exploration.points)} designs, e.g.")
    for point in result.exploration.points[:3]:
        print(f"  {point.describe()}")
    print(f"Selected: {result.selected.describe()}")
    print(f"Gate-level verification: {result.verification}")

    out = Path(out_dir)
    paths = write_bundle(result.rtl, out / "rtl")
    (out / "layout.def").parent.mkdir(parents=True, exist_ok=True)
    (out / "layout.def").write_text(result.layout.def_text)
    print(f"\nWrote {len(paths)} RTL files to {out / 'rtl'}")
    print(f"Wrote layout to {out / 'layout.def'}")
    print(
        f"Die: {result.layout.width_um:.0f} x {result.layout.height_um:.0f} um "
        f"({result.layout.area_mm2:.4f} mm2)"
    )


if __name__ == "__main__":
    main(*sys.argv[1:2])
