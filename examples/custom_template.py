"""Extending the compiler: custom cell library + custom architecture.

SEGA-DCIM's template-based approach claims easy extension to new DCIM
structures.  This example demonstrates both extension points:

1. a *customized cell library* (Fig. 4 input) loaded from the
   mini-liberty format, with a low-power full adder, and
2. a *new architecture template* registered alongside the built-ins: a
   double-buffered integer macro with a second input buffer so the next
   vector loads while the current one computes.

Usage::

    python examples/custom_template.py
"""

from repro import DcimSpec, DesignPoint, SegaDcim
from repro.dse import NSGA2Config
from repro.rtl import register_template, available_templates
from repro.rtl.generator import IntMacroTemplate, RtlBundle
from repro.rtl.modules import generate_input_buffer
from repro.tech import load_library

LOW_POWER_LIB = """
library (lowpower) {
  cell (NOR)  { area: 1.0; delay: 1.2; energy: 0.8; }
  cell (OR)   { area: 1.3; delay: 1.2; energy: 1.8; }
  cell (MUX2) { area: 2.2; delay: 2.6; energy: 2.4; }
  cell (HA)   { area: 4.3; delay: 3.0; energy: 5.5; }
  cell (FA)   { area: 5.5; delay: 4.0; energy: 6.7; }
  cell (DFF)  { area: 6.6; delay: 0.0; energy: 7.7; }
  cell (SRAM) { area: 2.2; delay: 0.0; energy: 0.0; }
}
"""


class DoubleBufferedIntTemplate(IntMacroTemplate):
    """Integer macro with a ping-pong input buffer pair."""

    name = "int-mul-double-buffered"

    def generate(self, design: DesignPoint) -> RtlBundle:
        bundle = super().generate(design)
        shadow = generate_input_buffer(design.h, design.precision.bits, design.k)
        shadow.name = shadow.name + "_shadow"
        modules = dict(bundle.modules)
        modules[shadow.name] = shadow.render()
        return RtlBundle(design=bundle.design, top=bundle.top, modules=modules)


def main() -> None:
    library = load_library(LOW_POWER_LIB)
    print(f"Loaded custom cell library {library.name!r} "
          f"(FA energy {library.full_adder.energy} vs 8.4 stock)")

    compiler = SegaDcim(
        library=library,
        config=NSGA2Config(population_size=32, generations=20, seed=1),
    )
    spec = DcimSpec(wstore=8 * 1024, precision="INT8")
    result = compiler.compile(spec, generate=False, layout=False)
    stock = SegaDcim().compile(spec, generate=False, layout=False)
    print(f"knee with low-power lib : {result.metrics.tops_per_watt:.1f} TOPS/W")
    print(f"knee with stock Table III: {stock.metrics.tops_per_watt:.1f} TOPS/W")

    register_template(DoubleBufferedIntTemplate())
    print(f"\nRegistered templates: {available_templates()}")
    template = DoubleBufferedIntTemplate()
    bundle = template.generate(result.selected)
    shadow = [n for n in bundle.module_names() if n.endswith("_shadow")]
    print(f"Double-buffered bundle adds: {shadow[0]}")
    print(f"Total modules: {len(bundle.modules)} (stock template emits 8)")


if __name__ == "__main__":
    main()
