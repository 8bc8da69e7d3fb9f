"""Floating-point macro for on-device training + accuracy analysis.

High-precision tasks such as model training motivate the paper's FP
support.  This example explores FP16/FP32/BF16 macros at 16K weights,
then quantifies the accuracy cost of the pre-aligned datapath (the
truncating mantissa alignment) against exact floating-point dot
products over random activations — the kind of evidence a user needs
before committing to the architecture.

Usage::

    python examples/fp_training_macro.py
"""

import numpy as np

from repro import DcimSpec, SegaDcim
from repro.func import FloatFormat, alignment_error
from repro.reporting import ascii_table


def accuracy_sweep(fmt: FloatFormat, h: int = 128, trials: int = 200) -> dict:
    """Median/max relative alignment error over random dot products."""
    rng = np.random.default_rng(42)
    rel_errors = []
    for _ in range(trials):
        x = rng.normal(scale=rng.uniform(0.1, 10.0), size=h)
        w = rng.normal(size=h)
        err = alignment_error(x, w, fmt)
        scale = float(np.abs(x) @ np.abs(w))
        rel_errors.append(err["abs_error"] / scale if scale else 0.0)
    rel = np.array(rel_errors)
    return {"median": float(np.median(rel)), "p99": float(np.quantile(rel, 0.99))}


def main() -> None:
    compiler = SegaDcim()
    rows = []
    for precision in ("FP16", "BF16", "FP32"):
        spec = DcimSpec(wstore=16 * 1024, precision=precision)
        result = compiler.compile(spec, generate=False, layout=False)
        m = result.metrics
        acc = accuracy_sweep(FloatFormat.from_precision(precision))
        rows.append(
            (
                precision,
                result.selected.describe().split(" ", 2)[2],
                f"{m.layout_area_mm2:.3f}",
                f"{m.tops:.2f}",
                f"{m.tops_per_watt:.1f}",
                f"{acc['median']:.2e}",
                f"{acc['p99']:.2e}",
            )
        )
    print("FP training macros at Wstore=16K (knee designs):")
    print(
        ascii_table(
            ["precision", "parameters", "area_mm2", "peak_TOPS", "TOPS/W",
             "median_rel_err", "p99_rel_err"],
            rows,
        )
    )
    print(
        "\nThe alignment truncation error sits near the format's intrinsic\n"
        "rounding error, so the pre-aligned integer array costs almost no\n"
        "extra accuracy — while area/energy stay close to the integer macro."
    )


if __name__ == "__main__":
    main()
