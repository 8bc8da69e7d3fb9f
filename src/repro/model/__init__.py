"""Estimation models for SEGA-DCIM (paper Tables II-VI)."""

from repro.model.cost import Cost, parallel, series, ZERO_COST
from repro.model.logic import (
    adder,
    adder_cla,
    barrel_shifter,
    clog2,
    comparator,
    multiplier_1xn,
    mux,
    register_bank,
)
from repro.model.components import (
    accumulator_width,
    adder_tree,
    converter_width,
    fusion_width,
    input_buffer,
    int_to_fp_converter,
    prealignment,
    result_fusion,
    shift_accumulator,
)
from repro.model.macro import MacroCost
from repro.model.engine import BatchCost, CostEngine
from repro.model.integer import int_macro_cost, int_weights_stored, validate_int_params
from repro.model.floating import fp_macro_cost, fp_weights_stored, validate_fp_params
from repro.model.metrics import MacroMetrics, evaluate_macro
from repro.model.variation import VariationResult, monte_carlo

__all__ = [
    "BatchCost",
    "CostEngine",
    "Cost",
    "adder_cla",
    "VariationResult",
    "monte_carlo",
    "parallel",
    "series",
    "ZERO_COST",
    "adder",
    "barrel_shifter",
    "clog2",
    "comparator",
    "multiplier_1xn",
    "mux",
    "register_bank",
    "accumulator_width",
    "adder_tree",
    "converter_width",
    "fusion_width",
    "input_buffer",
    "int_to_fp_converter",
    "prealignment",
    "result_fusion",
    "shift_accumulator",
    "MacroCost",
    "int_macro_cost",
    "int_weights_stored",
    "validate_int_params",
    "fp_macro_cost",
    "fp_weights_stored",
    "validate_fp_params",
    "MacroMetrics",
    "evaluate_macro",
]
