"""Tests for repro.core.spec (DcimSpec and DesignPoint)."""

import pytest

from repro.core.spec import FP_ARCH, INT_ARCH, DcimSpec, DesignPoint
from repro.tech.pdk import GENERIC28


class TestDcimSpec:
    def test_precision_parsed_from_string(self):
        spec = DcimSpec(wstore=8192, precision="INT8")
        assert spec.precision.name == "INT8"
        assert spec.arch == INT_ARCH

    def test_float_selects_fp_arch(self):
        assert DcimSpec(wstore=8192, precision="BF16").arch == FP_ARCH

    def test_paper_bounds_defaults(self):
        # Section IV: N > 4*Bw, L <= 64, H <= 2048.
        spec = DcimSpec(wstore=8192, precision="INT8")
        assert spec.max_l == 64
        assert spec.max_h == 2048
        assert spec.min_n == 4 * 8 + 1

    def test_sram_bits(self):
        spec = DcimSpec(wstore=8192, precision="INT8")
        assert spec.sram_bits == 8192 * 8

    def test_rejects_bad_wstore(self):
        with pytest.raises(ValueError):
            DcimSpec(wstore=0, precision="INT8")

    @pytest.mark.parametrize(
        "field, value",
        [("wstore", True), ("wstore", 4096.0), ("wstore", "4096"),
         ("max_l", 64.0), ("max_h", False), ("min_n_factor", 4.5),
         ("max_n", 1024.0)],
    )
    def test_rejects_non_integral_sizes(self, field, value):
        kwargs = {"wstore": 4096, "precision": "INT8", field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DcimSpec(**kwargs)

    def test_accepts_numpy_integers(self):
        import numpy as np

        spec = DcimSpec(wstore=np.int64(4096), precision="INT8", max_l=np.int32(16))
        assert spec.wstore == 4096 and spec.max_l == 16


class TestDesignPoint:
    def test_fig6a_wstore(self):
        d = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8)
        assert d.wstore == 8192
        assert d.sram_bits == 64 * 1024
        assert d.arch == INT_ARCH

    def test_fig6b_wstore(self):
        d = DesignPoint(precision="BF16", n=32, h=128, l=16, k=8)
        assert d.wstore == 8192
        assert d.arch == FP_ARCH

    def test_invalid_point_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DesignPoint(precision="INT8", n=32, h=128, l=16, k=16)

    def test_satisfies_matching_spec(self):
        spec = DcimSpec(wstore=8192, precision="INT8", min_n_factor=0)
        d = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8)
        assert d.satisfies(spec)

    def test_satisfies_rejects_wrong_wstore(self):
        spec = DcimSpec(wstore=4096, precision="INT8", min_n_factor=0)
        d = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8)
        assert not d.satisfies(spec)

    def test_satisfies_enforces_paper_bounds(self):
        spec = DcimSpec(wstore=8192, precision="INT8")  # min_n = 33
        d = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8)
        assert not d.satisfies(spec)

    def test_macro_cost_dispatches_by_precision(self):
        int_cost = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8).macro_cost()
        fp_cost = DesignPoint(precision="BF16", n=32, h=128, l=16, k=8).macro_cost()
        assert int_cost.arch == INT_ARCH
        assert fp_cost.arch == FP_ARCH

    def test_metrics_binding(self):
        d = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8)
        m = d.metrics(GENERIC28)
        assert m.area_mm2 > 0
        assert m.tops > 0

    def test_describe_mentions_parameters(self):
        text = DesignPoint(precision="INT8", n=32, h=128, l=16, k=8).describe()
        assert "N=32" in text and "INT8" in text


class TestForWeights:
    def test_rounds_up_to_power_of_two(self):
        spec = DcimSpec.for_weights(5000, "INT8")
        assert spec.wstore == 8192

    def test_exact_power_unchanged(self):
        assert DcimSpec.for_weights(8192, "INT8").wstore == 8192

    def test_one_weight(self):
        assert DcimSpec.for_weights(1, "INT8").wstore == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DcimSpec.for_weights(0, "INT8")

    def test_bounds_forwarded(self):
        spec = DcimSpec.for_weights(5000, "INT8", max_l=16)
        assert spec.max_l == 16
