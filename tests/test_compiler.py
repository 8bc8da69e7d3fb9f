"""Integration tests for the SegaDcim compiler pipeline."""

import pytest

from repro import DcimSpec, NSGA2Config, Requirements, SegaDcim


@pytest.fixture(scope="module")
def compiler():
    return SegaDcim(config=NSGA2Config(population_size=32, generations=20, seed=0))


@pytest.fixture(scope="module")
def int_result(compiler):
    return compiler.compile(
        DcimSpec(wstore=8 * 1024, precision="INT8"),
        exhaustive=True,
        verify=True,
    )


@pytest.fixture(scope="module")
def fp_result(compiler):
    return compiler.compile(
        DcimSpec(wstore=8 * 1024, precision="BF16"),
        exhaustive=True,
        verify=True,
    )


class TestCompileInt:
    def test_selected_meets_spec(self, int_result):
        assert int_result.selected.wstore == 8 * 1024
        assert int_result.selected.satisfies(int_result.spec)

    def test_selected_is_on_frontier(self, int_result):
        keys = {(p.n, p.h, p.l, p.k) for p in int_result.exploration.points}
        s = int_result.selected
        assert (s.n, s.h, s.l, s.k) in keys

    def test_rtl_generated(self, int_result):
        assert int_result.rtl is not None
        assert int_result.rtl.top.startswith("dcim_macro_int")
        assert len(int_result.rtl.modules) == 8

    def test_layout_generated(self, int_result):
        assert int_result.layout is not None
        assert int_result.layout.area_mm2 == pytest.approx(
            int_result.metrics.layout_area_mm2, rel=1e-6
        )

    def test_verification_passed(self, int_result):
        assert int_result.verification.passed

    def test_summary_renders(self, int_result):
        text = int_result.summary()
        assert "TOPS/W" in text or "energy efficiency" in text
        assert "8K" in text


class TestCompileFp:
    def test_fp_architecture_selected(self, fp_result):
        assert fp_result.selected.arch == "fp-prealign"
        assert fp_result.rtl.top.startswith("dcim_macro_fp")

    def test_fp_bundle_has_prealign_and_converter(self, fp_result):
        names = fp_result.rtl.module_names()
        assert any("prealign" in n for n in names)
        assert any("int2fp" in n for n in names)

    def test_fp_verification_passed(self, fp_result):
        assert fp_result.verification.passed


class TestRequirementsAndStrategies:
    def test_area_budget_respected(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=8 * 1024, precision="INT8"),
            requirements=Requirements(max_area_mm2=0.5),
            exhaustive=True,
            generate=False,
            layout=False,
        )
        assert result.metrics.layout_area_mm2 <= 0.5
        assert all(m.layout_area_mm2 <= 0.5 for _, m in result.distilled)

    def test_impossible_budget_raises(self, compiler):
        with pytest.raises(ValueError, match="no designs"):
            compiler.compile(
                DcimSpec(wstore=8 * 1024, precision="INT8"),
                requirements=Requirements(max_area_mm2=1e-9),
                exhaustive=True,
            )

    def test_strategy_changes_selection(self, compiler):
        spec = DcimSpec(wstore=8 * 1024, precision="INT8")
        small = compiler.compile(
            spec, strategy="min_area", exhaustive=True, generate=False, layout=False
        )
        fast = compiler.compile(
            spec, strategy="max_tops", exhaustive=True, generate=False, layout=False
        )
        assert small.metrics.layout_area_mm2 <= fast.metrics.layout_area_mm2
        assert fast.metrics.tops >= small.metrics.tops

    def test_ga_mode_runs(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="INT4"),
            seed=3,
            exhaustive=False,
            generate=False,
            layout=False,
        )
        assert len(result.exploration.points) > 0

    def test_stages_can_be_disabled(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="INT4"),
            exhaustive=True,
            generate=False,
            layout=False,
            verify=False,
        )
        assert result.rtl is None
        assert result.layout is None
        assert result.verification is None
