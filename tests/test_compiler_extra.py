"""Additional compiler-pipeline coverage: FP paths, GA mode, artifacts."""

import pytest

from repro import DcimSpec, NSGA2Config, SegaDcim
from repro.core.manifest import write_artifacts
from repro.layout.checks import run_drc, run_lvs
from repro.tech import GENERIC28, apply_corner


@pytest.fixture(scope="module")
def compiler():
    return SegaDcim(config=NSGA2Config(population_size=32, generations=15, seed=4))


class TestFpPipeline:
    @pytest.mark.parametrize("precision", ["FP8", "FP16", "FP32"])
    def test_fp_precisions_compile(self, compiler, precision):
        result = compiler.compile(
            DcimSpec(wstore=8 * 1024, precision=precision),
            exhaustive=True,
            generate=True,
            layout=True,
        )
        assert result.selected.precision.name == precision
        assert result.rtl.top.startswith("dcim_macro_fp")
        assert result.extras["lint"].passed
        assert result.layout.area_mm2 > 0

    def test_fp16_verify_runs_datapath(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="FP16"),
            exhaustive=True,
            generate=False,
            layout=False,
            verify=True,
        )
        assert result.verification.passed
        assert "fp_datapath" in result.verification.block

    def test_fp_artifacts_skip_int_testbench(self, compiler, tmp_path):
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="BF16"), exhaustive=True
        )
        write_artifacts(result, tmp_path, GENERIC28)
        tb_files = list((tmp_path / "rtl").glob("tb_*.v"))
        assert tb_files == []  # FP testbench generation is out of scope
        assert (tmp_path / "reports" / "macro.rpt").exists()


class TestGaMode:
    def test_ga_fp16_handles_prime_mantissa(self, compiler):
        # FP16's mantissa datapath is 11 bits: only k in {1, 11} is
        # legal, exercising the non-power-of-two divisor path in the GA.
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="FP16"),
            seed=2,
            exhaustive=False,
            generate=False,
            layout=False,
        )
        assert all(p.k in (1, 11) for p in result.exploration.points)

    def test_ga_int16(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=8 * 1024, precision="INT16"),
            seed=3,
            exhaustive=False,
            generate=False,
            layout=False,
        )
        assert result.selected.wstore == 8 * 1024


class TestPhysicalChecksOnCompiled:
    @pytest.mark.parametrize("precision", ["INT8", "BF16"])
    def test_drc_lvs_clean(self, compiler, precision):
        result = compiler.compile(
            DcimSpec(wstore=8 * 1024, precision=precision), exhaustive=True
        )
        assert run_drc(result.layout).passed
        assert run_lvs(result.layout).passed


class TestCornerCompile:
    def test_compile_at_slow_corner(self):
        slow = SegaDcim(tech=apply_corner(GENERIC28, "ss"))
        nominal = SegaDcim()
        spec = DcimSpec(wstore=4 * 1024, precision="INT8")
        s = slow.compile(spec, exhaustive=True, generate=False, layout=False)
        n = nominal.compile(spec, exhaustive=True, generate=False, layout=False)
        # Same Pareto structure (normalised objectives are corner-free),
        # slower absolute metrics.
        assert len(s.exploration.points) == len(n.exploration.points)
        assert s.metrics.delay_ns > n.metrics.delay_ns


class TestSummaryContent:
    def test_summary_lists_front_and_distilled_sizes(self, compiler):
        result = compiler.compile(
            DcimSpec(wstore=4 * 1024, precision="INT8"),
            exhaustive=True,
            generate=False,
            layout=False,
        )
        text = result.summary()
        assert str(len(result.exploration.points)) in text
        assert "INT8" in text
