"""Tests for repro.core.manifest and the CLI."""

import json

import pytest

from repro import DcimSpec, DesignPoint, SegaDcim
from repro.cli import main
from repro.core.manifest import (
    design_from_dict,
    design_to_dict,
    load_manifest,
    spec_from_dict,
    spec_to_dict,
    write_artifacts,
)
from repro.tech import GENERIC28


@pytest.fixture(scope="module")
def result():
    return SegaDcim().compile(
        DcimSpec(wstore=4 * 1024, precision="INT8"), exhaustive=True
    )


class TestDesignSpecDicts:
    def test_design_roundtrip(self):
        d = DesignPoint(precision="BF16", n=32, h=128, l=16, k=8)
        assert design_from_dict(design_to_dict(d)) == d

    def test_spec_roundtrip(self):
        s = DcimSpec(wstore=8192, precision="INT8", max_n=4096)
        assert spec_from_dict(spec_to_dict(s)) == s

    def test_invalid_design_rejected_on_load(self):
        data = design_to_dict(DesignPoint(precision="INT8", n=32, h=128, l=16, k=8))
        data["k"] = 5  # does not divide Bx
        with pytest.raises(ValueError):
            design_from_dict(data)


class TestWriteArtifacts:
    def test_tree_layout(self, result, tmp_path):
        manifest_path = write_artifacts(result, tmp_path, GENERIC28)
        assert manifest_path.name == "manifest.json"
        assert (tmp_path / "layout.def").exists()
        assert (tmp_path / "cells.lib").exists()
        assert (tmp_path / "reports" / "macro.rpt").exists()
        rtl = list((tmp_path / "rtl").glob("*.v"))
        assert len(rtl) >= 8
        assert any(p.name.startswith("tb_") for p in rtl)

    def test_manifest_contents(self, result, tmp_path):
        path = write_artifacts(result, tmp_path, GENERIC28)
        data = json.loads(path.read_text())
        assert data["tool"] == "sega-dcim-repro"
        assert data["spec"]["wstore"] == 4 * 1024
        assert data["technology"] == "generic28"
        # Every listed file exists.
        for rel in data["files"]:
            assert (tmp_path / rel).exists(), rel

    def test_load_manifest_rehydrates(self, result, tmp_path):
        path = write_artifacts(result, tmp_path, GENERIC28)
        data = load_manifest(path)
        assert isinstance(data["design"], DesignPoint)
        assert data["design"] == result.selected
        assert data["spec"] == result.spec
        assert all(isinstance(p, DesignPoint) for p in data["frontier"])

    def test_load_rejects_bad_version(self, result, tmp_path):
        path = write_artifacts(result, tmp_path, GENERIC28)
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            load_manifest(path)


class TestCli:
    def test_precisions(self, capsys):
        assert main(["precisions"]) == 0
        out = capsys.readouterr().out
        assert "BF16" in out and "INT16" in out

    def test_pdks(self, capsys):
        assert main(["pdks"]) == 0
        out = capsys.readouterr().out
        assert "generic28" in out
        assert "corners:" in out

    def test_explore(self, capsys):
        assert main([
            "explore", "--wstore", "4096", "--precision", "INT8",
            "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "TOPS/W" in out

    def test_compile_with_artifacts(self, capsys, tmp_path):
        assert main([
            "compile", "--wstore", "4096", "--precision", "INT8",
            "--out", str(tmp_path / "macro"),
        ]) == 0
        out = capsys.readouterr().out
        assert "artifacts written" in out
        assert (tmp_path / "macro" / "manifest.json").exists()

    def test_compile_infeasible_budget(self, capsys):
        assert main([
            "compile", "--wstore", "4096", "--precision", "INT8",
            "--max-area", "0.0000001",
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_report(self, capsys):
        assert main([
            "report", "--precision", "INT8",
            "--n", "64", "--h", "128", "--l", "16", "--k", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Area report" in out

    def test_report_invalid_design(self, capsys):
        assert main([
            "report", "--precision", "INT8",
            "--n", "63", "--h", "128", "--l", "16", "--k", "8",
        ]) == 1

    def test_report_at_corner(self, capsys):
        assert main([
            "report", "--precision", "INT8", "--corner", "ss",
            "--n", "64", "--h", "128", "--l", "16", "--k", "8",
        ]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker"],
            ["serve", "--workers-remote"],
            ["campaign", "--spec", "4096:INT8", "--workers", "2"],
        ],
    )
    def test_retired_execution_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestTestbench:
    def test_testbench_structure(self, result, tmp_path):
        from repro.rtl.testbench import generate_int_testbench

        tb = generate_int_testbench(result.rtl, vectors=2, seed=1)
        assert f"module tb_{result.rtl.top};" in tb
        assert tb.count("check(") >= 3  # task definition + 2 calls
        assert "TESTBENCH PASS" in tb
        assert "$finish" in tb

    def test_testbench_rejects_fp(self):
        from repro.rtl.generator import generate_rtl
        from repro.rtl.testbench import generate_int_testbench

        bundle = generate_rtl(DesignPoint(precision="BF16", n=16, h=8, l=4, k=8))
        with pytest.raises(ValueError):
            generate_int_testbench(bundle)

    def test_testbench_deterministic(self, result):
        from repro.rtl.testbench import generate_int_testbench

        a = generate_int_testbench(result.rtl, vectors=2, seed=7)
        b = generate_int_testbench(result.rtl, vectors=2, seed=7)
        assert a == b
