"""Shared fixtures and result recording for the benchmark harness.

Every bench regenerates one table/figure of the paper and writes its
rendered output to ``.benchmarks/results/<name>.txt`` (git-ignored, so
test runs leave the checkout clean) so the numbers are inspectable
after a ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record(results_dir):
    """Write one experiment's rendered output to ``RESULTS_DIR/<name>.txt``."""

    def _record(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
