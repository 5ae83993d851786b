"""The demos that call the tester, oracle and Monte-Carlo API run cleanly."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "02_four_point_tests.py",
    "03_exact_oracles.py",
    "04_local_view_decoding.py",
    "05_agreement_tests.py",
    "07_monte_carlo_sweeps.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
