"""Every demo runs cleanly and prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_tensors_and_direct_sums.py",
    "02_four_point_tests.py",
    "03_exact_oracles.py",
    "04_local_view_decoding.py",
    "05_agreement_tests.py",
    "06_skeleton_spectra.py",
    "07_monte_carlo_sweeps.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
