"""Pinned outputs for fixed seeds: Monte-Carlo counts, exact values, CSV bytes.

Every number here was produced by the code as first written.  Rewrites of
the samplers, query patterns or enumeration plans must reproduce them
exactly: a changed count means a changed random stream or a changed test.
"""

import hashlib

import pytest

from rank1check import cli
from rank1check.core import Shape, tensor_to_text
from rank1check.harness import (
    DEFAULT_SWEEP_CONFIG,
    GeneratorSpec,
    estimate_rejection,
    generate,
    parse_sweep_config,
    run_sweep,
    sweep_csv,
)
from rank1check.oracles import exact_rejection

# Two blocks of the Monte-Carlo stream: the block size is pinned too.
MC_TRIALS = 150_000
MC_SEED = 123

# (dims, test) -> rejections of a uniform-random tensor (generator seed 5).
MC_COUNTS = {
    ((2, 2, 2), "sic-subsets"): 16900,
    ((2, 2, 2), "sic-cube"): 16900,
    ((2, 2, 2), "shapka"): 37436,
    ((2, 2, 2), "conjectured"): 21102,
    ((2, 2, 2), "blr"): 42483,
    ((3, 4, 2), "sic-subsets"): 27991,
    ((3, 4, 2), "sic-cube"): 27991,
    ((3, 4, 2), "shapka"): 56258,
    ((3, 4, 2), "conjectured"): 34088,
    ((2, 2, 2, 2), "sic-subsets"): 29696,
    ((2, 2, 2, 2), "sic-cube"): 29696,
    ((2, 2, 2, 2), "shapka"): 55179,
    ((2, 2, 2, 2), "conjectured"): 34885,
    ((2, 2, 2, 2), "blr"): 52759,
}

EXACT_INPUTS = {
    "uniform": ("uniform-random", {}),
    "flips2": ("corrupted-direct-sum", {"flips": 2}),
}

# (dims, input, test) -> "rejecting/total" at generator seed 17.
EXACT_COUNTS = {
    ((2, 2, 2), "uniform", "sic-subsets"): "456/4096",
    ((2, 2, 2), "uniform", "sic-cube"): "456/4096",
    ((2, 2, 2), "uniform", "shapka"): "16/64",
    ((2, 2, 2), "uniform", "conjectured"): "72/512",
    ((2, 2, 2), "uniform", "blr"): "18/64",
    ((2, 2, 2), "flips2", "sic-subsets"): "384/4096",
    ((2, 2, 2), "flips2", "sic-cube"): "384/4096",
    ((2, 2, 2), "flips2", "shapka"): "16/64",
    ((2, 2, 2), "flips2", "conjectured"): "64/512",
    ((2, 2, 2), "flips2", "blr"): "24/64",
    ((3, 4, 2), "uniform", "sic-subsets"): "5328/36864",
    ((3, 4, 2), "uniform", "sic-cube"): "5328/36864",
    ((3, 4, 2), "uniform", "shapka"): "184/576",
    ((3, 4, 2), "uniform", "conjectured"): "848/4608",
    ((3, 4, 2), "flips2", "sic-subsets"): "3504/36864",
    ((3, 4, 2), "flips2", "sic-cube"): "3504/36864",
    ((3, 4, 2), "flips2", "shapka"): "104/576",
    ((3, 4, 2), "flips2", "conjectured"): "560/4608",
    ((2, 2, 2, 2), "uniform", "sic-subsets"): "11904/65536",
    ((2, 2, 2, 2), "uniform", "sic-cube"): "11904/65536",
    ((2, 2, 2, 2), "uniform", "shapka"): "88/256",
    ((2, 2, 2, 2), "uniform", "conjectured"): "896/4096",
    ((2, 2, 2, 2), "uniform", "blr"): "96/256",
    ((2, 2, 2, 2), "flips2", "sic-subsets"): "7296/65536",
    ((2, 2, 2, 2), "flips2", "sic-cube"): "7296/65536",
    ((2, 2, 2, 2), "flips2", "shapka"): "64/256",
    ((2, 2, 2, 2), "flips2", "conjectured"): "576/4096",
    ((2, 2, 2, 2), "flips2", "blr"): "168/256",
}

SWEEP_SHA256 = "5c4afa229a33fd1f70b120a6ddf8f6c427fff9d6caa3be74530b0748cf062703"


@pytest.mark.parametrize("dims,test", sorted(MC_COUNTS))
def test_monte_carlo_counts(dims, test):
    f = generate(GeneratorSpec("uniform-random", Shape(dims), 5))
    est = estimate_rejection(f, test, MC_TRIALS, MC_SEED)
    assert est.rejections == MC_COUNTS[dims, test]


@pytest.mark.parametrize("dims,name,test", sorted(EXACT_COUNTS))
def test_exact_counts(dims, name, test):
    kind, extra = EXACT_INPUTS[name]
    f = generate(GeneratorSpec(kind, Shape(dims), 17, **extra))
    r = exact_rejection(f, test)
    assert f"{r.rejecting}/{r.total}" == EXACT_COUNTS[dims, name, test]


def test_default_sweep_csv_bytes():
    rows, _ = run_sweep(parse_sweep_config(DEFAULT_SWEEP_CONFIG), 11)
    assert hashlib.sha256(sweep_csv(rows).encode()).hexdigest() == SWEEP_SHA256


# Valid invocations of the commands that run the tests, with their output.
CLI_RUNS = [
    (["test", "--test", "sic-cube", "--trials", "5000", "--seed", "3"],
     "test=sic-cube shape=2x2x2x2 trials=5000 rejections=1002 est=0.2004 "
     "lo=0.189536 hi=0.211724 seed=3\n"),
    (["test", "--test", "blr", "--trials", "5000", "--seed", "3"],
     "test=blr shape=2x2x2x2 trials=5000 rejections=1767 est=0.3534 "
     "lo=0.340267 hi=0.366758 seed=3\n"),
    (["oracle", "--test", "conjectured"],
     "exact_rej=119/512 (0.232422)\nexact_dist=3/16 (0.1875)\nratio=119/96 (1.23958)\n"),
    (["oracle", "--test", "blr"],
     "exact_rej=45/128 (0.351562)\nexact_dist=3/16 (0.1875)\nratio=15/8 (1.875)\n"),
]


@pytest.mark.parametrize("args,expected", CLI_RUNS)
def test_cli_exit_codes_and_output(args, expected, capsys, tmp_path):
    src = tmp_path / "f.tensor"
    f = generate(GeneratorSpec("corrupted-direct-sum", Shape((2, 2, 2, 2)), 4,
                               flips=3))
    src.write_text(tensor_to_text(f))
    assert cli.main(args + ["--input", str(src)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("args", [
    ["oracle", "--assert-soundness", "--exhaustive", "--shape", "2,2", "--test", t]
    for t in ("sic-subsets", "sic-cube", "shapka", "blr")
])
def test_cli_soundness_exit_codes(args, capsys):
    assert cli.main(args) == 0
