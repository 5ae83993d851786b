"""End-to-end CLI behavior and exit codes."""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rank1check import cli, oracles
from rank1check.core import tensor_from_text, tensor_to_text, BinaryTensor, DirectSum, Shape
from rank1check.agreement import dp_from_text, dp_to_text, DPShape, DPFunction
from rank1check.harness import DEFAULT_SWEEP_CONFIG


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_parseable_tensor(self, capsys, tmp_path):
        out = tmp_path / "f.tensor"
        code, _, _ = run(["gen", "--shape", "2,2,2", "--kind", "direct-sum",
                          "--seed", "7", "-o", str(out)], capsys)
        assert code == 0
        f = tensor_from_text(out.read_text())
        assert f.shape.dims == (2, 2, 2)

    def test_stdout_default(self, capsys):
        code, out, _ = run(["gen", "--shape", "2,2", "--kind",
                            "uniform-random", "--seed", "1"], capsys)
        assert code == 0
        assert out.startswith("shape 2 2\n")

    def test_corrupted_needs_parameter(self, capsys):
        code, _, err = run(["gen", "--shape", "2,2", "--kind",
                            "corrupted-direct-sum", "--seed", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_shape(self, capsys):
        code, _, err = run(["gen", "--shape", "2,zero", "--kind",
                            "direct-sum"], capsys)
        assert code == 2

    def test_zero_denominator_rate(self, capsys):
        code, _, err = run(["gen", "--shape", "2,2", "--kind",
                            "corrupted-direct-sum", "--rate", "1/0"], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_unparsable_rate_is_named(self, capsys):
        code, out, err = run(["gen", "--shape", "2,2", "--kind",
                              "corrupted-direct-sum", "--rate", "abc"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad rate 'abc': ")

    def test_oversized_shape_is_refused(self, capsys):
        # 10^13 entries: refused from the entry count, before any allocation.
        code, out, err = run(["gen", "--shape", "100000,100000,1000", "--kind",
                              "uniform-random"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: shape (100000, 100000, 1000) has 10000000000000 "
                       "entries, beyond the 268435456-entry ceiling for "
                       "generated tensors\n")

    @pytest.mark.parametrize("seed", ["-1", "-2", str(2**64)])
    def test_seed_outside_uint64(self, capsys, seed):
        code, out, err = run(["gen", "--shape", "4,4", "--kind",
                              "uniform-random", "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: seed {seed} outside [0, 2^64)\n"


class TestTest:
    def test_direct_sum_estimates_zero(self, capsys, tmp_path):
        out = tmp_path / "f.tensor"
        run(["gen", "--shape", "2,2,2", "--kind", "direct-sum", "--seed", "7",
             "-o", str(out)], capsys)
        code, text, _ = run(["test", "--input", str(out), "--test", "shapka",
                             "--trials", "100000", "--seed", "1"], capsys)
        assert code == 0
        assert "rejections=0" in text
        assert "est=0" in text

    def test_stdout_independent_of_threads(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "f.tensor"
        run(["gen", "--shape", "4,4,4,4", "--kind", "uniform-random", "--seed",
             "3", "-o", str(path)], capsys)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RANK1CHECK_THREADS", threads)
            code, text, _ = run(["test", "--input", str(path), "--test",
                                 "sic-subsets", "--trials", "300000", "--seed",
                                 "4"], capsys)
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1]
        assert "rejections=0 " not in outputs[0]

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.tensor"
        path.write_text("shape 2 2 2\n00010110\n")
        code, out, err = run(["test", "--input", str(path), "--test",
                              "sic-subsets", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed -1 outside [0, 2^64)\n"

    def test_reads_the_tensor_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("shape 2 2\n0001\n"))
        code, out, err = run(["test", "--input", "-", "--test", "shapka",
                              "--trials", "1000", "--seed", "3"], capsys)
        assert (code, err) == (0, "")
        assert out == ("test=shapka shape=2x2 trials=1000 rejections=270 est=0.27 "
                       "lo=0.243402 hi=0.298358 seed=3\n")

    def test_malformed_tensor_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tensor"
        bad.write_text("shape 2 2\n01\n")
        code, _, err = run(["test", "--input", str(bad), "--test", "shapka"],
                           capsys)
        assert code == 2
        assert "error" in err


class TestOracle:
    def test_reports_exact_values(self, capsys, tmp_path):
        f = BinaryTensor(Shape((2, 2)), [1, 0, 0, 0])
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(f))
        code, out, _ = run(["oracle", "--input", str(path), "--test",
                            "sic-subsets"], capsys)
        assert code == 0
        assert "exact_rej=3/32" in out
        assert "exact_dist=1/4" in out

    def test_blr_uses_affine_distance(self, capsys, tmp_path):
        f = BinaryTensor(Shape((2, 2)), [0, 0, 0, 1])
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(f))
        code, out, _ = run(["oracle", "--input", str(path), "--test", "blr"],
                           capsys)
        assert code == 0
        assert "exact_rej=3/8" in out
        assert "exact_dist=1/4" in out

    def test_budget_exceeded_is_usage_error(self, capsys, tmp_path):
        f = BinaryTensor(Shape((2, 2)), [1, 0, 0, 0])
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(f))
        code, _, err = run(["oracle", "--input", str(path), "--test",
                            "sic-subsets", "--budget", "3"], capsys)
        assert code == 2

    def test_widened_table_ceiling_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(BinaryTensor.zeros(Shape((128, 64)))))
        code, out, err = run(["oracle", "--input", str(path), "--test",
                              "sic-subsets"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: sic-subsets on shape (128, 64) needs 536870912 "
                       "bytes for its widened table, beyond the 268435456-byte ceiling\n")

    @pytest.mark.parametrize("args", [["oracle", "--test", "shapka"],
                                      ["decode", "--mode", "local-view"]])
    def test_gram_table_ceiling_is_usage_error(self, capsys, tmp_path, args):
        # shapka's count and decode's default best anchor share the table.
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(BinaryTensor.zeros(Shape((3,) * 10))))
        code, out, err = run(args + ["--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: local-view decode on shape {(3,) * 10} needs 3099363912 "
                       "bytes for its Gram table, beyond the 268435456-byte ceiling\n")

    def test_prefix_table_ceiling_is_usage_error(self, capsys, tmp_path):
        # shapka's count runs; the nearest search's prefix table, on the axes
        # (8, 8, 8), would hold 2^21 x 512 bytes.
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(BinaryTensor.zeros(Shape((8,) * 4))))
        code, out, err = run(["oracle", "--input", str(path), "--test", "shapka"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: direct-sum enumeration on shape (8, 8, 8, 8) needs "
                       "1073741824 bytes for its prefix table, beyond the "
                       "268435456-byte ceiling\n")

    def test_blr_on_sixteen_binary_axes(self, capsys, tmp_path):
        # BLR's count and the nearest distance both read a transform here.
        sh = Shape((2,) * 16)
        bits = DirectSum.random(sh, np.random.default_rng(16)).materialize().bits.copy()
        bits[[3, 100, 200]] ^= 1
        path = tmp_path / "f.tensor"
        path.write_text(tensor_to_text(BinaryTensor(sh, bits)))
        code, out, _ = run(["oracle", "--input", str(path), "--test", "blr"], capsys)
        assert code == 0
        assert "exact_dist=3/65536 " in out

    @pytest.mark.parametrize("args,message", [
        ([], "oracle needs --input (or --assert-soundness)"),
        (["--assert-soundness", "--exhaustive"], "--assert-soundness needs --shape"),
        (["--assert-soundness", "--shape", "2,2"],
         "--assert-soundness currently requires --exhaustive"),
    ])
    def test_missing_arguments_are_usage_errors(self, capsys, args, message):
        code, out, err = run(["oracle", "--test", "shapka", *args], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_assert_soundness_passes(self, capsys):
        code, _, err = run(["oracle", "--assert-soundness", "--exhaustive",
                            "--shape", "2,2", "--test", "shapka"], capsys)
        assert code == 0
        assert "soundness holds" in err

    def test_assert_soundness_rigidity(self, capsys):
        code, _, err = run(["oracle", "--assert-soundness", "--exhaustive",
                            "--shape", "2,2", "--test", "sic-subsets"], capsys)
        assert code == 0
        assert "min eps/dist" in err

    def test_assert_soundness_refuses_conjectured(self, capsys):
        code, _, err = run(["oracle", "--assert-soundness", "--exhaustive",
                            "--shape", "2,2", "--test", "conjectured"], capsys)
        assert code == 2

    def test_violation_exits_one(self, capsys, monkeypatch):
        # The guarantee cannot fail for real, so fake an oracle that claims a
        # rejection probability below the distance and check the wiring.
        def fake(shape, kind, rows, budget=0):
            return np.zeros(len(rows), dtype=np.int64), 16

        monkeypatch.setattr(cli.oracles, "exact_rejections", fake)
        code, _, err = run(["oracle", "--assert-soundness", "--exhaustive",
                            "--shape", "2,2", "--test", "shapka"], capsys)
        assert code == 1
        assert "violation" in err
        # Tensor 0 is a direct sum; tensor 1, the indicator of the origin, is
        # the smallest index at positive distance.
        assert err == "violation at tensor 1: eps=0 dist=1/4\n"


    @pytest.mark.parametrize("dims,test,shift", [
        ((2, 2, 3), "shapka", 4), ((2, 2, 2), "blr", 12),
    ])
    def test_violation_reports_smallest_index(self, capsys, monkeypatch,
                                              dims, test, shift):
        # Lower every count by `shift`: still constant on each coset, so the
        # reported tensor must be the smallest violating index of the whole
        # space, found here tensor by tensor.
        real = oracles.exact_rejections

        def lowered(shape, kind, rows, budget=oracles.DEFAULT_BUDGET):
            rej, total = real(shape, kind, rows, budget)
            return np.maximum(rej - shift, 0), total

        shape = Shape(dims)
        expected = None
        for idx in range(1 << shape.size):
            f = BinaryTensor(shape, [(idx >> i) & 1 for i in range(shape.size)])
            r = oracles.exact_rejection(f, test)
            eps = Fraction(max(r.rejecting - shift, 0), r.total)
            dist = oracles.nearest_direct_sum(f).distance
            if eps < dist:
                expected = f"violation at tensor {idx}: eps={eps} dist={dist}\n"
                break
        assert expected is not None
        monkeypatch.setattr(cli.oracles, "exact_rejections", lowered)
        code, _, err = run(["oracle", "--assert-soundness", "--exhaustive",
                            "--shape", ",".join(map(str, dims)), "--test", test],
                           capsys)
        assert (code, err) == (1, expected)


class TestDecode:
    def test_local_view_best_anchor(self, capsys, tmp_path):
        src = tmp_path / "f.tensor"
        dst = tmp_path / "decoded.tensor"
        run(["gen", "--shape", "2,2,2", "--kind", "corrupted-direct-sum",
             "--flips", "1", "--seed", "5", "-o", str(src)], capsys)
        code, _, err = run(["decode", "--input", str(src), "--mode",
                            "local-view", "-o", str(dst)], capsys)
        assert code == 0
        assert "distance=1/8" in err
        decoded = tensor_from_text(dst.read_text())
        from rank1check.oracles import is_direct_sum
        assert is_direct_sum(decoded)

    def test_local_view_explicit_anchor(self, capsys, tmp_path):
        src = tmp_path / "f.tensor"
        run(["gen", "--shape", "2,2", "--kind", "uniform-random",
             "--seed", "3", "-o", str(src)], capsys)
        code, out, err = run(["decode", "--input", str(src), "--mode",
                              "local-view", "--anchor", "1,0"], capsys)
        assert code == 0
        assert "anchor=1,0" in err
        assert out.startswith("shape 2 2\n")

    def test_unparsable_anchor_is_named(self, capsys, tmp_path):
        src = tmp_path / "f.tensor"
        run(["gen", "--shape", "2,2", "--kind", "uniform-random",
             "--seed", "3", "-o", str(src)], capsys)
        code, out, err = run(["decode", "--input", str(src), "--mode",
                              "local-view", "--anchor", "x"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad anchor 'x': ")

    def test_best_anchor_budget_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "f.tensor"
        src.write_text(tensor_to_text(BinaryTensor.zeros(Shape((257, 256)))))
        code, out, err = run(["decode", "--input", str(src), "--mode",
                              "local-view"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: best-anchor decode needs 4328587264 tuples, budget is 4294967296\n"

    def test_plurality(self, capsys, tmp_path):
        g = DPFunction(DPShape((3, 3), 2),
                       [[0, 0], [0, 1], [0, 0], [1, 0], [1, 1], [1, 0],
                        [0, 0], [0, 1], [0, 0]])
        src = tmp_path / "g.dp"
        src.write_text(dp_to_text(g))
        code, out, err = run(["decode", "--input", str(src), "--mode",
                              "plurality"], capsys)
        assert code == 0
        assert out.startswith("dpshape 2 2 3 3\n")
        assert "agreement=" in err
        decoded = dp_from_text(out)
        # Output is a true direct product.
        from rank1check.agreement import dp_plurality_decode
        assert dp_plurality_decode(decoded).agreement == 1


    @pytest.mark.parametrize("text,message", [
        ("dpshape 2 x 2 2\n", "bad header 'dpshape 2 x 2 2'"),
        ("dpshape 2 2 2 2\n0 1\n0 a\n1 1\n0 0\n", "row 1 has a non-integer symbol"),
        ("dpshape 2 2 0 2\n", "axis sizes must be positive, got (0, 2)"),
    ])
    def test_malformed_plurality_input(self, capsys, tmp_path, text, message):
        src = tmp_path / "g.dp"
        src.write_text(text)
        code, out, err = run(["decode", "--input", str(src), "--mode",
                              "plurality"], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSweep:
    def test_byte_identical_with_same_master_seed(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "shapes = 2,2\ntests = shapka; sic-cube\n"
            "kinds = direct-sum; uniform-random\ntrials = 2000\n"
            "seeds = 1; 2\noracle_budget = 1048576\n"
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code1, _, _ = run(["sweep", "--config", str(cfg), "--master-seed",
                           "11", "-o", str(out1)], capsys)
        code2, _, _ = run(["sweep", "--config", str(cfg), "--master-seed",
                           "11", "-o", str(out2)], capsys)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ("test,shape,kind,param,trials,rejections,est,lo,hi,"
                          "exact_rej,exact_dist,ratio")

    def test_config_error_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 2,2\n")
        code, _, err = run(["sweep", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err

    def test_negative_seed_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
                       "trials = 1\nseeds = -1\n")
        code, _, err = run(["sweep", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == ("error: line 5, key 'seeds': "
                       "seeds must be nonnegative\n")

    def test_negative_master_seed(self, capsys, tmp_path):
        cfg = tmp_path / "default.cfg"
        cfg.write_text(DEFAULT_SWEEP_CONFIG)
        code, _, err = run(["sweep", "--config", str(cfg), "--master-seed",
                            "-3"], capsys)
        assert code == 2
        assert err == "error: --master-seed must be nonnegative, got -3\n"

    def test_default_config_runs(self, capsys, tmp_path):
        cfg = tmp_path / "default.cfg"
        cfg.write_text(DEFAULT_SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        code, _, err = run(["sweep", "--config", str(cfg), "-o", str(out)],
                           capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) > 1
        assert "min eps/dist" in err


class TestSpectral:
    def test_golden_row(self, capsys):
        code, out, _ = run(["spectral", "--parts", "2,2,2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,parts,count_top,count_zero,count_negative,max_residual"
        assert lines[1].startswith("3,2x2x2,1,3,2,")

    def test_multiple_parts(self, capsys):
        code, out, _ = run(["spectral", "--parts", "2,3", "--parts", "1,1,1"],
                           capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("2,2x3,1,3,1,")
        assert lines[2].startswith("3,1x1x1,1,0,2,")

    def test_rejects_single_part(self, capsys):
        code, _, err = run(["spectral", "--parts", "5"], capsys)
        assert code == 2

    def test_unparsable_parts_are_named(self, capsys):
        code, out, err = run(["spectral", "--parts", "x"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad parts 'x': ")

    def test_vertex_budget_is_usage_error(self, capsys):
        code, out, err = run(["spectral", "--parts", "300,300"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 600 vertices exceeds the 512-vertex budget\n"

    def test_no_tolerance_flag(self, capsys):
        code, _, err = run(["spectral", "--parts", "2,3", "--tolerance",
                            "1e-9"], capsys)
        assert code == 2
        assert "unrecognized arguments: --tolerance" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_choice(self, capsys):
        assert cli.main(["test", "--input", "x", "--test", "nope"]) == 2


def test_one_parser_serves_a_whole_process(capsys, monkeypatch):
    # main builds its parser once per process.  A usage error, a soundness
    # verdict and a generated tensor, run one after another in this process,
    # read byte for byte as they do from a fresh process each.
    src = Path(__file__).resolve().parent.parent / "src"
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    calls = [["oracle", "--test", "nope"],
             ["oracle", "--assert-soundness", "--exhaustive", "--shape", "2,2,2",
              "--test", "sic-subsets"],
             ["gen", "--shape", "2,3", "--kind", "uniform-random", "--seed", "5"]]
    session = [run(args, capsys) for args in calls]
    assert [code for code, _, _ in session] == [2, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    for args, (code, out, err) in zip(calls, session):
        fresh = subprocess.run([sys.executable, "-m", "rank1check.cli", *args],
                               env=env, capture_output=True)
        assert (code, out.encode(), err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr)


def test_import_loads_no_scipy():
    # The package needs numpy only; importing scipy would add about a second
    # to the start-up of every CLI process.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    probe = ("import sys, rank1check.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
