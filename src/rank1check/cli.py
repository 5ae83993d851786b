"""Command-line surface: gen, test, oracle, decode, sweep, spectral.

Exit codes: 0 success, 1 failed assertion-style check, 2 usage or parse
errors.  Diagnostics go to stderr; data goes to stdout or the -o file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import agreement, harness, oracles, spectral, testers
from .core import (
    BinaryTensor,
    Shape,
    TensorFormatError,
    distance,
    tensor_from_text,
    tensor_to_text,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_tensor(path: str) -> BinaryTensor:
    return tensor_from_text(_read_input(path))


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator} ({float(value):.6g})"


@functools.cache  # parse_args keeps no state, so one parser serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank1check",
        description="Randomized direct-sum tests for dense F2 tensors, "
                    "with exact oracles, decoders, sweeps, and spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tensor file")
    p.add_argument("--shape", required=True, help="comma-separated axis sizes")
    p.add_argument("--kind", required=True, choices=harness.GENERATOR_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", help="corruption rate (fraction or decimal)")
    p.add_argument("--flips", type=int, help="exact corruption count")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("test", help="Monte-Carlo rejection estimate")
    p.add_argument("--input", required=True, help="tensor file, - for stdin")
    p.add_argument("--test", required=True, choices=testers.ALL_TEST_KINDS)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oracle", help="exact rejection and nearest distance")
    p.add_argument("--input", help="tensor file, - for stdin")
    p.add_argument("--test", required=True, choices=testers.ALL_TEST_KINDS)
    p.add_argument("--budget", type=int, default=oracles.DEFAULT_BUDGET)
    p.add_argument("--assert-soundness", action="store_true",
                   help="exhaustively check the test's guarantee on --shape")
    p.add_argument("--exhaustive", action="store_true",
                   help="with --assert-soundness: iterate every tensor")
    p.add_argument("--shape", help="shape for --assert-soundness")

    p = sub.add_parser("decode", help="decode a file to its nearest structure")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=("local-view", "plurality"))
    p.add_argument("--anchor", default="best",
                   help="local-view anchor point, or 'best' (default)")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    p.add_argument("--config", required=True, help="config file, - for stdin")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("-o", "--output", help="CSV output (default stdout)")

    p = sub.add_parser("spectral", help="skeleton spectrum report as CSV")
    p.add_argument("--parts", action="append", required=True,
                   help="comma-separated part sizes; repeatable")
    p.add_argument("-o", "--output", help="CSV output (default stdout)")
    return parser


def _cmd_gen(args) -> int:
    shape = Shape(harness.parse_dims(args.shape))
    try:
        rate = harness.parse_fraction(args.rate) if args.rate is not None else None
    except ValueError as e:
        raise ValueError(f"bad rate {args.rate!r}: {e}") from e
    spec = harness.GeneratorSpec(args.kind, shape, args.seed, rate=rate,
                                 flips=args.flips)
    _write_output(args.output, tensor_to_text(harness.generate(spec)))
    return EXIT_OK


def _cmd_test(args) -> int:
    f = _load_tensor(args.input)
    est = harness.estimate_rejection(f, args.test, args.trials, args.seed)
    shape = "x".join(str(n) for n in f.shape.dims)
    print(
        f"test={args.test} shape={shape} trials={est.trials} "
        f"rejections={est.rejections} est={est.estimate:.6g} "
        f"lo={est.lo:.6g} hi={est.hi:.6g} seed={est.seed}"
    )
    return EXIT_OK


def _assert_soundness(args) -> int:
    if not args.shape:
        raise ValueError("--assert-soundness needs --shape")
    if not args.exhaustive:
        raise ValueError("--assert-soundness currently requires --exhaustive")
    shape = Shape(harness.parse_dims(args.shape))
    violation, worst = oracles.exhaustive_soundness(shape, args.test, args.budget)
    if violation:
        index, eps, dist = violation
        print(f"violation at tensor {index}: eps={eps} dist={dist}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"soundness holds for {args.test} on all {1 << shape.size} tensors of "
          f"shape {shape.dims}", file=sys.stderr)
    if worst is not None:
        print(f"min eps/dist ratio: {worst} ({float(worst):.6g})", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.assert_soundness:
        return _assert_soundness(args)
    if not args.input:
        raise ValueError("oracle needs --input (or --assert-soundness)")
    f = _load_tensor(args.input)
    rej = oracles.exact_rejection(f, args.test, args.budget)
    near = oracles.nearest_direct_sum(f, args.budget)
    print(f"exact_rej={_frac(rej.value)}")
    print(f"exact_dist={_frac(near.distance)}")
    if near.distance > 0 and rej.value > 0:
        print(f"ratio={_frac(rej.value / near.distance)}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    if args.mode == "plurality":
        g = agreement.dp_from_text(_read_input(args.input))
        decode = agreement.dp_plurality_decode(g)
        _write_output(args.output, agreement.dp_to_text(decode.product()))
        print(f"agreement={_frac(decode.agreement)}", file=sys.stderr)
        return EXIT_OK
    f = _load_tensor(args.input)
    if args.anchor == "best":
        anchor, ds, dist = oracles.best_anchor_decode(f)
    else:
        anchor = f.shape.require_point(harness.parse_dims(args.anchor, "anchor"))
        ds = oracles.local_view_decode(f, anchor)
        dist = distance(f, ds.materialize())
    _write_output(args.output, tensor_to_text(ds.materialize()))
    anchor_text = ",".join(str(x) for x in anchor)
    print(f"anchor={anchor_text} distance={_frac(dist)}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.master_seed < 0:
        raise ValueError(f"--master-seed must be nonnegative, got {args.master_seed}")
    config = harness.parse_sweep_config(_read_input(args.config))
    rows, summary = harness.run_sweep(config, args.master_seed)
    _write_output(args.output, harness.sweep_csv(rows))
    for test in sorted(summary):
        ratio = summary[test]
        print(f"min eps/dist for {test}: {ratio} ({float(ratio):.6g})",
              file=sys.stderr)
    return EXIT_OK


def _cmd_spectral(args) -> int:
    lines = [spectral.SPECTRUM_CSV_HEADER]
    for parts_text in args.parts:
        graph = spectral.build_skeleton(harness.parse_dims(parts_text, "parts"))
        report = spectral.verify_spectrum(graph)
        lines.append(spectral.spectrum_csv_row(report))
    _write_output(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "test": _cmd_test,
    "oracle": _cmd_oracle,
    "decode": _cmd_decode,
    "sweep": _cmd_sweep,
    "spectral": _cmd_spectral,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (TensorFormatError, agreement.DPFormatError, harness.SweepConfigError,
            oracles.BudgetExceededError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
