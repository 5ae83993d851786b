"""The benchmark's four workloads: inputs made from the seed, ops, and checks.

A workload builds its inputs in `setup`, runs one op per distinct cell in
`warmup` (filling lazy caches such as oracle plans and candidate tables), and
hands out the ops of round r through `round_ops(r)`.  Every round holds the
same cells, so a run that completes whole rounds sees the same mix of ops at
any length.  An op is checked after the timed phase, never inside it:
`check` tests invariants that hold at any seed, and `summary` is compared
with the values pinned in golden.json at the default seed.

Every call into rank1check goes through a module attribute looked up at call
time (`self.oracles.exact_rejection`, not a name bound at import), so the
traced run sees it through the wrappers in spans.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from layers import VERDICTS, verdict_name
from spans import shape_key

DEFAULT_SEED = 0
TRIALS = 100_000  # the `rank1check test` default

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def derive_seed(seed: int, *parts: int) -> int:
    """A 63-bit input seed for one cell, fixed by the workload seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=parts)
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def child_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def sha(text) -> str:
    data = text.encode() if isinstance(text, str) else bytes(text)
    return hashlib.sha256(data).hexdigest()


class Op:
    """One timed call.  `key` names the input, `cell` the kind of call (the
    same cell on another input costs the same); `weight` is the number of
    user-visible operations the call completes."""

    __slots__ = ("key", "cell", "fn", "check", "summary", "weight")

    def __init__(self, key, fn, summary, check=None, weight=1, cell=None):
        self.key = key
        self.cell = cell or key
        self.fn = fn
        self.summary = summary
        self.check = check
        self.weight = weight


def _frac_pair(out) -> str:
    return "|".join(str(v) for v in out)


class Workload:
    name = ""
    # False when golden values do not depend on the seed.
    golden_per_seed = True
    # Starts child processes (worker.Spawner); set by the worker.
    spawner = None

    def __init__(self, seed: int, mods: dict, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        for name, module in mods.items():
            setattr(self, name, module)

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        for op in self.warmup_ops():
            op.fn()

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def ops_in_children(self) -> bool:
        """True when the ops run in child processes."""
        return False


# ---------------------------------------------------------------------------
# mc-large
# ---------------------------------------------------------------------------


class McLarge(Workload):
    """One `harness.estimate_rejection` call at 1e5 trials per op.

    Harness Monte Carlo does nearly all the work and oracles none.  d and the
    working set vary: per-trial draws and int64 index arithmetic grow with d,
    while gathers depend on locality ((8,)^8 holds 16 MiB, more than a
    core's L2).
    """

    name = "mc-large"
    SHAPES = ((16,) * 4, (8,) * 8, (2,) * 16)

    def setup(self) -> None:
        h = self.harness
        kinds = (
            (h.KIND_DIRECT_SUM, {}),
            (h.KIND_CORRUPTED, {"rate": Fraction(1, 16)}),
            (h.KIND_UNIFORM, {}),
        )
        self.cells = []
        for i, dims in enumerate(self.SHAPES):
            shape = self.core.Shape(dims)
            for j, (kind, extra) in enumerate(kinds):
                seed = derive_seed(self.seed, i, j)
                f = h.generate(h.GeneratorSpec(kind, shape, seed, **extra))
                tests = self.testers.TENSOR_TEST_KINDS
                if all(n == 2 for n in dims):
                    tests = self.testers.ALL_TEST_KINDS
                for test in tests:
                    self.cells.append((dims, kind, test, f, seed))
        self._ops = [self._op(*cell) for cell in self.cells]

    def working_set_bytes(self) -> dict:
        return {shape_key(d): int(np.prod(d)) for d in self.SHAPES}

    def _op(self, dims, kind, test, f, seed) -> Op:
        def fn():
            return self.harness.estimate_rejection(f, test, TRIALS, seed)

        def check(est, peer):
            if est.trials != TRIALS:
                return f"ran {est.trials} trials, asked {TRIALS}"
            if kind == self.harness.KIND_DIRECT_SUM and est.rejections:
                return f"{test} rejected a direct sum {est.rejections} times"
            return None

        return Op(f"{shape_key(dims)}|{kind}|{test}", fn,
                  lambda est: str(est.rejections), check)

    def warmup_ops(self) -> list[Op]:
        seen, ops = set(), []
        for cell, op in zip(self.cells, self._ops):
            if (cell[0], cell[2]) not in seen:
                seen.add((cell[0], cell[2]))
                ops.append(op)
        return ops

    def round_ops(self, r: int) -> list[Op]:
        return self._ops


# ---------------------------------------------------------------------------
# oracle-mid
# ---------------------------------------------------------------------------


class OracleMid(Workload):
    """One oracle report per op, the calls `rank1check oracle` makes.

    Oracles and agreement do nearly all the work, at sizes where enumeration
    plans are large; Monte Carlo does none.  Every round gives each cell
    fresh inputs, from a pool of POOL rounds.
    """

    name = "oracle-mid"
    # (2,)^7 sic-subsets is left out on purpose: with the current oracles its
    # 2.7e8-tuple plan passes the default budget and would then try to
    # allocate about 8.6 GB.  The plan-memory cost still shows on the (2,)^6
    # cell, in peak_rss_mb and oracles.exact_rejection.sic-subsets.cold_rss_mb.
    TENSOR_SHAPES = ((2,) * 6, (4, 4, 4), (3, 3, 3), (2,) * 12)
    POOL = 8        # rounds of distinct inputs; later rounds reuse them in turn
    FLIPS = 2
    DP_SIZES = (4, 4, 4, 4)
    DP_ALPHABET = 3
    DP_CORRUPT = 3

    def _tests(self, dims):
        t = self.testers
        if dims == (2,) * 12:
            return (t.BLR,)
        if all(n == 2 for n in dims):
            return t.ALL_TEST_KINDS
        return t.TENSOR_TEST_KINDS

    def _kind(self, p: int):
        """Input kind of pool round p: flip-corrupted, uniform, direct sum."""
        h = self.harness
        return ((h.KIND_CORRUPTED, {"flips": self.FLIPS}),
                (h.KIND_UNIFORM, {}),
                (h.KIND_DIRECT_SUM, {}))[p % 3]

    def setup(self) -> None:
        h, ag = self.harness, self.agreement
        dpshape = ag.DPShape(self.DP_SIZES, self.DP_ALPHABET)
        self.tensors, self.products = [], []
        for p in range(self.POOL):
            kind, extra = self._kind(p)
            self.tensors.append({
                dims: h.generate(h.GeneratorSpec(
                    kind, self.core.Shape(dims), derive_seed(self.seed, p, i), **extra))
                for i, dims in enumerate(self.TENSOR_SHAPES)
            })
            rng = h.rng_for(derive_seed(self.seed, p, 99))
            clean = ag.random_direct_product(dpshape, rng)
            rows = rng.choice(dpshape.domain_size, size=self.DP_CORRUPT, replace=False)
            coords = rng.integers(0, dpshape.k, size=self.DP_CORRUPT)
            cells = [(int(a), int(b)) for a, b in zip(rows, coords)]
            self.products.append((clean, ag.corrupt_entries(clean, cells, rng)))
        self._rounds = [self._build_round(p) for p in range(self.POOL)]

    def _report(self, f, test):
        o = self.oracles
        rej = o.exact_rejection(f, test)
        if test == self.testers.BLR:
            near = o.nearest_affine(self.testers.blr_table(f))
        else:
            near = o.nearest_direct_sum(f)
        return rej.value, near.distance

    def _tensor_op(self, p, dims, test) -> Op:
        f = self.tensors[p][dims]
        kind, extra = self._kind(p)
        h, t = self.harness, self.testers
        cell = f"{shape_key(dims)}|{test}"
        prefix = f"r{p}|{shape_key(dims)}|"

        def check(out, peer):
            rej, dist = out
            if kind == h.KIND_DIRECT_SUM and (rej or dist):
                return f"direct sum: rejection {rej}, distance {dist}"
            if "flips" in extra and dist > Fraction(extra["flips"], f.shape.size):
                return f"distance {dist} above {extra['flips']} flips"
            if test == t.SIC_CUBE:
                other = peer(prefix + t.SIC_SUBSETS)
                if other is not None and other[0] != rej:
                    return f"sic-cube {rej} != sic-subsets {other[0]}"
            return None

        return Op(prefix + test, lambda: self._report(f, test), _frac_pair, check,
                  cell=cell)

    def _bridge_op(self, p) -> Op:
        f = self.tensors[p][(4, 4, 4)]
        kind, _ = self._kind(p)
        direct = kind == self.harness.KIND_DIRECT_SUM

        def fn():
            return self.agreement.sic_to_dp_bridge(f, f.shape.origin())

        def check(g, peer):
            if direct and not _is_direct_product(g):
                return "bridge of a direct sum is not a direct product"
            return None

        return Op(f"r{p}|bridge|d3n4", fn, lambda g: sha(g.table.tobytes())[:16],
                  check, cell="bridge")

    def _agreement_op(self, p) -> Op:
        ag = self.agreement
        clean, g = self.products[p]
        k = len(self.DP_SIZES)

        def fn():
            alpha = ag.exact_alpha_rejection(g, Fraction(3, 4))
            fixed = ag.exact_fixed_t_rejection(g, ag.default_intersection_size(k))
            return alpha.value, fixed.value, ag.dp_plurality_decode(g)

        def check(out, peer):
            alpha, fixed, decode = out
            size = g.dpshape.domain_size
            if not (alpha > 0 and fixed > 0):
                return f"corrupted product accepted: alpha {alpha}, fixed-t {fixed}"
            if decode.product() != clean:
                return "plurality decode missed the uncorrupted product"
            if decode.agreement != Fraction(size - self.DP_CORRUPT, size):
                return f"decode agreement {decode.agreement}"
            return None

        return Op(f"r{p}|agreement|d4n4m3", fn,
                  lambda out: f"{out[0]}|{out[1]}|{out[2].agreement}", check,
                  cell="agreement")

    def _build_round(self, p) -> list[Op]:
        ops = [self._tensor_op(p, dims, test)
               for dims in self.TENSOR_SHAPES for test in self._tests(dims)]
        ops.append(self._bridge_op(p))
        ops.append(self._agreement_op(p))
        return ops

    def warmup_ops(self) -> list[Op]:
        return self._rounds[0]

    def round_ops(self, r: int) -> list[Op]:
        return self._rounds[r % self.POOL]


def _is_direct_product(g) -> bool:
    """Output coordinate i depends on input coordinate i alone."""
    sizes = g.dpshape.sizes
    nd = g.table.reshape(sizes + (len(sizes),))
    for i in range(len(sizes)):
        col = np.moveaxis(nd[..., i], i, 0).reshape(sizes[i], -1)
        if (col != col[:, :1]).any():
            return False
    return True


# ---------------------------------------------------------------------------
# soundness-exhaustive
# ---------------------------------------------------------------------------


_RATIO = re.compile(r"min eps/dist ratio: (\S+) ")


class SoundnessExhaustive(Workload):
    """Four in-process `oracle --assert-soundness --exhaustive` verdicts.

    The same oracle layer as oracle-mid, used the other way: up to 2^16 tiny
    calls per verdict, so per-call overhead, BinaryTensor construction and
    the CLI loop dominate, not plan size.  An op is one tensor certified.
    """

    name = "soundness-exhaustive"
    golden_per_seed = False

    def setup(self) -> None:
        self._ops = [self._verdict(test, shape) for test, shape in VERDICTS]

    def _size(self, shape: str) -> int:
        return int(np.prod([int(n) for n in shape.split(",")]))

    def _verdict(self, test, shape) -> Op:
        size = self._size(shape)
        argv = ["oracle", "--assert-soundness", "--exhaustive",
                "--shape", shape, "--test", test]

        def fn():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            return code, err.getvalue()

        def check(out, peer):
            code, text = out
            if code != 0:
                return f"exit {code}: {text.strip()}"
            if f"soundness holds for {test} on all {1 << size} tensors" not in text:
                return f"unexpected verdict: {text.strip()}"
            return None

        def summary(out):
            m = _RATIO.search(out[1])
            return m.group(1) if m else ""

        return Op(verdict_name(test, shape), fn, summary, check,
                  weight=1 << size)

    def warmup_ops(self) -> list[Op]:
        """One tensor certified per (shape, test): the oracle calls of one step."""
        o, t = self.oracles, self.testers
        ops = []
        for test, shape in VERDICTS:
            dims = tuple(int(n) for n in shape.split(","))
            f = self.core.BinaryTensor(self.core.Shape(dims), [0] * self._size(shape))

            def fn(f=f, test=test):
                if test == t.BLR:
                    o.exact_blr_rejection(t.blr_table(f))
                    return o.nearest_affine(t.blr_table(f))
                o.exact_rejection(f, test)
                return o.nearest_direct_sum(f)

            ops.append(Op(f"warm|{test}", fn, str))
        return ops

    def round_ops(self, r: int) -> list[Op]:
        return self._ops


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


class CliSession(Workload):
    """One fresh `python -m rank1check.cli` process per op, one at a time.

    The only workload that pays interpreter and import start-up on every op,
    and the only one that runs the sweep's thread pool, text I/O, decode and
    spectral.  A round is gen, test, oracle, decode, sweep, spectral.
    """

    name = "cli-session"
    SHAPE = "4,4,4"
    FLIPS = 2
    TEST = "sic-subsets"
    PARTS = "20,20,20"

    # Set by the traced run: ops then start through the launcher, which
    # records spans into `spans_path` under the tracer's op id.
    tracer = None
    spans_path = None
    phase = "run"

    def setup(self) -> None:
        h = self.harness
        self.dir = self.out_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "sweep.cfg"
        self.config.write_text(h.DEFAULT_SWEEP_CONFIG, encoding="utf-8")
        self.gen_seed = derive_seed(self.seed, 0)
        self.env = child_env()
        self._expected = {}

    def ops_in_children(self) -> bool:
        return True

    def run_cli(self, args, env_extra=None):
        env = self.env
        if self.tracer is not None:
            cmd = [sys.executable, str(LAUNCHER)] + args
            env = dict(env, PERFBENCH_SPANS=str(self.spans_path),
                       PERFBENCH_OP=str(self.tracer.op),
                       PERFBENCH_PHASE=self.phase)
        else:
            cmd = [sys.executable, "-m", "rank1check.cli"] + args
        if env_extra:
            env = dict(env, **env_extra)
        return self.spawner.run(cmd, env)

    def path(self, name: str, r) -> Path:
        return self.dir / f"{name}-{r}"

    # Reference outputs, computed in this process on first use (during
    # checks, so outside the timed phase and outside set-up).
    def expected(self, what: str):
        if what not in self._expected:
            self._expected[what] = self._compute(what)
        return self._expected[what]

    def _compute(self, what: str):
        h, o = self.harness, self.oracles
        if what == "tensor":
            spec = h.GeneratorSpec(h.KIND_CORRUPTED, self.core.Shape(
                tuple(int(n) for n in self.SHAPE.split(","))), self.gen_seed,
                flips=self.FLIPS)
            return h.generate(spec)
        f = self.expected("tensor")
        if what == "estimate":
            return h.estimate_rejection(f, self.TEST, TRIALS, self.seed)
        if what == "oracle":
            return o.exact_rejection(f, self.TEST).value, o.nearest_direct_sum(f).distance
        if what == "decode":
            return o.best_anchor_decode(f)
        if what == "sweep":
            rows, _ = h.run_sweep(h.parse_sweep_config(h.DEFAULT_SWEEP_CONFIG), self.seed)
            return h.sweep_csv(rows)
        if what == "spectral":
            sp = self.spectral
            report = sp.verify_spectrum(sp.build_skeleton(
                tuple(int(n) for n in self.PARTS.split(","))))
            return sp.SPECTRUM_CSV_HEADER + "\n" + sp.spectrum_csv_row(report) + "\n"
        raise KeyError(what)

    def sweep_args(self, r: int) -> list[str]:
        return ["sweep", "--config", str(self.config), "--master-seed",
                str(self.seed), "-o", str(self.path("sweep.csv", r))]

    def _cycle(self, r: int) -> list[Op]:
        tensor = str(self.path("f.tensor", r))
        decoded = self.path("decoded.tensor", r)
        sweep_csv = self.path("sweep.csv", r)
        spectral_csv = self.path("spectral.csv", r)
        core = self.core

        def exit_ok(out):
            return None if out[0] == 0 else f"exit {out[0]}: {out[2].strip()}"

        def gen_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            text = Path(tensor).read_text(encoding="utf-8")
            if text != core.tensor_to_text(self.expected("tensor")):
                return "gen output differs from harness.generate"
            return None

        def gen_summary(out):
            return sha(Path(tensor).read_text(encoding="utf-8"))[:16]

        def test_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            est = self.expected("estimate")
            if f"trials={TRIALS} rejections={est.rejections} " not in out[1]:
                return f"test printed {out[1].strip()!r}, expected {est.rejections}"
            return None

        def test_summary(out):
            m = re.search(r"rejections=(\d+)", out[1])
            return m.group(1) if m else ""

        def oracle_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            rej, dist = self.expected("oracle")
            if f"exact_rej={rej.numerator}/{rej.denominator} " not in out[1] or \
                    f"exact_dist={dist.numerator}/{dist.denominator} " not in out[1]:
                return f"oracle printed {out[1].strip()!r}, expected {rej} {dist}"
            return None

        def decode_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            f = core.tensor_from_text(decoded.read_text(encoding="utf-8"))
            if not self.oracles.is_direct_sum(f):
                return "decode output is not a direct sum"
            anchor, ds, dist = self.expected("decode")
            m = re.search(r"distance=(\d+/\d+)", out[2])
            got = Fraction(m.group(1)) if m else None
            if got != dist or f != ds.materialize():
                return f"decode distance {got}, expected {dist}"
            size = f.shape.size
            if dist > Fraction(self.FLIPS, size):
                return f"decode distance {dist} above {self.FLIPS} flips"
            return None

        def decode_summary(out):
            return sha(decoded.read_text(encoding="utf-8"))[:16]

        def sweep_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            if sweep_csv.read_bytes() != self.expected("sweep").encode():
                return "CLI sweep CSV differs from harness.sweep_csv(run_sweep(...))"
            return None

        def spectral_check(out, peer):
            bad = exit_ok(out)
            if bad:
                return bad
            if spectral_csv.read_text(encoding="utf-8") != self.expected("spectral"):
                return "spectral CSV differs from the in-process report"
            return None

        return [
            Op("gen", lambda: self.run_cli(
                ["gen", "--shape", self.SHAPE, "--kind", "corrupted-direct-sum",
                 "--flips", str(self.FLIPS), "--seed", str(self.gen_seed),
                 "-o", tensor]), gen_summary, gen_check),
            Op("test", lambda: self.run_cli(
                ["test", "--input", tensor, "--test", self.TEST,
                 "--seed", str(self.seed)]), test_summary, test_check),
            Op("oracle", lambda: self.run_cli(
                ["oracle", "--input", tensor, "--test", self.TEST]),
               lambda out: out[1].strip(), oracle_check),
            Op("decode", lambda: self.run_cli(
                ["decode", "--input", tensor, "--mode", "local-view",
                 "-o", str(decoded)]), decode_summary, decode_check),
            Op("sweep", lambda: self.run_cli(self.sweep_args(r)),
               lambda out: sha(sweep_csv.read_bytes()), sweep_check),
            Op("spectral", lambda: self.run_cli(
                ["spectral", "--parts", self.PARTS, "-o", str(spectral_csv)]),
               lambda out: sha(spectral_csv.read_bytes())[:16], spectral_check),
        ]

    def warmup_ops(self) -> list[Op]:
        """One `gen` process: compiles bytecode and loads the interpreter's pages."""
        return self._cycle("warm")[:1]

    def round_ops(self, r: int) -> list[Op]:
        return self._cycle(r)


WORKLOADS = {w.name: w for w in (McLarge, OracleMid, SoundnessExhaustive, CliSession)}
