"""One benchmark process: set up a workload, then run its timed phase.

Started by run.py, which times it from spawn; the result goes to --result
as JSON.

  --phase setup   set up and stop: one set-up time sample
  --phase timed   set up, then run whole rounds of ops for --seconds,
                  tracing off
  --phase traced  set up with tracing on (cold spans), run an untraced and a
                  traced phase of --seconds each, and compute the per-layer
                  metrics
  --phase cold    probe: one cold exact_rejection call of --test on its
                  largest oracle-mid cell, in this fresh process
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Spawner:
    """Client of spawner.py, which starts this worker's child processes.

    Create it before importing anything large, so that children do not
    inherit this process's peak RSS (see spawner.py).
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.children_peak_mb = 0.0

    def run(self, cmd, env=None, timeout: float = 120) -> tuple:
        """(exit code or None, stdout, stderr) of one child run to completion."""
        req = {"cmd": [str(c) for c in cmd], "env": dict(env or os.environ),
               "cwd": str(ROOT), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        self.children_peak_mb = reply["children_peak_mb"]
        return reply["code"], reply["stdout"], reply["stderr"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def import_rank1check() -> dict:
    """The package modules, imported from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spans

    mods = spans.rank1check_modules()
    origin = Path(mods["core"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"rank1check imported from {origin}, not from {src}")
    return mods


def check(records, golden) -> list:
    """(key, round, weight, message) for every op whose output fails a check.

    An op fails when it raised, when an invariant check rejects its output,
    when its summary differs from an earlier op on the same input, or, where
    `golden` is given, from the pinned value.
    """
    outs = {(r, op.key): out for op, r, _, out, err in records if err is None}
    first: dict = {}
    failures = []
    for op, r, _, out, err in records:
        msg = err
        if msg is None:
            try:
                if op.check is not None:
                    msg = op.check(out, lambda key, r=r: outs.get((r, key)))
                if msg is None:
                    summary = op.summary(out)
                    if first.setdefault(op.key, summary) != summary:
                        msg = f"{summary} differs from {first[op.key]} on the same input"
                    elif golden is not None and golden.get(op.key) != summary:
                        msg = f"got {summary}, pinned {golden.get(op.key)}"
            except Exception as e:  # a broken output is a failed op, not a crash
                msg = f"check raised {type(e).__name__}: {e}"
        if msg:
            failures.append([op.key, r, op.weight, msg])
    return failures


def throughput(records) -> float:
    """Ops per second at each cell's median latency over the rounds.

    Every round holds the same cells, so this is the rate of a typical
    round; the median keeps a burst of host noise in one round out of it.
    """
    latencies: dict = {}
    weights: dict = {}
    for op, _, lat, _, _ in records:
        latencies.setdefault(op.cell, []).append(lat)
        weights[op.cell] = op.weight
    return sum(weights.values()) / sum(statistics.median(v) for v in latencies.values())


def run_phase(wl, seconds: float, golden, tracer=None) -> dict:
    """Closed loop, one client: whole rounds until `seconds` have passed."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in wl.round_ops(r):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out, err = op.fn(), None
            except Exception as e:  # counted in error_rate; the run goes on
                out, err = None, f"{type(e).__name__}: {e}"
            records.append((op, r, time.perf_counter() - t0, out, err))
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.phase = "check"
    failures = check(records, golden)
    return {
        "wall": wall,
        "rounds": r,
        "ops_per_s": throughput(records),
        "ops": [[lat, op.weight] for op, _, lat, _, _ in records],
        "attempted": sum(op.weight for op, *_ in records),
        "failed": sum(f[2] for f in failures),
        "failures": failures[:20],
    }


def load_golden(path: str, wl, seed: int):
    from workloads import DEFAULT_SEED

    if wl.golden_per_seed and seed != DEFAULT_SEED:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[wl.name]


def import_probe(spawner: Spawner) -> dict:
    import layers
    from workloads import child_env

    code, _, err = spawner.run(
        [sys.executable, "-X", "importtime", "-c", "import rank1check.cli"],
        child_env())
    if code != 0:
        raise RuntimeError(f"import probe failed: {err}")
    return layers.import_split(err)


def cold_probes(args, spawner: Spawner) -> dict:
    import layers

    out = {}
    for test in layers.TESTS:
        path = OUT / f"cold-{test}.json"
        code, _, err = spawner.run(
            [sys.executable, HERE / "worker.py", "--phase", "cold",
             "--workload", args.workload, "--seed", args.seed,
             "--seconds", args.seconds, "--test", test, "--result", path])
        if code != 0:
            raise RuntimeError(f"cold probe of {test} failed: {err}")
        out[test] = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
    return out


def run_cold(args, mods) -> dict:
    import layers
    from spans import shape_key
    from workloads import OracleMid

    wl = OracleMid(args.seed, mods, OUT)
    wl.setup()
    dims = next(d for d in wl.TENSOR_SHAPES
                if shape_key(d) == layers.COLD_SHAPE[args.test])
    f = wl.tensors[0][dims]
    before = peak_rss_mb(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    mods["oracles"].exact_rejection(f, args.test)
    cold_ms = (time.perf_counter() - t0) * 1e3
    return {"cold_ms": cold_ms,
            "cold_rss_mb": peak_rss_mb(resource.RUSAGE_SELF) - before}


def run_traced(args, mods, wl, tracer, golden, spawner) -> dict:
    import layers
    import spans

    tracer.uninstall()
    untraced = run_phase(wl, args.seconds, golden)
    children = OUT / f"child-spans-{args.workload}.jsonl"
    children.unlink(missing_ok=True)
    if wl.ops_in_children():
        wl.tracer, wl.spans_path = tracer, children
    tracer.phase = "run"
    tracer.install(mods)
    traced = run_phase(wl, args.seconds, golden, tracer)
    tracer.uninstall()

    extra = {"overhead_pct": (untraced["ops_per_s"] - traced["ops_per_s"])
             / untraced["ops_per_s"] * 100}
    if wl.ops_in_children():
        # Single-thread reference sweep, through the launcher like every op.
        tracer.op += 1
        wl.phase = "threads1"
        code, _, err = wl.run_cli(wl.sweep_args("threads1"), {"RANK1CHECK_THREADS": "1"})
        if code != 0:
            raise RuntimeError(f"single-thread reference sweep failed: {err}")
        child_spans = spans.load(children)
        extra["threads1_busy_s"] = sum(
            s[4] - s[3] for s in child_spans
            if s[1] == "harness.run_sweep" and s[7] == "threads1")
        csv = wl.path("sweep.csv", "threads1").read_text(encoding="utf-8")
        extra["refused_cells"] = sum(
            cells[9:11].count("") for cells in
            (line.split(",") for line in csv.splitlines()[1:]))
        tracer.spans.extend(child_spans)
    if args.workload == "oracle-mid":
        extra["cold"] = cold_probes(args, spawner)
    extra["imports"] = import_probe(spawner)
    tracer.dump(OUT / f"spans-{args.workload}.jsonl")
    metrics = layers.compute(tracer.spans, extra)
    return {
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "untraced": untraced, "traced": traced,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", required=True,
                   choices=("setup", "timed", "traced", "cold"))
    p.add_argument("--result", required=True)
    p.add_argument("--golden", default=str(HERE / "golden.json"))
    p.add_argument("--test")
    args = p.parse_args()
    OUT.mkdir(exist_ok=True)

    spawner = None
    if args.workload == "cli-session" or args.phase == "traced":
        spawner = Spawner()
    try:
        result = run_worker(args, spawner)
    finally:
        if spawner is not None:
            spawner.close()
    if spawner is not None:
        result["rss_children_mb"] = spawner.children_peak_mb
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_worker(args, spawner) -> dict:
    mods = import_rank1check()
    if args.phase == "cold":
        return run_cold(args, mods)
    import spans
    import workloads

    tracer = spans.Tracer() if args.phase == "traced" else None
    if tracer is not None:
        tracer.install(mods)
    wl = workloads.WORKLOADS[args.workload](args.seed, mods, OUT)
    wl.spawner = spawner
    wl.setup()
    wl.warmup()
    result = {"ready": time.monotonic()}
    if args.phase == "setup":
        return result
    golden = load_golden(args.golden, wl, args.seed)
    if args.phase == "timed":
        result["phase"] = run_phase(wl, args.seconds, golden)
    else:
        result.update(run_traced(args, mods, wl, tracer, golden, spawner))
    import numpy
    import scipy

    result["rss_self_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    result["ops_in_children"] = wl.ops_in_children()
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    if hasattr(wl, "working_set_bytes"):
        result["working_set_bytes"] = wl.working_set_bytes()
    return result


if __name__ == "__main__":
    sys.exit(main())
