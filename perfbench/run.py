"""rank1check benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
mc-large, oracle-mid, soundness-exhaustive, cli-session.  Each runs as a
closed loop with one client, in whole rounds of the same cells, until
--seconds have passed; inputs come from --seed only.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_RUNS
fresh processes, each timed from spawn to its first timed op), ops_per_s
(the rate of a round at each cell's median latency), op_p50_ms and
peak_rss_mb.  It also prints op_p90_ms where at least ten ops
fall beyond it, and error_rate with both counts.  --trace 1 runs the same
ops untraced and then traced, and reports every per-layer metric of
layers.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a run record with the environment
goes to .perfbench_out/.

Thread counts are pinned before any worker starts: RANK1CHECK_THREADS to at
most the CPUs this process may use, and the BLAS pools to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 3
DEADLINE_S = 170  # every run ends inside the 180 s a run may take
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mc-large", "oracle-mid", "soundness-exhaustive", "cli-session")


def pin_threads(nproc: int) -> None:
    raw = os.environ.get("RANK1CHECK_THREADS", "")
    want = int(raw) if raw.strip().isdigit() else nproc
    os.environ["RANK1CHECK_THREADS"] = str(max(1, min(want, nproc)))
    for var in BLAS_VARS:
        os.environ[var] = "1"


def spawn(args, phase: str, deadline: float) -> dict:
    """Run one worker to completion; its result, plus `spawned` (monotonic)."""
    result = OUT / f"worker-{os.getpid()}-{phase}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--phase", phase, "--result", str(result), "--golden", args.golden]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{phase} worker passed the {DEADLINE_S} s deadline")
    if code != 0:
        raise RuntimeError(f"{phase} worker exited with code {code}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    data["spawned"] = spawned
    return data


def quantile(samples: list, q: float) -> float:
    """Lower weighted quantile of (value, weight) samples."""
    ordered = sorted(samples)
    target = q * sum(w for _, w in ordered)
    cum = 0
    for value, weight in ordered:
        cum += weight
        if cum >= target:
            return value
    return ordered[-1][0]


def beyond(samples: list, value: float) -> int:
    return sum(w for v, w in samples if v > value)


def end_to_end(setups: list, worker: dict) -> tuple[dict, list]:
    """Metrics and human-readable lines of an untraced run."""
    phase = worker["phase"]
    per_op = [(lat / w * 1e3, w) for lat, w in phase["ops"]]
    n = sum(w for _, w in per_op)
    p50, p90 = quantile(per_op, 0.5), quantile(per_op, 0.9)
    rss = worker["rss_children_mb" if worker["ops_in_children"] else "rss_self_mb"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (phase["ops_per_s"], "1/s"),
        "op_p50_ms": (p50, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setups)}: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"ops_per_s {metrics['ops_per_s'][0]:.4f} 1/s (at each cell's median "
        f"latency; {phase['attempted']} ops in {phase['wall']:.3f} s, "
        f"{phase['rounds']} rounds)",
        f"op_p50_ms {p50:.4f} ms (n={n}, {beyond(per_op, p50)} beyond)",
    ]
    if beyond(per_op, p90) >= 10:
        lines.append(f"op_p90_ms {p90:.4f} ms (n={n}, {beyond(per_op, p90)} beyond)")
    else:
        lines.append(f"op_p90_ms not reported: {beyond(per_op, p90)} of {n} ops "
                     "beyond it, fewer than 10")
    lines.append(f"peak_rss_mb {rss:.1f} MB"
                 + (" (largest child process)" if worker["ops_in_children"] else ""))
    return metrics, lines


def machine() -> dict:
    info = {"git_sha": None, "l2_cache": None, "l3_cache": None}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        info["git_sha"] = proc.stdout.strip() or None
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "L2 cache":
            info["l2_cache"] = value.strip()
        elif key.strip() == "L3 cache":
            info["l3_cache"] = value.strip()
    return info


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", default=str(HERE / "golden.json"),
                   help="pinned outputs at the default seed")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rank1check" / "__init__.py").is_file():
        print(f"error: no rank1check sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            worker = spawn(args, "traced", deadline)
            metrics = {k: (m["value"], m["unit"]) for k, m in worker["metrics"].items()}
            phases = [worker["untraced"], worker["traced"]]
            lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                s = spawn(args, "setup", deadline)
                setups.append(s["ready"] - s["spawned"])
            worker = spawn(args, "timed", deadline)
            setups.append(worker["ready"] - worker["spawned"])
            phases = [worker["phase"]]
            metrics, lines = end_to_end(setups, worker)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} failed of "
                 f"{attempted} attempted)")
    for ph in phases:
        for key, r, weight, msg in ph["failures"]:
            lines.append(f"FAILED {key} round {r}: {msg}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine(), "versions": worker.get("versions"),
        "nproc": nproc, "RANK1CHECK_THREADS": os.environ["RANK1CHECK_THREADS"],
        "blas_threads": os.environ[BLAS_VARS[0]],
        "working_set_bytes": worker.get("working_set_bytes"),
        "samples": {"setup_s": SETUP_RUNS, "ops": [len(ph["ops"]) for ph in phases],
                    "weighted_ops": [ph["attempted"] for ph in phases]},
        "attempted": attempted, "failed": failed,
        "failures": [f for ph in phases for f in ph["failures"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={nproc} "
          f"RANK1CHECK_THREADS={record['RANK1CHECK_THREADS']} "
          f"blas_threads={record['blas_threads']} git_sha={record['git_sha']}")
    for line in lines:
        print(line)
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
