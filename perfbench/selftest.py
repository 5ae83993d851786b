"""Self-test of the benchmark: short passes of every workload and a negative control.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Every workload, one second, at the default seed (outputs compared with
   golden.json) and at a non-default seed, untraced and traced: each run
   must exit 0, report error_rate 0 and print exactly the metrics that
   BENCHMARK.json names for its trace mode.
2. Negative control: mc-large at the default seed against a copy of
   golden.json with one pinned value changed must report that op as failed.

Exits 0 when every check holds; prints one line per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 7


def run(workload: str, seed: int, trace: int, golden: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["text"] = lines[:-1]
    return result


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((DEFAULT_SEED, 0), (OTHER_SEED, 0), (OTHER_SEED, 1)):
            res = run(workload, seed, trace)
            label = f"{workload} seed={seed} trace={trace}"
            print(f"{label}: attempted={res['attempted']} failed={res['failed']}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{label}: failed ops\n  " + "\n  ".join(
                    line for line in res["text"] if line.startswith("FAILED")))
            if set(res["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ expected[trace])}")

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    key = sorted(golden["mc-large"])[0]
    golden["mc-large"][key] = str(int(golden["mc-large"][key]) + 1)
    wrong = ROOT / ".perfbench_out" / "golden-negative-control.json"
    wrong.write_text(json.dumps(golden), encoding="utf-8")
    res = run("mc-large", DEFAULT_SEED, 0, wrong)
    wrong.unlink()
    flagged = [line for line in res["text"] if line.startswith(f"FAILED {key} ")]
    print(f"negative control ({key} pinned wrong): failed={res['failed']}")
    if res["correct"] or not res["failed"] or not flagged:
        problems.append("negative control: the wrong pinned value was not reported")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
