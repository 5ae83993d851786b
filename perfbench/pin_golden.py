"""Write golden.json: every op's output summary at the default seed.

Usage (from the root of a checkout): python3 perfbench/pin_golden.py

Runs each workload's distinct rounds once, refuses to pin an output that
fails its invariant checks, and writes the summaries the benchmark compares
against at the default seed.  Re-pin only when an output is meant to change,
and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    spawner = worker.Spawner()
    try:
        return pin(spawner)
    finally:
        spawner.close()


def pin(spawner) -> int:
    mods = worker.import_rank1check()
    import workloads

    worker.OUT.mkdir(exist_ok=True)
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, mods, worker.OUT)
        wl.spawner = spawner
        wl.setup()
        rounds = getattr(wl, "POOL", 1)
        records = []
        for r in range(rounds):
            for op in wl.round_ops(r):
                records.append((op, r, 0.0, op.fn(), None))
        failures = worker.check(records, None)
        if failures:
            print(f"{name}: not pinned, checks failed: {failures}", file=sys.stderr)
            return 1
        golden[name] = {op.key: op.summary(out) for op, _, _, out, _ in records}
        print(f"{name}: {len(golden[name])} values", file=sys.stderr)
    path = worker.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
