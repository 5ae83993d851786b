"""Compare benchmark runs of two checkouts, one pair of runs per seed.

Usage (from the root of a checkout):

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR -o BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are the `.perfbench_out/` directories of two
checkouts.  Each holds the `record-<workload>-seed<seed>-trace0.json` files
that `perfbench/run.py --trace 0` writes, one per (workload, seed).  Runs
are paired by (workload, seed); a seed recorded on one side only is left
out.  For every end-to-end metric the output gives each side's median and
quartiles over the paired runs and the number of pairs in which the change
reads better, with the direction and bound from BENCHMARK.json, and three
verdicts.  `worse_beyond_bound`: the change's median is worse than the
parent's by more than bound x the parent's median.  `unresolved`: the
parent's q3 - q1 exceeds that same margin, and not every change run reads
better than every parent run.  `gain`: the change reads better in at least
nine tenths of the pairs, a tie counting for neither side, and its median
is better than the parent's by more than the parent's q3 - q1.  Per
workload it also gives, and prints, each side's median count of completed
ops (the records' `samples.ops`): a metric such as peak_rss_mb can move
with the op count alone.  So it also gives each side's median peak_rss_mb
and the change in it per 1000 added completed ops ("rss_mb_per_1000_ops",
null when the op counts are equal), and prints both next to the op counts:
a rise that only tracks the op count reads as a steady MB per 1000 ops.
The git sha, package versions, nproc and
RANK1CHECK_THREADS of each side are recorded; a side whose records
disagree on them is refused.  Each side's `src_sha256` is recorded too,
and names the code it ran where the checkout has no git history: the sha256
of what `sha256sum src/rank1check/*.py` prints, in name order, in the
checkout that holds the side's directory, or null where it has no such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"record-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
ENVIRONMENT = ("git_sha", "versions", "nproc", "RANK1CHECK_THREADS")


def load_side(directory: Path) -> tuple[dict, dict]:
    """(environment, {(workload, seed): metrics}) of one side's records.

    Each run's count of completed ops is kept beside its metrics, as "ops".
    """
    records = {}
    env = {}
    for path in sorted(directory.glob("record-*-trace0.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        for key in ENVIRONMENT:
            if env.setdefault(key, record[key]) != record[key]:
                raise ValueError(f"{directory}: records disagree on {key} "
                                 f"({env[key]!r} and {record[key]!r})")
        key = (match["workload"], int(match["seed"]))
        records[key] = {name: m["value"] for name, m in record["metrics"].items()}
        records[key]["ops"] = sum(record["samples"]["ops"])
    if not records:
        raise ValueError(f"{directory}: no record-*-trace0.json files")
    return env, records


def src_sha256(directory: Path) -> str | None:
    """Hash of the package sources in the checkout that holds `directory`."""
    files = sorted((directory.resolve().parent / "src" / "rank1check").glob("*.py"))
    if not files:
        return None
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                      f"src/rank1check/{path.name}\n" for path in files)
    return hashlib.sha256(listing.encode()).hexdigest()


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def compare(parent: dict, change: dict, metrics: dict) -> dict:
    """Per workload and metric: both sides' spreads and the pairs won."""
    out = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        rows = {}
        ops = {side: statistics.median(runs[workload, s]["ops"] for s in seeds)
               for side, runs in (("parent", parent), ("change", change))}
        for name, spec in metrics.items():
            pairs = [(parent[workload, s][name], change[workload, s][name])
                     for s in seeds
                     if name in parent[workload, s] and name in change[workload, s]]
            if not pairs:
                continue
            sign = 1 if spec["better"] == "higher" else -1
            before = spread([p for p, _ in pairs])
            after = spread([c for _, c in pairs])
            margin = spec["bound"] * abs(before["median"])
            better = sum(sign * (c - p) > 0 for p, c in pairs)
            rows[name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": before,
                "change": after,
                "pairs": len(pairs),
                "change_better": better,
                "worse_beyond_bound":
                    sign * (after["median"] - before["median"]) < -margin,
                "unresolved": (before["q3"] - before["q1"] > margin
                               and min(sign * c for _, c in pairs)
                               <= max(sign * p for p, _ in pairs)),
                "gain": (10 * better >= 9 * len(pairs)
                         and sign * (after["median"] - before["median"])
                         > before["q3"] - before["q1"]),
            }
        out[workload] = {"seeds": seeds, "median_ops": ops, "metrics": rows}
        rss = rows.get("peak_rss_mb")
        if rss is not None:
            rise = rss["change"]["median"] - rss["parent"]["median"]
            added = ops["change"] - ops["parent"]
            out[workload]["median_peak_rss_mb"] = {side: rss[side]["median"]
                                                   for side in ("parent", "change")}
            out[workload]["rss_mb_per_1000_ops"] = 1000 * rise / added if added else None
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    try:
        parent_env, parent = load_side(args.parent_dir)
        change_env, change = load_side(args.change_dir)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = {"parent": parent_env, "change": change_env,
              "src_sha256": {"parent": src_sha256(args.parent_dir),
                             "change": src_sha256(args.change_dir)},
              "workloads": compare(parent, change, metrics)}
    args.output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, row in result["workloads"].items():
        ops = row["median_ops"]
        line = f"{workload}: median ops {ops['parent']:g} (parent) {ops['change']:g} (change)"
        if "median_peak_rss_mb" in row:
            rss, per = row["median_peak_rss_mb"], row["rss_mb_per_1000_ops"]
            line += (f"; peak_rss_mb {rss['parent']:g} (parent) {rss['change']:g} (change), "
                     + ("equal op counts" if per is None else f"{per:+.3g} MB per 1000 ops"))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
