"""Per-layer metrics of the traced run, one rank1check module per layer.

Every traced run reports every metric below, whatever its workload; a metric
whose layer the workload never calls reads 0 (no calls, no busy time).
Unless a name says otherwise (`cold_*`, `harness.generate.busy_s`), a metric
counts the spans of the traced timed phase.  The comment on each group names
the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import statistics

from spans import self_times

TESTS = ("sic-subsets", "sic-cube", "shapka", "conjectured", "blr")
MC_SHAPES = ("d4n16", "d8n8", "d16n2")
# Each oracle's cold and warm figures come from its largest oracle-mid cell.
COLD_SHAPE = {"sic-subsets": "d6n2", "sic-cube": "d6n2", "shapka": "d6n2",
              "conjectured": "d6n2", "blr": "d12n2"}
NEAREST_TAG = {"nearest_direct_sum": "d3n4", "nearest_affine": "d12"}
# The soundness-exhaustive verdicts as (test, shape).  sic-subsets on
# (2,2,2,2) is left out: it takes about 162 s per verdict.
VERDICTS = (("shapka", "2,2,2,2"), ("blr", "2,2,2,2"),
            ("sic-subsets", "2,2,3"), ("sic-cube", "2,2,3"))


def verdict_name(test: str, shape: str) -> str:
    return f"{test}-{shape.replace(',', 'x')}"


AGREEMENT = ("exact_alpha_rejection", "exact_fixed_t_rejection",
             "dp_plurality_decode", "sic_to_dp_bridge")


def _metrics() -> list[tuple[str, str, str]]:
    m = []
    # harness Monte Carlo: ops_per_s and op_p50_ms on mc-large; nothing
    # on oracle-mid or soundness-exhaustive.
    m += [(f"harness.estimate_rejection.{t}.trials_per_s", "1/s", "higher") for t in TESTS]
    m += [(f"harness.estimate_rejection.{s}.p50_ms", "ms", "lower") for s in MC_SHAPES]
    # set-up input generation: setup_s on mc-large and oracle-mid.
    m += [("harness.generate.busy_s", "s", "lower")]
    # the CLI sweep: op_p50_ms on cli-session.
    m += [("harness.run_sweep.busy_s", "s", "lower"),
          ("harness.run_sweep.self_s", "s", "lower"),
          ("harness.run_sweep.threads1_busy_s", "s", "lower"),
          ("harness.run_sweep.refused_cells", "count", "lower")]
    # plan build: setup_s and peak_rss_mb on oracle-mid; plan apply:
    # ops_per_s and op_p90_ms on oracle-mid.
    for t in TESTS:
        m += [(f"oracles.exact_rejection.{t}.cold_ms", "ms", "lower"),
              (f"oracles.exact_rejection.{t}.cold_rss_mb", "MB", "lower"),
              (f"oracles.exact_rejection.{t}.warm_p50_ms", "ms", "lower")]
    # per-call cost: ops_per_s on soundness-exhaustive.
    for fn in ("exact_rejection", "exact_blr_rejection", "nearest_direct_sum",
               "nearest_affine"):
        m += [(f"oracles.{fn}.calls", "count", "lower"),
              (f"oracles.{fn}.busy_s", "s", "lower")]
    # nearest-codeword search: ops_per_s on oracle-mid.
    for fn in NEAREST_TAG:
        m += [(f"oracles.{fn}.cold_ms", "ms", "lower"),
              (f"oracles.{fn}.warm_p50_ms", "ms", "lower")]
    # decode: op_p50_ms on cli-session.
    m += [("oracles.best_anchor_decode.busy_s", "s", "lower")]
    # agreement oracles: op_p90_ms and ops_per_s on oracle-mid.
    m += [(f"agreement.{fn}.p50_ms", "ms", "lower") for fn in AGREEMENT]
    # tensor construction: ops_per_s on soundness-exhaustive; text codecs:
    # op_p50_ms on cli-session.
    m += [("core.BinaryTensor.calls", "count", "lower"),
          ("core.BinaryTensor.busy_s", "s", "lower"),
          ("core.tensor_text.busy_s", "s", "lower")]
    # the CLI loop: ops_per_s on soundness-exhaustive; start-up: op_p50_ms on
    # cli-session and setup_s everywhere.
    m += [(f"cli.soundness.{verdict_name(*v)}.s", "s", "lower") for v in VERDICTS]
    m += [("cli.main.self_s", "s", "lower"),
          ("cli.import_ms", "ms", "lower"),
          ("cli.import.scipy_stats_ms", "ms", "lower"),
          ("cli.import.numpy_ms", "ms", "lower"),
          ("cli.import.rank1check_ms", "ms", "lower")]
    # spectral: op_p50_ms on cli-session (small).
    m += [("spectral.build_skeleton.busy_s", "s", "lower"),
          ("spectral.verify_spectrum.busy_s", "s", "lower")]
    # BLR truth tables: BLR ops on mc-large and oracle-mid.
    m += [("testers.blr_table.busy_s", "s", "lower")]
    m += [("trace.overhead_pct", "%", "lower")]
    return m


METRICS = _metrics()


def _median_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def compute(spans: list[list], extra: dict) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit).

    `extra` holds what spans cannot give: `cold` (test -> {cold_ms,
    cold_rss_mb}) from fresh-process probes, `imports` (import-time split),
    `threads1_busy_s`, `refused_cells` and `overhead_pct`.
    """
    run = [s for s in spans if s[7] == "run"]
    setup = [s for s in spans if s[7] == "setup"]

    def dur(s):
        return s[4] - s[3]

    def named(group, name, tag=None):
        return [s for s in group if s[1] == name and (tag is None or s[2] == tag)]

    def busy(name):
        return sum(dur(s) for s in named(run, name))

    v: dict[str, float] = {}
    est = named(run, "harness.estimate_rejection")
    for t in TESTS:
        mine = [s for s in est if s[2].split("|")[0] == t]
        trials = sum(int(s[2].split("|")[2]) for s in mine)
        time_s = sum(dur(s) for s in mine)
        v[f"harness.estimate_rejection.{t}.trials_per_s"] = trials / time_s if time_s else 0.0
    for shape in MC_SHAPES:
        v[f"harness.estimate_rejection.{shape}.p50_ms"] = _median_ms(
            [dur(s) for s in est if s[2].split("|")[1] == shape])
    v["harness.generate.busy_s"] = sum(dur(s) for s in named(setup, "harness.generate"))

    sweeps = named(run, "harness.run_sweep")
    own = self_times(run)
    v["harness.run_sweep.busy_s"] = sum(dur(s) for s in sweeps)
    v["harness.run_sweep.self_s"] = sum(own[s[0]] for s in sweeps)
    v["harness.run_sweep.threads1_busy_s"] = extra.get("threads1_busy_s", 0.0)
    v["harness.run_sweep.refused_cells"] = extra.get("refused_cells", 0)

    cold = extra.get("cold", {})
    for t in TESTS:
        v[f"oracles.exact_rejection.{t}.cold_ms"] = cold.get(t, {}).get("cold_ms", 0.0)
        v[f"oracles.exact_rejection.{t}.cold_rss_mb"] = cold.get(t, {}).get("cold_rss_mb", 0.0)
        v[f"oracles.exact_rejection.{t}.warm_p50_ms"] = _median_ms(
            [dur(s) for s in named(run, "oracles.exact_rejection", f"{t}|{COLD_SHAPE[t]}")])
    for fn in ("exact_rejection", "exact_blr_rejection", "nearest_direct_sum",
               "nearest_affine"):
        v[f"oracles.{fn}.calls"] = len(named(run, f"oracles.{fn}"))
        v[f"oracles.{fn}.busy_s"] = busy(f"oracles.{fn}")
    for fn, tag in NEAREST_TAG.items():
        first = named(setup, f"oracles.{fn}", tag)
        v[f"oracles.{fn}.cold_ms"] = dur(min(first, key=lambda s: s[3])) * 1e3 if first else 0.0
        v[f"oracles.{fn}.warm_p50_ms"] = _median_ms(
            [dur(s) for s in named(run, f"oracles.{fn}", tag)])
    v["oracles.best_anchor_decode.busy_s"] = busy("oracles.best_anchor_decode")
    for fn in AGREEMENT:
        v[f"agreement.{fn}.p50_ms"] = _median_ms(
            [dur(s) for s in named(run, f"agreement.{fn}")])

    v["core.BinaryTensor.calls"] = len(named(run, "core.BinaryTensor"))
    v["core.BinaryTensor.busy_s"] = busy("core.BinaryTensor")
    v["core.tensor_text.busy_s"] = busy("core.tensor_text")

    mains = named(run, "cli.main")
    for test, shape in VERDICTS:
        tail = f"--shape {shape} --test {test}"
        times = [dur(s) for s in mains
                 if s[2].startswith("oracle --assert-soundness") and s[2].endswith(tail)]
        v[f"cli.soundness.{verdict_name(test, shape)}.s"] = (
            statistics.median(times) if times else 0.0)
    v["cli.main.self_s"] = sum(own[s[0]] for s in mains)
    imports = extra.get("imports", {})
    for key in ("cli.import_ms", "cli.import.scipy_stats_ms", "cli.import.numpy_ms",
                "cli.import.rank1check_ms"):
        v[key] = imports.get(key, 0.0)

    v["spectral.build_skeleton.busy_s"] = busy("spectral.build_skeleton")
    v["spectral.verify_spectrum.busy_s"] = busy("spectral.verify_spectrum")
    v["testers.blr_table.busy_s"] = busy("testers.blr_table")
    v["trace.overhead_pct"] = extra.get("overhead_pct", 0.0)
    return {name: (v[name], unit) for name, unit, _ in METRICS}


def import_split(stderr: str) -> dict[str, float]:
    """Parse `python -X importtime` output into the cli.import metrics (ms)."""
    total_us = rank1check_us = 0
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
        total_us += int(self_us)
        name = name.strip()
        cumulative.setdefault(name, int(cum_us))
        if name.split(".")[0] == "rank1check":
            rank1check_us += int(self_us)
    return {
        "cli.import_ms": total_us / 1e3,
        "cli.import.scipy_stats_ms": cumulative.get("scipy.stats", 0) / 1e3,
        "cli.import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "cli.import.rank1check_ms": rank1check_us / 1e3,
    }
