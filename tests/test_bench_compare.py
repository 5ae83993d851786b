"""tools/bench_compare.py on two hand-made record directories."""

import hashlib
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def write_records(directory, sha, runs, done=None):
    """One record per (workload, seed): (ops_per_s, peak_rss_mb), and the
    completed op count from `done`, 100 where it names none."""
    directory.mkdir()
    for (workload, seed), (ops, rss) in runs.items():
        record = {
            "workload": workload, "seed": seed, "trace": 0, "git_sha": sha,
            "versions": {"python": "3.11.7", "numpy": "2.4.6"},
            "nproc": 2, "RANK1CHECK_THREADS": "2",
            "samples": {"setup_s": 3, "ops": [(done or {}).get((workload, seed), 100)]},
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
        }
        path = directory / f"record-{workload}-seed{seed}-trace0.json"
        path.write_text(json.dumps(record))


def test_pairs_by_workload_and_seed(tmp_path):
    write_records(tmp_path / "parent", "aaa", {
        ("mc-large", 1): (10.0, 300.0), ("mc-large", 2): (12.0, 300.0),
        ("mc-large", 3): (11.0, 301.0), ("mc-large", 4): (99.0, 1.0),
        ("cli-session", 1): (0.5, 100.0)})
    write_records(tmp_path / "change", "bbb", {
        ("mc-large", 1): (15.0, 290.0), ("mc-large", 2): (11.0, 300.0),
        ("mc-large", 3): (16.0, 290.0), ("cli-session", 1): (0.6, 100.0)})
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["parent"] == {"git_sha": "aaa", "nproc": 2, "RANK1CHECK_THREADS": "2",
                                "versions": {"python": "3.11.7", "numpy": "2.4.6"}}
    assert result["change"]["git_sha"] == "bbb"
    mc = result["workloads"]["mc-large"]
    assert mc["seeds"] == [1, 2, 3]  # seed 4 ran on the parent only
    ops = mc["metrics"]["ops_per_s"]
    assert ops["parent"] == {"q1": 10.5, "median": 11.0, "q3": 11.5}
    assert ops["change"] == {"q1": 13.0, "median": 15.0, "q3": 15.5}
    assert (ops["pairs"], ops["change_better"], ops["better"]) == (3, 2, "higher")
    rss = mc["metrics"]["peak_rss_mb"]
    assert (rss["change_better"], rss["better"], rss["bound"]) == (2, "lower", 0.05)
    assert result["workloads"]["cli-session"]["metrics"]["ops_per_s"]["pairs"] == 1


def test_median_completed_ops(tmp_path, capsys):
    # The op counts are paired like the metrics: seed 4 ran on the parent only.
    runs = {("mc-large", s): (10.0, 100.0) for s in (1, 2, 3)}
    write_records(tmp_path / "parent", "aaa", {**runs, ("mc-large", 4): (10.0, 100.0)},
                  {("mc-large", 1): 500, ("mc-large", 2): 520, ("mc-large", 3): 510,
                   ("mc-large", 4): 9000})
    write_records(tmp_path / "change", "bbb", runs,
                  {("mc-large", 1): 700, ("mc-large", 2): 690, ("mc-large", 3): 705})
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(out)]) == 0
    mc = json.loads(out.read_text())["workloads"]["mc-large"]
    assert mc["median_ops"] == {"parent": 510, "change": 700}
    assert "ops" not in mc["metrics"]
    assert capsys.readouterr().out == (
        "mc-large: median ops 510 (parent) 700 (change); peak_rss_mb 100 (parent) "
        "100 (change), +0 MB per 1000 ops\n")


def test_rss_per_thousand_ops(tmp_path, capsys):
    # The change completes 2000 more ops and peaks 0.8 MB higher: 0.4 MB per
    # 1000 ops, a rise that tracks the op count.  Equal op counts give none.
    write_records(tmp_path / "parent", "aaa",
                  {("mc-large", s): (10.0, 50.0 + s) for s in (1, 2, 3)} |
                  {("oracle-mid", 1): (10.0, 40.0)},
                  {("mc-large", s): 10000 for s in (1, 2, 3)})
    write_records(tmp_path / "change", "bbb",
                  {("mc-large", s): (12.0, 50.8 + s) for s in (1, 2, 3)} |
                  {("oracle-mid", 1): (10.0, 41.0)},
                  {("mc-large", s): 12000 for s in (1, 2, 3)})
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    mc = workloads["mc-large"]
    assert mc["median_peak_rss_mb"] == {"parent": 52.0, "change": 52.8}
    assert abs(mc["rss_mb_per_1000_ops"] - 0.4) < 1e-9
    assert workloads["oracle-mid"]["rss_mb_per_1000_ops"] is None
    assert capsys.readouterr().out.splitlines() == [
        "mc-large: median ops 10000 (parent) 12000 (change); peak_rss_mb 52 (parent) "
        "52.8 (change), +0.4 MB per 1000 ops",
        "oracle-mid: median ops 100 (parent) 100 (change); peak_rss_mb 40 (parent) "
        "41 (change), equal op counts"]


def test_verdicts_against_the_bound(tmp_path):
    # ops_per_s (bound 0.25, higher is better) has a tight parent spread;
    # peak_rss_mb (bound 0.05, lower is better) a wide one.
    write_records(tmp_path / "parent", "aaa", {
        ("mc-large", 1): (10.0, 100.0), ("mc-large", 2): (10.5, 120.0),
        ("mc-large", 3): (9.5, 80.0),
        ("oracle-mid", 1): (10.0, 100.0), ("oracle-mid", 2): (10.5, 120.0),
        ("oracle-mid", 3): (9.5, 80.0)})
    write_records(tmp_path / "change", "bbb", {
        ("mc-large", 1): (7.0, 101.0), ("mc-large", 2): (7.2, 99.0),
        ("mc-large", 3): (7.4, 100.0),
        ("oracle-mid", 1): (8.0, 70.0), ("oracle-mid", 2): (8.2, 75.0),
        ("oracle-mid", 3): (8.4, 78.0)})
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    verdicts = {(w, name): (m["worse_beyond_bound"], m["unresolved"])
                for w, rows in workloads.items() for name, m in rows["metrics"].items()}
    assert verdicts == {
        # 7.2 is below 0.75 x 10.0; 8.2 is not.
        ("mc-large", "ops_per_s"): (True, False),
        ("oracle-mid", "ops_per_s"): (False, False),
        # The parent's 20 MB spread exceeds 0.05 x 100 MB: unresolved unless
        # every change run reads below every parent run.
        ("mc-large", "peak_rss_mb"): (False, True),
        ("oracle-mid", "peak_rss_mb"): (False, False),
    }


def test_names_each_sides_sources(tmp_path):
    # Both sides run from copies without git history: each is named by a hash
    # of its checkout's src/rank1check/*.py, and a side without sources by null.
    for side, text in (("parent", "x = 1\n"), ("change", "x = 2\n")):
        package = tmp_path / side / "src" / "rank1check"
        package.mkdir(parents=True)
        (package / "core.py").write_text(text)
        (package / "__init__.py").write_text("")
        (package / "notes.txt").write_text("not hashed")
        write_records(tmp_path / side / ".perfbench_out", None,
                      {("mc-large", 1): (10.0, 100.0)})
    write_records(tmp_path / "bare", None, {("mc-large", 1): (10.0, 100.0)})
    out = tmp_path / "bench.json"

    def hashes(parent, change):
        assert bench_compare.main([str(parent), str(change), "-o", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["parent"]["git_sha"] is None
        return result["src_sha256"]

    got = hashes(tmp_path / "parent" / ".perfbench_out",
                 tmp_path / "change" / ".perfbench_out")
    empty, core = (hashlib.sha256(text).hexdigest() for text in (b"", b"x = 1\n"))
    listing = (f"{empty}  src/rank1check/__init__.py\n"
               f"{core}  src/rank1check/core.py\n")
    assert got["parent"] == hashlib.sha256(listing.encode()).hexdigest()
    assert got["change"] not in (None, got["parent"])
    assert hashes(tmp_path / "bare", tmp_path / "parent" / ".perfbench_out") == {
        "parent": None, "change": got["parent"]}


def test_refuses_mixed_thread_counts(tmp_path, capsys):
    write_records(tmp_path / "parent", "aaa", {("mc-large", 1): (10.0, 300.0)})
    write_records(tmp_path / "change", "bbb", {("mc-large", 1): (10.0, 300.0)})
    extra = json.loads((tmp_path / "change" / "record-mc-large-seed1-trace0.json").read_text())
    extra["RANK1CHECK_THREADS"] = "1"
    (tmp_path / "change" / "record-mc-large-seed2-trace0.json").write_text(json.dumps(extra))
    code = bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(tmp_path / "bench.json")])
    assert code == 2
    assert "disagree on RANK1CHECK_THREADS" in capsys.readouterr().err


def test_refuses_a_directory_without_records(tmp_path, capsys):
    write_records(tmp_path / "parent", "aaa", {("mc-large", 1): (10.0, 300.0)})
    (tmp_path / "change").mkdir()
    code = bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(tmp_path / "bench.json")])
    assert code == 2
    assert "no record-*-trace0.json files" in capsys.readouterr().err


def gain_of(tmp_path, parent_ops, change_ops):
    """bench_compare's `gain` for ops_per_s over one mc-large pair per seed."""
    write_records(tmp_path / "parent", "aaa",
                  {("mc-large", s): (ops, 100.0) for s, ops in enumerate(parent_ops)})
    write_records(tmp_path / "change", "bbb",
                  {("mc-large", s): (ops, 100.0) for s, ops in enumerate(change_ops)})
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "-o", str(out)]) == 0
    ops = json.loads(out.read_text())["workloads"]["mc-large"]["metrics"]["ops_per_s"]
    return ops["change_better"], ops["gain"]


PARENT_OPS = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.3]


def test_gain_at_nine_of_ten_pairs(tmp_path):
    # Nine pairs won by 2 ops/s against a parent spread of 0.2; the tenth
    # ties, which counts for neither side.
    change = [p + 2 for p in PARENT_OPS[:9]] + [PARENT_OPS[9]]
    assert gain_of(tmp_path, PARENT_OPS, change) == (9, True)


def test_no_gain_at_eight_of_ten_pairs(tmp_path):
    change = [p + 2 for p in PARENT_OPS[:8]] + [p - 1 for p in PARENT_OPS[8:]]
    assert gain_of(tmp_path, PARENT_OPS, change) == (8, False)


def test_no_gain_inside_the_parent_spread(tmp_path):
    # Every pair won, but the medians differ by 0.5 against a parent q3 - q1
    # of 4.5.
    parent = [10.0 + s for s in range(10)]
    assert gain_of(tmp_path, parent, [p + 0.5 for p in parent]) == (10, False)
