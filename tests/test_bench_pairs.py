"""`scripts/bench_pairs.py` keeps every set of pairs it has written to a BENCH file, reports a
bound verdict as unresolved when the runs spread wider than the bound, and leaves a run that
crashed or timed out out of the verdicts while keeping every other pair.

The script is loaded from its file without writing bytecode next to it.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_rerun_moves_the_earlier_set_to_earlier_sets(monkeypatch):
    merge = load_bench_pairs(monkeypatch).merge
    doc = merge({}, "ingest", {"seeds": [1]})
    assert doc == {"end_to_end": {"ingest": {"seeds": [1]}}}
    merge(doc, "train_paper", {"seeds": [5]})
    merge(doc, "ingest", {"seeds": [2]})
    merge(doc, "ingest", {"seeds": [3]})
    assert doc["end_to_end"] == {"ingest": {"seeds": [3]}, "train_paper": {"seeds": [5]}}
    assert doc["earlier_sets"] == {"ingest": [{"seeds": [1]}, {"seeds": [2]}]}


def bound_verdict(summarize, better, parent, change):
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
    return summarize(metric, parent, change)["bound"]


def test_a_spread_wider_than_the_bound_is_unresolved(monkeypatch):
    summarize = load_bench_pairs(monkeypatch).summarize
    tight, wide = [10.0, 10.1, 10.2, 10.3, 10.4], [6.0, 8.0, 10.0, 12.0, 14.0]  # IQRs 0.2 and 4
    assert bound_verdict(summarize, "higher", tight, [9.0, 9.1, 9.2, 9.3, 9.4]) == "within"
    assert bound_verdict(summarize, "higher", tight, [5.0, 5.1, 5.2, 5.3, 5.4]) == "outside"
    assert bound_verdict(summarize, "lower", tight, [12.0, 12.1, 12.2, 12.3, 12.4]) == "within"
    assert bound_verdict(summarize, "lower", tight, [15.0, 15.1, 15.2, 15.3, 15.4]) == "outside"
    # either side's IQR over the parent's median is 0.4, wider than the bound
    assert bound_verdict(summarize, "higher", wide, tight) == "unresolved"
    assert bound_verdict(summarize, "higher", tight, wide) == "unresolved"
    assert bound_verdict(summarize, "lower", wide, [9.0, 9.5, 10.0, 10.5, 11.0]) == "unresolved"
    # unless every run of the change beats every run of the parent
    assert bound_verdict(summarize, "higher", wide, [20.0, 25.0, 30.0, 35.0, 40.0]) == "within"
    assert bound_verdict(summarize, "lower", wide, [1.0, 2.0, 3.0, 4.0, 5.0]) == "within"


def run_pairs(monkeypatch, tmp_path, pairs, failures):
    """main() over `pairs` pairs from seed 100 with the benchmark runs faked: a run succeeds with
    every metric at its seed (the change's one higher), unless failures maps its (side, seed) to
    "crash" (exit -11, no output) or "timeout". Returns the exit code and the BENCH entry."""
    bench_pairs = load_bench_pairs(monkeypatch)
    shutil.copy(SCRIPT.parents[1] / "BENCHMARK.json", tmp_path)
    names = [m["name"] for m in json.loads((tmp_path / "BENCHMARK.json").read_text())["end_to_end"]]

    def run(cmd, cwd, timeout, **_):
        side, seed = Path(cwd).name, int(cmd[cmd.index("--seed") + 1])
        failure = failures.get((side, seed))
        if failure == "timeout":
            raise subprocess.TimeoutExpired(cmd, timeout, output=b"partial", stderr=b"still running")
        if failure == "crash":
            return subprocess.CompletedProcess(cmd, -11, "", "Fatal Python error: Segmentation fault")
        value = float(seed + (side == "change"))
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {n: {"value": value, "unit": "u"} for n in names}}
        return subprocess.CompletedProcess(cmd, 0, f'env {{"nproc": 2}}\n{json.dumps(result)}\n', "")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "subprocess",
                        types.SimpleNamespace(run=run, TimeoutExpired=subprocess.TimeoutExpired))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda sha, dest: dest.mkdir(parents=True))
    code = bench_pairs.main(["--parent", "p", "--workload", "ingest", "--first-seed", "100",
                             "--pairs", str(pairs), "--name", "t"])
    text = (tmp_path / "BENCH_t.json").read_text()
    assert "NaN" not in text
    return code, json.loads(text)["end_to_end"]["ingest"]


def test_a_crashed_or_timed_out_run_leaves_its_pair_out_and_keeps_the_rest(monkeypatch, tmp_path):
    failures = {("change", 101): "crash", ("parent", 102): "timeout"}
    code, entry = run_pairs(monkeypatch, tmp_path, 4, failures)
    assert code == 1 and entry["pairs_counted"] == 2 and not entry["all_checks_passed"]
    assert [r["exit"] for r in entry["runs"]["parent"]] == [0, 0, "timeout", 0]
    assert [r["exit"] for r in entry["runs"]["change"]] == [0, -11, 0, 0]
    assert entry["runs"]["change"][1]["stderr_tail"] == "Fatal Python error: Segmentation fault"
    assert entry["runs"]["parent"][2]["stderr_tail"] == "still running"
    assert entry["failed_checks"] == {"parent": 1, "change": 1}
    for metric in entry["metrics"].values():
        assert metric["parent"]["runs"] == [100.0, 103.0] and metric["change"]["runs"] == [101.0, 104.0]
        assert metric["change_better_in_pairs"] == ("2/2" if metric["better"] == "higher" else "0/2")


def test_a_set_with_no_whole_pair_still_writes_its_runs(monkeypatch, tmp_path):
    code, entry = run_pairs(monkeypatch, tmp_path, 2, {("change", 100): "timeout", ("parent", 101): "crash"})
    assert code == 1 and entry["pairs_counted"] == 0 and entry["metrics"] == {}
    assert [r["exit"] for side in ("parent", "change") for r in entry["runs"][side]] == [0, -11, "timeout", 0]
    code, entry = run_pairs(monkeypatch, tmp_path, 1, {})
    assert code == 0 and entry["pairs_counted"] == 1
    assert all(m["parent"]["iqr"] == 0 and m["change"]["median"] == 101.0 for m in entry["metrics"].values())
