"""`scripts/bench_pairs.py` keeps every set of pairs it has written to a BENCH file, and
reports a bound verdict as unresolved when the runs spread wider than the bound.

The script is loaded from its file without writing bytecode next to it.
"""

import importlib.util
import sys
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
