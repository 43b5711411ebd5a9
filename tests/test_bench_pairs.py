"""`scripts/bench_pairs.py` keeps every set of pairs it has written to a BENCH file.

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
