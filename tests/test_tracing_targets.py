"""The benchmark tracer's targets exist in the package.

`perfbench/tracing.py` wraps functions by dotted name; a refactor that renames
or deletes one would otherwise surface only in a traced benchmark run. The
tracer module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_on_the_package(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = []
    for target in tracing.TARGETS:
        mod_name, _, attr_path = target.partition(".")
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        *classes, attr = attr_path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(target)
    assert not missing, f"tracer targets missing from the package: {missing}"
