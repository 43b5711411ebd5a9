"""Outside-in span tracer for rawnetlite, used only by the traced benchmark run.

The package's modules import functions by name (`from .data_pipeline import
make_batches`), so rebinding a function in its defining module is not enough:
`install` rebinds every module attribute in the package that holds the
original object, and the class attribute for a method. `restore` puts every
original back. Spans (name, start, end, parent, failed) stay in memory until
`dump` writes them out.

A generator function gets one span per `next()`, so its time is the time the
consumer waited for each item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "rawnetlite"

# <module>.<function> or <module>.<Class>.<method>, relative to PACKAGE
TARGETS = (
    "audio_io.decode_wav", "audio_io.to_mono", "audio_io.resample", "audio_io.preprocess",
    "audio_io.read_clip", "audio_io.write_clip",
    "augment.augment_pipeline", "augment.apply_plan",
    "augment.pitch_shift_samples", "augment.time_stretch_samples",
    "data_pipeline.parse_manifest", "data_pipeline.load_clip", "data_pipeline.make_batches",
    "nn_core.conv1d_forward", "nn_core.conv1d_backward",
    "nn_core.batchnorm1d_forward", "nn_core.batchnorm1d_backward",
    "nn_core.relu_forward", "nn_core.relu_backward",
    "nn_core.residual_block_forward", "nn_core.residual_block_backward",
    "nn_core.adaptive_avg_pool1d_forward", "nn_core.adaptive_avg_pool1d_backward",
    "nn_core.bigru_forward", "nn_core.bigru_backward",
    "nn_core.linear_forward", "nn_core.linear_backward",
    "nn_core.sigmoid_forward", "nn_core.sigmoid_backward",
    "nn_core.Adam.step",
    "model.build", "model.load",
    "model.Model.forward", "model.Model.forward_train", "model.Model.backward",
    "losses_metrics.focal_loss", "losses_metrics.classification_metrics",
    "losses_metrics.eer", "losses_metrics.write_score_file",
    "train_eval.train", "train_eval.score_entries", "train_eval.evaluate",
    "cli.main", "cli.cmd_preprocess",
)

NAME, START, END, PARENT, FAILED = range(5)


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive so ids stay unique

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, failed: bool) -> None:
        self.spans[idx][END] = perf_counter()
        self.spans[idx][FAILED] = failed
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._close(idx, False)
                            return
                        except BaseException:
                            self._close(idx, True)
                            raise
                        self._close(idx, False)
                        yield item
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            return out
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        resolved = []
        for target in TARGETS:
            mod_name, _, attr_path = target.partition(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *classes, attr = attr_path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            resolved.append((target, owner, attr, bool(classes)))
        modules = _package_modules()
        for target, owner, attr, is_method in resolved:
            original = vars(owner)[attr]
            wrapper = self._wrap(target, original)
            self._wrappers[id(wrapper)] = wrapper
            if is_method:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back, then check that no wrapper is left bound."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        owners = _package_modules()
        owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
        left = [f"{o.__name__}.{k}" for o in owners for k, v in vars(o).items()
                if id(v) in self._wrappers]
        if left:
            raise RuntimeError(f"tracer wrappers still bound after restore: {left}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reporting --------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-target self time and calls, cache counts, and the time no span covers."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        root_s = 0.0
        for s, child in zip(self.spans, children):
            dur = s[END] - s[START]
            self_ms[s[NAME]] += (dur - child) * 1000.0
            total_ms[s[NAME]] += dur * 1000.0
            calls[s[NAME]] += 1
            errors[s[NAME]] += s[FAILED]
            if s[PARENT] < 0:
                root_s += dur

        def from_load_clip(name: str) -> int:
            return sum(1 for s in self.spans if s[NAME] == name and s[PARENT] >= 0
                       and self.spans[s[PARENT]][NAME] == "data_pipeline.load_clip")

        out: dict[str, float] = {}
        for t in TARGETS:
            out[f"{t}.self_ms"] = self_ms[t]
            out[f"{t}.calls"] = calls[t]
        hits, misses = from_load_clip("audio_io.read_clip"), from_load_clip("audio_io.preprocess")
        out["data_pipeline.make_batches.wait_ms"] = total_ms["data_pipeline.make_batches"]
        out["data_pipeline.load_clip.cache_hits"] = hits
        out["data_pipeline.load_clip.cache_misses"] = misses
        out["data_pipeline.load_clip.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["data_pipeline.load_clip.errors"] = errors["data_pipeline.load_clip"]
        out["audio_io.decode_wav.errors"] = errors["audio_io.decode_wav"]
        out["trace.wall_ms"] = wall_s * 1000.0
        out["trace.unattributed_ms"] = (wall_s - root_s) * 1000.0
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "start_ms": (s[START] - t0) * 1000.0,
                                    "end_ms": (s[END] - t0) * 1000.0, "parent": s[PARENT],
                                    "failed": s[FAILED]}) + "\n")
