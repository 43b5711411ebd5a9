"""Training loop (Adam + early stopping on validation F1) and evaluation runner.

`run_protocol` reproduces the experiment matrix: in-domain training on one
corpus, cross/triple-domain mixes with fixed per-domain sample caps, and the
augmented variants, all scalable by a single factor for desk-size runs.
`compose_protocol` only turns a protocol name into caps and test-set names;
the pools themselves come from `data_pipeline.compose_pools`, the single
pool composer that the `train` command uses too.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import losses_metrics as lm
from .augment import AugmentConfig
from .data_pipeline import (
    BatchStats, DomainCap, ManifestEntry, MixSpec, ProtocolViolationError,
    compose_pools, make_batches,
)
from .fileio import atomic_write
from .model import ConfigError, Model, RawNetLiteConfig, build, save
from .nn_core import Adam, TrainingError


@dataclass
class TrainConfig:
    loss: str = "focal"  # "bce" | "focal"
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    focal_flat_alpha: bool = False
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 10
    max_steps: Optional[int] = None  # optional optimizer-step budget
    patience: int = 3
    shuffle_seed: int = 0
    eval_batch_size: int = 64
    strict_data: bool = False

    def __post_init__(self):
        if self.loss not in ("bce", "focal"):
            raise ConfigError(f"loss must be 'bce' or 'focal', got {self.loss!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("max_epochs", "patience", "batch_size", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1 or null, got {self.max_steps}")
        if self.focal_gamma < 0:
            raise ConfigError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if not 0.0 <= self.focal_alpha <= 1.0:
            raise ConfigError(f"focal_alpha must be in [0, 1], got {self.focal_alpha}")

    def loss_fn(self):
        if self.loss == "bce":
            return lm.bce_loss
        g, a, flat = self.focal_gamma, self.focal_alpha, self.focal_flat_alpha
        return lambda p, y: lm.focal_loss(p, y, gamma=g, alpha=a, flat_alpha=flat)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_f1: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False


class BestTracker:
    """Early stopping: stop after `patience` consecutive non-improving epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_f1 = -np.inf
        self.best_epoch = 0
        self._bad = 0

    def update(self, epoch: int, f1: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop); ties keep the earlier epoch."""
        if f1 > self.best_f1:
            self.best_f1 = f1
            self.best_epoch = epoch
            self._bad = 0
            return True, False
        self._bad += 1
        return False, self._bad >= self.patience


def _snapshot(model: Model):
    arrays = [a.copy() for _, a in model._state_arrays()]
    return arrays, {k: s.initialized for k, s in model.bn_states.items()}


def _restore(model: Model, snap) -> None:
    arrays, initialized = snap
    for (_, dst), src in zip(model._state_arrays(), arrays, strict=True):
        dst[...] = src
    for k, flag in initialized.items():
        model.bn_states[k].initialized = flag


def score_entries(model: Model, entries: list[ManifestEntry], batch_size: int = 64,
                  cache_dir=None, strict: bool = False, stats: Optional[BatchStats] = None,
                  ) -> list[lm.ScoreRecord]:
    """Eval-mode forward over all clips, in manifest order."""
    records: list[lm.ScoreRecord] = []
    for x, _, batch in make_batches(entries, batch_size=batch_size, shuffle=False,
                                    strict=strict, cache_dir=cache_dir, stats=stats):
        probs = model.forward(x, mode="eval")
        records.extend(
            lm.ScoreRecord(e.path, e.label, float(p)) for e, p in zip(batch, probs))
    return records


def _fake_f1(records: list[lm.ScoreRecord]) -> float:
    rep = lm.classification_metrics(records, threshold=0.5)
    if rep.f1_fake is None:
        raise ConfigError("validation set contains no fake examples; fake F1 is undefined")
    return rep.f1_fake


def train(model_cfg: RawNetLiteConfig, cfg: TrainConfig,
          train_entries: list[ManifestEntry], val_entries: list[ManifestEntry],
          augment: Optional[AugmentConfig] = None, cache_dir=None,
          ) -> tuple[Model, TrainHistory]:
    """Train from scratch; returns the best-validation-F1 model and the history."""
    if not val_entries:
        raise ConfigError("validation set is empty")
    if not train_entries:
        raise ConfigError("training set is empty")

    model = build(model_cfg)
    opt = Adam(model.params, lr=cfg.lr)
    loss_fn = cfg.loss_fn()
    tracker = BestTracker(cfg.patience)
    history = TrainHistory()
    best_snap = None
    step = 0
    budget_exhausted = False

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        losses: list[float] = []
        correct = 0
        seen = 0
        for batch_idx, (x, y, _) in enumerate(make_batches(
                train_entries, batch_size=cfg.batch_size, shuffle_seed=cfg.shuffle_seed,
                augment=augment, epoch=epoch, shuffle=True, strict=cfg.strict_data,
                cache_dir=cache_dir)):
            probs, caches = model.forward_train(x)
            loss, dp = loss_fn(probs.astype(np.float64), y)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
            model.backward(dp.astype(model.dtype), caches)
            del caches  # else this step's activations stay alive through the next forward
            opt.step()
            losses.append(loss)
            correct += int(np.sum((probs >= 0.5) == (y >= 0.5)))
            seen += y.size
            step += 1
            if cfg.max_steps is not None and step >= cfg.max_steps:
                budget_exhausted = True
                break

        val_records = score_entries(model, val_entries, batch_size=cfg.eval_batch_size,
                                    cache_dir=cache_dir, strict=cfg.strict_data)
        if not val_records:
            raise ConfigError("validation set produced no readable clips")
        val_probs = np.array([r.score for r in val_records])
        val_labels = np.array([float(r.label) for r in val_records])
        val_loss = loss_fn(val_probs, val_labels)[0]
        val_f1 = _fake_f1(val_records)

        history.records.append(EpochRecord(
            epoch=epoch, train_loss=float(np.mean(losses)) if losses else float("nan"),
            train_accuracy=correct / seen if seen else float("nan"),
            val_loss=val_loss, val_f1=val_f1, seconds=time.perf_counter() - t0))

        improved, stop = tracker.update(epoch, val_f1)
        if improved:
            best_snap = _snapshot(model)
        if stop:
            history.stopped_early = True
            break
        if budget_exhausted:
            break

    history.best_epoch = tracker.best_epoch
    if best_snap is not None:
        _restore(model, best_snap)
    model.metadata = {"epoch": tracker.best_epoch, "best_val_f1": float(tracker.best_f1)}
    return model, history


def write_history_csv(history: TrainHistory, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_f1", "seconds"])
        for r in history.records:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss),
                             repr(r.val_f1), repr(r.seconds)])


def evaluate(model: Model, entries: list[ManifestEntry], score_path=None,
             threshold: float = 0.5, batch_size: int = 64, cache_dir=None,
             strict: bool = False, train_paths: Optional[set[str]] = None,
             ) -> tuple[lm.EvalReport, list[lm.ScoreRecord], BatchStats]:
    """Score a test manifest and compute threshold metrics plus EER."""
    if train_paths is not None:
        overlap = {e.path for e in entries} & train_paths
        if overlap:
            raise ProtocolViolationError(
                f"{len(overlap)} test paths overlap the training set, e.g. {sorted(overlap)[:3]}")
    stats = BatchStats()
    records = score_entries(model, entries, batch_size=batch_size,
                            cache_dir=cache_dir, strict=strict, stats=stats)
    if not records:
        raise ValueError("no readable clips in the evaluation set")
    if score_path is not None:
        lm.write_score_file(records, score_path)
    report = lm.classification_metrics(records, threshold=threshold)
    report.eer, report.eer_threshold = lm.eer(records)
    return report, records, stats


def format_report(report: lm.EvalReport, title: str = "") -> str:
    """Human-readable per-class table mirroring the reporting layout."""

    def fmt(v):
        return "   n/a" if v is None else f"{v:.4f}"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'Class':<8} {'Precision':>9} {'Recall':>9} {'F1-score':>9} {'Support':>9}")
    lines.append(f"{'Real':<8} {fmt(report.precision_real):>9} {fmt(report.recall_real):>9} "
                 f"{fmt(report.f1_real):>9} {report.support_real:>9}")
    lines.append(f"{'Fake':<8} {fmt(report.precision_fake):>9} {fmt(report.recall_fake):>9} "
                 f"{fmt(report.f1_fake):>9} {report.support_fake:>9}")
    lines.append(f"Accuracy {report.accuracy:.4f}")
    if report.eer is not None:
        lines.append(f"EER      {report.eer:.4f} (threshold {report.eer_threshold:.6f})")
    lines.append(f"Confusion TP={report.tp} TN={report.tn} FP={report.fp} FN={report.fn}")
    return "\n".join(lines)


# --- experiment protocols ---------------------------------------------------

# Full-scale per-domain sample caps (real, fake) for each usage phase.
FULL_COUNTS = {
    "for": {"train": (25600, 25600), "val": (3200, 3200), "test": (3200, 3200)},
    "avspoof": {"train": (6400, 6400), "test": (22616, 25000)},
    "codecfake": {"train": (6400, 6400), "test": (52000, 50000)},
}

PROTOCOLS = {
    "in_domain": {"train_extra": (), "tests": ("for",), "augmented": False},
    "cross_domain": {"train_extra": ("avspoof",),
                     "tests": ("for", "avspoof", "codecfake", "cross"), "augmented": False},
    "triple_domain": {"train_extra": ("avspoof", "codecfake"),
                      "tests": ("for", "avspoof", "codecfake", "cross", "triple"), "augmented": False},
    "cross_augmented": {"train_extra": ("avspoof",),
                        "tests": ("for", "avspoof", "codecfake", "cross"), "augmented": True},
    "triple_augmented": {"train_extra": ("avspoof", "codecfake"),
                         "tests": ("for", "avspoof", "codecfake", "cross", "triple"), "augmented": True},
}


def compose_protocol(name: str, manifests: dict[str, list[ManifestEntry]],
                     scale: float = 1.0, split_seed: int = 0, mix_seed: int = 0):
    """Assemble the train/val/test pools for one protocol configuration.

    Builds the protocol's caps from FULL_COUNTS and draws them with
    `compose_pools` (primary domain "for"); returns (train, val,
    {test_set_name: entries}), all pairwise disjoint by path.
    """
    if name not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")
    proto = PROTOCOLS[name]
    needed = {"for"} | set(proto["train_extra"]) | {t for t in proto["tests"] if t in FULL_COUNTS}
    missing = sorted(needed - set(manifests))
    if missing:
        raise ConfigError(f"protocol {name!r} requires manifests for {missing}")

    caps = [DomainCap("for", *FULL_COUNTS["for"][role], role) for role in ("train", "val", "test")]
    caps += [DomainCap(d, *FULL_COUNTS[d]["train"], "train") for d in proto["train_extra"]]
    caps += [DomainCap(d, *FULL_COUNTS[d]["test"], "test")
             for d in ("avspoof", "codecfake") if d in needed]
    spec = MixSpec(tuple(caps), seed=mix_seed, primary_domain="for", scale=scale,
                   split_seed=split_seed)
    train_pool, val, pools = compose_pools(spec, {d: manifests[d] for d in needed})

    cross = pools.get("avspoof", []) + pools.get("codecfake", [])
    pools.update(cross=cross, triple=pools["for"] + cross)
    return train_pool, val, {t: pools[t] for t in proto["tests"]}


def run_protocol(name: str, manifests: dict[str, list[ManifestEntry]],
                 model_cfg: RawNetLiteConfig, train_cfg: TrainConfig,
                 augment_cfg: Optional[AugmentConfig], out_dir,
                 scale: float = 1.0, split_seed: int = 0, mix_seed: int = 0,
                 cache_dir=None) -> dict:
    """Compose, train, and evaluate one protocol; emits one report per test set."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_pool, val, test_sets = compose_protocol(
        name, manifests, scale=scale, split_seed=split_seed, mix_seed=mix_seed)

    augment = None
    if PROTOCOLS[name]["augmented"]:
        augment = augment_cfg if augment_cfg is not None else AugmentConfig()

    model, history = train(model_cfg, train_cfg, train_pool, val,
                           augment=augment, cache_dir=cache_dir)
    save(model, out_dir / "checkpoint.ckpt")
    write_history_csv(history, out_dir / "history.csv")

    protected = {e.path for e in train_pool} | {e.path for e in val}
    summary = {"protocol": name, "scale": scale, "test_sets": {}}
    for ts_name, entries in test_sets.items():
        report, _, stats = evaluate(
            model, entries, score_path=out_dir / f"scores_{ts_name}.csv",
            cache_dir=cache_dir, strict=train_cfg.strict_data, train_paths=protected)
        doc = {
            "config": name,
            "test_set": ts_name,
            "scale": scale,
            "n_skipped": len(stats.skipped),
            "report": report.to_dict(),
        }
        with atomic_write(out_dir / f"report_{ts_name}.json") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        summary["test_sets"][ts_name] = doc
    return summary
