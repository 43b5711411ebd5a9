"""Training objectives (BCE, focal) and evaluation metrics including EER.

Fake is the positive class throughout: a score is the predicted P(fake),
a false positive is a real clip called fake. Probabilities are clamped to
[1e-7, 1 - 1e-7] before any logarithm.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .fileio import atomic_write, read_csv_rows

PROB_CLAMP = 1e-7

LABEL_NAMES = {0: "real", 1: "fake"}
LABEL_CODES = {"real": 0, "fake": 1}


class UndefinedMetricError(ValueError):
    """Raised when a metric needs both classes but only one is present."""


class ScoreFileError(ValueError):
    """A score file that cannot be read or does not hold path,label,score rows."""


@dataclass(frozen=True)
class ScoreRecord:
    path: str
    label: int  # 0 = real, 1 = fake
    score: float  # predicted P(fake)

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite in [0, 1], got {self.score}")


@dataclass
class EvalReport:
    threshold: float
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision_real: Optional[float]
    recall_real: Optional[float]
    f1_real: Optional[float]
    support_real: int
    precision_fake: Optional[float]
    recall_fake: Optional[float]
    f1_fake: Optional[float]
    support_fake: int
    macro_f1: Optional[float]
    eer: Optional[float] = None
    eer_threshold: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


# --- losses ------------------------------------------------------------------


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(p: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy; returns (loss, dloss/dp)."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pc = _clamp(p)
    loss = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    dp = (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size
    return loss, dp


def focal_loss(p: np.ndarray, y: np.ndarray, gamma: float = 2.0, alpha: float = 0.25,
               flat_alpha: bool = False):
    """Mean focal loss -alpha_t (1 - p_t)^gamma log(p_t); returns (loss, dloss/dp).

    By default alpha_t is class-conditional (alpha for fake, 1 - alpha for
    real); `flat_alpha` applies the same alpha to both classes.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pc = _clamp(p)
    pt = np.where(y == 1.0, pc, 1.0 - pc)
    if flat_alpha:
        at = np.full_like(pt, alpha)
    else:
        at = np.where(y == 1.0, alpha, 1.0 - alpha)
    one_minus = 1.0 - pt
    loss = float(np.mean(-at * one_minus**gamma * np.log(pt)))
    # d/dp_t of -(1-p_t)^g log p_t, then dp_t/dp = +-1
    dpt = at * (gamma * one_minus ** (gamma - 1.0) * np.log(pt) - one_minus**gamma / pt)
    dp = np.where(y == 1.0, dpt, -dpt) / p.size
    return loss, dp


# --- threshold metrics ---------------------------------------------------------


def _class_rates(hits: int, misses: int, false_alarms: int):
    """(precision, recall, F1) of one class; all None when the class is absent."""
    if hits + misses == 0:
        return None, None, None
    precision = hits / (hits + false_alarms) if hits + false_alarms > 0 else 0.0
    recall = hits / (hits + misses)
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def classification_metrics(records: list[ScoreRecord], threshold: float = 0.5) -> EvalReport:
    """Confusion counts and per-class rates at `threshold` (fake iff score >= t).

    With a single-class input the absent class's rates are None, never 0.
    """
    if not records:
        raise ValueError("no records")
    labels = np.array([r.label for r in records])
    scores = np.array([r.score for r in records])
    pred = scores >= threshold
    fake = labels == 1
    tp = int(np.sum(pred & fake))
    fn = int(np.sum(~pred & fake))
    fp = int(np.sum(pred & ~fake))
    tn = int(np.sum(~pred & ~fake))

    p_fake, r_fake, f1_fake = _class_rates(tp, fn, fp)
    p_real, r_real, f1_real = _class_rates(tn, fp, fn)
    macro = None if f1_real is None or f1_fake is None else (f1_real + f1_fake) / 2.0
    return EvalReport(
        threshold=threshold, tp=tp, tn=tn, fp=fp, fn=fn,
        accuracy=(tp + tn) / len(records),
        precision_real=p_real, recall_real=r_real, f1_real=f1_real, support_real=tn + fp,
        precision_fake=p_fake, recall_fake=r_fake, f1_fake=f1_fake, support_fake=tp + fn,
        macro_f1=macro,
    )


def det_curve(records: list[ScoreRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(FPR, FNR, threshold) at every distinct score, predicted fake iff score >= t."""
    labels = np.array([r.label for r in records])
    scores = np.array([r.score for r in records], dtype=np.float64)
    real = np.sort(scores[labels == 0])
    fake = np.sort(scores[labels == 1])
    if real.size == 0 or fake.size == 0:
        raise UndefinedMetricError("EER needs at least one record of each class")
    taus = np.unique(scores)
    fpr = (real.size - np.searchsorted(real, taus, side="left")) / real.size
    fnr = np.searchsorted(fake, taus, side="left") / fake.size
    return fpr, fnr, taus


def eer(records: list[ScoreRecord]) -> tuple[float, float]:
    """Equal error rate by sweeping every distinct score as a threshold.

    Predicted fake iff score >= t. Returns (FPR + FNR) / 2 at the threshold
    minimizing |FPR - FNR|; ties resolve to the lowest threshold.
    """
    fpr, fnr, taus = det_curve(records)
    best = int(np.argmin(np.abs(fpr - fnr)))  # first occurrence = lowest threshold
    return float((fpr[best] + fnr[best]) / 2.0), float(taus[best])


def evaluation_report(records: list[ScoreRecord], threshold: float = 0.5) -> EvalReport:
    """Threshold metrics at `threshold` plus the EER over every distinct score."""
    report = classification_metrics(records, threshold=threshold)
    report.eer, report.eer_threshold = eer(records)
    return report


# --- score files -----------------------------------------------------------------

SCORE_HEADER = ["path", "label", "score"]


def write_score_file(records: list[ScoreRecord], path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SCORE_HEADER)
        for r in records:
            writer.writerow([r.path, LABEL_NAMES[r.label], repr(float(r.score))])


def read_score_file(path) -> list[ScoreRecord]:
    records = []
    rows = iter(read_csv_rows(path, ScoreFileError))
    header = next(rows, None)
    if header != SCORE_HEADER:
        raise ScoreFileError(f"bad score-file header {header!r}, expected {SCORE_HEADER}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ScoreFileError(f"line {lineno}: expected 3 fields, got {len(row)}")
        path_field, label, score = row
        if label not in LABEL_CODES:
            raise ScoreFileError(f"line {lineno}: unknown label {label!r}")
        try:
            records.append(ScoreRecord(path_field, LABEL_CODES[label], float(score)))
        except ValueError as e:
            raise ScoreFileError(f"line {lineno}: {e}") from e
    if not records:
        raise ScoreFileError(f"{path}: no score rows")
    return records
