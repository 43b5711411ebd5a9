"""Manifest ingestion, stratified splits, domain mixes, and batch assembly.

Manifests are CSV files with header `path,label,domain[,split]`; labels are
the literals `real` and `fake`. `compose_pools` is the single pool composer:
the `train` command and every protocol draw their train/val/test pools from
it over one `MixSpec`. Every random choice is keyed by explicit seeds, so
(manifests, spec, seeds) fully determine every batch.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import audio_io
from .audio_io import CLIP_SAMPLES, KAISER_BETA, TAPS_PER_PHASE, TARGET_RATE_HZ, FixedClip
from .augment import AugmentConfig, augment_pipeline
from .fileio import read_csv_rows
from .losses_metrics import LABEL_CODES

log = logging.getLogger(__name__)

# Hashed ahead of the file bytes in every clip cache key. Bump the version
# whenever `audio_io.preprocess` changes its output for the same bytes.
_CACHE_VERSION = 2
_CACHE_TAG = (f"rawnetlite clip v{_CACHE_VERSION} rate={TARGET_RATE_HZ} n={CLIP_SAMPLES} "
              f"beta={KAISER_BETA} taps={TAPS_PER_PHASE}\n").encode()


ROLES = ("train", "val", "test")


class ManifestError(ValueError):
    pass


class SplitError(ValueError):
    pass


class CompositionError(ValueError):
    pass


class ProtocolViolationError(ValueError):
    """Train/test pools share a path, or splits overlap."""


class DataError(RuntimeError):
    """Unreadable audio in strict mode."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int  # 0 = real, 1 = fake
    domain: str
    split: Optional[str] = None


@dataclass(frozen=True)
class DomainCap:
    domain: str
    n_real: int
    n_fake: int
    role: str  # "train" | "val" | "test"

    def __post_init__(self):
        if self.n_real < 0 or self.n_fake < 0:
            raise ValueError(f"caps must be >= 0, got ({self.n_real}, {self.n_fake})")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")


@dataclass(frozen=True)
class MixSpec:
    """Caps plus the seeds, scale and primary domain that `compose_pools` reads."""
    caps: tuple[DomainCap, ...] = ()
    seed: int = 0
    primary_domain: Optional[str] = None  # may be omitted with a single manifest
    scale: float = 1.0  # every cap count is multiplied by this, then rounded
    split_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.scale < float("inf"):  # also False for nan
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")


def parse_manifest(path) -> list[ManifestEntry]:
    """Parse and validate a manifest CSV; duplicate paths are rejected."""
    entries: list[ManifestEntry] = []
    seen: dict[str, int] = {}
    rows = iter(read_csv_rows(path, ManifestError))
    header = next(rows, None)
    if header not in (["path", "label", "domain"], ["path", "label", "domain", "split"]):
        raise ManifestError(f"{path}: bad header {header!r}, expected path,label,domain[,split]")
    has_split = header is not None and len(header) == 4
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ManifestError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
        file_path, label, domain = row[0], row[1], row[2]
        split = row[3] if has_split else None
        if split == "":
            split = None
        if label not in LABEL_CODES:
            raise ManifestError(f"{path}: line {lineno}: unknown label {label!r}")
        if split is not None and split not in ROLES:
            raise ManifestError(f"{path}: line {lineno}: unknown split {split!r}")
        if not file_path:
            raise ManifestError(f"{path}: line {lineno}: empty path")
        if file_path in seen:
            raise ManifestError(
                f"{path}: duplicate path {file_path!r} on lines {seen[file_path]} and {lineno}")
        seen[file_path] = lineno
        entries.append(ManifestEntry(file_path, LABEL_CODES[label], domain, split))
    return entries


def stratified_split(entries: list[ManifestEntry], ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Per-class shuffle under `seed`, then contiguous cuts at the given ratios.

    Class balance is preserved within one sample per split; the three splits
    partition the input.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    out: tuple[list[ManifestEntry], ...] = ([], [], [])
    for label in (0, 1):
        cls = [e for e in entries if e.label == label]
        if not cls:
            raise SplitError(f"no entries with label {label} ({'real' if label == 0 else 'fake'})")
        order = rng.permutation(len(cls))
        shuffled = [cls[i] for i in order]
        n = len(cls)
        c1 = int(round(n * ratios[0]))
        c2 = int(round(n * (ratios[0] + ratios[1])))
        out[0].extend(shuffled[:c1])
        out[1].extend(shuffled[c1:c2])
        out[2].extend(shuffled[c2:])
    return out


def sample_per_class(entries: list[ManifestEntry], n_real: int, n_fake: int,
                     rng: np.random.Generator, what: str = "") -> list[ManifestEntry]:
    """Sample without replacement, per class; errors name the short class."""
    chosen: list[ManifestEntry] = []
    for label, want in ((0, n_real), (1, n_fake)):
        pool = [e for e in entries if e.label == label]
        if want > len(pool):
            cls = "real" if label == 0 else "fake"
            raise CompositionError(
                f"{what}: requested {want} {cls} entries but only {len(pool)} available")
        idx = rng.choice(len(pool), size=want, replace=False) if want else []
        chosen.extend(pool[i] for i in sorted(idx))
    return chosen


def compose_mix(spec: MixSpec, manifests: dict[str, list[ManifestEntry]]):
    """Assemble (train, test) pools from per-domain caps.

    Train caps are filled first; test caps sample from each domain's
    remainder, so no file can serve both roles.
    """
    val_domains = [c.domain for c in spec.caps if c.role == "val"]
    if val_domains:
        raise CompositionError(f"val caps on {val_domains}: only the primary domain has a val split")
    rng = np.random.default_rng(spec.seed & ((1 << 64) - 1))
    taken: dict[str, set[str]] = {d: set() for d in manifests}
    train_pool: list[ManifestEntry] = []
    test_pool: list[ManifestEntry] = []
    for role, target in (("train", train_pool), ("test", test_pool)):
        for cap in spec.caps:
            if cap.role != role:
                continue
            if cap.domain not in manifests:
                raise CompositionError(f"cap references unknown domain {cap.domain!r}")
            available = [e for e in manifests[cap.domain] if e.path not in taken[cap.domain]]
            chosen = sample_per_class(available, cap.n_real, cap.n_fake, rng,
                                      what=f"domain {cap.domain!r} ({role})")
            taken[cap.domain].update(e.path for e in chosen)
            target.extend(chosen)
    return train_pool, test_pool


def compose_pools(spec: MixSpec, manifests: dict[str, list[ManifestEntry]]):
    """The one pool composer: (train, val, {manifest name: test entries}).

    The primary domain is split by its `split` tags when every entry has one,
    else 80/10/10. Scaled primary train caps and all other caps go through
    `compose_mix`; a primary val/test cap samples its split, and an uncapped
    primary role takes its whole split. Paths in two manifests or two pools
    raise ProtocolViolationError.
    """
    primary = spec.primary_domain
    if primary is None:
        if len(manifests) != 1:
            raise CompositionError("primary_domain is required with more than one manifest")
        primary = next(iter(manifests))
    if primary not in manifests:
        raise CompositionError(f"primary_domain {primary!r} has no manifest")

    owner: dict[str, str] = {}
    for key in sorted(manifests):
        for e in manifests[key]:
            if e.path in owner:
                raise ProtocolViolationError(
                    f"path {e.path!r} appears in both {owner[e.path]!r} and {key!r} manifests")
            owner[e.path] = key

    entries = manifests[primary]
    if entries and all(e.split is not None for e in entries):
        splits = {s: [e for e in entries if e.split == s] for s in ROLES}
    else:
        splits = dict(zip(ROLES, stratified_split(entries, (0.8, 0.1, 0.1), seed=spec.split_seed)))

    caps = [replace(c, n_real=int(round(c.n_real * spec.scale)),
                    n_fake=int(round(c.n_fake * spec.scale))) for c in spec.caps]
    mixed = tuple(c for c in caps if c.domain != primary or c.role == "train")
    train, mix_test = compose_mix(MixSpec(mixed, seed=spec.seed),
                                  {**manifests, primary: splits["train"]})
    if not any(c.domain == primary for c in mixed):
        train = splits["train"] + train

    seed = spec.seed & ((1 << 64) - 1)
    for role, stream in (("val", 101), ("test", 102)):
        own = [c for c in caps if c.domain == primary and c.role == role]
        if len(own) > 1:
            raise CompositionError(f"more than one {role} cap on primary domain {primary!r}")
        if own:
            rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
            splits[role] = sample_per_class(splits[role], own[0].n_real, own[0].n_fake, rng,
                                            what=f"domain {primary!r} ({role})")
    tests = {primary: splits["test"], **{c.domain: [] for c in mixed if c.role == "test"}}
    for e in mix_test:
        tests[owner[e.path]].append(e)

    pools = {"train": train, "val": splits["val"], "test": [e for t in tests.values() for e in t]}
    for (a, pa), (b, pb) in combinations(pools.items(), 2):
        overlap = {e.path for e in pa} & {e.path for e in pb}
        if overlap:
            raise ProtocolViolationError(
                f"{a}/{b} pools share {len(overlap)} paths, e.g. {sorted(overlap)[:3]}")
    return train, splits["val"], tests


# --- clip loading and batching -------------------------------------------------


@dataclass
class BatchStats:
    skipped: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0  # each rebuilds the entry, torn ones included


def load_clip(path: str, cache_dir=None, stats: Optional[BatchStats] = None) -> FixedClip:
    """Preprocess one file, optionally through a cache keyed by its content
    and the preprocessing version.

    A cache entry that does not hold a whole clip, or holds a sample that is
    NaN or above 1 in magnitude, is a miss: the file is preprocessed again and
    the entry rewritten. `stats` counts hits and misses.
    """
    raw = Path(path).read_bytes()
    if cache_dir is None:
        return audio_io.preprocess(raw)
    stats = stats or BatchStats()
    digest = hashlib.sha256(_CACHE_TAG)
    digest.update(raw)
    cached = Path(cache_dir) / f"{digest.hexdigest()}.f32"
    if cached.exists():
        try:
            clip = audio_io.read_clip(cached)
        except ValueError as e:
            log.warning("rebuilding cache entry %s: %s", cached, e)
        else:
            stats.cache_hits += 1
            return clip
    stats.cache_misses += 1
    clip = audio_io.preprocess(raw)
    cached.parent.mkdir(parents=True, exist_ok=True)
    audio_io.write_clip(clip, cached)
    return clip


def make_batches(entries: list[ManifestEntry], batch_size: int = 16, shuffle_seed: int = 0,
                 augment: Optional[AugmentConfig] = None, epoch: int = 0,
                 shuffle: bool = True, strict: bool = False, cache_dir=None,
                 stats: Optional[BatchStats] = None,
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, list[ManifestEntry]]]:
    """Yield (clips (B, 1, 48000) float32, labels (B,) float32, batch entries).

    With augmentation, every entry appears twice per epoch: once clean and
    once through the pipeline keyed by (epoch, entry index), so the augmented
    bytes do not depend on shuffle order. Unreadable files are skipped with a
    warning (collected in `stats`) unless `strict`.
    """
    if not entries:
        raise ValueError("no entries to batch")
    items = [(i, False) for i in range(len(entries))]
    if augment is not None:
        items += [(i, True) for i in range(len(entries))]
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence([shuffle_seed & ((1 << 64) - 1), epoch]))
        items = [items[i] for i in rng.permutation(len(items))]

    clips: list[np.ndarray] = []
    labels: list[float] = []
    batch_entries: list[ManifestEntry] = []
    for idx, augmented in items:
        entry = entries[idx]
        try:
            clip = load_clip(entry.path, cache_dir=cache_dir, stats=stats)
        except (OSError, ValueError) as e:
            if strict:
                raise DataError(f"unreadable audio {entry.path!r}: {e}") from e
            log.warning("skipping unreadable audio %s: %s", entry.path, e)
            if stats is not None:
                stats.skipped.append(entry.path)
            continue
        if augmented:
            clip = augment_pipeline(clip, augment, (epoch, idx))
        clips.append(clip.samples)
        labels.append(float(entry.label))
        batch_entries.append(entry)
        if len(clips) == batch_size:
            yield np.stack(clips)[:, None, :], np.array(labels, dtype=np.float32), batch_entries
            clips, labels, batch_entries = [], [], []
    if clips:
        yield np.stack(clips)[:, None, :], np.array(labels, dtype=np.float32), batch_entries
