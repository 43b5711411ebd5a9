"""Command-line front end.

Configuration is file-first (versioned YAML) with one-to-one flag overrides
via repeated `--set dotted.key=value`. Exit codes: 0 success, 1 usage or
config error, 2 data error, 3 protocol violation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import audio_io, losses_metrics as lm, model as model_mod, train_eval
from .augment import AugmentConfig
from .data_pipeline import (
    BatchStats, DataError, DomainCap, ManifestError, MixSpec, ProtocolViolationError,
    compose_pools, load_clip, parse_manifest,
)
from .fileio import atomic_write
from .losses_metrics import ScoreFileError, UndefinedMetricError
from .model import CheckpointFormatError, CheckpointIntegrityError, ConfigError, RawNetLiteConfig
from .nn_core import ShapeError, TrainingError
from .train_eval import TrainConfig, evaluate, format_report, run_protocol, train, write_history_csv

CONFIG_VERSION = 1
CACHE_ENV_VAR = "RAWNETLITE_CACHE_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    version: int
    output_dir: str = "runs/out"
    manifests: dict = dataclasses.field(default_factory=dict)
    model: RawNetLiteConfig = dataclasses.field(default_factory=RawNetLiteConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    augment: Optional[AugmentConfig] = None
    mix: MixSpec = dataclasses.field(default_factory=MixSpec)
    cache_dir: Optional[str] = None


def _fits(value, hint) -> bool:
    """Whether a config value fits a field's annotation; a bool is no int, an int is a float, nan and inf are not."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X] is Union[X, None]
        return any(_fits(value, a) for a in args)
    if origin is tuple:  # tuple[X, Y] or tuple[X, ...]
        items = args[:1] * len(value) if isinstance(value, tuple) and args[-1] is Ellipsis else args
        return isinstance(value, tuple) and len(value) == len(items) and all(map(_fits, value, items))
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max  # False for nan
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _build_section(cls, doc, where: str):
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(doc).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")
    kwargs = dict(doc)
    hints = typing.get_type_hints(cls)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = value = tuple(value)
        if not _fits(value, hint := hints[key]):
            name = hint.__name__ if type(hint) is type else str(hint).replace("typing.", "")
            raise ConfigError(f"{where}: {key} must be {name}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown top-level fields {unknown}")
    if "version" not in doc:
        raise ConfigError("config is missing the mandatory 'version' field")
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {doc['version']!r}, expected {CONFIG_VERSION}")

    mix_doc = dict(doc.get("mix") or {})
    mix_doc["caps"] = tuple(_build_section(DomainCap, c, f"mix.caps[{i}]")
                            for i, c in enumerate(mix_doc.get("caps") or []))
    mix = _build_section(MixSpec, mix_doc, "mix")

    manifests = doc.get("manifests") or {}
    if not isinstance(manifests, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in manifests.items()):
        raise ConfigError("manifests: expected a mapping of domain name to CSV path")

    return _build_section(RunConfig, {
        **doc,
        "manifests": dict(manifests),
        "model": _build_section(RawNetLiteConfig, doc.get("model"), "model"),
        "train": _build_section(TrainConfig, doc.get("train"), "train"),
        "augment": (None if doc.get("augment") is None
                    else _build_section(AugmentConfig, doc["augment"], "augment")),
        "mix": mix,
    }, "config root")


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        key, _, raw = item.partition("=")
        value = yaml.safe_load(raw)
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return doc


def load_run_config(path, overrides: Optional[list[str]] = None) -> RunConfig:
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except (FileNotFoundError, IsADirectoryError) as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e
    doc = _apply_overrides(doc or {}, overrides or [])
    return config_from_dict(doc)


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "effective_config.yaml") as f:
        yaml.safe_dump(dataclasses.asdict(cfg), f, sort_keys=True)


def _cache_dir(cfg: RunConfig) -> Optional[str]:
    return os.environ.get(CACHE_ENV_VAR) or cfg.cache_dir


def _load_manifests(cfg: RunConfig) -> dict[str, list]:
    manifests = {}
    for name, path in cfg.manifests.items():
        if not Path(path).exists():
            raise ConfigError(f"manifests.{name}: file not found: {path}")
        manifests[name] = parse_manifest(path)
    return manifests


# --- subcommands -------------------------------------------------------------


def cmd_preprocess(args) -> int:
    entries = parse_manifest(args.manifest)
    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    silent = 0
    stats = BatchStats()
    for e in entries:
        try:
            clip = load_clip(e.path, cache_dir=cache_dir, stats=stats)
        except (OSError, ValueError) as err:
            if args.strict:
                raise DataError(f"unreadable audio {e.path!r}: {err}") from err
            stats.skipped.append(e.path)
            continue
        if clip.is_silent:
            silent += 1
    ok = len(entries) - len(stats.skipped)
    print(f"processed {ok}/{len(entries)} files ({stats.cache_hits} cache hits, {silent} silent)")
    if stats.skipped:
        print(f"skipped {len(stats.skipped)} unreadable files:")
        for p in stats.skipped:
            print(f"  {p}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    if not cfg.manifests:
        raise ConfigError("manifests: at least one manifest is required")
    train_pool, val, _ = compose_pools(cfg.mix, _load_manifests(cfg))
    n_real = sum(1 for e in train_pool if e.label == 0)
    n_fake = len(train_pool) - n_real
    print(f"train pool: {len(train_pool)} entries ({n_real} real / {n_fake} fake), "
          f"val: {len(val)} entries")
    if args.dry_run:
        return EXIT_OK

    out_dir = Path(args.output_dir or cfg.output_dir)
    _echo_config(cfg, out_dir)
    best, history = train(cfg.model, cfg.train, train_pool, val,
                          augment=cfg.augment, cache_dir=_cache_dir(cfg))
    model_mod.save(best, out_dir / "checkpoint.ckpt")
    write_history_csv(history, out_dir / "history.csv")
    print(f"best epoch {history.best_epoch} "
          f"(val F1 {best.metadata['best_val_f1']:.4f}); "
          f"checkpoint and history written to {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = model_mod.load(args.checkpoint)
    entries = parse_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, _, stats = evaluate(
        model, entries, score_path=out_dir / "scores.csv", threshold=args.threshold,
        cache_dir=os.environ.get(CACHE_ENV_VAR), strict=args.strict)
    doc = {"test_set": Path(args.manifest).stem, "config": "eval",
           "n_skipped": len(stats.skipped), "report": report.to_dict()}
    with atomic_write(out_dir / "report.json") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(format_report(report, title=f"Evaluation of {args.manifest}"))
    return EXIT_OK


def cmd_infer(args) -> int:
    model = model_mod.load(args.checkpoint)
    clip = audio_io.preprocess(Path(args.audio).read_bytes())
    prob = model.forward(clip.samples[None, None, :].astype(np.float32), mode="eval")
    print(repr(float(prob[0])))
    return EXIT_OK


def cmd_metrics(args) -> int:
    records = lm.read_score_file(args.scores)
    report = lm.classification_metrics(records, threshold=args.threshold)
    report.eer, report.eer_threshold = lm.eer(records)
    doc = {"score_file": str(args.scores), "report": report.to_dict()}
    if args.out:
        with atomic_write(args.out) as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    print(format_report(report, title=f"Metrics for {args.scores}"))
    return EXIT_OK


def cmd_figure_data(args) -> int:
    rows = []
    for path in sorted(Path(args.report_dir).rglob("report_*.json")):
        with open(path) as f:
            doc = json.load(f)
        rep = doc["report"]
        rows.append((doc["config"], doc["test_set"], rep["f1_fake"], rep["eer"]))
    if not rows:
        raise DataError(f"no report_*.json files under {args.report_dir}")
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["test_set,config,f1_fake,eer"]
    for config, test_set, f1, e in rows:
        lines.append(f"{test_set},{config},{'' if f1 is None else repr(f1)},{'' if e is None else repr(e)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_protocol(args) -> int:
    cfg = load_run_config(args.config, args.set)
    ignored = [f"mix.{k}" for k in ("caps", "primary_domain")
               if getattr(cfg.mix, k) != getattr(MixSpec(), k)]
    if ignored:
        raise ConfigError(f"protocol draws its caps from FULL_COUNTS with primary domain 'for'; "
                          f"remove {', '.join(ignored)}")
    manifests = _load_manifests(cfg)
    # replace() runs MixSpec's checks, so a bad --scale fails before anything is written
    mix = cfg.mix if args.scale is None else dataclasses.replace(cfg.mix, scale=args.scale)
    out_dir = Path(args.output_dir or cfg.output_dir) / args.name
    _echo_config(cfg, out_dir)
    summary = run_protocol(
        args.name, manifests, cfg.model, cfg.train, cfg.augment, out_dir,
        scale=mix.scale, split_seed=mix.split_seed, mix_seed=mix.seed,
        cache_dir=_cache_dir(cfg))
    for ts_name, doc in summary["test_sets"].items():
        rep = doc["report"]
        f1 = "n/a" if rep["f1_fake"] is None else f"{rep['f1_fake']:.4f}"
        print(f"{args.name} / {ts_name}: fake F1 {f1}, EER {rep['eer']:.4f}")
    print(f"reports written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rawnetlite",
        description="Raw-waveform audio deepfake detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="materialize the fixed-clip cache for a manifest")
    p.add_argument("manifest")
    p.add_argument("cache_dir")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("config")
    p.add_argument("--output-dir")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("checkpoint")
    p.add_argument("manifest")
    p.add_argument("out_dir")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="probability that one WAV file is fake")
    p.add_argument("checkpoint")
    p.add_argument("audio")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("metrics", help="recompute metrics from a score file")
    p.add_argument("scores")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("figure-data", help="flatten report JSONs into figure-ready CSV")
    p.add_argument("report_dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure_data)

    p = sub.add_parser("protocol", help="run one experiment protocol end to end")
    p.add_argument("name", choices=sorted(train_eval.PROTOCOLS))
    p.add_argument("config")
    p.add_argument("--scale", type=float)
    p.add_argument("--output-dir")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_protocol)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProtocolViolationError as e:
        print(f"protocol violation: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (TrainingError, ShapeError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ManifestError, DataError, UndefinedMetricError, ScoreFileError, audio_io.DecodeError,
            audio_io.UnsupportedFormatError, CheckpointFormatError,
            CheckpointIntegrityError, FileNotFoundError, IsADirectoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
