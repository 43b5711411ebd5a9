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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import audio_io, losses_metrics as lm, model as model_mod, train_eval
from .augment import AugmentConfig
from .data_pipeline import (
    DataError, DomainCap, ManifestError, MixSpec, ProtocolViolationError,
    compose_mix, load_clip, parse_manifest, stratified_split,
)
from .losses_metrics import UndefinedMetricError
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
class MixConfig:
    primary_domain: Optional[str] = None
    scale: float = 1.0
    split_seed: int = 0
    seed: int = 0
    caps: tuple[DomainCap, ...] = ()


@dataclass
class RunConfig:
    version: int
    output_dir: str = "runs/out"
    manifests: dict = dataclasses.field(default_factory=dict)
    model: RawNetLiteConfig = dataclasses.field(default_factory=RawNetLiteConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    augment: Optional[AugmentConfig] = None
    mix: MixConfig = dataclasses.field(default_factory=MixConfig)
    cache_dir: Optional[str] = None


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
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
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
    caps_doc = mix_doc.pop("caps", [])
    caps = tuple(_build_section(DomainCap, c, f"mix.caps[{i}]") for i, c in enumerate(caps_doc))
    mix = _build_section(MixConfig, mix_doc, "mix")
    mix = dataclasses.replace(mix, caps=caps)

    manifests = doc.get("manifests") or {}
    if not isinstance(manifests, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in manifests.items()):
        raise ConfigError("manifests: expected a mapping of domain name to CSV path")

    return RunConfig(
        version=doc["version"],
        output_dir=doc.get("output_dir", "runs/out"),
        manifests=dict(manifests),
        model=_build_section(RawNetLiteConfig, doc.get("model"), "model"),
        train=_build_section(TrainConfig, doc.get("train"), "train"),
        augment=(None if doc.get("augment") is None
                 else _build_section(AugmentConfig, doc["augment"], "augment")),
        mix=mix,
        cache_dir=doc.get("cache_dir"),
    )


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
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e
    doc = _apply_overrides(doc or {}, overrides or [])
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["mix"]["caps"] = [dataclasses.asdict(c) for c in cfg.mix.caps]
    if cfg.augment is not None:
        doc["augment"] = dataclasses.asdict(cfg.augment)
    return doc


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "effective_config.yaml", "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)


def _cache_dir(cfg: RunConfig) -> Optional[str]:
    return os.environ.get(CACHE_ENV_VAR) or cfg.cache_dir


def _load_manifests(cfg: RunConfig) -> dict[str, list]:
    manifests = {}
    for name, path in cfg.manifests.items():
        if not Path(path).exists():
            raise ConfigError(f"manifests.{name}: file not found: {path}")
        manifests[name] = parse_manifest(path)
    return manifests


def _assemble_training(cfg: RunConfig):
    """Resolve the generic (non-protocol) train/val pools from the config.

    The primary domain is split 80/10/10 (or taken from explicit split tags);
    other domains contribute through scaled role=train caps.
    """
    if not cfg.manifests:
        raise ConfigError("manifests: at least one manifest is required")
    manifests = _load_manifests(cfg)
    primary = cfg.mix.primary_domain
    if primary is None:
        if len(manifests) == 1:
            primary = next(iter(manifests))
        else:
            raise ConfigError("mix.primary_domain is required with multiple manifests")
    if primary not in manifests:
        raise ConfigError(f"mix.primary_domain {primary!r} has no manifest")

    entries = manifests[primary]
    if entries and all(e.split is not None for e in entries):
        pools = {s: [e for e in entries if e.split == s] for s in ("train", "val", "test")}
        train_pool, val = pools["train"], pools["val"]
    else:
        train_pool, val, _ = stratified_split(entries, (0.8, 0.1, 0.1), seed=cfg.mix.split_seed)

    caps = [dataclasses.replace(
                c, n_real=int(round(c.n_real * cfg.mix.scale)),
                n_fake=int(round(c.n_fake * cfg.mix.scale)))
            for c in cfg.mix.caps if c.role == "train" and c.domain != primary]
    if caps:
        extra, _ = compose_mix(MixSpec(tuple(caps), seed=cfg.mix.seed),
                               {c.domain: manifests[c.domain] for c in caps})
        train_pool = train_pool + extra
    overlap = {e.path for e in train_pool} & {e.path for e in val}
    if overlap:
        raise ProtocolViolationError(f"train/val pools share {len(overlap)} paths")
    return train_pool, val, manifests


# --- subcommands -------------------------------------------------------------


def cmd_preprocess(args) -> int:
    entries = parse_manifest(args.manifest)
    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    n_cached = len(list(cache_dir.glob("*.f32")))
    ok = silent = 0
    skipped: list[str] = []
    for e in entries:
        try:
            clip = load_clip(e.path, cache_dir=cache_dir)
        except (OSError, ValueError) as err:
            if args.strict:
                raise DataError(f"unreadable audio {e.path!r}: {err}") from err
            skipped.append(e.path)
            continue
        ok += 1
        if clip.is_silent:
            silent += 1
    # a clip not found in the cache was written to it
    hits = ok - (len(list(cache_dir.glob("*.f32"))) - n_cached)
    print(f"processed {ok}/{len(entries)} files ({hits} cache hits, {silent} silent)")
    if skipped:
        print(f"skipped {len(skipped)} unreadable files:")
        for p in skipped:
            print(f"  {p}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    train_pool, val, _ = _assemble_training(cfg)
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
    with open(out_dir / "report.json", "w") as f:
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
        with open(args.out, "w") as f:
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
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_protocol(args) -> int:
    cfg = load_run_config(args.config, args.set)
    manifests = _load_manifests(cfg)
    scale = args.scale if args.scale is not None else cfg.mix.scale
    out_dir = Path(args.output_dir or cfg.output_dir) / args.name
    _echo_config(cfg, out_dir)
    summary = run_protocol(
        args.name, manifests, cfg.model, cfg.train, cfg.augment, out_dir,
        scale=scale, split_seed=cfg.mix.split_seed, mix_seed=cfg.mix.seed,
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
    except (ManifestError, DataError, UndefinedMetricError, audio_io.DecodeError,
            audio_io.UnsupportedFormatError, CheckpointFormatError,
            CheckpointIntegrityError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
