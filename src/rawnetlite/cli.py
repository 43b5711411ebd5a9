"""Command-line front end: preprocess, train, eval, infer, metrics, figure-data, protocol.

Configuration is file-first (versioned YAML) with one-to-one flag overrides
via repeated `--set dotted.key=value`. `protocol` echoes the RunConfig it runs
and runs it through `train`'s `_train_run` and `eval`'s `_eval_run`, the only
code that writes a run directory or a report. Exit codes:

0 success (`--help` too);
1 usage or config error: a bad argument or --threshold outside [0, 1], a bad
  config, a config manifest path that does not exist, an empty train or val pool;
2 data error: an unreadable manifest, audio file (with --strict), checkpoint,
  score file or report, no readable clip in an eval manifest, train pool or
  val set, a directory given for a file, an output path under a regular file;
3 protocol violation: a path in two manifests or two pools;
4 numeric failure: a non-finite loss or a shape mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
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
    BatchStats, DataError, ManifestError, MixSpec, ProtocolViolationError,
    compose_pools, load_clips, parse_manifest,
)
from .fileio import atomic_write, check_fields, fits, write_json
from .losses_metrics import ScoreFileError, UndefinedMetricError
from .model import CheckpointFormatError, CheckpointIntegrityError, ConfigError, RawNetLiteConfig
from .nn_core import ShapeError, TrainingError
from .train_eval import TrainConfig, format_report, write_history_csv

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
    manifests: dict[str, str] = dataclasses.field(default_factory=dict)
    model: RawNetLiteConfig = dataclasses.field(default_factory=RawNetLiteConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    augment: Optional[AugmentConfig] = None
    mix: MixSpec = dataclasses.field(default_factory=MixSpec)
    cache_dir: Optional[str] = None

    def __post_init__(self):
        check_fields(self)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads YAML 1.2 exponent floats such as 1e-4, which YAML 1.1 reads as strings."""


# On SafeDumper itself, so `safe_dump`, the echo's writer, quotes a string such as "1e3" for `_Loader`.
yaml.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                           list("-+.0123456789"), Loader=_Loader, Dumper=yaml.SafeDumper)


def _from_yaml(hint, value, where: str):
    """A YAML value as the field annotated `hint` takes it: a list becomes a tuple, a mapping a dict or a config."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and value is not None:  # Optional[X]; a null stays None
        return _from_yaml(args[0], value, where)
    if origin is tuple and dataclasses.is_dataclass(args[0]) and isinstance(value, (list, type(None))):
        return tuple(_from_yaml(args[0], v, f"{where}[{i}]") for i, v in enumerate(value or []))  # null caps: ()
    if dict not in (hint, origin) and not dataclasses.is_dataclass(hint):
        return tuple(value) if isinstance(value, list) else value
    if not isinstance(doc := {} if value is None else value, dict):  # a null section means the defaults
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    if not dataclasses.is_dataclass(hint):
        return dict(doc)
    hints = typing.get_type_hints(hint)
    if unknown := sorted(map(str, set(doc) - hints.keys())):
        raise ConfigError(f"{where}: unknown fields {unknown}")
    kwargs = {k: _from_yaml(hints[k], v, f"{where}.{k}".removeprefix("config root.")) for k, v in doc.items()}
    try:
        return hint(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def config_from_dict(doc: dict) -> RunConfig:
    doc = _from_yaml(dict, doc, "config root")
    if "version" not in doc:
        raise ConfigError("config is missing the mandatory 'version' field")
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {doc['version']!r}, expected {CONFIG_VERSION}")
    cfg = _from_yaml(RunConfig, doc, "config root")
    if cfg.model.input_len != audio_io.CLIP_SAMPLES:  # the data layer makes no other length
        raise ConfigError(f"model: input_len must be {audio_io.CLIP_SAMPLES}, the length of every "
                          f"preprocessed clip, got {cfg.model.input_len}")
    return cfg


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        key, _, raw = item.partition("=")
        *path, last = key.split(".")
        node = doc
        for part in path:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[last] = yaml.load(raw, Loader=_Loader)
    return doc


def load_run_config(path, overrides: Optional[list[str]] = None) -> RunConfig:
    try:
        with open(path) as f:
            doc = yaml.load(f, Loader=_Loader)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e
    doc = _apply_overrides(_from_yaml(dict, doc, "config root"), overrides or [])
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
    stats = BatchStats()
    silent = sum(clip.is_silent for _, clip in load_clips(entries, cache_dir, args.strict, stats))
    ok = len(entries) - len(stats.skipped)
    print(f"processed {ok}/{len(entries)} files ({stats.cache_hits} cache hits, {silent} silent)")
    if stats.skipped:
        print(f"skipped {len(stats.skipped)} unreadable files:")
        for p in stats.skipped:
            print(f"  {p}")
    return EXIT_OK


def _train_run(cfg: RunConfig, train_pool, val, out_dir: Path, test_sets=None):
    """Read a val clip, a train clip and a clip of each of test_sets, {name: entries}, echo cfg into
    out_dir, train, then write checkpoint.ckpt and history.csv. So a set with no readable clip fails
    before anything is written, not after hours of training."""
    tests = ((f"{name} test", entries) for name, entries in (test_sets or {}).items())
    for what, entries in [("val", val), ("train", train_pool), *tests]:
        train_eval.require_readable(entries, what, _cache_dir(cfg), cfg.train.strict_data)
    _echo_config(cfg, out_dir)
    best, history = train_eval.train(cfg.model, cfg.train, train_pool, val,
                                     augment=cfg.augment, cache_dir=_cache_dir(cfg))
    model_mod.save(best, out_dir / "checkpoint.ckpt")
    write_history_csv(history, out_dir / "history.csv")
    return best, history


def _eval_run(model, entries, out_dir: Path, suffix: str, doc: dict, **kwargs) -> lm.EvalReport:
    """Score entries (`train_eval.evaluate` with kwargs), then write scores<suffix>.csv and
    report<suffix>.json, doc with n_skipped and the report, into out_dir."""
    report, records, stats = train_eval.evaluate(model, entries, **kwargs)
    out_dir.mkdir(parents=True, exist_ok=True)
    lm.write_score_file(records, out_dir / f"scores{suffix}.csv")
    write_json(out_dir / f"report{suffix}.json",
               {**doc, "n_skipped": len(stats.skipped), "report": report.to_dict()})
    return report


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
    best, history = _train_run(cfg, train_pool, val, out_dir)
    print(f"best epoch {history.best_epoch} "
          f"(val F1 {best.metadata['best_val_f1']:.4f}); "
          f"checkpoint and history written to {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = model_mod.load(args.checkpoint)
    report = _eval_run(model, parse_manifest(args.manifest), Path(args.out_dir), "",
                       {"test_set": Path(args.manifest).stem, "config": "eval"}, threshold=args.threshold,
                       cache_dir=os.environ.get(CACHE_ENV_VAR), strict=args.strict)
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
    report = lm.evaluation_report(records, args.threshold)
    if args.out:
        write_json(args.out, {"score_file": str(args.scores), "report": report.to_dict()})
    print(format_report(report, title=f"Metrics for {args.scores}"))
    return EXIT_OK


def _report_row(path) -> tuple:
    """(config, test_set, f1_fake, eer) of one report JSON; a malformed file is a DataError."""
    try:
        with open(path) as f:
            doc = json.load(f)
        rep = doc["report"]
        row = (doc["config"], doc["test_set"], rep["f1_fake"], rep["eer"])
    except (ValueError, TypeError, KeyError) as e:  # not JSON, not an object, or a field missing
        raise DataError(f"{path}: not a report: {type(e).__name__}: {e}") from e
    if not all(map(fits, row, (str, str, Optional[float], Optional[float]))):
        raise DataError(f"{path}: config and test_set must be strings, f1_fake and eer finite or null")
    return row


def cmd_figure_data(args) -> int:
    rows = [_report_row(p) for p in sorted(Path(args.report_dir).rglob("report_*.json"))]
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
    # protocol_mix runs MixSpec's checks, so a bad --scale fails before anything is written
    mix = train_eval.protocol_mix(args.name, scale=cfg.mix.scale if args.scale is None else args.scale,
                                  split_seed=cfg.mix.split_seed, seed=cfg.mix.seed)
    ignored = [f"mix.{k}" for k in ("caps", "primary_domain")
               if getattr(cfg.mix, k) not in (getattr(MixSpec(), k), getattr(mix, k))]
    if ignored:
        raise ConfigError(f"protocol draws its caps from FULL_COUNTS with primary domain 'for'; "
                          f"remove {', '.join(ignored)}")
    augment = (cfg.augment or AugmentConfig()) if train_eval.PROTOCOLS[args.name]["augmented"] else None
    cfg = dataclasses.replace(cfg, mix=mix, augment=augment)
    train_pool, val, test_sets = train_eval.compose_protocol(
        args.name, _load_manifests(cfg), scale=mix.scale, split_seed=mix.split_seed, mix_seed=mix.seed)
    out_dir = Path(args.output_dir or cfg.output_dir) / args.name
    model, _ = _train_run(cfg, train_pool, val, out_dir, test_sets)
    protected = {e.path for e in train_pool} | {e.path for e in val}
    for ts_name, entries in test_sets.items():
        report = _eval_run(model, entries, out_dir, f"_{ts_name}",
                           {"config": args.name, "test_set": ts_name, "scale": mix.scale},
                           batch_size=cfg.train.eval_batch_size, cache_dir=_cache_dir(cfg),
                           strict=cfg.train.strict_data, train_paths=protected)
        f1 = "n/a" if report.f1_fake is None else f"{report.f1_fake:.4f}"
        print(f"{args.name} / {ts_name}: fake F1 {f1}, EER {report.eer:.4f}")
    print(f"reports written to {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors exit EXIT_CONFIG; argparse's own code, 2, is EXIT_DATA here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def probability(text: str) -> float:
    """A --threshold value: a float in [0, 1]; nan and inf are not."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"threshold must be in [0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--threshold", type=probability, default=0.5)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="probability that one WAV file is fake")
    p.add_argument("checkpoint")
    p.add_argument("audio")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("metrics", help="recompute metrics from a score file")
    p.add_argument("scores")
    p.add_argument("--threshold", type=probability, default=0.5)
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
            CheckpointIntegrityError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as e:  # the last two: a regular file where a directory must be
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError, yaml.YAMLError) as e:  # the last: a --set value that is not YAML
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
