import dataclasses
import json
import logging
import typing

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rawnetlite import cli, train_eval
from rawnetlite.augment import AugmentConfig
from rawnetlite.cli import main
from rawnetlite.data_pipeline import DomainCap, MixSpec, load_clip, make_batches, parse_manifest
from rawnetlite.losses_metrics import ScoreFileError, read_score_file
from rawnetlite.model import RawNetLiteConfig, build, save
from rawnetlite.nn_core import TrainingError
from rawnetlite.train_eval import TrainConfig

from conftest import make_wav, records_from_scores
from rawnetlite.losses_metrics import write_score_file


TINY_MODEL = dict(channels=2, n_res_blocks=0, pool_len=16, gru_hidden=4,
                  fc_hidden=4, input_len=48000, seed=3)


def write_config(path, manifest, out_dir, **extra):
    doc = {
        "version": 1,
        "output_dir": str(out_dir),
        "manifests": {"sanity": str(manifest)},
        "model": dict(TINY_MODEL),
        "train": {"loss": "bce", "lr": 1e-3, "batch_size": 8, "max_epochs": 1,
                  "max_steps": 2, "patience": 1},
        "mix": {"split_seed": 3},
    }
    doc.update(extra)
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from rawnetlite.sanity import generate_corpus

    out = tmp_path_factory.mktemp("cli_data")
    return generate_corpus(out, n_per_class=12, seed=7)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    m = build(RawNetLiteConfig(**TINY_MODEL))
    m.forward(np.random.default_rng(0).normal(size=(2, 1, 48000)).astype(np.float32),
              mode="train")
    save(m, path)
    return path


# --- config handling -----------------------------------------------------------


def test_config_unknown_field_rejected(tmp_path, corpus):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    doc = yaml.safe_load(cfg.read_text())
    doc["trainx"] = {}
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG


def test_config_unknown_nested_field_rejected(tmp_path, corpus):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    doc = yaml.safe_load(cfg.read_text())
    doc["train"]["warmup"] = 5
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG


def test_config_missing_version(tmp_path, corpus):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    doc = yaml.safe_load(cfg.read_text())
    del doc["version"]
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG


def test_config_missing_manifest_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", tmp_path / "missing.csv", tmp_path / "out")
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG
    assert "manifests.sanity" in capsys.readouterr().err


def test_set_override(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    assert main(["train", str(cfg), "--dry-run", "--set", "train.batch_size=4"]) == 0
    # bad override value propagates as a config error
    assert main(["train", str(cfg), "--dry-run", "--set", "train.loss=hinge"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("root", ["- 1", "3", "x"])
def test_set_on_a_config_whose_root_is_not_a_mapping_is_config_error(tmp_path, capsys, root):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(root + "\n")
    assert main(["train", str(cfg), "--dry-run", "--set", "version=1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config root: expected a mapping") and "Traceback" not in err


def test_set_value_that_is_not_yaml_is_config_error(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    assert main(["train", str(cfg), "--dry-run", "--set", "train.lr=["]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_exponent_floats_are_numbers_in_files_and_overrides(tmp_path, corpus):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace("lr: 0.001", "lr: 1e-4"))
    assert cli.load_run_config(cfg).train.lr == 1e-4
    assert cli.load_run_config(cfg, ["train.lr=3e-4"]).train.lr == 3e-4


def test_echoed_string_that_looks_like_an_exponent_float_reads_back_as_a_string(tmp_path, corpus):
    cfg = cli.load_run_config(write_config(tmp_path / "c.yaml", corpus, tmp_path / "out"),
                              ["output_dir='1e3'", "train.lr=2.5e-4"])
    assert (cfg.output_dir, cfg.train.lr) == ("1e3", 2.5e-4)
    cli._echo_config(cfg, tmp_path / "echo")
    assert cli.load_run_config(tmp_path / "echo" / "effective_config.yaml") == cfg


# --- train pool composition (manifest paths only; --dry-run reads no audio) -----------


def write_manifest(path, domain, n_real, n_fake, tags=None, extra_rows=()):
    """Synthetic manifest; `tags(i)` gives entry i's split tag per class."""
    header = "path,label,domain" + (",split" if tags else "")
    rows = [f"{domain}/{label}_{i}.wav,{label},{domain}" + (f",{tags(i)}" if tags else "")
            for label, n in (("real", n_real), ("fake", n_fake)) for i in range(n)]
    path.write_text("\n".join([header, *rows, *extra_rows]) + "\n")
    return path


def pool_config(tmp_path, mix, extra_rows=()):
    manifests = {"for": str(write_manifest(tmp_path / "for.csv", "for", 40, 40)),
                 "avs": str(write_manifest(tmp_path / "avs.csv", "avs", 20, 20,
                                           extra_rows=extra_rows))}
    return write_config(tmp_path / "c.yaml", tmp_path / "unused.csv", tmp_path / "out",
                        manifests=manifests, mix=mix)


def dry_run_pools(cfg, capsys):
    assert main(["train", str(cfg), "--dry-run"]) == 0
    return capsys.readouterr().out.strip()


TRAIN_CAPS = [{"domain": "avs", "n_real": 8, "n_fake": 6, "role": "train"},
              {"domain": "avs", "n_real": 2, "n_fake": 2, "role": "train"}]


def test_train_pools_scaled_caps(tmp_path, capsys):
    # for splits 32/4/4 per class; avs caps scale to 4/3 and 1/1
    cfg = pool_config(tmp_path, {"primary_domain": "for", "scale": 0.5, "split_seed": 3,
                                 "seed": 5, "caps": TRAIN_CAPS})
    assert dry_run_pools(cfg, capsys) == (
        "train pool: 73 entries (37 real / 36 fake), val: 8 entries")


def test_train_primary_domain_required_with_two_manifests(tmp_path, capsys):
    cfg = pool_config(tmp_path, {"split_seed": 3})
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG
    assert "primary_domain" in capsys.readouterr().err


def test_train_unknown_primary_domain(tmp_path, capsys):
    cfg = pool_config(tmp_path, {"primary_domain": "asvspoof"})
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG
    assert "asvspoof" in capsys.readouterr().err


@pytest.mark.parametrize("mix", [{"seed": "x"}, {"split_seed": 1.5}, {"scale": "half"}])
def test_train_non_numeric_mix_value_is_config_error(tmp_path, corpus, capsys, mix):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", mix=mix)
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG
    assert "config error: mix:" in capsys.readouterr().err


BAD_VALUES = {
    "int_field_float": {"model": {**TINY_MODEL, "channels": 2.5}},
    "int_field_bool": {"model": {**TINY_MODEL, "n_res_blocks": True}},
    "epochs_float": {"train": {"max_epochs": 2.5}},
    "float_field_string": {"train": {"lr": "fast"}},
    "bool_field_int": {"train": {"strict_data": 1}},
    "optional_int_string": {"train": {"max_steps": "2"}},
    "eval_batch_size_zero": {"train": {"eval_batch_size": 0}},
    "max_steps_zero": {"train": {"max_steps": 0}},
    "focal_gamma_negative": {"train": {"focal_gamma": -1.0}},
    "focal_alpha_above_one": {"train": {"focal_alpha": 1.5}},
    "range_not_a_pair": {"augment": {"pitch_semitone_range": [1.0]}},
    "range_with_a_string": {"augment": {"stretch_rate_range": [0.9, "1.1"]}},
    "cache_dir_a_list": {"cache_dir": ["a"]},
    "output_dir_a_number": {"output_dir": 3},
}


@pytest.mark.parametrize("extra", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_train_mistyped_or_out_of_range_value_is_config_error(tmp_path, corpus, capsys, extra):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", **extra)
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def float_fields():
    """(section, field, default) for every float or tuple-of-float config field."""
    sections = {"model": RawNetLiteConfig, "train": TrainConfig, "augment": AugmentConfig, "mix": MixSpec}
    for section, cls in sections.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if float in (hints[f.name], *typing.get_args(hints[f.name])):
                yield section, f.name, f.default


NON_FINITE = [(section, name, default, bad) for section, name, default in float_fields()
              for bad in (".nan", ".inf")]


@pytest.mark.parametrize("section, name, default, bad", NON_FINITE,
                         ids=[f"{s}.{n}={b}" for s, n, _, b in NON_FINITE])
def test_train_non_finite_float_is_config_error(tmp_path, corpus, capsys, section, name, default, bad):
    # a tuple field gets the bad value as its last element
    value = f"[{', '.join(map(str, default[:-1]))}, {bad}]" if isinstance(default, tuple) else bad
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    assert main(["train", str(cfg), "--dry-run", "--set", f"{section}.{name}={value}"]) == cli.EXIT_CONFIG
    assert f"config error: {section}: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
def test_protocol_non_finite_or_negative_scale_is_config_error(tmp_path, corpus, capsys, scale):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", manifests={"for": str(corpus)})
    assert main(["protocol", "in_domain", str(cfg), "--scale", scale]) == cli.EXIT_CONFIG
    assert {"inf": "config error: scale must be a finite number, got inf\n",
            "nan": "config error: scale must be a finite number, got nan\n",
            "-1": "config error: scale must be finite and >= 0, got -1.0\n"}[scale] == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_accepts_ints_for_floats_and_nulls_for_optionals(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", cache_dir=None,
                       train={"lr": 1, "max_steps": None, "focal_alpha": 0, "focal_gamma": 0},
                       augment={"pitch_semitone_range": [-1, 1], "p_apply": 1})
    assert main(["train", str(cfg), "--dry-run"]) == 0


def test_train_split_tags_give_val_pool(tmp_path, capsys):
    # per class: 6 train, 3 val, 1 test; an 80/10/10 split would give 1 val per class
    manifest = write_manifest(tmp_path / "tagged.csv", "for", 10, 10,
                              tags=lambda i: "train" if i < 6 else "val" if i < 9 else "test")
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out")
    assert dry_run_pools(cfg, capsys) == (
        "train pool: 12 entries (6 real / 6 fake), val: 6 entries")


def test_train_restart_from_echoed_config_same_pools(tmp_path, capsys):
    cfg_path = pool_config(tmp_path, {"primary_domain": "for", "scale": 0.5, "split_seed": 3,
                                      "seed": 5, "caps": TRAIN_CAPS})
    cfg = cli.load_run_config(cfg_path)
    cli._echo_config(cfg, tmp_path / "echo")
    echo = tmp_path / "echo" / "effective_config.yaml"
    assert cli.load_run_config(echo) == cfg
    assert dry_run_pools(echo, capsys) == dry_run_pools(cfg_path, capsys)


def test_train_duplicate_path_across_manifests(tmp_path, capsys):
    cfg = pool_config(tmp_path, {"primary_domain": "for"}, extra_rows=["for/real_0.wav,real,avs"])
    assert main(["train", str(cfg), "--dry-run"]) == cli.EXIT_PROTOCOL
    assert "for/real_0.wav" in capsys.readouterr().err


def test_train_applies_primary_val_cap(tmp_path, capsys):
    cfg = pool_config(tmp_path, {"primary_domain": "for", "split_seed": 3, "caps": [
        {"domain": "for", "n_real": 2, "n_fake": 1, "role": "val"}]})
    assert dry_run_pools(cfg, capsys) == (
        "train pool: 64 entries (32 real / 32 fake), val: 3 entries")


@pytest.mark.parametrize("dry_run", [["--dry-run"], []], ids=["dry_run", "run"])
def test_train_with_an_empty_val_pool_writes_nothing(tmp_path, corpus, capsys, dry_run):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", mix={"split_seed": 3, "caps": [
        {"domain": "sanity", "n_real": 0, "n_fake": 0, "role": "val"}]})
    assert main(["train", str(cfg), *dry_run]) == cli.EXIT_CONFIG
    assert "the validation set is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mix, fields", [
    ({"primary_domain": "nowhere"}, "mix.primary_domain"),
    ({"caps": [{"domain": "nowhere", "n_real": 100000, "n_fake": 0, "role": "train"}]},
     "mix.caps"),
])
def test_protocol_rejects_mix_fields_it_would_ignore(tmp_path, corpus, capsys, mix, fields):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", mix=mix,
                       manifests={"for": str(corpus)})
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.002"]) == cli.EXIT_CONFIG
    assert fields in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_input_len_other_than_the_clip_length_is_config_error(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")
    for dry_run in ([], ["--dry-run"]):
        assert main(["train", str(cfg), *dry_run, "--set", "model.input_len=16000"]) == cli.EXIT_CONFIG
        assert "model: input_len must be 48000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert RawNetLiteConfig(input_len=16000).input_len == 16000  # the model itself takes any length


@pytest.mark.parametrize("doc", [{"mix": 0}, {"mix": []}, {"mix": ""}, {"mix": False},
                                 {"manifests": []}, {"manifests": 0}, {"model": 0},
                                 {"train": []}, {"mix": {"caps": 0}}, {"mix": {"caps": {}}}],
                         ids=repr)
def test_falsy_non_mapping_section_is_config_error(doc):
    with pytest.raises(cli.ConfigError, match="expected a mapping|must be a list"):
        cli.config_from_dict({"version": 1, **doc})
    # a null section still means the defaults
    nulled = {k: ({"caps": None} if isinstance(v, dict) else None) for k, v in doc.items()}
    assert cli.config_from_dict({"version": 1, **nulled}) == cli.RunConfig(version=1)


def stop_at_training(monkeypatch):
    """Make `train_eval.train` raise, and every clip count as readable: the manifests' files do not exist."""
    def stop(*args, **kwargs):
        raise TrainingError("stopped once the pools are composed")

    monkeypatch.setattr(train_eval, "require_readable", lambda *a, **k: None)
    monkeypatch.setattr(train_eval, "train", stop)


def test_protocol_echoes_the_scale_that_ran(tmp_path, monkeypatch):
    manifest = write_manifest(tmp_path / "for.csv", "for", 16000, 16000)
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out", manifests={"for": str(manifest)})
    stop_at_training(monkeypatch)
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.5"]) == cli.EXIT_NUMERIC
    echo = tmp_path / "out" / "in_domain" / "effective_config.yaml"
    assert yaml.safe_load(echo.read_text())["mix"]["scale"] == 0.5
    # the caps and primary domain that ran, so `train` on the echo draws the same pools
    assert cli.load_run_config(echo).mix == train_eval.protocol_mix("in_domain", scale=0.5, split_seed=3)


@pytest.mark.parametrize("name, augment, expected", [
    ("cross_domain", {"p_apply": 0.25}, None),
    ("cross_augmented", None, AugmentConfig()),
    ("cross_augmented", {"p_apply": 0.25}, AugmentConfig(p_apply=0.25)),
])
def test_protocol_echoes_the_augmentation_that_ran(tmp_path, monkeypatch, name, augment, expected):
    manifests = {d: str(write_manifest(tmp_path / f"{d}.csv", d, n, n))
                 for d, n in (("for", 400), ("avspoof", 350), ("codecfake", 600))}
    cfg = write_config(tmp_path / "c.yaml", manifests["for"], tmp_path / "out", manifests=manifests,
                       augment=augment)
    stop_at_training(monkeypatch)
    assert main(["protocol", name, str(cfg), "--scale", "0.01"]) == cli.EXIT_NUMERIC
    assert cli.load_run_config(tmp_path / "out" / name / "effective_config.yaml").augment == expected


def history_without_seconds(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_train_on_a_protocol_echo_reproduces_the_protocol(tmp_path, sanity_corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", sanity_corpus, tmp_path / "out",
                       manifests={"for": str(sanity_corpus)})
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.002"]) == cli.EXIT_OK
    ran = tmp_path / "out" / "in_domain"
    assert main(["train", str(ran / "effective_config.yaml"), "--output-dir", str(tmp_path / "again")]) == 0
    again = tmp_path / "again"
    assert (again / "checkpoint.ckpt").read_bytes() == (ran / "checkpoint.ckpt").read_bytes()
    assert history_without_seconds(again / "history.csv") == history_without_seconds(ran / "history.csv")
    assert (again / "effective_config.yaml").read_text() == (ran / "effective_config.yaml").read_text()


def test_protocol_runs_on_its_own_echo(tmp_path, sanity_corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", sanity_corpus, tmp_path / "out",
                       manifests={"for": str(sanity_corpus)})
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.002"]) == cli.EXIT_OK
    ran = tmp_path / "out" / "in_domain"
    assert main(["protocol", "in_domain", str(ran / "effective_config.yaml"),
                 "--output-dir", str(tmp_path / "again")]) == cli.EXIT_OK
    again = tmp_path / "again" / "in_domain"
    for name in ("checkpoint.ckpt", "effective_config.yaml", "scores_for.csv", "report_for.json"):
        assert (again / name).read_bytes() == (ran / name).read_bytes(), name


@pytest.mark.parametrize("name, scale, message", [
    ("cross_domain", "0.002", "requires manifests for ['avspoof', 'codecfake']"),
    ("in_domain", "0.0001", "the validation set is empty"),
])
def test_protocol_that_fails_to_compose_writes_nothing(tmp_path, corpus, capsys, name, scale, message):
    cfg = write_config(tmp_path / "c.yaml", corpus, tmp_path / "out", manifests={"for": str(corpus)})
    assert main(["protocol", name, str(cfg), "--scale", scale]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SCHEMA_KEYS = sorted({f.name for cls in (cli.RunConfig, RawNetLiteConfig, TrainConfig, AugmentConfig,
                                         MixSpec, DomainCap) for f in dataclasses.fields(cls)})
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
KEYS = st.one_of(st.sampled_from(SCHEMA_KEYS), st.text(max_size=6), st.integers(-2, 2))
NESTED = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=4)), max_leaves=12)
CONFIG_DOCS = st.tuples(st.dictionaries(KEYS, NESTED, max_size=6), st.booleans()).map(
    lambda t: {**t[0], "version": 1} if t[1] else t[0])


@given(doc=CONFIG_DOCS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_config_dict_gives_run_config_or_config_error(tmp_path, capsys, doc):
    try:
        cfg = cli.config_from_dict(doc)
    except cli.ConfigError:
        cfg = None
    assert cfg is None or isinstance(cfg, cli.RunConfig)
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    code = main(["train", str(path), "--dry-run", "--output-dir", str(tmp_path / "out")])
    # a config that loads still needs manifests that exist, so it may end in a data error
    assert code == cli.EXIT_CONFIG if cfg is None else code in (
        cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_PROTOCOL)
    capsys.readouterr()


# --- preprocess -------------------------------------------------------------------


def test_preprocess_and_cache_hits(tmp_path, corpus, capsys):
    cache = tmp_path / "cache"
    assert main(["preprocess", str(corpus), str(cache)]) == 0
    out = capsys.readouterr().out
    assert "processed 24/24" in out and "0 cache hits" in out
    assert len(list(cache.glob("*.f32"))) == 24
    assert main(["preprocess", str(corpus), str(cache)]) == 0
    assert "24 cache hits" in capsys.readouterr().out


def test_preprocess_corrupt_file_policy(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"garbage")
    manifest = tmp_path / "m.csv"
    lines = corpus.read_text().strip().splitlines()
    manifest.write_text("\n".join(lines[:10]) + f"\n{bad},fake,sanity\n")
    cache = tmp_path / "cache2"
    assert main(["preprocess", str(manifest), str(cache)]) == 0
    out = capsys.readouterr().out
    assert "processed 9/10" in out and "bad.wav" in out
    assert main(["preprocess", str(manifest), str(cache), "--strict"]) == cli.EXIT_DATA


def test_preprocess_unreadable_manifest_is_data_error(tmp_path, capsys):
    too_long = tmp_path / "long.csv"
    too_long.write_text("path,label,domain\n" + "x" * 200_000 + ",real,for\n")
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes("path,label,domain\ncaf\u00e9.wav,real,for\n".encode("latin-1"))
    for manifest in (too_long, not_utf8, tmp_path):
        assert main(["preprocess", str(manifest), str(tmp_path / "cache")]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err


def test_preprocess_logs_each_skipped_file_as_make_batches_does(tmp_path, corpus, caplog):
    bad = [tmp_path / "bad.wav", tmp_path / "empty.wav"]
    bad[0].write_bytes(b"garbage")
    bad[1].write_bytes(b"")
    manifest = tmp_path / "m.csv"
    lines = corpus.read_text().strip().splitlines()
    manifest.write_text("\n".join(lines[:4] + [f"{b},fake,sanity" for b in bad]) + "\n")
    with caplog.at_level(logging.WARNING, logger="rawnetlite.data_pipeline"):
        assert main(["preprocess", str(manifest), str(tmp_path / "cache")]) == 0
        from_preprocess = [r.getMessage() for r in caplog.records]
        caplog.clear()
        list(make_batches(parse_manifest(manifest), shuffle=False))
        from_batches = [r.getMessage() for r in caplog.records]
    assert from_preprocess == from_batches and len(from_preprocess) == len(bad)
    for path, message in zip(bad, from_preprocess):
        with pytest.raises(ValueError) as reason:
            load_clip(str(path))
        assert repr(str(path)) in message and message.endswith(str(reason.value))


# --- train / eval / infer -----------------------------------------------------------


def test_train_eval_infer_roundtrip(tmp_path, corpus, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "cache"))
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", corpus, out_dir)
    assert main(["train", str(cfg)]) == 0
    ckpt = out_dir / "checkpoint.ckpt"
    assert ckpt.exists()
    assert (out_dir / "history.csv").exists()
    assert (out_dir / "effective_config.yaml").exists()

    # re-running from the echoed effective config reproduces the run
    echo = out_dir / "effective_config.yaml"
    out2 = tmp_path / "run2"
    assert main(["train", str(echo), "--output-dir", str(out2)]) == 0
    assert (out2 / "checkpoint.ckpt").read_bytes() == ckpt.read_bytes()

    eval_dir = tmp_path / "eval"
    assert main(["eval", str(ckpt), str(corpus), str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    rep = report["report"]
    assert rep["eer"] is not None
    assert rep["tp"] + rep["tn"] + rep["fp"] + rep["fn"] == 24

    wav = corpus.read_text().splitlines()[1].split(",")[0]
    assert main(["infer", str(ckpt), wav]) == 0


def test_infer_bad_checkpoint_is_data_error(tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"RNLCKPT1")
    assert main(["infer", str(ckpt), str(tmp_path / "x.wav")]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_directory_for_an_input_file_is_an_error_exit(tmp_path, corpus, tiny_ckpt, capsys):
    assert main(["eval", str(tmp_path), str(corpus), str(tmp_path / "out")]) == cli.EXIT_DATA
    assert main(["infer", str(tiny_ckpt), str(tmp_path)]) == cli.EXIT_DATA
    assert main(["metrics", str(tmp_path)]) == cli.EXIT_DATA
    assert main(["train", str(tmp_path), "--dry-run"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("error") == 4


def test_eval_single_class_manifest(tmp_path, corpus, tiny_ckpt, capsys):
    manifest = tmp_path / "single.csv"
    lines = [l for l in corpus.read_text().strip().splitlines() if ",real," in l]
    manifest.write_text("path,label,domain\n" + "\n".join(lines) + "\n")
    assert main(["eval", str(tiny_ckpt), str(manifest), str(tmp_path / "out")]) == cli.EXIT_DATA
    assert "EER" in capsys.readouterr().err


def test_eval_with_no_readable_clip_is_data_error_and_writes_nothing(tmp_path, tiny_ckpt, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"garbage")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label,domain\n{bad},fake,for\n")
    out_dir = tmp_path / "evout"
    assert main(["eval", str(tiny_ckpt), str(manifest), str(out_dir)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_with_no_readable_val_clip_is_data_error(tmp_path, corpus, capsys):
    rows = [f"{line},train" for line in corpus.read_text().strip().splitlines()[1:]]
    for label in ("real", "fake"):
        bad = tmp_path / f"bad_{label}.wav"
        bad.write_bytes(b"garbage")
        rows.append(f"{bad},{label},sanity,val")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,domain,split\n" + "\n".join(rows) + "\n")
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out")
    assert main(["train", str(cfg)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_train_with_no_readable_val_clip_fails_before_writing(tmp_path, corpus, capsys, monkeypatch):
    rows = [f"{line},train" for line in corpus.read_text().strip().splitlines()[1:]]
    rows += [f"{tmp_path / 'missing'}_{label}.wav,{label},sanity,val" for label in ("real", "fake")]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,domain,split\n" + "\n".join(rows) + "\n")
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out")
    monkeypatch.setattr(train_eval, "train", lambda *a, **k: pytest.fail("trained with an unreadable val set"))
    assert main(["train", str(cfg)]) == cli.EXIT_DATA
    assert "none of the 2 val clips is readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_protocol_with_no_readable_val_clip_fails_before_writing(tmp_path, capsys, monkeypatch):
    manifest = write_manifest(tmp_path / "for.csv", "for", 40, 40)  # paths that do not exist
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out", manifests={"for": str(manifest)})
    monkeypatch.setattr(train_eval, "train", lambda *a, **k: pytest.fail("trained with an unreadable val set"))
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.001"]) == cli.EXIT_DATA
    assert "val clips is readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def missing_train_manifest(tmp_path, corpus, n_train):
    """Split-tagged: the corpus clips, readable, alternate val and test; the n_train real and
    n_train fake train files do not exist."""
    readable = corpus.read_text().strip().splitlines()[1:]
    rows = [f"{line},{('val', 'test')[k % 2]}" for k, line in enumerate(readable)]
    rows += [f"{tmp_path / 'missing'}_{label}_{k}.wav,{label},sanity,train"
             for label in ("real", "fake") for k in range(n_train)]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,domain,split\n" + "\n".join(rows) + "\n")
    return manifest


def test_train_with_no_readable_train_clip_is_data_error_and_writes_nothing(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path / "c.yaml", missing_train_manifest(tmp_path, corpus, 4), tmp_path / "out")
    assert main(["train", str(cfg)]) == cli.EXIT_DATA
    assert "none of the 8 train clips is readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_protocol_with_no_readable_train_clip_is_data_error_and_writes_nothing(tmp_path, corpus, capsys):
    manifest = missing_train_manifest(tmp_path, corpus, 13)  # in_domain at scale 0.0005 trains on 13 + 13
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out", manifests={"for": str(manifest)})
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.0005"]) == cli.EXIT_DATA
    assert "none of the 26 train clips is readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_protocol_with_no_readable_test_clip_fails_before_training(tmp_path, sanity_corpus, capsys, monkeypatch):
    """Split-tagged: the corpus clips, readable, are train and val; the test files do not exist.
    The protocol exits 2 before it trains or writes anything."""
    readable = sanity_corpus.read_text().strip().splitlines()[1:]
    rows = [f"{line},{('train', 'train', 'val')[k % 3]}" for k, line in enumerate(readable)]
    rows += [f"{tmp_path / 'missing'}_{label}_{k}.wav,{label},sanity,test"
             for label in ("real", "fake") for k in range(2)]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,domain,split\n" + "\n".join(rows) + "\n")
    cfg = write_config(tmp_path / "c.yaml", manifest, tmp_path / "out", manifests={"for": str(manifest)})
    monkeypatch.setattr(train_eval, "train", lambda *a, **k: pytest.fail("trained with an unreadable test set"))
    assert main(["protocol", "in_domain", str(cfg), "--scale", "0.0005"]) == cli.EXIT_DATA
    assert "none of the 4 for test clips is readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- metrics -------------------------------------------------------------------------


def test_metrics_recompute_matches_eval(tmp_path, corpus, tiny_ckpt, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "cache"))
    eval_dir = tmp_path / "eval"
    assert main(["eval", str(tiny_ckpt), str(corpus), str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())["report"]
    out = tmp_path / "metrics.json"
    assert main(["metrics", str(eval_dir / "scores.csv"), "--out", str(out)]) == 0
    recomputed = json.loads(out.read_text())["report"]
    assert recomputed == report


def test_metrics_perfect_scores(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    write_score_file(records_from_scores([0.0, 0.1], [0.9, 1.0]), path)
    assert main(["metrics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "EER      0.0000" in out
    assert "Accuracy 1.0000" in out


def test_metrics_hand_eer(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    write_score_file(records_from_scores([0.2, 0.4, 0.1], [0.8, 0.7, 0.3]), path)
    assert main(["metrics", str(path)]) == 0
    assert "EER      0.3333" in capsys.readouterr().out


def test_metrics_table_consistent_counts(tmp_path, capsys):
    recs = records_from_scores([0.1] * 32027 + [0.9] * 469, [0.9] * 32422 + [0.1] * 6)
    path = tmp_path / "scores.csv"
    write_score_file(recs, path)
    out = tmp_path / "report.json"
    assert main(["metrics", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["f1_real"] == pytest.approx(0.9926, abs=5e-5)
    assert rep["accuracy"] == pytest.approx(0.9927, abs=5e-4)


@pytest.mark.parametrize("content", [
    b"path,label,score\n" + b"x" * 200_000 + b",real,0.5\n",
    "path,label,score\ncaf\u00e9.wav,real,0.5\n".encode("latin-1"),
    b"path,score,label\na.wav,0.5,real\n",
    b"path,label,score\na.wav,real,high\n",
], ids=["field_too_long", "not_utf8", "bad_header", "bad_score"])
def test_metrics_malformed_score_file_is_data_error(tmp_path, capsys, content):
    path = tmp_path / "scores.csv"
    path.write_bytes(content)
    assert main(["metrics", str(path)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_metrics_score_file_without_rows_is_data_error(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("path,label,score\n\n")
    with pytest.raises(ScoreFileError, match="no score rows"):
        read_score_file(path)
    assert main(["metrics", str(path), "--out", str(tmp_path / "m.json")]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_threshold_outside_the_unit_interval_is_config_error(tmp_path, tiny_ckpt, capsys, threshold):
    path = tmp_path / "scores.csv"
    write_score_file(records_from_scores([0.1], [0.9]), path)
    out = tmp_path / "out"
    for argv in (["metrics", str(path), "--out", str(out)],
                 ["eval", str(tiny_ckpt), str(path), str(out)]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--threshold", threshold])
        assert exit_.value.code == cli.EXIT_CONFIG
        assert "threshold must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


# --- figure-data ----------------------------------------------------------------------


def test_figure_data(tmp_path, capsys):
    reports = tmp_path / "reports"
    for config, ts, f1, e in [("in_domain", "for", 0.99, 0.01),
                              ("triple_domain", "cross", 0.83, 0.16),
                              ("triple_domain", "avspoof", 0.66, 0.2)]:
        d = reports / config
        d.mkdir(parents=True, exist_ok=True)
        (d / f"report_{ts}.json").write_text(json.dumps(
            {"config": config, "test_set": ts, "report": {"f1_fake": f1, "eer": e}}))
    out = tmp_path / "fig.csv"
    assert main(["figure-data", str(reports), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "test_set,config,f1_fake,eer"
    assert lines[1].startswith("for,in_domain,")
    assert lines[2].startswith("avspoof,triple_domain,")  # sorted by (config, test_set)
    assert main(["figure-data", str(reports), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == lines  # byte-stable


def test_figure_data_empty_dir(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["figure-data", str(empty)]) == cli.EXIT_DATA


@pytest.mark.parametrize("content", [
    "{}", "[1]", "not json",
    '{"config": 1, "test_set": "for", "report": {"f1_fake": 0.5, "eer": 0.1}}',
    '{"config": "a", "test_set": "for", "report": {"f1_fake": NaN, "eer": 0.1}}',
], ids=["empty_object", "list", "not_json", "config_not_a_string", "f1_not_finite"])
def test_figure_data_malformed_report_is_data_error(tmp_path, capsys, content):
    report = tmp_path / "reports" / "report_for.json"
    report.parent.mkdir()
    report.write_text(content)
    assert main(["figure-data", str(report.parent)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and str(report) in err


# --- exit codes ---------------------------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["--help"], cli.EXIT_OK),
    (["eval", "--help"], cli.EXIT_OK),
    (["eval"], cli.EXIT_CONFIG),
    (["metrics", "s.csv", "--threshold", "abc"], cli.EXIT_CONFIG),
    (["transcode", "a.wav"], cli.EXIT_CONFIG),
], ids=["help", "command_help", "missing_arguments", "threshold_not_a_float", "unknown_command"])
def test_argument_errors_exit_as_usage_errors(capsys, argv, code):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    capsys.readouterr()


@pytest.mark.parametrize("command", ["preprocess", "eval", "train", "metrics", "figure-data"])
def test_output_under_a_regular_file_is_data_error(tmp_path, corpus, tiny_ckpt, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    scores = tmp_path / "scores.csv"
    write_score_file(records_from_scores([0.1], [0.9]), scores)
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "report_for.json").write_text(json.dumps(
        {"config": "in_domain", "test_set": "for", "report": {"f1_fake": 0.9, "eer": 0.1}}))
    argv = {
        "preprocess": ["preprocess", str(corpus), str(afile)],
        "eval": ["eval", str(tiny_ckpt), str(corpus), str(afile)],
        "train": ["train", str(write_config(tmp_path / "c.yaml", corpus, tmp_path / "out")),
                  "--output-dir", str(afile / "run")],
        "metrics": ["metrics", str(scores), "--out", str(afile / "m.json")],
        "figure-data": ["figure-data", str(reports), "--out", str(afile / "fig.csv")],
    }[command]
    assert main(argv) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert afile.read_text() == "keep"
