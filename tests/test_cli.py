import dataclasses
import json
import typing

import numpy as np
import pytest
import yaml

from rawnetlite import cli
from rawnetlite.augment import AugmentConfig
from rawnetlite.cli import main
from rawnetlite.data_pipeline import MixSpec
from rawnetlite.losses_metrics import read_score_file
from rawnetlite.model import RawNetLiteConfig, build, save
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
    assert "scale must be finite and >= 0" in capsys.readouterr().err
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
