"""Artefacts are written through a temp file and `os.replace`: a failed write keeps the old file."""

from types import SimpleNamespace

import numpy as np
import pytest

from rawnetlite import cli, model as model_mod
from rawnetlite.fileio import atomic_write
from rawnetlite.model import RawNetLiteConfig, build, load, save

SMALL = RawNetLiteConfig(channels=2, n_res_blocks=1, pool_len=4, gru_hidden=2,
                         fc_hidden=2, input_len=32, seed=4)


def boom(*args, **kwargs):
    raise OSError("disk full")


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with atomic_write(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with pytest.raises(OSError):
        with atomic_write(path) as f:
            f.write("half of the new")
            boom()
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_interrupted_checkpoint_save_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    old = build(SMALL)
    save(old, path)
    before = path.read_bytes()
    new = build(RawNetLiteConfig(**{**SMALL.__dict__, "seed": 5}))
    # the magic is written, then packing the header length fails
    monkeypatch.setattr(model_mod, "struct", SimpleNamespace(pack=boom))
    with pytest.raises(OSError):
        save(new, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert np.array_equal(load(path).params["stem.conv.w"].values, old.params["stem.conv.w"].values)


def test_interrupted_config_echo_keeps_previous(tmp_path, monkeypatch):
    cfg = cli.RunConfig(version=1)
    cli._echo_config(cfg, tmp_path)
    path = tmp_path / "effective_config.yaml"
    before = path.read_text()

    def partial_dump(doc, f, **kwargs):
        f.write("version: ")
        boom()

    monkeypatch.setattr(cli.yaml, "safe_dump", partial_dump)
    with pytest.raises(OSError):
        cli._echo_config(cfg, tmp_path)
    assert path.read_text() == before
    assert list(tmp_path.iterdir()) == [path]


def test_interrupted_eval_report_keeps_previous(tmp_path, sanity_corpus, monkeypatch):
    ckpt = tmp_path / "tiny.ckpt"
    tiny = build(RawNetLiteConfig(channels=2, n_res_blocks=0, pool_len=16, gru_hidden=2,
                                  fc_hidden=2, input_len=48000, seed=3))
    tiny.forward(np.random.default_rng(0).normal(size=(2, 1, 48000)).astype(np.float32),
                 mode="train")
    save(tiny, ckpt)
    out = tmp_path / "eval"
    args = ["eval", str(ckpt), str(sanity_corpus), str(out)]
    assert cli.main(args) == 0
    before = (out / "report.json").read_text()

    def partial_dump(doc, f, **kwargs):
        f.write('{"report": ')
        boom()

    monkeypatch.setattr(cli.json, "dump", partial_dump)
    with pytest.raises(OSError):
        cli.main(args)
    assert (out / "report.json").read_text() == before
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "scores.csv"]
