import json

import numpy as np
import pytest

from rawnetlite import cli, train_eval
from rawnetlite.data_pipeline import ManifestEntry, ProtocolViolationError, parse_manifest
from rawnetlite.losses_metrics import write_score_file
from rawnetlite.model import ConfigError, RawNetLiteConfig, build
from rawnetlite.train_eval import (
    BestTracker, FULL_COUNTS, PROTOCOLS, TrainConfig, compose_protocol, evaluate,
    score_entries, train, write_history_csv,
)

from conftest import write_run_config


def synthetic_entries(n_real, n_fake, domain):
    return ([ManifestEntry(f"{domain}/r{i}.wav", 0, domain) for i in range(n_real)]
            + [ManifestEntry(f"{domain}/f{i}.wav", 1, domain) for i in range(n_fake)])


def protocol_manifests():
    return {
        "for": synthetic_entries(400, 400, "for"),
        "avspoof": synthetic_entries(350, 350, "avspoof"),
        "codecfake": synthetic_entries(600, 600, "codecfake"),
    }


# --- early stopping -------------------------------------------------------------


def test_tracker_patience_one_never_improving():
    t = BestTracker(patience=1)
    improved, stop = t.update(1, 0.8)
    assert improved and not stop
    improved, stop = t.update(2, 0.8)  # tie does not improve
    assert not improved and stop
    assert t.best_epoch == 1


def test_tracker_recovers_after_dip():
    t = BestTracker(patience=2)
    assert t.update(1, 0.5) == (True, False)
    assert t.update(2, 0.4) == (False, False)
    assert t.update(3, 0.6) == (True, False)
    assert t.update(4, 0.6) == (False, False)
    assert t.update(5, 0.6) == (False, True)
    assert t.best_epoch == 3


def test_tracker_ties_keep_earliest():
    t = BestTracker(patience=5)
    t.update(1, 0.7)
    t.update(2, 0.7)
    t.update(3, 0.7)
    assert t.best_epoch == 1


# --- train -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sanity_entries(sanity_corpus):
    return parse_manifest(sanity_corpus)


@pytest.fixture(scope="module")
def clip_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("clip_cache")


def small_train_cfg(**kw):
    defaults = dict(loss="bce", lr=1e-3, batch_size=8, max_epochs=2, patience=3,
                    shuffle_seed=1, max_steps=4, eval_batch_size=16)
    defaults.update(kw)
    return TrainConfig(**defaults)


def subset(entries, n_per_class):
    reals = [e for e in entries if e.label == 0][:n_per_class]
    fakes = [e for e in entries if e.label == 1][:n_per_class]
    return reals + fakes


def test_train_smoke_and_history(tiny_model_cfg, sanity_entries, clip_cache):
    train_pool = subset(sanity_entries, 8)
    val = subset([e for e in sanity_entries if e not in train_pool], 4)
    model, history = train(tiny_model_cfg, small_train_cfg(), train_pool, val,
                           cache_dir=clip_cache)
    assert len(history.records) >= 1
    assert history.best_epoch >= 1
    assert model.metadata["epoch"] == history.best_epoch
    f1s = [r.val_f1 for r in history.records]
    assert model.metadata["best_val_f1"] == max(f1s)
    assert history.best_epoch == f1s.index(max(f1s)) + 1


def test_train_deterministic(tiny_model_cfg, sanity_entries, clip_cache):
    train_pool = subset(sanity_entries, 6)
    val = subset([e for e in sanity_entries if e not in train_pool], 3)

    def run():
        model, _ = train(tiny_model_cfg, small_train_cfg(), train_pool, val,
                         cache_dir=clip_cache)
        return {k: p.values.copy() for k, p in model.params.items()}

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_train_empty_validation_rejected(tiny_model_cfg, sanity_entries):
    with pytest.raises(ConfigError, match="validation"):
        train(tiny_model_cfg, small_train_cfg(), subset(sanity_entries, 4), [])


def test_train_single_class_validation_rejected(tiny_model_cfg, sanity_entries, clip_cache):
    train_pool = subset(sanity_entries, 4)
    val = [e for e in sanity_entries if e.label == 0][10:13]  # reals only
    with pytest.raises(ConfigError, match="fake"):
        train(tiny_model_cfg, small_train_cfg(), train_pool, val, cache_dir=clip_cache)


def test_history_csv_columns(tiny_model_cfg, sanity_entries, clip_cache, tmp_path):
    train_pool = subset(sanity_entries, 4)
    val = subset([e for e in sanity_entries if e not in train_pool], 2)
    _, history = train(tiny_model_cfg, small_train_cfg(max_epochs=1), train_pool, val,
                       cache_dir=clip_cache)
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_f1,seconds"
    assert len(lines) == 1 + len(history.records)


# --- evaluate ---------------------------------------------------------------------


def test_evaluate_degenerate_model(tiny_model_cfg, sanity_entries, clip_cache):
    entries = subset(sanity_entries, 5)[:8]  # 5 real, 3 fake
    model = build(tiny_model_cfg)
    model.forward(np.zeros((2, 1, 48000), dtype=np.float32), mode="train")  # init BN stats
    model.params["head.fc2.w"].values[...] = 0.0
    model.params["head.fc2.b"].values[...] = 0.0
    report, records, _ = evaluate(model, entries, cache_dir=clip_cache)
    assert all(r.score == 0.5 for r in records)
    # ties go to fake under the >= rule, so accuracy equals the fake prevalence
    assert report.accuracy == pytest.approx(3 / 8)


def test_evaluate_self_consistency_and_determinism(tiny_model_cfg, sanity_entries,
                                                   clip_cache, tmp_path):
    entries = subset(sanity_entries, 6)
    model = build(tiny_model_cfg)
    model.forward(np.zeros((2, 1, 48000), dtype=np.float32), mode="train")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep1, _, _ = evaluate(model, entries, score_path=p1, cache_dir=clip_cache)
    rep2, _, _ = evaluate(model, entries, score_path=p2, cache_dir=clip_cache)
    assert p1.read_bytes() == p2.read_bytes()
    for p, r, f1 in [(rep1.precision_fake, rep1.recall_fake, rep1.f1_fake),
                     (rep1.precision_real, rep1.recall_real, rep1.f1_real)]:
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert abs(f1 - expected) < 1e-9
    assert rep1.to_dict() == rep2.to_dict()


def test_evaluate_does_not_mutate_model(tiny_model_cfg, sanity_entries, clip_cache):
    entries = subset(sanity_entries, 4)
    model = build(tiny_model_cfg)
    model.forward(np.random.default_rng(0).normal(size=(2, 1, 48000)).astype(np.float32),
                  mode="train")
    before = {k: (s.running_mean.tobytes(), s.running_var.tobytes())
              for k, s in model.bn_states.items()}
    params_before = {k: p.values.tobytes() for k, p in model.params.items()}
    evaluate(model, entries, cache_dir=clip_cache)
    assert before == {k: (s.running_mean.tobytes(), s.running_var.tobytes())
                      for k, s in model.bn_states.items()}
    assert params_before == {k: p.values.tobytes() for k, p in model.params.items()}


def test_evaluate_rejects_train_overlap(tiny_model_cfg, sanity_entries, clip_cache):
    entries = subset(sanity_entries, 4)
    model = build(tiny_model_cfg)
    model.forward(np.zeros((1, 1, 48000), dtype=np.float32), mode="train")
    with pytest.raises(ProtocolViolationError, match="overlap"):
        evaluate(model, entries, train_paths={entries[0].path}, cache_dir=clip_cache)


# --- protocol composition ----------------------------------------------------------


def test_compose_in_domain_single_test_set():
    train_pool, val, tests = compose_protocol("in_domain", protocol_manifests(), scale=0.01)
    assert set(tests) == {"for"}
    assert len(train_pool) == 512  # 256 per class
    assert len(val) == 64
    assert len(tests["for"]) == 64


def test_compose_triple_domain_five_test_sets():
    train_pool, val, tests = compose_protocol("triple_domain", protocol_manifests(), scale=0.01)
    assert set(tests) == {"for", "avspoof", "codecfake", "cross", "triple"}
    # train = for 256/256 + avspoof 64/64 + codecfake 64/64
    assert len(train_pool) == 2 * (256 + 64 + 64)
    assert len(tests["avspoof"]) == 226 + 250
    assert len(tests["codecfake"]) == 520 + 500
    assert len(tests["cross"]) == len(tests["avspoof"]) + len(tests["codecfake"])
    assert len(tests["triple"]) == len(tests["cross"]) + 64


def test_compose_scaled_counts_per_class():
    _, _, tests = compose_protocol("cross_domain", protocol_manifests(), scale=0.01)
    avs = tests["avspoof"]
    assert sum(1 for e in avs if e.label == 0) == round(FULL_COUNTS["avspoof"]["test"][0] * 0.01)
    assert sum(1 for e in avs if e.label == 1) == round(FULL_COUNTS["avspoof"]["test"][1] * 0.01)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_compose_pairwise_disjoint(name):
    train_pool, val, tests = compose_protocol(name, protocol_manifests(), scale=0.01)
    train_paths = {e.path for e in train_pool}
    val_paths = {e.path for e in val}
    test_paths = {e.path for ts in tests.values() for e in ts}
    assert train_paths.isdisjoint(val_paths)
    assert train_paths.isdisjoint(test_paths)
    assert val_paths.isdisjoint(test_paths)


def test_compose_missing_manifest_rejected():
    with pytest.raises(ConfigError, match="avspoof"):
        compose_protocol("cross_domain", {"for": synthetic_entries(10, 10, "for")}, scale=0.01)


def test_compose_unknown_protocol():
    with pytest.raises(ConfigError, match="unknown protocol"):
        compose_protocol("quad_domain", protocol_manifests())


def test_compose_duplicate_path_across_manifests():
    manifests = protocol_manifests()
    manifests["avspoof"][0] = ManifestEntry(manifests["for"][0].path, 0, "avspoof")
    with pytest.raises(ProtocolViolationError, match="both"):
        compose_protocol("cross_domain", manifests, scale=0.01)


def test_compose_honours_split_tags_on_for():
    tag = lambda i: "train" if i % 10 < 8 else "val" if i % 10 == 8 else "test"
    manifests = protocol_manifests()
    manifests["for"] = [ManifestEntry(e.path, e.label, e.domain, tag(i))
                        for i, e in enumerate(manifests["for"])]
    train_pool, val, tests = compose_protocol("cross_domain", manifests, scale=0.01)
    assert len(val) == 64 and {e.split for e in val} == {"val"}
    assert len(tests["for"]) == 64 and {e.split for e in tests["for"]} == {"test"}
    assert {e.split for e in train_pool if e.domain == "for"} == {"train"}


def test_compose_determinism():
    a = compose_protocol("triple_domain", protocol_manifests(), scale=0.01, split_seed=4, mix_seed=9)
    b = compose_protocol("triple_domain", protocol_manifests(), scale=0.01, split_seed=4, mix_seed=9)
    assert a == b


# --- protocol end to end (tiny) ------------------------------------------------------


def run_in_domain(tmp_path, model_cfg, train_cfg, corpus, cache_dir):
    """`rawnetlite protocol in_domain` at scale 0.002; returns its run directory."""
    cfg = write_run_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "proto"),
                           manifests={"for": str(corpus)}, model=model_cfg, train=train_cfg,
                           cache_dir=str(cache_dir))
    # 64 clips per class; scale so caps become 51/6/6 per class
    assert cli.main(["protocol", "in_domain", str(cfg), "--scale", "0.002"]) == cli.EXIT_OK
    return tmp_path / "proto" / "in_domain"


def test_protocol_in_domain(tiny_model_cfg, sanity_corpus, clip_cache, tmp_path):
    out = run_in_domain(tmp_path, tiny_model_cfg, small_train_cfg(max_steps=2, max_epochs=1),
                        sanity_corpus, clip_cache)
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "history.csv").exists()
    assert (out / "report_for.json").exists()
    assert (out / "scores_for.csv").exists()
    rep = json.loads((out / "report_for.json").read_text())["report"]
    assert rep["eer"] is not None
    assert rep["tp"] + rep["tn"] + rep["fp"] + rep["fn"] == len(
        open(out / "scores_for.csv").readlines()) - 1


def test_protocol_scores_test_sets_at_eval_batch_size(tiny_model_cfg, sanity_corpus, clip_cache,
                                                      tmp_path, monkeypatch):
    sizes = []

    def recording(model, entries, batch_size=64, **kw):
        sizes.append(batch_size)
        return score_entries(model, entries, batch_size=batch_size, **kw)

    monkeypatch.setattr(train_eval, "score_entries", recording)
    run_in_domain(tmp_path, tiny_model_cfg, small_train_cfg(max_steps=1, max_epochs=1, eval_batch_size=5),
                  sanity_corpus, clip_cache)
    assert sizes == [5, 5]  # the val set, then the one test set
