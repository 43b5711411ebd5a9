"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import functools
import time

import numpy as np
import pytest

from rawnetlite import cli, nn_core
from rawnetlite.augment import AugmentConfig, add_noise_samples, draw_plan, pitch_shift_samples
from rawnetlite.audio_io import CLIP_SAMPLES, TARGET_RATE_HZ, preprocess
from rawnetlite.data_pipeline import ManifestEntry, MixSpec, parse_manifest, stratified_split
from rawnetlite.losses_metrics import (
    ScoreRecord, bce_loss, classification_metrics, eer, focal_loss,
)
from rawnetlite.model import RawNetLiteConfig, build
from rawnetlite.train_eval import FULL_COUNTS, PROTOCOLS, TrainConfig, compose_protocol, score_entries, train

from conftest import brute_force_eer, finite_difference_check, make_wav, records_from_scores, write_run_config

REDUCED = RawNetLiteConfig(channels=4, n_res_blocks=3, pool_len=8, gru_hidden=3,
                           fc_hidden=4, input_len=256, seed=123)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")
        return wrapper
    return deco


# --- 1. gradient integrity -------------------------------------------------------


def _checked_model():
    m = build(REDUCED, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 1, REDUCED.input_len))
    y = np.array([0.0, 1.0])

    def f():
        return bce_loss(m.forward(x, mode="train"), y)[0]

    probs, caches = m.forward_train(x)
    _, dp = bce_loss(probs, y)
    m.backward(dp, caches)
    return m, f


@criterion(1, "gradient integrity")
def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    m, f = _checked_model()
    err = finite_difference_check(f, m.params.values())
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"max relative error {err}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def _corrupt_everything(out):
    if isinstance(out, np.ndarray):
        return out * 1.01
    if isinstance(out, nn_core.Windows):  # a lazy gradient: scale each window as it is built
        return nn_core.Windows(out.shape, out.dtype, lambda i, lo, hi: out.window(i, lo, hi) * 1.01)
    if isinstance(out, tuple):
        return tuple(_corrupt_everything(o) for o in out)
    return out


@criterion(1, "gradient integrity / mutation")
@pytest.mark.parametrize("layer", ["conv_bn_relu_backward", "conv1d_backward",
                                   "batchnorm_relu_backward", "relu_backward",
                                   "adaptive_avg_pool1d_backward", "gru_backward",
                                   "linear_backward", "sigmoid_backward"])
def test_criterion_1_mutation_detected(layer, monkeypatch):
    orig = getattr(nn_core, layer)

    def corrupted(*args, **kwargs):
        return _corrupt_everything(orig(*args, **kwargs))

    monkeypatch.setattr(nn_core, layer, corrupted)
    m, f = _checked_model()
    err = finite_difference_check(f, m.params.values(), max_coords_per_param=8)
    assert err > 1e-4, f"corrupting {layer} went undetected (err {err})"


# --- 2. metric formulas vs reported values -----------------------------------------


@criterion(2, "metric-formula fidelity")
def test_criterion_2_metric_fidelity():
    # integer confusion counts realizing real P=0.9998, R=0.9856 over the
    # reported supports (32496 real / 32428 fake)
    recs = records_from_scores([0.1] * 32027 + [0.9] * 469, [0.9] * 32422 + [0.1] * 6)
    rep = classification_metrics(recs, 0.5)
    assert rep.precision_real == pytest.approx(0.9998, abs=5e-5)
    assert rep.recall_real == pytest.approx(0.9856, abs=5e-5)
    assert rep.f1_real == pytest.approx(0.9926, abs=5e-5)
    assert rep.accuracy == pytest.approx(0.9927, abs=5e-4)

    loss, _ = focal_loss(np.array([0.5]), np.array([1.0]), gamma=2.0, alpha=0.25)
    assert loss == pytest.approx(0.0433217, abs=1e-6)


# --- 3. EER oracle equivalence -------------------------------------------------------


@criterion(3, "EER oracle equivalence")
def test_criterion_3_eer_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n_real = int(rng.integers(2, 201))
        n_fake = int(rng.integers(2, 201))
        if trial % 2 == 0:
            real = rng.uniform(0, 1, n_real)
            fake = rng.uniform(0, 1, n_fake)
        else:
            # quantized scores exercise duplicate thresholds and tie-breaks
            real = np.round(rng.uniform(0, 1, n_real), 2)
            fake = np.round(rng.uniform(0, 1, n_fake), 2)
        recs = records_from_scores(real, fake)
        assert eer(recs) == brute_force_eer(recs), f"trial {trial}"

    scores = rng.uniform(0, 1, 10000)
    labels = rng.integers(0, 2, 10000)
    recs = [ScoreRecord(f"c{i}", int(l), float(s)) for i, (l, s) in enumerate(zip(labels, scores))]
    e, _ = eer(recs)
    assert 0.48 <= e <= 0.52, f"chance-level EER {e}"


# --- 4. focal/BCE identity ------------------------------------------------------------


@criterion(4, "focal/BCE identity")
def test_criterion_4_focal_bce_identity():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 1.0, 1_000_000)
    y = rng.integers(0, 2, 1_000_000).astype(np.float64)
    lf, df = focal_loss(p, y, gamma=0.0, alpha=0.5)
    lb, db = bce_loss(p, y)
    assert lf == 0.5 * lb
    assert np.array_equal(df, 0.5 * db)  # per-pair identity through the gradients
    for i in rng.integers(0, p.size, size=4096):  # per-pair identity of the values
        lf1, _ = focal_loss(p[i : i + 1], y[i : i + 1], gamma=0.0, alpha=0.5)
        lb1, _ = bce_loss(p[i : i + 1], y[i : i + 1])
        assert lf1 == 0.5 * lb1


# --- 5. overfit sanity run --------------------------------------------------------------


SANITY_MODEL = RawNetLiteConfig(channels=8, n_res_blocks=1, pool_len=64, gru_hidden=16,
                                fc_hidden=16, input_len=CLIP_SAMPLES, seed=11)


def _sanity_pools(manifest):
    entries = parse_manifest(manifest)
    train_pool, val, _ = stratified_split(entries, (0.75, 0.125, 0.125), seed=3)
    return train_pool, val  # 48/8 per class


def _steps_taken(history, train_size, batch_size=16):
    per_epoch = -(-train_size // batch_size)
    return len(history.records) * per_epoch


@criterion(5, "overfit sanity run")
def test_criterion_5_overfit_sanity(sanity_corpus, tmp_path):
    t0 = time.perf_counter()
    train_pool, val = _sanity_pools(sanity_corpus)
    cfg = TrainConfig(loss="bce", lr=1e-3, batch_size=16, max_epochs=6, patience=6,
                      shuffle_seed=1, eval_batch_size=32)
    cache = tmp_path / "cache"
    model, history = train(SANITY_MODEL, cfg, train_pool, val, cache_dir=cache)
    steps = _steps_taken(history, len(train_pool))
    assert steps <= 200, f"{steps} optimizer steps"
    best_f1 = max(r.val_f1 for r in history.records)
    assert best_f1 >= 0.95, f"best validation fake-F1 {best_f1}"

    records = score_entries(model, train_pool, batch_size=32, cache_dir=cache)
    train_acc = np.mean([(r.score >= 0.5) == (r.label == 1) for r in records])
    assert train_acc == 1.0, f"train accuracy {train_acc}"

    # leakage control: random labels must not yield genuine skill
    entries = train_pool + val
    perm = np.random.default_rng(777).permutation(len(entries))
    labels = [entries[i].label for i in perm]
    shuffled = [ManifestEntry(e.path, l, e.domain) for e, l in zip(entries, labels)]
    train_perm, val_perm = shuffled[: len(train_pool)], shuffled[len(train_pool):]
    _, perm_history = train(SANITY_MODEL, cfg, train_perm, val_perm, cache_dir=cache)
    final_f1 = perm_history.records[-1].val_f1
    assert 0.35 <= final_f1 <= 0.65, f"permuted-label final validation F1 {final_f1}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"sanity runs took {elapsed:.0f}s"


# --- 6. preprocessing invariants -----------------------------------------------------------


@criterion(6, "preprocessing invariants")
def test_criterion_6_preprocess_fuzz():
    rng = np.random.default_rng(404)
    rates = [8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000]
    formats = ["pcm16", "pcm24", "pcm32", "float32"]
    for i in range(500):
        rate = rates[rng.integers(len(rates))]
        channels = int(rng.integers(1, 3))
        seconds = rng.uniform(0.5, 6.0)
        n = int(rate * seconds)
        if i % 97 == 0:
            x = np.zeros((channels, n))
        else:
            t = np.arange(n) / rate
            freq = rng.uniform(50, min(3000, rate / 2.5))
            x = (rng.uniform(0.2, 0.9) * np.sin(2 * np.pi * freq * t)[None, :]
                 + rng.uniform(0.01, 0.3) * rng.normal(size=(channels, n)))
            x = x / np.max(np.abs(x)) * rng.uniform(0.05, 1.0)
        clip = preprocess(make_wav(x, rate, formats[rng.integers(len(formats))]))
        assert clip.samples.shape == (CLIP_SAMPLES,), f"file {i}"
        peak = float(np.max(np.abs(clip.samples)))
        if clip.is_silent:
            assert peak == 0.0, f"file {i}"
        else:
            assert peak == 1.0, f"file {i}: peak {peak}"

    t = np.arange(CLIP_SAMPLES) / TARGET_RATE_HZ
    tone = np.sin(2 * np.pi * 440.0 * t)
    x = tone / np.max(np.abs(tone))
    bin_hz = TARGET_RATE_HZ / CLIP_SAMPLES
    for semis in (2.0, -2.0, 12.0, -12.0):
        out = pitch_shift_samples(x, semis)
        spec = np.abs(np.fft.rfft(out))
        peak_hz = np.argmax(spec) * bin_hz
        expected = 440.0 * 2.0 ** (semis / 12.0)
        assert abs(peak_hz - expected) <= bin_hz, f"{semis} semitones: {peak_hz} Hz"


# --- 7. protocol hygiene ----------------------------------------------------------------------


@criterion(7, "protocol hygiene")
def test_criterion_7_protocol_hygiene():
    scale = 0.01
    manifests = {
        "for": ([ManifestEntry(f"for/r{i}.wav", 0, "for") for i in range(400)]
                + [ManifestEntry(f"for/f{i}.wav", 1, "for") for i in range(400)]),
        "avspoof": ([ManifestEntry(f"avs/r{i}.wav", 0, "avspoof") for i in range(350)]
                    + [ManifestEntry(f"avs/f{i}.wav", 1, "avspoof") for i in range(350)]),
        "codecfake": ([ManifestEntry(f"cf/r{i}.wav", 0, "codecfake") for i in range(600)]
                      + [ManifestEntry(f"cf/f{i}.wav", 1, "codecfake") for i in range(600)]),
    }

    def by_class(entries):
        return (sum(1 for e in entries if e.label == 0), sum(1 for e in entries if e.label == 1))

    def scaled(counts):
        return (round(counts[0] * scale), round(counts[1] * scale))

    for name, proto in PROTOCOLS.items():
        train_pool, val, tests = compose_protocol(name, manifests, scale=scale,
                                                  split_seed=1, mix_seed=2)
        train_paths = {e.path for e in train_pool}
        val_paths = {e.path for e in val}
        test_paths = {e.path for ts in tests.values() for e in ts}
        assert train_paths.isdisjoint(val_paths), name
        assert train_paths.isdisjoint(test_paths), name
        assert val_paths.isdisjoint(test_paths), name

        for_train = [e for e in train_pool if e.domain == "for"]
        assert by_class(for_train) == scaled(FULL_COUNTS["for"]["train"]), name
        assert by_class(val) == scaled(FULL_COUNTS["for"]["val"]), name
        assert by_class(tests["for"]) == scaled(FULL_COUNTS["for"]["test"]), name
        for extra in ("avspoof", "codecfake"):
            in_train = [e for e in train_pool if e.domain == extra]
            if extra in proto["train_extra"]:
                assert by_class(in_train) == scaled(FULL_COUNTS[extra]["train"]), name
            else:
                assert in_train == [], name
            if extra in tests:
                assert by_class(tests[extra]) == scaled(FULL_COUNTS[extra]["test"]), name
        # balanced configs keep the training pool balanced
        n_real, n_fake = by_class(train_pool)
        assert n_real == n_fake, name


# --- 8. determinism ------------------------------------------------------------------------------


@criterion(8, "determinism")
def test_criterion_8_protocol_determinism(sanity_corpus, tiny_model_cfg, tmp_path):
    cfg = TrainConfig(loss="bce", lr=1e-3, batch_size=8, max_epochs=1, patience=1,
                      max_steps=3, shuffle_seed=2, eval_batch_size=16)
    outputs = []
    for run in ("a", "b"):
        config = write_run_config(tmp_path / f"{run}.yaml", output_dir=str(tmp_path / run),
                                  manifests={"for": str(sanity_corpus)}, model=tiny_model_cfg, train=cfg,
                                  mix=MixSpec(split_seed=5, seed=6), cache_dir=str(tmp_path / "cache"))
        assert cli.main(["protocol", "in_domain", str(config), "--scale", "0.002"]) == 0
        out = tmp_path / run / "in_domain"
        fig = tmp_path / f"fig_{run}.csv"
        assert cli.main(["figure-data", str(out), "--out", str(fig)]) == 0
        outputs.append({
            "checkpoint": (out / "checkpoint.ckpt").read_bytes(),
            "scores": (out / "scores_for.csv").read_bytes(),
            "report": (out / "report_for.json").read_bytes(),
            "figure": fig.read_bytes(),
        })
    assert outputs[0] == outputs[1]


# --- 9. augmentation statistics --------------------------------------------------------------------


@criterion(9, "augmentation statistics")
def test_criterion_9_augmentation_statistics():
    cfg = AugmentConfig(p_apply=0.5, seed=31337)
    n = 10000
    counts = np.zeros(3)
    for i in range(n):
        plan = draw_plan(cfg, 0, i)
        counts += [plan.apply_pitch, plan.apply_stretch, plan.apply_noise]
    rates = counts / n
    assert np.all((rates >= 0.47) & (rates <= 0.53)), f"apply rates {rates}"

    for amplitude in (0.001, 0.01, 0.015):
        out = add_noise_samples(np.zeros(CLIP_SAMPLES), amplitude, np.random.default_rng(99))
        sd = float(np.std(out))
        assert abs(sd - amplitude) / amplitude <= 0.03, f"amplitude {amplitude}: sd {sd}"
