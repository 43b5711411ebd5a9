import numpy as np
import pytest

from rawnetlite.audio_io import CLIP_SAMPLES, TARGET_RATE_HZ, FixedClip
from rawnetlite.augment import (
    AugmentConfig, add_noise_samples, apply_plan, augment_pipeline, draw_plan,
    pitch_shift_samples, time_stretch_samples,
)

BIN_HZ = TARGET_RATE_HZ / CLIP_SAMPLES


def sine_clip(freq=440.0):
    t = np.arange(CLIP_SAMPLES) / TARGET_RATE_HZ
    x = np.sin(2 * np.pi * freq * t)
    return FixedClip(samples=(x / np.max(np.abs(x))).astype(np.float32), peak=1.0)


def sine(freq=440.0):
    return sine_clip(freq).samples.astype(np.float64)


def dominant_hz(samples):
    spec = np.abs(np.fft.rfft(np.asarray(samples, dtype=np.float64)))
    return np.argmax(spec) * TARGET_RATE_HZ / len(samples)


# --- config validation --------------------------------------------------------


def test_config_rejects_bad_probability():
    with pytest.raises(ValueError):
        AugmentConfig(p_apply=1.5)


def test_config_rejects_inverted_range():
    with pytest.raises(ValueError):
        AugmentConfig(stretch_rate_range=(1.2, 0.8))


def test_config_rejects_negative_noise():
    with pytest.raises(ValueError):
        AugmentConfig(noise_amplitude_range=(-0.01, 0.01))


# --- pitch shift ----------------------------------------------------------------


def test_pitch_shift_zero_is_identity():
    x = sine()
    out = pitch_shift_samples(x, 0.0)
    assert np.max(np.abs(out - x)) < 1e-4


@pytest.mark.parametrize("semitones", [2.0, -2.0, 12.0, -12.0])
def test_pitch_shift_peak_bin(semitones):
    out = pitch_shift_samples(sine(440.0), semitones)
    assert out.shape == (CLIP_SAMPLES,)
    expected = 440.0 * 2.0 ** (semitones / 12.0)
    assert abs(dominant_hz(out) - expected) <= BIN_HZ


@pytest.mark.parametrize("semitones", [2.0, -2.0])
def test_pitch_shift_energy_preserved(semitones):
    x = sine(440.0)
    out = pitch_shift_samples(x, semitones)
    assert 0.8 <= np.mean(out ** 2) / np.mean(x ** 2) <= 1.2


def test_pitch_shift_rejects_large_shift():
    AugmentConfig(pitch_semitone_range=(-12.0, 12.0))
    with pytest.raises(ValueError, match="pitch_semitone_range"):
        AugmentConfig(pitch_semitone_range=(-2.0, 13.0))
    with pytest.raises(ValueError, match="pitch_semitone_range"):
        AugmentConfig(pitch_semitone_range=(-13.0, 2.0))


# --- time stretch ----------------------------------------------------------------


def test_time_stretch_identity():
    x = sine()
    out = time_stretch_samples(x, 1.0)
    assert out.shape == (CLIP_SAMPLES,)
    assert np.max(np.abs(out - x)) < 1e-4


def test_time_stretch_length_faster():
    assert time_stretch_samples(sine(), 1.1).size == 43636


def test_time_stretch_slower_keeps_pitch():
    out = time_stretch_samples(sine(440.0), 0.9)
    assert out.size == 53333
    bin_hz = TARGET_RATE_HZ / out.size
    assert abs(dominant_hz(out) - 440.0) <= 2 * bin_hz


def test_time_stretch_rejects_out_of_range():
    AugmentConfig(stretch_rate_range=(0.5, 2.0))
    with pytest.raises(ValueError, match="stretch_rate_range"):
        AugmentConfig(stretch_rate_range=(0.3, 1.0))
    with pytest.raises(ValueError, match="stretch_rate_range"):
        AugmentConfig(stretch_rate_range=(0.001, 0.002))  # would ask for 48M samples
    with pytest.raises(ValueError, match="stretch_rate_range"):
        AugmentConfig(stretch_rate_range=(1.0, 2.5))


# --- gaussian noise ----------------------------------------------------------------


def test_noise_zero_amplitude_identity():
    x = sine()
    out = add_noise_samples(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_noise_sample_sd():
    out = add_noise_samples(np.zeros(CLIP_SAMPLES), 0.01, np.random.default_rng(123))
    assert 0.0097 <= float(np.std(out)) <= 0.0103


def test_noise_deterministic():
    x = sine()
    a = add_noise_samples(x, 0.005, np.random.default_rng(9))
    b = add_noise_samples(x, 0.005, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_noise_clamped_to_unit_interval():
    out = add_noise_samples(np.ones(CLIP_SAMPLES), 0.5, np.random.default_rng(4))
    assert np.max(np.abs(out)) <= 1.0


# --- pipeline ------------------------------------------------------------------------


def test_pipeline_p_zero_is_noop():
    clip = sine_clip()
    cfg = AugmentConfig(p_apply=0.0, seed=1)
    out = augment_pipeline(clip, cfg, (0, 0))
    assert np.array_equal(out.samples, clip.samples)


def test_pipeline_degenerate_ranges():
    clip = sine_clip()
    cfg = AugmentConfig(p_apply=1.0, pitch_semitone_range=(0.0, 0.0),
                        stretch_rate_range=(1.0, 1.0), noise_amplitude_range=(0.0, 0.0), seed=2)
    out = augment_pipeline(clip, cfg, (3, 7))
    assert np.max(np.abs(out.samples.astype(np.float64) - clip.samples)) < 1e-4


def test_pipeline_deterministic():
    clip = sine_clip()
    cfg = AugmentConfig(seed=99)
    a = augment_pipeline(clip, cfg, (5, 11))
    b = augment_pipeline(clip, cfg, (5, 11))
    assert np.array_equal(a.samples, b.samples)
    c = augment_pipeline(clip, cfg, (5, 12))
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("key", [(0, 0), (1, 5), (7, 63)])
def test_pipeline_output_invariants(key):
    clip = sine_clip(317.0)
    cfg = AugmentConfig(seed=31)
    out = augment_pipeline(clip, cfg, key)
    assert out.samples.shape == (CLIP_SAMPLES,)
    assert np.max(np.abs(out.samples)) <= 1.0


def test_apply_rates_concentrate():
    cfg = AugmentConfig(p_apply=0.5, seed=1234)
    n = 10000
    counts = np.zeros(3)
    for i in range(n):
        plan = draw_plan(cfg, 0, i)
        counts += [plan.apply_pitch, plan.apply_stretch, plan.apply_noise]
    rates = counts / n
    assert np.all(rates >= 0.47) and np.all(rates <= 0.53)


def test_plan_parameters_respect_ranges():
    cfg = AugmentConfig(seed=8)
    for i in range(200):
        plan = draw_plan(cfg, 2, i)
        assert -2.0 <= plan.semitones <= 2.0
        assert 0.9 <= plan.rate <= 1.1
        assert 0.001 <= plan.amplitude <= 0.015
