from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rawnetlite import augment
from rawnetlite.audio_io import CLIP_SAMPLES, TARGET_RATE_HZ, FixedClip, fit_clip
from rawnetlite.augment import (
    STFT_WIN, AugmentConfig, add_noise_samples, apply_plan, augment_pipeline, draw_plan,
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


@pytest.mark.parametrize("bound", [(0.001, float("inf")), (float("nan"), 0.01), (0.001, float("nan"))])
def test_config_rejects_non_finite_noise_bound(bound):
    # an infinite bound used to pass here and fail later in Generator.uniform
    with pytest.raises(ValueError, match="noise_amplitude_range"):
        AugmentConfig(noise_amplitude_range=bound)


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


# --- float32 synthesis vs the float64 reference ------------------------------------
# The vocoder, and the pitch shift that calls it, must match the float64
# reference in `reference.py` within 1e-6 of the input's peak, and augmented
# clips must match within 1e-6 absolute.


@st.composite
def signals(draw, lengths=st.one_of(
        st.sampled_from([0, 1, STFT_WIN - 1, STFT_WIN, STFT_WIN + 1, CLIP_SAMPLES]),
        st.integers(2, 4 * STFT_WIN)), kinds=("noise", "impulses", "silence", "bin_sine")):
    n = draw(lengths)
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if kind == "noise":
        return scale * rng.standard_normal(n)
    x = np.zeros(n)
    if kind == "impulses" and n:
        x[rng.integers(0, n, size=4)] = scale * rng.choice([-1.0, 1.0], size=4)
    if kind == "bin_sine":
        # a sine at the centre of analysis bin k: its leakage into bins k +- 2
        # sits at a phase deviation of exactly +-pi, where the wrap is decided
        k = draw(st.integers(1, STFT_WIN // 2 - 1))
        x = scale * np.sin(2.0 * np.pi * k * np.arange(n) / STFT_WIN + draw(st.sampled_from([0.0, 0.5, np.pi / 2])))
    return x


def assert_within_peak(got, want, x):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-6 * np.max(np.abs(x), initial=0.0)


@settings(max_examples=80, deadline=None)
@given(x=signals(), rate=st.floats(0.5, 2.0))
def test_time_stretch_matches_float64_reference(x, rate):
    assert_within_peak(time_stretch_samples(x, rate), reference.time_stretch(x, rate), x)


@pytest.mark.parametrize("semitones", [-12.0, -2.0, 2.0, 12.0])
@settings(max_examples=6, deadline=None)
@given(x=signals(lengths=st.sampled_from([STFT_WIN + 1, CLIP_SAMPLES])))
def test_pitch_shift_matches_float64_reference(semitones, x):
    got = pitch_shift_samples(x, semitones)
    with mock.patch.object(augment, "time_stretch_samples", reference.time_stretch):
        want = pitch_shift_samples(x, semitones)
    assert_within_peak(got, want, x)


def assert_pipeline_matches_float64_reference(x, cfg, key):
    clip = fit_clip(x)
    got = augment_pipeline(clip, cfg, key).samples
    with mock.patch.object(augment, "time_stretch_samples", reference.time_stretch):
        want = augment_pipeline(clip, cfg, key).samples
    assert got.shape == want.shape
    assert np.max(np.abs(got.astype(np.float64) - want)) <= 1e-6


# Pitch shift with the stretch at rate 1, or a stretch alone: a stretch at rate
# 1 has the analysis hop, so a flipped wrap there moves a phase by whole turns.
@pytest.mark.parametrize("pitch, stretch", [((-12.0, 12.0), (1.0, 1.0)), ((0.0, 0.0), (0.5, 2.0))],
                         ids=["pitch", "stretch"])
@settings(max_examples=10, deadline=None)
@given(x=signals(lengths=st.just(CLIP_SAMPLES)), seed=st.integers(0, 2**32 - 1),
       key=st.tuples(st.integers(0, 100), st.integers(0, 10**6)))
def test_pipeline_matches_float64_reference(pitch, stretch, x, seed, key):
    cfg = AugmentConfig(p_apply=1.0, pitch_semitone_range=pitch, stretch_rate_range=stretch, seed=seed)
    assert_pipeline_matches_float64_reference(x, cfg, key)


# Noise only: pitch shift and then a stretch at a rate other than 1 runs the
# vocoder twice, and the second pass carries each bin's phase across frames.
# A bin at the noise floor early on can flip its +-pi deviation wrap on input
# changes of 1e-10 of the peak; if the bin is loud later (an onset, the cut at
# the clip's end), the float64 reference's own output moves by up to a third
# of its peak. Sparse impulses and single tones hit that; dense noise does not.
@settings(max_examples=10, deadline=None)
@given(x=signals(lengths=st.just(CLIP_SAMPLES), kinds=("noise",)), seed=st.integers(0, 2**32 - 1),
       key=st.tuples(st.integers(0, 100), st.integers(0, 10**6)))
def test_pipeline_with_both_passes_matches_float64_reference(x, seed, key):
    cfg = AugmentConfig(p_apply=1.0, pitch_semitone_range=(-12.0, 12.0),
                        stretch_rate_range=(0.5, 2.0), seed=seed)
    assert_pipeline_matches_float64_reference(x, cfg, key)
