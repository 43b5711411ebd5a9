import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rawnetlite import audio_io as aio
from rawnetlite.audio_io import (
    CLIP_SAMPLES, DecodeError, UnsupportedFormatError, Waveform,
    decode_wav, fit_clip, preprocess, resample, to_mono,
)

from conftest import make_wav


# --- decode_wav --------------------------------------------------------------


def test_pcm16_full_scale_value():
    data = make_wav(np.array([[32767.0 / 32767.0]]), 16000, "pcm16")
    w = decode_wav(data)
    assert w.sample_rate_hz == 16000
    assert w.channels == 1
    assert w.samples[0, 0] == pytest.approx(32767.0 / 32768.0, abs=1e-9)


def test_pcm16_zero():
    data = make_wav(np.zeros((1, 4)), 8000, "pcm16")
    assert np.all(decode_wav(data).samples == 0.0)


def test_two_channel_shape():
    x = np.random.default_rng(0).uniform(-0.5, 0.5, size=(2, 37))
    w = decode_wav(make_wav(x, 22050, "pcm16"))
    assert w.channels == 2
    assert w.n_samples == 37


@pytest.mark.parametrize("fmt,tol", [("pcm16", 2 / 32768), ("pcm24", 2 / 8388608),
                                     ("pcm32", 2 / 2147483648), ("float32", 1e-7)])
def test_roundtrip_accuracy(fmt, tol):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.99, 0.99, size=(1, 200))
    w = decode_wav(make_wav(x, 16000, fmt))
    assert np.max(np.abs(w.samples - x)) < tol


def test_truncated_header():
    with pytest.raises(DecodeError, match="offset 0"):
        decode_wav(b"RIF")


def test_bad_magic():
    with pytest.raises(DecodeError, match="offset 0"):
        decode_wav(b"JUNK" + b"\x00" * 20)


def test_bad_form_type():
    with pytest.raises(DecodeError, match="offset 8"):
        decode_wav(b"RIFF\x04\x00\x00\x00WANG")


def test_unsupported_codec_tag():
    data = bytearray(make_wav(np.zeros((1, 4)), 8000, "pcm16"))
    data[20:22] = (6).to_bytes(2, "little")  # a-law
    with pytest.raises(UnsupportedFormatError, match="0x0006"):
        decode_wav(bytes(data))


def test_unsupported_bit_depth():
    data = bytearray(make_wav(np.zeros((1, 4)), 8000, "pcm16"))
    data[34:36] = (8).to_bytes(2, "little")
    with pytest.raises(UnsupportedFormatError, match="bit depth 8"):
        decode_wav(bytes(data))


def test_data_before_fmt():
    blob = b"RIFF\x28\x00\x00\x00WAVE" + b"data\x04\x00\x00\x00" + b"\x00" * 4
    with pytest.raises(DecodeError, match="before fmt"):
        decode_wav(blob)


def test_missing_data_chunk():
    blob = make_wav(np.zeros((1, 4)), 8000, "pcm16")[:36]  # header + fmt only
    with pytest.raises(DecodeError, match="no data chunk|overruns"):
        decode_wav(blob)


def test_partial_frame_rejected():
    data = bytearray(make_wav(np.zeros((2, 4)), 8000, "pcm16"))
    # shrink data chunk by one byte: no longer a whole number of frames
    data[40:44] = (15).to_bytes(4, "little")
    del data[-1:]
    with pytest.raises(DecodeError, match="whole number of frames"):
        decode_wav(bytes(data))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_non_finite_sample_rejected(bad):
    x = np.full((2, 4), 0.25)
    x[1, 1] = bad  # interleaved sample 3, after the 44-byte canonical header
    with pytest.raises(DecodeError, match="non-finite") as info:
        decode_wav(make_wav(x, 16000, "float32"))
    assert info.value.offset == 44 + 4 * 3
    with pytest.raises(DecodeError):
        preprocess(make_wav(x, 16000, "float32"))


def _pcm16_header_with_rate(rate: int, frames: int) -> bytes:
    data = bytearray(make_wav(np.zeros((1, frames)), 16000, "pcm16"))
    data[24:28] = rate.to_bytes(4, "little")
    return bytes(data)


def test_absurd_sample_rate_rejected():
    # 31250 frames is enough for a 999999999 Hz resample to need 8 GB of filter padding;
    # only decode_wav runs here, so a decoder without the cap fails without resampling
    with pytest.raises(UnsupportedFormatError, match="sample rate 999999999"):
        decode_wav(_pcm16_header_with_rate(999999999, 31250))


def test_highest_supported_sample_rate_decodes():
    w = decode_wav(_pcm16_header_with_rate(768000, 100))
    assert w.sample_rate_hz == 768000 and w.n_samples == 100


def test_skips_unknown_chunks():
    base = make_wav(np.full((1, 3), 0.25), 16000, "pcm16")
    fmt_chunk = base[12:36]
    data_chunk = base[36:]
    junk = b"LIST\x05\x00\x00\x00abcde\x00"  # odd size plus pad byte
    blob = b"RIFF" + (len(fmt_chunk) + len(junk) + len(data_chunk) + 4).to_bytes(4, "little") \
        + b"WAVE" + fmt_chunk + junk + data_chunk
    w = decode_wav(blob)
    assert w.n_samples == 3


# --- to_mono -----------------------------------------------------------------


def test_mono_symmetric_cancellation():
    w = Waveform(16000, np.array([[1.0], [-1.0]]))
    assert to_mono(w).samples[0, 0] == 0.0


def test_mono_identity():
    w = Waveform(16000, np.array([[0.1, 0.2, 0.3]]))
    assert np.array_equal(to_mono(w).samples, w.samples)


def test_mono_hand_mean():
    w = Waveform(16000, np.array([[0.2, 0.4], [0.6, 0.0]]))
    assert np.allclose(to_mono(w).samples[0], [0.4, 0.2])


def test_mono_of_identical_channels_exact():
    x = np.random.default_rng(2).uniform(-1, 1, size=7)
    w = Waveform(16000, np.stack([x, x, x]))
    assert np.array_equal(to_mono(w).samples[0], x)


# --- resample ----------------------------------------------------------------


def test_resample_identity_rate_bit_exact():
    x = np.random.default_rng(3).uniform(-1, 1, size=1000)
    w = Waveform(16000, x[None, :])
    out = resample(w, 16000)
    assert np.array_equal(out.samples, w.samples)


def test_resample_dc_preserved():
    w = Waveform(8000, np.full((1, 8000), 0.5))
    out = resample(w, 16000)
    assert out.n_samples == 16000
    assert np.max(np.abs(out.samples[0, 200:-200] - 0.5)) < 1e-3


def test_resample_sine_peak_bin():
    t = np.arange(144000) / 48000.0
    s = np.sin(2 * np.pi * 440.0 * t)
    out = resample(Waveform(48000, s[None, :]), 16000)
    spec = np.abs(np.fft.rfft(out.samples[0]))
    peak_hz = np.argmax(spec) * 16000 / out.n_samples
    assert abs(peak_hz - 440.0) <= 16000 / out.n_samples


def test_resample_zero_target_rejected():
    with pytest.raises(ValueError):
        resample(Waveform(8000, np.zeros((1, 10))), 0)


def test_resample_linearity():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=4000), rng.normal(size=4000)
    wa = Waveform(24000, (0.3 * x - 1.7 * y)[None, :])
    xa = resample(Waveform(24000, x[None, :]), 16000).samples
    ya = resample(Waveform(24000, y[None, :]), 16000).samples
    combined = resample(wa, 16000).samples
    assert np.max(np.abs(combined - (0.3 * xa - 1.7 * ya))) < 1e-6


def test_resample_length_formula():
    for n, src, dst in [(12345, 44100, 16000), (500, 8000, 16000), (48000, 48000, 16000)]:
        w = Waveform(src, np.zeros((1, n)))
        assert resample(w, dst).n_samples == int(round(n * dst / src))


def test_lowpass_design_is_memoised_and_read_only():
    center = aio._filter_geometry(320, 441)[0]
    h = aio._design_lowpass(320, 441, center)
    assert aio._design_lowpass(320, 441, center) is h
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0] = 0.0
    assert h.size == 2 * center + 1 and abs(h.sum() - 320) < 1e-9


def test_pitch_shift_keeps_its_filter_out_of_the_memo():
    from rawnetlite.augment import pitch_shift_samples

    before = aio._design_lowpass.cache_info()  # a memo lookup counts a hit or a miss
    pitch_shift_samples(np.random.default_rng(0).normal(size=4000), 1.3)
    assert aio._design_lowpass.cache_info() == before


def test_importing_the_package_leaves_scipy_signal_unloaded():
    # scipy.signal costs ~1 s to import; only resampling needs it
    code = "import sys, rawnetlite.cli, rawnetlite.train_eval; print('scipy.signal' in sys.modules)"
    src = str(Path(aio.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "False"


# --- fit_clip: fix the length, normalize by the kept peak ------------------------


def test_peak_normalize_hand_cases():
    clip = fit_clip(np.array([0.5, -0.25]))
    assert np.array_equal(clip.samples[:2], [1.0, -0.5]) and clip.peak == 0.5
    clip = fit_clip(np.array([-0.8, 0.4]))
    assert np.array_equal(clip.samples[:2], [-1.0, 0.5]) and clip.peak == 0.8


def test_peak_normalize_silence_passthrough():
    clip = fit_clip(np.zeros(5))
    assert clip.is_silent
    assert np.all(clip.samples == 0.0)


def test_fix_length_pads_tail():
    clip = fit_clip(np.ones(40000))
    assert clip.samples.shape == (CLIP_SAMPLES,)
    assert np.all(clip.samples[40000:] == 0.0)
    assert np.all(clip.samples[:40000] == 1.0)


def test_fix_length_trims_head():
    x = np.arange(50000, dtype=np.float64) / 50000.0
    x[-1] = 2.0  # past the trim point: it must not set the peak
    clip = fit_clip(x)
    head = x[:CLIP_SAMPLES]
    assert clip.peak == head.max()
    assert np.array_equal(clip.samples, (head / head.max()).astype(np.float32))


@given(st.integers(min_value=1, max_value=3 * CLIP_SAMPLES))
@settings(max_examples=30, deadline=None)
def test_fix_length_idempotent(n):
    x = np.linspace(-1, 1, n)
    once = fit_clip(x)
    twice = fit_clip(once.samples)
    assert np.array_equal(once.samples, twice.samples)


# --- preprocess ---------------------------------------------------------------


def test_preprocess_stereo_8k_two_seconds():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.7, 0.7, size=(2, 16000))  # 2 s at 8 kHz
    clip = preprocess(make_wav(x, 8000, "pcm16"))
    assert clip.samples.shape == (CLIP_SAMPLES,)
    assert np.all(clip.samples[32000:] == 0.0)  # only 32000 samples of signal at 16 kHz
    assert np.max(np.abs(clip.samples)) == 1.0
    assert not clip.is_silent


def test_preprocess_identity_shape():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(1, CLIP_SAMPLES))
    x[0, 100] = 1.0  # pin the peak inside the head
    clip = preprocess(make_wav(x, 16000, "float32"))
    assert clip.samples.shape == (CLIP_SAMPLES,)
    assert np.max(np.abs(clip.samples)) == 1.0


def test_preprocess_silent_file():
    clip = preprocess(make_wav(np.zeros((1, 8000)), 16000, "pcm16"))
    assert clip.is_silent
    assert np.all(clip.samples == 0.0)


def test_preprocess_peak_exact_after_trim():
    # the global peak lies beyond 3 s; the clip is normalized by its own peak
    x = np.full(5 * 16000, 0.25)
    x[-1] = 1.0
    clip = preprocess(make_wav(x[None, :], 16000, "float32"))
    assert np.max(np.abs(clip.samples)) == 1.0


# --- the clip prefix: only the frames the clip reads are resampled ----------------


@pytest.mark.parametrize("rate", [8000, 11025, 22050, 44100, 48000, 96000, 7999, 16001])
def test_resampled_prefix_matches_full_resample(rate):
    x = np.random.default_rng(rate).uniform(-1, 1, size=(1, int(4.5 * rate)))
    n = aio._clip_prefix(rate)
    assert n < x.shape[1]
    full = resample(Waveform(rate, x), 16000).samples[0, :CLIP_SAMPLES]
    prefix = resample(Waveform(rate, x[:, :n]), 16000).samples[0]
    assert prefix.size >= CLIP_SAMPLES
    assert np.array_equal(prefix[:CLIP_SAMPLES], full)


def test_preprocess_of_long_file_equals_its_prefix():
    rate = 44100
    x = np.random.default_rng(8).uniform(-0.9, 0.9, size=(2, 60 * rate))
    prefix = x[:, : aio._clip_prefix(rate)]
    long, short = preprocess(make_wav(x, rate, "pcm16")), preprocess(make_wav(prefix, rate, "pcm16"))
    assert np.array_equal(long.samples, short.samples)
    assert long.peak == short.peak


def test_preprocess_normalizes_once_by_the_head_peak():
    rate = 22050
    x = np.random.default_rng(9).uniform(-0.5, 0.5, size=(1, 5 * rate))
    x[0, -100] = 0.99  # the global peak lies after 3 s
    data = make_wav(x, rate, "float32")
    head = resample(decode_wav(data), 16000).samples[0, :CLIP_SAMPLES]
    clip = preprocess(data)
    assert clip.peak == np.max(np.abs(head)) < 0.9
    assert np.array_equal(clip.samples, (head / clip.peak).astype(np.float32))


def test_one_hz_header_is_bounded():
    # an 8 KB file declaring 1 Hz would upsample x16000 to 64M samples in full
    data = make_wav(np.random.default_rng(10).uniform(-0.5, 0.5, size=(1, 4000)), 1, "pcm16")
    assert len(data) < 8200
    preprocess(make_wav(np.zeros((1, 8)), 8000))  # import scipy.signal outside the traced region
    tracemalloc.start()
    try:
        clip = preprocess(data)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_bytes < 100 * 2**20
    assert clip.samples.shape == (CLIP_SAMPLES,) and not clip.is_silent


def test_clip_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(1, CLIP_SAMPLES))
    clip = preprocess(make_wav(x, 16000, "float32"))
    path = tmp_path / "clip.f32"
    aio.write_clip(clip, path)
    back = aio.read_clip(path)
    assert np.array_equal(back.samples, clip.samples)


# --- fuzz: any byte string yields a clip or a typed error --------------------------
# The seed file is short (64 stereo frames), so a mutated sample rate as low as
# 1 Hz still resamples to about a million samples.

FUZZ_WAV = make_wav(0.5 * np.sin(np.arange(128).reshape(2, 64) / 5.0), 8000, "pcm16")


def _preprocess_or_typed_error(data: bytes) -> None:
    try:
        w = decode_wav(data)
    except (DecodeError, UnsupportedFormatError):
        return
    assert w.channels >= 1 and w.sample_rate_hz >= 1
    assert np.isfinite(w.samples).all() and np.abs(w.samples).max(initial=0.0) <= 1.0
    clip = preprocess(data)
    assert clip.samples.shape == (CLIP_SAMPLES,) and clip.samples.dtype == np.float32
    assert np.isfinite(clip.samples).all() and np.abs(clip.samples).max() <= 1.0


@given(st.binary(max_size=128), st.sampled_from([b"", b"RIFF\x00\x00\x00\x00WAVE", FUZZ_WAV[:36]]))
@settings(max_examples=200, deadline=None)
def test_preprocess_any_bytes_gives_clip_or_typed_error(tail, head):
    _preprocess_or_typed_error(head + tail)


@given(st.lists(st.tuples(st.one_of(st.integers(0, 47), st.integers(0, len(FUZZ_WAV) - 1)),
                          st.integers(0, 255)), max_size=6),
       st.one_of(st.just(len(FUZZ_WAV)), st.integers(0, len(FUZZ_WAV))))
@settings(max_examples=300, deadline=None)
def test_preprocess_mutated_wav_gives_clip_or_typed_error(edits, keep):
    data = bytearray(FUZZ_WAV[:keep])
    for pos, byte in edits:
        if pos < len(data):
            data[pos] = byte
    _preprocess_or_typed_error(bytes(data))


# --- fuzz: any clip-cache file gives a clip with peak <= 1 or ValueError ----------------

CLIP_DUMP = np.linspace(-0.5, 0.5, CLIP_SAMPLES, dtype="<f4").tobytes()


@given(st.one_of(
    st.binary(max_size=64),
    # a full-length dump, a few samples overwritten with any four bytes, then cut or extended
    st.tuples(st.lists(st.tuples(st.integers(0, CLIP_SAMPLES - 1), st.binary(min_size=4, max_size=4)),
                       max_size=4),
              st.integers(-5, 5)).map(lambda t: _edited_dump(*t))))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_clip_any_bytes_gives_clip_or_value_error(tmp_path, data):
    path = tmp_path / "clip.f32"
    path.write_bytes(data)
    try:
        clip = aio.read_clip(path)
    except ValueError:
        return
    assert clip.samples.shape == (CLIP_SAMPLES,) and clip.samples.dtype == np.float32
    assert np.isfinite(clip.samples).all() and np.abs(clip.samples).max() == clip.peak <= 1.0


def _edited_dump(edits, extra):
    data = bytearray(CLIP_DUMP)
    for i, word in edits:
        data[4 * i : 4 * i + 4] = word
    return bytes(data[: len(data) + extra] if extra < 0 else data + b"\x00" * extra)
