import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawnetlite import audio_io as aio
from rawnetlite.audio_io import (
    CLIP_SAMPLES, DecodeError, UnsupportedFormatError, Waveform,
    decode_wav, fix_length, peak_normalize, preprocess, resample, to_mono,
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


# --- peak_normalize / fix_length ----------------------------------------------


def test_peak_normalize_hand_cases():
    out = peak_normalize(Waveform(16000, np.array([[0.5, -0.25]])))
    assert np.array_equal(out.samples[0], [1.0, -0.5])
    out = peak_normalize(Waveform(16000, np.array([[-0.8, 0.4]])))
    assert np.array_equal(out.samples[0], [-1.0, 0.5])


def test_peak_normalize_silence_passthrough():
    out = peak_normalize(Waveform(16000, np.zeros((1, 5))))
    assert np.all(out.samples == 0.0)


def test_fix_length_pads_tail():
    clip = fix_length(Waveform(16000, np.ones((1, 40000))), CLIP_SAMPLES)
    assert clip.samples.shape == (CLIP_SAMPLES,)
    assert np.all(clip.samples[40000:] == 0.0)
    assert np.all(clip.samples[:40000] == 1.0)


def test_fix_length_trims_head():
    x = np.arange(50000, dtype=np.float64) / 50000.0
    clip = fix_length(Waveform(16000, x[None, :]), CLIP_SAMPLES)
    assert np.allclose(clip.samples, x[:CLIP_SAMPLES].astype(np.float32))


@given(st.integers(min_value=1, max_value=3 * CLIP_SAMPLES))
@settings(max_examples=30, deadline=None)
def test_fix_length_idempotent(n):
    x = np.linspace(-1, 1, n)
    once = fix_length(Waveform(16000, x[None, :]), CLIP_SAMPLES)
    twice = fix_length(Waveform(16000, once.samples[None, :]), CLIP_SAMPLES)
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
    # global peak beyond 3 s would be trimmed away; output must renormalize
    x = np.full(5 * 16000, 0.25)
    x[-1] = 1.0
    clip = preprocess(make_wav(x[None, :], 16000, "float32"))
    assert np.max(np.abs(clip.samples)) == 1.0


def test_clip_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(1, CLIP_SAMPLES))
    clip = preprocess(make_wav(x, 16000, "float32"))
    path = tmp_path / "clip.f32"
    aio.write_clip(clip, path)
    back = aio.read_clip(path)
    assert np.array_equal(back.samples, clip.samples)
