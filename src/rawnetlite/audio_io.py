"""WAV decoding and the deterministic preprocessing chain.

Every audio file is reduced to the model's single input shape: a mono,
16 kHz, peak-normalized clip of exactly 48000 samples (3 seconds).
`preprocess` mixes and resamples only the input frames that feed those
48000 samples, and `fit_clip` is the one trim/pad-and-normalize step, which
augmentation ends in too. All functions are pure; nothing here touches
global state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write

TARGET_RATE_HZ = 16000
CLIP_SAMPLES = 48000

# Polyphase anti-aliasing filter design (windowed sinc).
KAISER_BETA = 8.6
TAPS_PER_PHASE = 32


class DecodeError(ValueError):
    """Malformed WAV container. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(ValueError):
    """Structurally valid WAV whose codec we do not decode."""


@dataclass
class Waveform:
    """Decoded audio: `samples` is (channels, n) float64, nominal range [-1, 1]."""

    sample_rate_hz: int
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class FixedClip:
    """Model input: exactly CLIP_SAMPLES float32 samples, peak magnitude <= 1.

    `peak` is the maximum absolute value, before normalization, of the
    samples that made it into the clip; 0.0 marks a silent clip. A clip read
    back from a cache file has peak 1.0 (0.0 when silent): the cache holds
    only the normalized samples.
    """

    samples: np.ndarray
    peak: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.shape != (CLIP_SAMPLES,):
            raise ValueError(f"clip must have shape ({CLIP_SAMPLES},), got {self.samples.shape}")

    @property
    def is_silent(self) -> bool:
        return self.peak == 0.0


# --- WAV container ---------------------------------------------------------

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# The highest rate in common use. Above it the resampling filter's lead zeros,
# up to the declared rate, would cost gigabytes.
_MAX_RATE_HZ = 768000


def decode_wav(data: bytes) -> Waveform:
    """Decode a RIFF/WAVE byte string (PCM 16/24/32 or float32, little-endian).

    Integer samples are scaled by the type's maximum magnitude (2^(bits-1))
    so full-scale negative maps to -1.0.
    """
    if len(data) < 12:
        raise DecodeError("truncated RIFF header", 0)
    if data[0:4] != b"RIFF":
        raise DecodeError("missing RIFF magic", 0)
    if data[8:12] != b"WAVE":
        raise DecodeError("missing WAVE form type", 8)

    fmt = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if body_start + chunk_size > len(data):
            raise DecodeError(f"chunk {chunk_id!r} overruns file", offset)
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(data, body_start, chunk_size)
        elif chunk_id == b"data":
            if fmt is None:
                raise DecodeError("data chunk before fmt chunk", offset)
            return _decode_frames(data[body_start : body_start + chunk_size], fmt, offset)
        # chunks are word-aligned: odd sizes carry a pad byte
        offset = body_start + chunk_size + (chunk_size & 1)
    raise DecodeError("no data chunk found", offset)


def _parse_fmt(data: bytes, start: int, size: int) -> tuple[int, int, int, int]:
    if size < 16:
        raise DecodeError("fmt chunk shorter than 16 bytes", start)
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", data, start)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if size < 40:
            raise DecodeError("extensible fmt chunk shorter than 40 bytes", start)
        # actual codec is the first two bytes of the SubFormat GUID
        (tag,) = struct.unpack_from("<H", data, start + 24)
    if channels == 0:
        raise DecodeError("zero channel count", start + 2)
    if rate == 0:
        raise DecodeError("zero sample rate", start + 4)
    if rate > _MAX_RATE_HZ:
        raise UnsupportedFormatError(f"sample rate {rate} Hz exceeds {_MAX_RATE_HZ} Hz")
    if tag == _WAVE_FORMAT_PCM:
        if bits not in (16, 24, 32):
            raise UnsupportedFormatError(f"unsupported PCM bit depth {bits}")
    elif tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormatError(f"unsupported float bit depth {bits}")
    else:
        raise UnsupportedFormatError(f"unsupported codec tag 0x{tag:04x}")
    return tag, channels, rate, bits


def _decode_frames(payload: bytes, fmt: tuple[int, int, int, int], data_offset: int) -> Waveform:
    tag, channels, rate, bits = fmt
    frame_bytes = channels * (bits // 8)
    if len(payload) % frame_bytes != 0:
        raise DecodeError("data chunk is not a whole number of frames", data_offset)

    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        finite = np.isfinite(flat)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DecodeError(f"non-finite float sample {flat[i]}", data_offset + 8 + 4 * i)
    elif bits == 16:
        flat = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 32:
        flat = np.frombuffer(payload, dtype="<i4").astype(np.float64) / 2147483648.0
    else:  # 24-bit packed triplets
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        v = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        v = np.where(v & 0x800000, v - (1 << 24), v)
        flat = v.astype(np.float64) / 8388608.0

    return Waveform(rate, flat.reshape(-1, channels).T)


def encode_wav_pcm16(w: Waveform) -> bytes:
    """Serialize a waveform as PCM-16 WAV (round-trip helper and test fixture)."""
    x = np.clip(w.samples.T, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE",
        b"fmt ", 16, _WAVE_FORMAT_PCM, w.channels, w.sample_rate_hz,
        w.sample_rate_hz * w.channels * 2, w.channels * 2, 16,
        b"data", len(pcm),
    )
    return header + pcm


# --- preprocessing stages --------------------------------------------------


def to_mono(w: Waveform) -> Waveform:
    """Average all channels sample-wise into one.

    Computed as first channel plus the mean deviation from it, so identical
    channels reduce to that channel bit-exactly.
    """
    if w.channels == 1:
        return Waveform(w.sample_rate_hz, w.samples.copy())
    base = w.samples[0]
    mono = base + (w.samples - base).mean(axis=0)
    return Waveform(w.sample_rate_hz, mono)


def _filter_geometry(up: int, down: int) -> tuple[int, int, int]:
    """(center, lead, skip) of the anti-aliasing filter for ratio up/down.

    The filter has TAPS_PER_PHASE taps per polyphase branch, +1 so its group
    delay `center` is an integer number of high-rate samples. `lead` zeros in
    front of it make the delay a whole number `skip` of output samples.
    """
    center = TAPS_PER_PHASE * up // 2
    lead = (-center) % down
    return center, lead, (center + lead) // down


def _design_lowpass(up: int, down: int, center: int) -> np.ndarray:
    """Windowed-sinc filter of 2 * center + 1 taps; Kaiser window; gain `up`
    at DC to undo zero-stuffing.
    """
    # cutoff in cycles per high-rate sample
    fc = 0.5 / max(up, down)
    t = np.arange(-center, center + 1)
    h = 2.0 * fc * np.sinc(2.0 * fc * t) * np.kaiser(t.size, KAISER_BETA)
    return h * (up / h.sum())


def _resample_by_ratio(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase resample of a 1-D float64 signal by the exact ratio up/down."""
    if up == down:
        return x.copy()
    n_out = (2 * x.size * up + down) // (2 * down)  # round(n * up / down), half away from zero
    if x.size == 0 or n_out == 0:
        return np.zeros(n_out, dtype=np.float64)

    center, lead, skip = _filter_geometry(up, down)
    h = np.concatenate([np.zeros(lead), _design_lowpass(up, down, center)])

    # pad the tail so upfirdn emits every needed output sample:
    # its output length is ceil(((m - 1) * up + len(h)) / down)
    m_needed = -(-((skip + n_out) * down - h.size) // up) + 1
    if m_needed > x.size:
        x = np.concatenate([x, np.zeros(m_needed - x.size)])

    from scipy.signal import upfirdn  # imported here: it takes ~1 s and most commands never resample

    y = upfirdn(h, x, up=up, down=down)
    return y[skip : skip + n_out]


def _ratio(source_hz: int, target_hz: int) -> tuple[int, int]:
    g = math.gcd(target_hz, source_hz)
    return target_hz // g, source_hz // g


def resample(w: Waveform, target_hz: int) -> Waveform:
    """Band-limited resample of a mono waveform to `target_hz`.

    Identity rates return a bit-identical copy. Output length is
    round(n * target_hz / source_hz).
    """
    if target_hz <= 0:
        raise ValueError(f"target rate must be positive, got {target_hz}")
    if w.channels != 1:
        raise ValueError("resample expects a mono waveform")
    if target_hz == w.sample_rate_hz:
        return Waveform(target_hz, w.samples.copy())
    y = _resample_by_ratio(w.samples[0], *_ratio(w.sample_rate_hz, target_hz))
    return Waveform(target_hz, y)


def _clip_prefix(rate_hz: int) -> int:
    """Input frames that feed the first CLIP_SAMPLES samples of a resample to 16 kHz.

    upfirdn's output k reads input i only where i * up <= k * down, and clip
    sample j is output j + skip.
    """
    if rate_hz == TARGET_RATE_HZ:
        return CLIP_SAMPLES
    up, down = _ratio(rate_hz, TARGET_RATE_HZ)
    skip = _filter_geometry(up, down)[2]
    return (CLIP_SAMPLES - 1 + skip) * down // up + 1


def fit_clip(x: np.ndarray) -> FixedClip:
    """Trim a 1-D signal to its first CLIP_SAMPLES samples or zero-pad it, then
    divide by their peak once, in float64. A silent clip stays all zeros.
    """
    head = np.zeros(CLIP_SAMPLES)
    kept = np.asarray(x, dtype=np.float64)[:CLIP_SAMPLES]
    head[: kept.size] = kept
    peak = float(np.max(np.abs(head)))
    if peak > 0.0:
        head /= peak
    return FixedClip(samples=head.astype(np.float32), peak=peak)


def preprocess(data: bytes) -> FixedClip:
    """decode -> keep the frames the clip reads -> mono -> 16 kHz -> fit_clip.

    Only the input prefix that feeds the first CLIP_SAMPLES resampled samples
    is mixed and resampled, so the work per file is bounded whatever its
    length or declared rate. Those samples equal a full-file resample's.
    """
    w = decode_wav(data)
    head = Waveform(w.sample_rate_hz, w.samples[:, : _clip_prefix(w.sample_rate_hz)])
    return fit_clip(resample(to_mono(head), TARGET_RATE_HZ).samples[0])


# --- debug dump (48000 little-endian float32 per clip) ----------------------


def write_clip(clip: FixedClip, path) -> None:
    """Write through a temp file in the same directory, so no reader sees a torn clip."""
    with atomic_write(path, "wb") as f:
        f.write(clip.samples.astype("<f4").tobytes())


def read_clip(path) -> FixedClip:
    with open(path, "rb") as f:
        raw = f.read()
    samples = np.frombuffer(raw, dtype="<f4")
    if samples.shape != (CLIP_SAMPLES,):
        raise ValueError(f"clip dump has {samples.size} samples, expected {CLIP_SAMPLES}")
    peak = float(np.max(np.abs(samples)))
    if not peak <= 1.0:  # a NaN fails this too
        raise ValueError(f"clip dump has peak {peak}, expected a finite peak <= 1")
    return FixedClip(samples=samples.copy(), peak=peak)
