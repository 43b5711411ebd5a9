"""Seeded synthetic WAV corpus for the benchmark workloads.

Sines stand in for "real" speech and white noise for "fake". Files vary in
sample rate (16 / 22.05 / 44.1 / 48 kHz), channel count (mono, stereo) and
encoding (PCM16, PCM24, float32), and every clip is longer than the model's
3 s window. A fixed share of files can be made malformed on purpose, one of
three kinds in turn: a truncated data chunk, an unsupported codec, and a data
chunk placed before the fmt chunk. Equal seeds give byte-identical files.

The seed picks signal content and file order only. Formats, durations and
malformed positions do not depend on it, so every seed asks the same amount
of decoding, resampling and augmentation work.
"""

from __future__ import annotations

import csv
import itertools
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATES_HZ = (16000, 22050, 44100, 48000)
CHANNELS = (1, 2)
ENCODINGS = ("pcm16", "pcm24", "float32")
MALFORMED_KINDS = ("truncated", "unsupported_codec", "data_before_fmt")
MIN_SECONDS = 3.2
MAX_SECONDS = 4.5
DOMAIN = "bench"  # the manifest's domain column
# every (encoding, channels, rate) combination; the rate varies fastest
FORMATS = tuple(itertools.product(ENCODINGS, CHANNELS, RATES_HZ))

_PCM = 0x0001
_FLOAT = 0x0003
_ALAW = 0x0006  # a real codec tag the decoder does not support


@dataclass(frozen=True)
class CorpusFile:
    path: str
    label: str  # "real" | "fake"
    rate_hz: int
    channels: int
    encoding: str
    malformed: str  # "" for a valid file, else one of MALFORMED_KINDS


def _payload(samples: np.ndarray, encoding: str) -> tuple[int, int, bytes]:
    """(format tag, bits per sample, interleaved little-endian bytes)."""
    flat = np.clip(samples.T.reshape(-1), -1.0, 1.0)
    if encoding == "pcm16":
        return _PCM, 16, np.round(flat * 32767.0).astype("<i2").tobytes()
    if encoding == "pcm24":
        v = np.round(flat * 8388607.0).astype("<i4")
        return _PCM, 24, v.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    if encoding == "float32":
        return _FLOAT, 32, flat.astype("<f4").tobytes()
    raise ValueError(f"unknown encoding {encoding!r}")


def _fmt_chunk(tag: int, channels: int, rate: int, bits: int) -> bytes:
    block = channels * bits // 8
    return struct.pack("<4sIHHIIHH", b"fmt ", 16, tag, channels, rate, rate * block, block, bits)


def _riff(chunks: list[bytes]) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _data_chunk(payload: bytes) -> bytes:
    pad = b"\x00" if len(payload) & 1 else b""
    return b"data" + struct.pack("<I", len(payload)) + payload + pad


def encode_wav(samples: np.ndarray, rate: int, encoding: str, malformed: str = "") -> bytes:
    """Serialize (channels, n) samples in [-1, 1], optionally malformed on purpose."""
    tag, bits, payload = _payload(samples, encoding)
    channels = samples.shape[0]
    if malformed == "unsupported_codec":
        # A-law is 8-bit; keep the frame layout consistent with the header
        payload = payload[: samples.shape[1] * channels]
        return _riff([_fmt_chunk(_ALAW, channels, rate, 8), _data_chunk(payload)])
    fmt, data = _fmt_chunk(tag, channels, rate, bits), _data_chunk(payload)
    if malformed == "data_before_fmt":
        return _riff([data, fmt])
    blob = _riff([fmt, data])
    if malformed == "truncated":
        return blob[: 44 + len(payload) // 2]  # data chunk now overruns the file
    if malformed:
        raise ValueError(f"unknown malformed kind {malformed!r}")
    return blob


def _signal(rng: np.random.Generator, label: str, rate: int, channels: int,
            seconds: float) -> np.ndarray:
    n = int(rate * seconds)
    if label == "real":
        t = np.arange(n) / rate
        freq = rng.uniform(100.0, 1000.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, 1))
        x = np.sin(2.0 * np.pi * freq * t[None, :] + phases)
    else:
        x = rng.normal(size=(channels, n))
    return rng.uniform(0.3, 0.9) * x / np.max(np.abs(x))


def make_corpus(out_dir, seed: int, n_files: int, malformed_every: int = 0,
                name: str = "corpus") -> tuple[Path, list[CorpusFile]]:
    """Write `n_files` WAVs and a manifest CSV listing them.

    Valid files take the FORMATS in turn, so each format appears equally
    often once n_files covers them; the k-th pass over FORMATS has its own
    duration. With `malformed_every = k > 0`, every k-th file is malformed,
    cycling through MALFORMED_KINDS. Labels alternate real/fake. Returns
    (manifest path, files in manifest order).
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / name
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, n_files, malformed_every, zlib.crc32(name.encode())]))
    bad_at = range(malformed_every - 1, n_files, malformed_every) if malformed_every else ()
    bad = {i: MALFORMED_KINDS[j % len(MALFORMED_KINDS)] for j, i in enumerate(bad_at)}
    n_valid = n_files - len(bad)
    passes = -(-n_valid // len(FORMATS))
    specs = [(FORMATS[i % len(FORMATS)],
              MIN_SECONDS + (MAX_SECONDS - MIN_SECONDS) * (i // len(FORMATS) + 0.5) / passes)
             for i in range(n_valid)]
    order = iter(rng.permutation(n_valid))

    files: list[CorpusFile] = []
    for i in range(n_files):
        label = "real" if i % 2 == 0 else "fake"
        malformed = bad.get(i, "")
        (encoding, channels, rate), seconds = specs[0 if malformed else next(order)]
        samples = _signal(rng, label, rate, channels, seconds)
        path = wav_dir / f"{i:04d}_{label}.wav"
        path.write_bytes(encode_wav(samples, rate, encoding, malformed))
        files.append(CorpusFile(str(path.resolve()), label, rate, channels, encoding, malformed))

    manifest = out_dir / f"{name}.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "label", "domain"])
        writer.writerows([cf.path, cf.label, DOMAIN] for cf in files)
    return manifest, files
