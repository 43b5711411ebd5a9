"""Shared fixtures: WAV builders, score helpers, the brute-force EER oracle and the gradient oracle."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from rawnetlite.losses_metrics import ScoreRecord


def make_wav(samples: np.ndarray, rate: int, fmt: str = "pcm16") -> bytes:
    """Encode (channels, n) float samples as a WAV byte string.

    fmt is one of pcm16, pcm24, pcm32, float32. Values are clipped to [-1, 1]
    and scaled by the type's max magnitude for the integer formats.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    channels, _ = samples.shape
    interleaved = samples.T.reshape(-1)
    clipped = np.clip(interleaved, -1.0, 1.0)
    if fmt == "pcm16":
        tag, bits = 1, 16
        payload = np.round(clipped * 32767.0).astype("<i2").tobytes()
    elif fmt == "pcm24":
        tag, bits = 1, 24
        v = np.round(clipped * 8388607.0).astype(np.int32)
        b = np.empty((v.size, 3), dtype=np.uint8)
        b[:, 0] = v & 0xFF
        b[:, 1] = (v >> 8) & 0xFF
        b[:, 2] = (v >> 16) & 0xFF
        payload = b.tobytes()
    elif fmt == "pcm32":
        tag, bits = 1, 32
        payload = np.round(clipped * 2147483647.0).astype("<i4").tobytes()
    elif fmt == "float32":
        tag, bits = 3, 32
        payload = interleaved.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown fmt {fmt}")
    block_align = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, tag, channels, rate,
        rate * block_align, block_align, bits,
        b"data", len(payload),
    )
    return header + payload


def brute_force_eer(records: list[ScoreRecord]) -> tuple[float, float]:
    """Literal threshold sweep: every distinct score, lowest-threshold tie-break."""
    reals = [r.score for r in records if r.label == 0]
    fakes = [r.score for r in records if r.label == 1]
    assert reals and fakes
    best = None
    for tau in sorted({r.score for r in records}):
        fp = sum(1 for s in reals if s >= tau)
        fn = sum(1 for s in fakes if s < tau)
        fpr = fp / len(reals)
        fnr = fn / len(fakes)
        gap = abs(fpr - fnr)
        if best is None or gap < best[0]:
            best = (gap, (fpr + fnr) / 2.0, tau)
    return best[1], best[2]


def records_from_scores(real_scores, fake_scores) -> list[ScoreRecord]:
    recs = [ScoreRecord(f"real_{i}", 0, float(s)) for i, s in enumerate(real_scores)]
    recs += [ScoreRecord(f"fake_{i}", 1, float(s)) for i, s in enumerate(fake_scores)]
    return recs


def finite_difference_check(f, params, eps: float = 1e-5,
                            max_coords_per_param: int | None = None,
                            rng: np.random.Generator | None = None,
                            scale_floor: float = 1e-5) -> float:
    """Max relative error between analytic grads and central finite differences.

    `f()` evaluates the scalar forward loss at the current parameter values;
    `params` carry analytic gradients (populated by one backward pass before
    the call). Each sampled coordinate is perturbed by eps * (|theta| + 1).
    The relative-error denominator is floored at `scale_floor` so roundoff in
    near-zero gradients does not register as disagreement.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p in params:
        flat_v = p.values.reshape(-1)
        flat_g = p.grad.reshape(-1)
        idx = np.arange(flat_v.size)
        if max_coords_per_param is not None and flat_v.size > max_coords_per_param:
            idx = rng.choice(flat_v.size, size=max_coords_per_param, replace=False)
        for i in idx:
            orig = flat_v[i]
            h = eps * (abs(orig) + 1.0)
            flat_v[i] = orig + h
            f_plus = f()
            flat_v[i] = orig - h
            f_minus = f()
            flat_v[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = flat_g[i]
            denom = max(abs(analytic), abs(numeric), scale_floor)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


@pytest.fixture(scope="session")
def sanity_corpus(tmp_path_factory):
    """64 sine + 64 noise WAVs with a manifest, shared across the session."""
    from rawnetlite.sanity import generate_corpus

    out = tmp_path_factory.mktemp("sanity_data")
    manifest = generate_corpus(out, n_per_class=64, seed=42)
    return manifest


@pytest.fixture(scope="session")
def tiny_model_cfg():
    from rawnetlite.model import RawNetLiteConfig

    return RawNetLiteConfig(channels=4, n_res_blocks=1, pool_len=32, gru_hidden=8,
                            fc_hidden=8, input_len=48000, seed=5)
