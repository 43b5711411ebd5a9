"""On-the-fly waveform augmentation: pitch shift, time stretch, additive noise.

Each transform is applied independently with probability `p_apply`, in the
fixed order pitch -> stretch -> noise, and the result goes through
`audio_io.fit_clip`, the trim/pad-and-normalize step that ends `preprocess`.
All randomness is derived from (config seed, epoch, sample index), so any
worker pool reproduces the same augmented bytes regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio_io import FixedClip, _resample_by_ratio, fit_clip

STFT_WIN = 1024
STFT_HOP = 256
_SEED_MASK = (1 << 64) - 1
# Where user config enters: an octave of pitch either way, and stretches that
# keep the clip between half and twice its length.
_RANGE_BOUNDS = {
    "pitch_semitone_range": (-12.0, 12.0),
    "stretch_rate_range": (0.5, 2.0),
    "noise_amplitude_range": (0.0, float("inf")),
}


@dataclass(frozen=True)
class AugmentConfig:
    p_apply: float = 0.5
    pitch_semitone_range: tuple[float, float] = (-2.0, 2.0)
    stretch_rate_range: tuple[float, float] = (0.9, 1.1)
    noise_amplitude_range: tuple[float, float] = (0.001, 0.015)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_apply <= 1.0:
            raise ValueError(f"p_apply must be in [0, 1], got {self.p_apply}")
        for name, (least, most) in _RANGE_BOUNDS.items():
            lo, hi = getattr(self, name)
            if not least <= lo <= hi <= most:
                raise ValueError(f"{name} must be an ordered pair within [{least}, {most}], got ({lo}, {hi})")


@dataclass(frozen=True)
class AugmentPlan:
    """Resolved random draws for one clip; applying a plan is deterministic."""

    apply_pitch: bool
    semitones: float
    apply_stretch: bool
    rate: float
    apply_noise: bool
    amplitude: float
    noise_seed: int


def _stream_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, epoch, index]))


def draw_plan(cfg: AugmentConfig, epoch: int, index: int) -> AugmentPlan:
    """Draw apply-flags and parameters for one (epoch, sample) stream key.

    All seven draws happen unconditionally so the stream layout does not
    depend on earlier outcomes.
    """
    rng = _stream_rng(cfg.seed, epoch, index)
    apply_pitch = rng.random() < cfg.p_apply
    semitones = float(rng.uniform(*cfg.pitch_semitone_range))
    apply_stretch = rng.random() < cfg.p_apply
    rate = float(rng.uniform(*cfg.stretch_rate_range))
    apply_noise = rng.random() < cfg.p_apply
    amplitude = float(rng.uniform(*cfg.noise_amplitude_range))
    noise_seed = int(rng.integers(0, 1 << 63))
    return AugmentPlan(apply_pitch, semitones, apply_stretch, rate, apply_noise, amplitude, noise_seed)


# --- phase vocoder -----------------------------------------------------------


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def time_stretch_samples(x: np.ndarray, rate: float) -> np.ndarray:
    """Phase-vocoder time stretch: output length round(len(x) / rate), pitch kept.

    Analysis hop STFT_HOP, synthesis hop round(STFT_HOP / rate); per-bin phase
    accumulation with instantaneous-frequency correction, weighted overlap-add
    resynthesis normalized by the accumulated squared window.
    """
    x = np.asarray(x, dtype=np.float64)
    n_target = int(round(x.size / rate))
    if x.size == 0:
        return np.zeros(n_target)
    hop_s = int(round(STFT_HOP / rate))

    win = _periodic_hann(STFT_WIN)
    half = STFT_WIN // 2
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + STFT_WIN)])
    n_frames = 1 + (xp.size - STFT_WIN) // STFT_HOP

    starts = np.arange(n_frames) * STFT_HOP
    frames = np.stack([xp[s : s + STFT_WIN] for s in starts]) * win
    spec = np.fft.rfft(frames, axis=1)
    mags = np.abs(spec)
    phases = np.angle(spec)

    # expected per-hop phase advance of each bin, and the measured deviation
    omega = 2.0 * np.pi * np.arange(spec.shape[1]) * STFT_HOP / STFT_WIN
    dphi = np.diff(phases, axis=0) - omega
    dphi = np.mod(dphi + np.pi, 2.0 * np.pi) - np.pi
    advance = (omega + dphi) * (hop_s / STFT_HOP)

    psi = np.empty_like(phases)
    psi[0] = phases[0]
    np.cumsum(advance, axis=0, out=psi[1:])
    psi[1:] += phases[0]

    out_frames = np.fft.irfft(mags * np.exp(1j * psi), n=STFT_WIN, axis=1) * win

    out_len = (n_frames - 1) * hop_s + STFT_WIN
    y = np.zeros(out_len)
    wsum = np.zeros(out_len)
    wsq = win * win
    for k in range(n_frames):
        s = k * hop_s
        y[s : s + STFT_WIN] += out_frames[k]
        wsum[s : s + STFT_WIN] += wsq
    y /= np.maximum(wsum, 1e-12)

    out = y[half : half + n_target]
    if out.size < n_target:
        out = np.concatenate([out, np.zeros(n_target - out.size)])
    return out


def pitch_shift_samples(x: np.ndarray, semitones: float) -> np.ndarray:
    """Shift pitch by 2^(semitones/12), duration preserved at len(x).

    Stretch to length round(len * r), then resample back down by r.
    """
    if semitones == 0.0:
        return np.asarray(x, dtype=np.float64).copy()
    r = 2.0 ** (semitones / 12.0)
    stretched = time_stretch_samples(x, 1.0 / r)
    frac = Fraction(r).limit_denominator(1000)  # nearly every shift gets a ratio of its own
    y = _resample_by_ratio(stretched, frac.denominator, frac.numerator, memo=False)
    n = np.asarray(x).size
    if y.size < n:
        y = np.concatenate([y, np.zeros(n - y.size)])
    return y[:n]


def add_noise_samples(x: np.ndarray, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Add N(0, amplitude^2) noise per sample and clamp to [-1, 1]."""
    return np.clip(x + rng.normal(0.0, amplitude, size=x.size), -1.0, 1.0)


# --- clip-level pipeline ------------------------------------------------------


def apply_plan(clip: FixedClip, plan: AugmentPlan) -> FixedClip:
    """Apply a resolved plan, then trim or pad to 48000 samples and peak-normalize."""
    x = clip.samples.astype(np.float64)
    if plan.apply_pitch:
        x = pitch_shift_samples(x, plan.semitones)
    if plan.apply_stretch:
        x = time_stretch_samples(x, plan.rate)
    if plan.apply_noise:
        x = add_noise_samples(x, plan.amplitude, np.random.default_rng(plan.noise_seed))
    return fit_clip(x)


def augment_pipeline(clip: FixedClip, cfg: AugmentConfig, stream_key: tuple[int, int]) -> FixedClip:
    epoch, index = stream_key
    return apply_plan(clip, draw_plan(cfg, epoch, index))
