"""On-the-fly waveform augmentation: pitch shift, time stretch, additive noise.

Each transform is applied independently with probability `p_apply`, in the
fixed order pitch -> stretch -> noise, and the result goes through
`audio_io.fit_clip`, the trim/pad-and-normalize step that ends `preprocess`.
All randomness is derived from (config seed, epoch, sample index), so any
worker pool reproduces the same augmented bytes regardless of scheduling.

Pitch shift and time stretch share one phase vocoder. It measures and
accumulates phase in float64, wraps the accumulated phase to [-pi, pi), and
builds the synthesis phasors with float32 cos and sin. Its output stays within
1e-6 of the input's peak of the all-float64 reference in `tests/reference.py`,
and augmented clips within 1e-6 absolute. Moving the phasors to float32
changed the augmented bytes once, by a few float32 ulps, so augmented runs
(`cross_augmented`, `triple_augmented`) from before and after that change
differ at that level. (A clip that is pitch-shifted and then stretched can
move further where a frequency bin sits at the noise floor early and is loud
later, because the second pass carries each bin's phase across frames; the
README says more.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio_io import FixedClip, _resample_by_ratio, fit_clip
from .fileio import check_fields

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
        check_fields(self)
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

_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT_WIN) / STFT_WIN)  # periodic Hann
_WINDOW.flags.writeable = False
# expected phase advance of each rfft bin over one analysis hop
_OMEGA = 2.0 * np.pi * np.arange(STFT_WIN // 2 + 1) * STFT_HOP / STFT_WIN
_OMEGA.flags.writeable = False
_TWO_PI = 2.0 * np.pi


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum the rows of `frames`, row k starting at sample k * hop.

    Adds one hop-wide column block of every frame at a time, last block
    first, so each sample sums its frames in increasing order, as a loop
    over the frames would.
    """
    n, width = frames.shape
    blocks = -(-width // hop)
    out = np.zeros((n + blocks - 1, hop))
    for j in reversed(range(blocks)):
        block = frames[:, j * hop : (j + 1) * hop]
        out[j : j + n, : block.shape[1]] += block
    return out.ravel()[: (n - 1) * hop + width]


def time_stretch_samples(x: np.ndarray, rate: float) -> np.ndarray:
    """Phase-vocoder time stretch: output length round(len(x) / rate), pitch kept.

    Analysis hop STFT_HOP, synthesis hop round(STFT_HOP / rate); per-bin phase
    accumulation with instantaneous-frequency correction, weighted overlap-add
    resynthesis normalized by the accumulated squared window. The accumulated
    phase is wrapped to [-pi, pi) in float64 and the synthesis phasors are
    built in float32; see the module docstring for the tolerance.
    """
    x = np.asarray(x, dtype=np.float64)
    n_target = int(round(x.size / rate))
    if x.size == 0:
        return np.zeros(n_target)
    hop_s = int(round(STFT_HOP / rate))

    half = STFT_WIN // 2
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + STFT_WIN)])
    frames = np.lib.stride_tricks.sliding_window_view(xp, STFT_WIN)[::STFT_HOP] * _WINDOW
    n_frames = frames.shape[0]
    spec = np.fft.rfft(frames, axis=1)
    del frames
    mags = np.abs(spec)
    phases = np.arctan2(spec.imag, spec.real)
    del spec

    # the measured deviation from each bin's expected advance, wrapped
    dphi = np.diff(phases, axis=0) - _OMEGA
    dphi = np.mod(dphi + np.pi, _TWO_PI) - np.pi
    advance = (_OMEGA + dphi) * (hop_s / STFT_HOP)
    del dphi

    psi = np.empty_like(phases)
    psi[0] = phases[0]
    np.cumsum(advance, axis=0, out=psi[1:])
    psi[1:] += phases[0]
    del advance, phases
    psi -= _TWO_PI * np.floor(psi * (1.0 / _TWO_PI) + 0.5)
    psi32 = psi.astype(np.float32)
    del psi

    phasors = np.empty(mags.shape, dtype=np.complex128)
    np.multiply(mags, np.cos(psi32), out=phasors.real)
    np.multiply(mags, np.sin(psi32), out=phasors.imag)
    del mags, psi32
    out_frames = np.fft.irfft(phasors, n=STFT_WIN, axis=1)
    del phasors
    out_frames *= _WINDOW

    y = _overlap_add(out_frames, hop_s)
    wsum = _overlap_add(np.broadcast_to(_WINDOW * _WINDOW, (n_frames, STFT_WIN)), hop_s)
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
