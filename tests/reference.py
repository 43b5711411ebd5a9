"""Plain references that the tuned code in `src/` is checked against.

`time_stretch` is the float64 phase vocoder that `augment.time_stretch_samples`
was before its synthesis phasors went to float32: frames gathered one by one,
`np.angle` for the phases, the accumulated phase left unwrapped, and the
phasors built by a complex128 `np.exp`.
"""

from __future__ import annotations

import numpy as np

from rawnetlite.augment import STFT_HOP, STFT_WIN


def time_stretch(x: np.ndarray, rate: float) -> np.ndarray:
    """Phase-vocoder time stretch: output length round(len(x) / rate), pitch kept."""
    x = np.asarray(x, dtype=np.float64)
    n_target = int(round(x.size / rate))
    if x.size == 0:
        return np.zeros(n_target)
    hop_s = int(round(STFT_HOP / rate))

    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT_WIN) / STFT_WIN)
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
