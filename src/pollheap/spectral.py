"""Fourier analysis of percentage histograms.

The amplitude spectrum localizes periodic structure in the full 0-100%
histogram: combs of peaks at every integer percent show up as
harmonics at 1, 2, ... per percent; peaks at multiples of five show up
at 0.2, 0.4, ... per percent. The spectrogram slides a 15%-wide
Hamming window across the percentage axis to show where along the
scale the periodicity lives, and is normalized cell-wise by the mean
spectrogram of Monte Carlo replicas so that unremarkable structure
sits near 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .histograms import WeightedHistogram

__all__ = [
    "AmplitudeSpectrum",
    "Spectrogram",
    "HarmonicProfile",
    "dft_complex",
    "amplitude_spectrum",
    "spectrogram",
    "harmonic_profile",
]

# All spectral operations run on the canonical 0.1%-bin grid.
_GRID_BIN_WIDTH = Fraction(1, 10)
_SAMPLES = 1000  # 0.0 ... 99.9, the stated normalization length

_WINDOW_BINS = 151  # 15% at 0.1% bins, inclusive of both edges
# zero-padded FFT length; puts 1 per-percent exactly on the grid
_FFT_LEN = 300


def dft_complex(values: np.ndarray) -> np.ndarray:
    """Full complex DFT, exposed so tests can check linearity/Parseval."""
    return np.fft.fft(np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class AmplitudeSpectrum:
    """|DFT| of a histogram, normalized by the sampling length."""

    frequencies: np.ndarray  # cycles per percent, 0 ... 5
    amplitudes: np.ndarray
    normalization: int


def _require_grid(histogram: WeightedHistogram) -> np.ndarray:
    if histogram.bin_width != _GRID_BIN_WIDTH:
        raise ValueError("spectral analysis requires the 0.1 percent bin grid")
    return np.asarray(histogram.weights, dtype=np.float64)


def amplitude_spectrum(histogram: WeightedHistogram) -> AmplitudeSpectrum:
    """Amplitude spectrum over the 0-100% range.

    The 1001-bin grid is truncated to its first 1000 samples so the
    normalization length is exactly 1000; frequencies then fall on
    k/100 per percent up to the Nyquist 5 per percent. The zero
    frequency amplitude equals |mean| of the input.
    """
    w = _require_grid(histogram)[:_SAMPLES]
    amp = np.abs(np.fft.rfft(w)) / _SAMPLES
    freqs = np.arange(amp.size) / 100.0
    return AmplitudeSpectrum(frequencies=freqs, amplitudes=amp, normalization=_SAMPLES)


def _hamming(n: int) -> np.ndarray:
    j = np.arange(n, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (n - 1))


def _raw_spectrogram(
    values: np.ndarray, ham: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """|DFT| per sliding window, written into out (n_centers, n_frequencies).

    Windows are demeaned before the transform so the bulk histogram
    level cannot swamp the periodic part; the DC row instead reports
    the windowed mass itself. scratch is a (n_centers, window) buffer,
    so a caller transforming many rows allocates it once.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, _WINDOW_BINS)
    np.subtract(windows, windows.mean(axis=1, keepdims=True), out=scratch)
    scratch *= ham
    np.abs(np.fft.rfft(scratch, n=_FFT_LEN, axis=1), out=out)
    np.multiply(windows, ham, out=scratch)
    np.abs(scratch.sum(axis=1), out=out[:, 0])
    return out


@dataclass(frozen=True)
class Spectrogram:
    """Sliding-window spectrum ratio against the MC average.

    ratio holds raw/mc_mean per (center, frequency) cell; cells whose
    MC average is zero are NaN rather than divided. centers span
    7.5% ... 92.5% in 0.1% steps; frequencies span 0 ... 5 per percent.
    """

    window_width: float
    centers: np.ndarray
    frequencies: np.ndarray
    raw: np.ndarray
    mc_mean: np.ndarray
    ratio: np.ndarray
    mc_iterations: int


def spectrogram(
    histogram: WeightedHistogram, mc_histograms: np.ndarray
) -> Spectrogram:
    """Hamming-window spectrogram normalized by the MC average.

    mc_histograms is a (iterations, bins) matrix of simulated
    histograms on the same grid. The MC mean spectrogram is the
    average of the per-iteration spectrograms (not the spectrogram of
    the average histogram), accumulated in iteration order.
    """
    w = _require_grid(histogram)
    mc = np.asarray(mc_histograms, dtype=np.float64)
    if mc.ndim != 2 or mc.shape[0] < 1:
        raise ValueError("mc_histograms must be a non-empty (iterations, bins) matrix")
    if mc.shape[1] != w.size:
        raise ValueError("mc_histograms grid does not match the histogram")

    n_centers = w.size - _WINDOW_BINS + 1
    shape = (n_centers, _FFT_LEN // 2 + 1)
    ham = _hamming(_WINDOW_BINS)
    scratch = np.empty((n_centers, _WINDOW_BINS))
    raw = _raw_spectrogram(w, ham, scratch, np.empty(shape))
    mag = np.empty(shape)
    acc = np.zeros(shape)
    for row in mc:
        acc += _raw_spectrogram(row, ham, scratch, mag)
    mc_mean = acc / mc.shape[0]

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(mc_mean > 0.0, raw / mc_mean, np.nan)

    centers = 7.5 + np.arange(n_centers) * 0.1
    # sample spacing 0.1% over _FFT_LEN points -> k / (0.1 * _FFT_LEN) per percent
    freqs = np.arange(raw.shape[1]) / (_FFT_LEN * 0.1)
    return Spectrogram(
        window_width=(_WINDOW_BINS - 1) * 0.1,
        centers=centers,
        frequencies=freqs,
        raw=raw,
        mc_mean=mc_mean,
        ratio=ratio,
        mc_iterations=int(mc.shape[0]),
    )


@dataclass(frozen=True)
class HarmonicProfile:
    """One frequency row of a spectrogram as a function of window center."""

    frequency: float
    centers: np.ndarray
    values: np.ndarray
    final_window_value: float  # the window spanning the top of the scale


def harmonic_profile(spec: Spectrogram, frequency: float = 1.0) -> HarmonicProfile:
    """Extract one harmonic's normalized amplitude across window centers."""
    idx = int(round(frequency * _FFT_LEN * 0.1))
    if idx < 0 or idx >= spec.frequencies.size or not np.isclose(
        spec.frequencies[idx], frequency
    ):
        raise ValueError(f"frequency {frequency} does not fall on the spectrogram grid")
    values = spec.ratio[:, idx]
    return HarmonicProfile(
        frequency=float(spec.frequencies[idx]),
        centers=spec.centers,
        values=values,
        final_window_value=float(values[-1]),
    )
