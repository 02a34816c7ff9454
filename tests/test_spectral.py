"""Fourier analysis of percentage histograms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap.histograms import WeightedHistogram, mc_histograms
from pollheap.spectral import (
    amplitude_spectrum,
    harmonic_profile,
    spectrogram,
)

import oracles


def hist(weights):
    return WeightedHistogram("turnout", Fraction(1, 10), np.asarray(weights, dtype=np.float64))


class TestDFT:
    @settings(max_examples=15, deadline=None)
    @hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 64))
    def test_matches_direct_transform(self, seed, n):
        rng = np.random.default_rng(seed)
        w = np.zeros(1001)
        w[rng.choice(w.size, size=n, replace=False)] = rng.normal(size=n) * 100
        mine = amplitude_spectrum(hist(w)).amplitudes
        # 1000 samples, without the 100% bin, normalized by 1000
        direct = np.abs(np.asarray(oracles.dft_direct(w[:1000])))[:501] / 1000
        assert np.max(np.abs(mine - direct)) < 1e-8


class TestAmplitudeSpectrum:
    def test_grid_and_normalization(self):
        w = np.zeros(1001)
        w[0] = 1000.0
        spec = amplitude_spectrum(hist(w))
        assert spec.normalization == 1000
        assert spec.amplitudes.size == 501
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[100] == pytest.approx(1.0)
        assert spec.frequencies[-1] == pytest.approx(5.0)

    def test_constant_input_has_no_nonzero_frequency(self):
        spec = amplitude_spectrum(hist(np.full(1001, 7.0)))
        assert spec.amplitudes[0] == pytest.approx(7.0)  # |mean|
        assert np.max(spec.amplitudes[1:]) < 1e-12

    def test_integer_comb_puts_mass_on_harmonics(self):
        w = np.zeros(1001)
        w[::10] = 1.0  # a spike at every integer percent
        spec = amplitude_spectrum(hist(w))
        # comb of period 1%: amplitude 0.1 at every multiple of
        # 1 per percent, zero in between
        harmonics = spec.amplitudes[100::100]
        assert np.allclose(harmonics, 0.1)
        off = np.delete(spec.amplitudes[1:], np.arange(99, 500, 100))
        assert np.max(off) < 1e-12

    def test_five_percent_comb_has_denser_harmonics(self):
        w = np.zeros(1001)
        w[::50] = 1.0  # spikes at multiples of 5%
        spec = amplitude_spectrum(hist(w))
        assert spec.amplitudes[20] == pytest.approx(0.02)  # 0.2 per percent
        assert spec.amplitudes[100] == pytest.approx(0.02)
        assert spec.amplitudes[50] < 1e-12  # 0.5 per percent is not a harmonic

    def test_rejects_non_canonical_grid(self):
        h = WeightedHistogram("turnout", Fraction(1, 20), np.zeros(2001))
        with pytest.raises(ValueError):
            amplitude_spectrum(h)


class TestSpectrogram:
    def _flat_mc(self, rows=3, value=1.0):
        return np.full((rows, 1001), value)

    def test_axes(self):
        spec = spectrogram(hist(np.ones(1001)), self._flat_mc())
        assert spec.centers.size == 851
        assert spec.centers[0] == pytest.approx(7.5)
        assert spec.centers[-1] == pytest.approx(92.5)
        assert spec.window_width == pytest.approx(15.0)
        assert spec.frequencies.size == 151
        assert spec.frequencies[30] == pytest.approx(1.0)
        assert spec.frequencies[-1] == pytest.approx(5.0)
        assert spec.raw.shape == (851, 151)
        assert spec.mc_iterations == 3

    def test_ratio_nan_where_mc_zero(self):
        # zero MC histograms give a zero mean spectrogram away from DC
        spec = spectrogram(hist(np.ones(1001)), np.zeros((2, 1001)))
        assert np.isnan(spec.ratio[:, 1:]).all()

    def test_flat_input_concentrates_at_dc(self):
        spec = spectrogram(hist(np.full(1001, 3.0)), self._flat_mc())
        # demeaned windows are identically zero
        assert np.max(spec.raw[:, 1:]) < 1e-9
        assert np.min(spec.raw[:, 0]) > 0

    def test_integer_comb_lights_up_harmonic_row(self):
        w = np.full(1001, 10.0)
        w[::10] += 25.0
        spec = spectrogram(hist(w), self._flat_mc(value=10.0))
        k30 = spec.raw[:, 30]
        neighbors = spec.raw[:, 25]
        assert np.min(k30) > np.max(neighbors)

    def test_mc_mean_averages_member_spectrograms(self):
        rng = np.random.default_rng(8)
        mc = rng.integers(0, 50, size=(4, 1001)).astype(np.float64)
        spec = spectrogram(hist(np.ones(1001)), mc)
        single = [spectrogram(hist(np.ones(1001)), mc[i : i + 1]).mc_mean for i in range(4)]
        assert np.allclose(spec.mc_mean, np.mean(single, axis=0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            spectrogram(hist(np.ones(1001)), np.zeros((0, 1001)))
        with pytest.raises(ValueError):
            spectrogram(hist(np.ones(1001)), np.zeros((2, 500)))
        with pytest.raises(ValueError):
            spectrogram(hist(np.ones(1001)), np.zeros(1001))


class TestHarmonicProfile:
    def test_row_extraction(self):
        rng = np.random.default_rng(13)
        w = np.full(1001, 10.0)
        w[::10] += 25.0
        mc = rng.integers(1, 50, size=(3, 1001)).astype(np.float64)
        spec = spectrogram(hist(w), mc)
        prof = harmonic_profile(spec, 1.0)
        assert prof.frequency == pytest.approx(1.0)
        assert np.array_equal(prof.centers, spec.centers)
        assert np.array_equal(prof.values, spec.ratio[:, 30])
        assert prof.final_window_value == prof.values[-1]

    def test_off_grid_frequency_rejected(self):
        spec = spectrogram(hist(np.ones(1001)), np.ones((1, 1001)))
        with pytest.raises(ValueError):
            harmonic_profile(spec, 1.005)
        with pytest.raises(ValueError):
            harmonic_profile(spec, 17.0)

    @pytest.mark.parametrize("mc_kind", ["random", "zero"])
    def test_matches_row_oracle_bitwise(self, mc_kind):
        rng = np.random.default_rng(12)
        # sparse empirical row, so some windows are all zero
        w = np.where(rng.random(1001) < 0.3, rng.integers(0, 5000, 1001), 0)
        w[:200] = 0
        if mc_kind == "random":
            mc = rng.integers(0, 5000, size=(7, 1001)).astype(np.float64)
            mc[:, 400:700] = 0.0  # windows inside this stretch have a zero MC mean
        else:
            mc = np.zeros((4, 1001))
        spec = spectrogram(hist(w), mc)
        raw, mc_mean = oracles.spectrogram_rows(w, mc)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(mc_mean > 0.0, raw / mc_mean, np.nan)
        for mine, ref in ((spec.raw, raw), (spec.mc_mean, mc_mean), (spec.ratio, ratio)):
            assert mine.shape == ref.shape
            assert np.array_equal(mine.view(np.int64), ref.view(np.int64))
        if mc_kind == "zero":
            assert np.isnan(spec.ratio).all()
        else:
            assert np.isnan(spec.ratio).any() and np.isfinite(spec.ratio).any()

    def test_simulated_null_ratio_near_one(self, null_2k):
        from pollheap.histograms import build_histogram

        emp = build_histogram(null_2k, "turnout")
        mc = mc_histograms(null_2k, "turnout", "binomial", 50, 21)
        spec = spectrogram(emp, mc)
        prof = harmonic_profile(spec, 1.0)
        # windows over empty stretches of the scale are NaN; the
        # populated turnout range still covers most centers
        vals = prof.values[np.isfinite(prof.values)]
        assert vals.size > 500
        # null data: the integer harmonic hovers around the MC level
        assert 0.2 < np.median(vals) < 3.0
