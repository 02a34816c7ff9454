"""Voter-weighted histograms, MC envelopes, and peak shape extraction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap.histograms import (
    WeightedHistogram,
    average_histograms,
    build_histogram,
    envelope_from_matrix,
    mc_histogram_matrices,
    mc_histograms,
    peak_shape,
)
import pollheap.histograms as histograms
from pollheap.model import METRIC_CODES, stream

from helpers import make_dataset, random_counts


def one_station(registered, given, cast=None, leader=None):
    cast = given if cast is None else cast
    leader = cast // 2 if leader is None else leader
    return make_dataset([registered], [given], [cast], [leader])


class TestBinning:
    def test_exact_index_pin(self):
        # 682 / 974 = 70.0205...% lands in the 70.0 bin
        h = build_histogram(one_station(974, 682), "turnout")
        assert h.weights.size == 1001
        assert h.weights[700] == 974
        assert h.weights.sum() == 974

    def test_lower_closed_bin_edges(self):
        # 69.95% is the lower edge of the 70.0 bin (inside), 70.05%
        # its upper edge (outside, belongs to 70.1)
        at_lower = one_station(2000, 1399)
        at_upper = one_station(2000, 1401)
        assert build_histogram(at_lower, "turnout").weights[700] == 2000
        h = build_histogram(at_upper, "turnout")
        assert h.weights[700] == 0
        assert h.weights[701] == 2000

    def test_result_metric_uses_cast_denominator(self):
        ds = one_station(1200, 800, cast=798, leader=399)
        h = build_histogram(ds, "result")
        # 399/798 = 50% exactly, weighted by registered voters
        assert h.weights[500] == 1200

    def test_undefined_metric_skipped(self):
        ds = make_dataset([500, 600], [300, 0], [300, 0], [150, 0])
        h = build_histogram(ds, "result")
        assert h.weights.sum() == 500

    def test_hundred_percent_suppression(self):
        ds = one_station(700, 700)
        assert build_histogram(ds, "turnout").weights.sum() == 0
        kept = build_histogram(ds, "turnout", suppress_hundred=False)
        assert kept.weights[1000] == 700
        assert kept.weights.sum() == 700

    @pytest.mark.parametrize("jitter", [False, True])
    def test_a_station_above_100_percent_is_refused_by_name(self, tmp_path, jitter):
        # a two-station file read without apply_filters: station S2 gives
        # 1200 ballots of 1000 registered, and S1's leader has 40 votes of
        # 30 cast; both histograms and the fingerprint name the station
        # and the metric instead of indexing past their bins
        from pollheap.ingest import load_dataset
        from pollheap.regions import fingerprint

        path = tmp_path / "over_100.tsv"
        path.write_text(
            "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader\n"
            "S1\tA\tC1\t1000\t700\t30\t40\n"
            "S2\tA\tC1\t1000\t1200\t1190\t400\n"
        )
        ds, _ = load_dataset(path)
        with pytest.raises(ValueError, match=r"station 'S2' has turnout 1200 of 1000, above 100%"):
            build_histogram(ds, "turnout", jitter=jitter)
        with pytest.raises(ValueError, match=r"station 'S1' has result 40 of 30, above 100%"):
            build_histogram(ds, "result", jitter=jitter)
        with pytest.raises(ValueError, match=r"station 'S2' has turnout 1200 of 1000"):
            fingerprint(ds)

    def test_bin_width_validation(self):
        with pytest.raises(ValueError):
            build_histogram(one_station(100, 50), "turnout", bin_width=Fraction(3, 10))
        with pytest.raises(ValueError):
            build_histogram(one_station(100, 50), "turnout", bin_width=Fraction(1, 2000))

    def test_bin_centers(self):
        h = build_histogram(one_station(974, 682), "turnout")
        assert h.bin_centers.size == 1001
        assert h.bin_centers[700] == pytest.approx(70.0)
        assert h.bin_centers[-1] == pytest.approx(100.0)

    def test_weights_length_enforced(self):
        with pytest.raises(ValueError):
            WeightedHistogram("turnout", Fraction(1, 10), np.zeros(1000))


class TestAdditivity:
    @settings(max_examples=20, deadline=None)
    @hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), m=st.integers(1, 60))
    def test_concatenation_is_cellwise_sum(self, seed, n, m):
        rng = np.random.default_rng(seed)
        va, ga, ba, la = random_counts(rng, n)
        vb, gb, bb, lb = random_counts(rng, m)
        ha = build_histogram(make_dataset(va, ga, ba, la), "turnout")
        hb = build_histogram(make_dataset(vb, gb, bb, lb), "turnout")
        hab = build_histogram(
            make_dataset(
                np.concatenate([va, vb]), np.concatenate([ga, gb]),
                np.concatenate([ba, bb]), np.concatenate([la, lb]),
            ),
            "turnout",
        )
        assert np.array_equal(hab.weights, ha.weights + hb.weights)

    @settings(max_examples=20, deadline=None)
    @hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    def test_mass_conservation(self, seed, n):
        rng = np.random.default_rng(seed)
        v, g, b, l = random_counts(rng, n)
        h = build_histogram(make_dataset(v, g, b, l), "turnout", suppress_hundred=False)
        assert h.weights.sum() == v.sum()


class TestJitter:
    def test_deterministic_by_seed(self, null_2k):
        a = build_histogram(null_2k, "turnout", jitter=True, seed=5)
        b = build_histogram(null_2k, "turnout", jitter=True, seed=5)
        c = build_histogram(null_2k, "turnout", jitter=True, seed=6)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_metric_streams_differ(self, null_2k):
        t = build_histogram(null_2k, "turnout", jitter=True, seed=5)
        r = build_histogram(null_2k, "result", jitter=True, seed=5)
        assert not np.array_equal(t.weights, r.weights)

    def test_mass_preserved(self, null_2k):
        plain = build_histogram(null_2k, "turnout", suppress_hundred=False)
        jit = build_histogram(null_2k, "turnout", jitter=True, suppress_hundred=False)
        assert jit.weights.sum() == plain.weights.sum()

    def test_moves_each_station_at_most_one_bin(self):
        # noise is uniform(-0.5, 0.5) on the numerator, so with
        # denominator >= 50 * bins_per_percent the percentage moves
        # less than one bin width
        rng = np.random.default_rng(9)
        for trial in range(40):
            v = int(rng.integers(500, 4000))
            g = int(rng.integers(1, v + 1))
            ds = one_station(v, g)
            exact = int(np.flatnonzero(build_histogram(ds, "turnout", suppress_hundred=False).weights)[0])
            jit = build_histogram(ds, "turnout", jitter=True, seed=trial, suppress_hundred=False)
            got = int(np.flatnonzero(jit.weights)[0])
            assert abs(got - exact) <= 1

    def test_seed_outside_one_word_rejected(self, null_2k):
        # SeedSequence would split 2**32 + 5 into the words (5, 1), the
        # key of seed 5's iteration 1
        for seed in (-1, 2**32, 2**32 + 5):
            with pytest.raises(ValueError, match="seed"):
                build_histogram(null_2k, "turnout", jitter=True, seed=seed)
        assert build_histogram(null_2k, "turnout", jitter=True, seed=2**32 - 1).weights.sum() > 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_empirical_noise_is_no_simulated_stream(self, monkeypatch, seed):
        # SeedSequence zero-pads a key to its 4-word pool, so two keys
        # draw alike when their padded words agree; compare the states
        keys = []
        monkeypatch.setattr(histograms, "stream", lambda *key: keys.append(key) or stream(*key))
        ds = one_station(1000, 700)
        for metric in ("turnout", "result"):
            build_histogram(ds, metric, jitter=True, seed=seed)
        empirical, keys[:] = list(keys), []
        for metric in ("turnout", "result"):
            num, den = ds.metric(metric)
            for i in range(1024):
                histograms._simulated_histogram(
                    metric, den, ds.registered, 10, True, True, seed, i, {metric: num}
                )
        simulated = keys + [(seed, i, code) for i in range(1024) for code in METRIC_CODES.values()]

        def state(key):
            return tuple(np.random.SeedSequence(key).generate_state(4))

        taken = {state(k) for k in simulated}
        assert len(empirical) == 2 and len({state(k) for k in empirical}) == 2
        assert not taken & {state(k) for k in empirical}


class TestEnvelope:
    def test_order_statistic_rows(self):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 5000, size=(100, 1001))
        env = envelope_from_matrix(matrix, "turnout", Fraction(1, 10))
        s = np.sort(matrix, axis=0)
        assert np.array_equal(env.low, s[1].astype(np.float64))
        assert np.array_equal(env.high, s[98].astype(np.float64))
        assert np.allclose(env.mean, matrix.mean(axis=0))
        assert env.iterations == 100
        assert env.levels == (0.5, 99.5)

    def test_levels_are_checked_like_percentile_band(self):
        # without the check (-5, 50) gave a low row above the high row,
        # (60, 40) was accepted and (0.5, 150) raised IndexError
        matrix = np.arange(300).reshape(100, 3)
        for levels in ((-5, 50), (60, 40), (0.5, 150)):
            with pytest.raises(ValueError, match="levels must satisfy"):
                envelope_from_matrix(matrix, "turnout", Fraction(1, 10), levels)

    def test_band_ordering_and_coverage(self, null_2k):
        matrix = mc_histograms(null_2k, "turnout", "binomial", 100, 7)
        env = envelope_from_matrix(matrix, "turnout", Fraction(1, 10))
        assert np.all(env.low <= env.high)
        emp = build_histogram(null_2k, "turnout").weights
        dense = env.mean >= 0.25 * env.mean.max()
        assert dense.sum() > 20
        inside = (emp >= env.low) & (emp <= env.high)
        # null data: the empirical histogram tracks its own MC band on
        # the well-populated bins
        assert inside[dense].mean() > 0.9


class TestMCHistograms:
    def test_shape_and_row_reproducibility(self, null_2k):
        mat3 = mc_histograms(null_2k, "turnout", "binomial", 3, 11)
        assert mat3.shape == (3, 1001)
        mat1 = mc_histograms(null_2k, "turnout", "binomial", 1, 11)
        assert np.array_equal(mat1[0], mat3[0])

    def test_workers_do_not_change_rows(self, null_2k):
        a = mc_histograms(null_2k, "turnout", "binomial", 64, 11, workers=1)
        b = mc_histograms(null_2k, "turnout", "binomial", 64, 11, workers=3)
        assert np.array_equal(a, b)

    def test_mass_conservation_per_row(self, null_2k):
        mat = mc_histograms(
            null_2k, "turnout", "binomial", 4, 11, suppress_hundred=False
        )
        assert np.all(mat.sum(axis=1) == null_2k.registered.sum())

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_job_gets_its_own_finisher(self, null_2k, null_multiregion, workers):
        # three jobs over two datasets and both metrics: entry k is
        # finish[k] of job k's own matrix, wherever the job ran
        jobs = [(null_2k, "turnout"), (null_multiregion, "result"), (null_2k, "result")]
        finish = [
            lambda m: ("sum", m.sum(axis=0)),
            lambda m: ("last", m[-1].copy()),
            lambda m: ("mean", m.mean(axis=0)),
        ]
        got = mc_histogram_matrices(jobs, "binomial", 8, 11, workers=workers, finish=finish)
        for k, (dataset, metric) in enumerate(jobs):
            want = finish[k](mc_histograms(dataset, metric, "binomial", 8, 11, workers=1))
            assert got[k][0] == want[0]
            assert got[k][1].tobytes() == want[1].tobytes()
            assert got[k][1].dtype == want[1].dtype

    @pytest.mark.parametrize("n_finish", [1, 3])
    def test_finish_needs_one_callable_per_job(self, null_2k, monkeypatch, n_finish):
        def run_simulation(*args, **kwargs):
            raise AssertionError("simulated before finish was checked")

        monkeypatch.setattr(histograms, "run_simulation", run_simulation)
        jobs = [(null_2k, "turnout"), (null_2k, "result")]
        with pytest.raises(ValueError, match="one callable per job"):
            mc_histogram_matrices(jobs, "binomial", 8, 11, finish=[np.sum] * n_finish)


class TestAveraging:
    def test_mean_is_cellwise(self, null_2k):
        h1 = build_histogram(null_2k, "turnout")
        h2 = build_histogram(null_2k, "turnout", jitter=True, seed=1)
        avg = average_histograms([h1, h2])
        assert np.allclose(avg.weights, (h1.weights + h2.weights) / 2.0)
        assert avg.metric == "turnout"

    def test_grid_and_metric_mismatch_rejected(self, null_2k):
        t = build_histogram(null_2k, "turnout")
        r = build_histogram(null_2k, "result")
        fine = build_histogram(null_2k, "turnout", bin_width=Fraction(1, 20))
        with pytest.raises(ValueError):
            average_histograms([t, r])
        with pytest.raises(ValueError):
            average_histograms([t, fine])
        with pytest.raises(ValueError):
            average_histograms([])


class TestPeakShape:
    def _flat(self, value=0.0):
        return WeightedHistogram("turnout", Fraction(1, 10), np.full(1001, value))

    def test_window_count_single_and_pair(self):
        ps = peak_shape(self._flat(5.0), self._flat(2.0))
        assert ps.intervals == 99
        assert ps.offsets.size == 11
        assert ps.offsets[0] == pytest.approx(-0.5)
        assert ps.offsets[-1] == pytest.approx(0.5)
        both = peak_shape([self._flat(), self._flat()], [self._flat(), self._flat()])
        assert both.intervals == 198

    def test_flat_excess_recovered(self):
        ps = peak_shape(self._flat(5.0), self._flat(2.0))
        assert np.allclose(ps.mean_excess, 3.0)

    def test_integer_spike_lands_at_offset_zero(self):
        w = np.zeros(1001)
        w[np.arange(10, 1000, 10)] = 42.0  # every integer percent bin
        ps = peak_shape(
            WeightedHistogram("turnout", Fraction(1, 10), w), self._flat(0.0)
        )
        center = ps.offsets.size // 2
        assert ps.mean_excess[center] == pytest.approx(42.0)
        assert ps.mean_excess[center - 1] == pytest.approx(0.0)
        mid = ps.mean_excess[0] + ps.mean_excess[-1]
        # half-integer bins are shared by adjacent windows
        assert mid == pytest.approx(0.0)

    def test_odd_bin_count_rejected(self):
        h = WeightedHistogram("turnout", Fraction(1, 5), np.zeros(501))
        with pytest.raises(ValueError):
            peak_shape(h, h)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            peak_shape([self._flat()], [self._flat(), self._flat()])

    def test_grid_mismatch_rejected(self):
        coarse = self._flat()
        fine = WeightedHistogram("turnout", Fraction(1, 20), np.zeros(2001))
        with pytest.raises(ValueError):
            peak_shape(coarse, fine)
