"""Null-model samplers: exactness, determinism, counter discipline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap.sampling import (
    METRIC_CODES,
    _build_table,
    DatasetSampler,
    NullModel,
    SimSeed,
    binom_quantile,
    iteration_uniforms,
    make_sampler,
    sample_result,
    sample_turnout,
)

import oracles


def _binary_search_lookup(table, u):
    """Reference for _QuantileTable.lookup: a fixed-step binary search.

    Finds each row's first entry with cdf > u; strays (no entry above u,
    or u below the row's left tail) are settled by binom_quantile.
    """
    starts = table.offsets[:-1]
    ends = table.offsets[1:]
    left = starts.copy()
    right = ends.copy()
    max_width = int((ends - starts).max()) if starts.size else 1
    for _ in range(max_width.bit_length() + 1):
        active = left < right
        if not active.any():
            break
        mid = (left + right) >> 1
        val = table.cdf[np.minimum(mid, table.cdf.size - 1)]
        above = active & (val > u)
        below = active & ~above
        right[above] = mid[above]
        left[below] = mid[below] + 1
    k = table.lo + (left - starts)
    stray = (left == ends) | (u < table.left_tail)
    if stray.any():
        s = np.flatnonzero(stray)
        k[s] = binom_quantile(u[s], table.n[s], table.p[s])
    return k


def _repeat_sampler(den, num, model, n_copies, metric="turnout"):
    d = np.full(n_copies, den, dtype=np.int64)
    g = np.full(n_copies, num, dtype=np.int64)
    return make_sampler(d, g, model, metric)


class TestNullModel:
    def test_parse_forms(self):
        assert NullModel.parse("binomial").kind == "binomial"
        assert NullModel.parse("beta-binomial").kind == "beta_binomial"
        m = NullModel.parse("clustered:7")
        assert m.kind == "clustered" and m.cluster_size == 7

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            NullModel.parse("poisson")

    def test_cluster_size_bounds(self):
        with pytest.raises(ValueError):
            NullModel.parse("clustered:0")
        with pytest.raises(ValueError):
            NullModel.parse("clustered:11")

    def test_describe_roundtrip(self):
        for text in ("binomial", "beta_binomial", "clustered:4"):
            assert NullModel.parse(text).describe() == text


class TestBinomQuantile:
    def test_matches_exact_inversion(self):
        # u values with a prime denominator cannot coincide with any
        # binomial CDF value for p = 37/100, so the strict-inequality
        # and the weak-inequality inversions agree exactly
        n, p = 23, Fraction(37, 100)
        us = [Fraction(k, 7919) for k in range(0, 7919, 331)]
        got = binom_quantile(
            np.array([float(u) for u in us]),
            np.full(len(us), n, dtype=np.int64),
            np.full(len(us), float(p)),
        )
        want = [oracles.binom_cdf_inverse(n, p, u) for u in us]
        assert list(got) == want

    def test_u_zero_returns_smallest_support_point(self):
        got = binom_quantile(
            np.zeros(3),
            np.array([10, 10, 0], dtype=np.int64),
            np.array([0.6, 1.0, 0.3]),
        )
        # strict convention: first k with CDF(k) > 0. For p = 1 the
        # only support point is n itself.
        assert list(got) == [0, 10, 0]

    def test_u_one_rejected(self):
        with pytest.raises(ValueError):
            binom_quantile(np.array([1.0]), np.array([5], dtype=np.int64), np.array([0.5]))

    def test_degenerate_p(self):
        got = binom_quantile(
            np.array([0.0, 0.999999, 0.5]),
            np.array([8, 8, 8], dtype=np.int64),
            np.array([0.0, 0.0, 1.0]),
        )
        assert list(got) == [0, 0, 8]


@settings(max_examples=60, deadline=None)
@hgiven(
    n=st.integers(0, 40),
    pnum=st.integers(0, 100),
    uk=st.integers(0, 7918),
)
def test_binom_quantile_strict_convention_property(n, pnum, uk):
    # the returned k must satisfy CDF(k-1) <= u < CDF(k) under the
    # strict convention, checked in exact rational arithmetic
    p = Fraction(pnum, 100)
    u = Fraction(uk, 7919)
    k = int(
        binom_quantile(
            np.array([float(u)]),
            np.array([n], dtype=np.int64),
            np.array([float(p)]),
        )[0]
    )
    pmf = oracles.binom_pmf(n, p)
    cdf_k = sum(pmf[: k + 1])
    cdf_prev = sum(pmf[:k])
    assert 0 <= k <= n
    assert cdf_k > u
    if k > 0:
        assert cdf_prev <= u


class TestDistributionalExactness:
    N = 40_000

    def _pmf_check(self, draws, pmf_exact, n):
        counts = np.bincount(draws, minlength=n + 1)
        phat = counts / draws.size
        for k in range(n + 1):
            p = float(pmf_exact[k])
            se = np.sqrt(max(p * (1 - p), 1e-12) / draws.size)
            assert abs(phat[k] - p) < 6 * se + 1e-9, (k, phat[k], p)

    def test_binomial_pmf(self):
        s = _repeat_sampler(12, 5, NullModel("binomial"), self.N)
        draws = s.draw(master_seed=42, iteration_index=0)
        self._pmf_check(draws, oracles.binom_pmf(12, Fraction(5, 12)), 12)

    def test_beta_binomial_pmf(self):
        s = _repeat_sampler(15, 9, NullModel("beta_binomial"), self.N)
        draws = s.draw(master_seed=43, iteration_index=0)
        # posterior-predictive shapes: a = G + 1, b = V - G + 1
        self._pmf_check(draws, oracles.beta_binom_pmf(15, 10, 7), 15)

    def test_clustered_pmf(self):
        s = _repeat_sampler(14, 8, NullModel("clustered", cluster_size=3), self.N)
        draws = s.draw(master_seed=44, iteration_index=0)
        self._pmf_check(draws, oracles.clustered_pmf(14, 3, Fraction(8, 14)), 14)

    def test_clustered_support_is_lattice(self):
        s = _repeat_sampler(20, 10, NullModel("clustered", cluster_size=5), 2000)
        draws = s.draw(master_seed=45, iteration_index=0)
        # V = 20, c = 5: no remainder, so draws live on multiples of 5
        assert np.all(draws % 5 == 0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "model",
        [NullModel("binomial"), NullModel("beta_binomial"), NullModel("clustered", cluster_size=4)],
    )
    def test_single_station_matches_batch(self, model, null_2k):
        sampler = make_sampler(null_2k.registered, null_2k.given, model, "turnout")
        batch = sampler.draw(master_seed=7, iteration_index=3)
        for i in (0, 1, 17, 500, 1999):
            seed = SimSeed(
                master_seed=7, iteration_index=3, station_index=i, metric_tag="turnout"
            )
            single = sample_turnout(null_2k.record(i), model, seed)
            assert single == batch[i], i

    def test_result_metric_stream_is_independent(self, null_2k):
        model = NullModel("binomial")
        st_ = make_sampler(null_2k.registered, null_2k.given, model, "turnout")
        sr = make_sampler(null_2k.cast, null_2k.leader, model, "result")
        a = st_.draw(master_seed=9, iteration_index=0)
        b = sr.draw(master_seed=9, iteration_index=0)
        # same master seed and iteration, different metric tag: the
        # uniforms must differ
        ua = iteration_uniforms(9, 0, "turnout", 64, 1)
        ub = iteration_uniforms(9, 0, "result", 64, 1)
        assert not np.array_equal(ua, ub)
        assert a.shape == b.shape

    def test_iterations_differ(self, null_2k):
        sampler = make_sampler(null_2k.registered, null_2k.given, NullModel("binomial"), "turnout")
        a = sampler.draw(master_seed=7, iteration_index=0)
        b = sampler.draw(master_seed=7, iteration_index=1)
        assert not np.array_equal(a, b)

    def test_same_inputs_reproduce(self, null_2k):
        sampler = make_sampler(null_2k.registered, null_2k.given, NullModel("binomial"), "turnout")
        a = sampler.draw(master_seed=7, iteration_index=5)
        b = sampler.draw(master_seed=7, iteration_index=5)
        assert np.array_equal(a, b)

    def test_sample_result_matches_batch(self, null_2k):
        model = NullModel("beta_binomial")
        sampler = make_sampler(null_2k.cast, null_2k.leader, model, "result")
        batch = sampler.draw(master_seed=21, iteration_index=2)
        for i in (3, 777, 1500):
            seed = SimSeed(
                master_seed=21, iteration_index=2, station_index=i, metric_tag="result"
            )
            assert sample_result(null_2k.record(i), model, seed) == batch[i]


class TestEdgeStations:
    def test_degenerate_rows(self):
        den = np.array([0, 10, 10, 1], dtype=np.int64)
        num = np.array([0, 0, 10, 1], dtype=np.int64)
        for model in ("binomial", "beta-binomial", "clustered:3"):
            s = make_sampler(den, num, model, "turnout")
            for it in range(4):
                d = s.draw(master_seed=1, iteration_index=it)
                assert d[0] == 0
                assert d[1] == 0 or model != "binomial"
                assert 0 <= d[1] <= 10
                assert d[2] <= 10
                assert 0 <= d[3] <= 1
        # binomial with p = 0 never moves; p = 1 always saturates
        s = make_sampler(den, num, "binomial", "turnout")
        for it in range(8):
            d = s.draw(master_seed=2, iteration_index=it)
            assert d[1] == 0 and d[2] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sampler(
                np.array([5], dtype=np.int64),
                np.array([6], dtype=np.int64),
                "binomial",
                "turnout",
            )
        with pytest.raises(ValueError):
            make_sampler(
                np.array([5], dtype=np.int64),
                np.array([1], dtype=np.int64),
                "binomial",
                "attendance",
            )


@settings(max_examples=25, deadline=None)
@hgiven(
    seed=st.integers(0, 2**31 - 1),
    den=st.integers(1, 400),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    model_text=st.sampled_from(["binomial", "beta-binomial", "clustered:2", "clustered:9"]),
)
def test_draws_stay_in_support_property(seed, den, frac, model_text):
    num = int(frac * (den + 1))
    num = min(num, den)
    s = _repeat_sampler(den, num, NullModel.parse(model_text), 64)
    d = s.draw(master_seed=seed, iteration_index=0)
    assert d.min() >= 0 and d.max() <= den


_LAST_UNIFORM = 1.0 - 2.0**-53

_p_values = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.integers(1, 999).map(lambda k: k / 1000),
)


def _boundary_uniforms(table, data):
    """One u per station, drawn at 0, just below 1, the left tail, row
    entries (the last one included), their float neighbours, or anywhere."""
    us = []
    for i in range(table.lo.size):
        row = table.cdf[table.offsets[i]:table.offsets[i + 1]]
        tail = float(table.left_tail[i])
        candidates = [0.0, _LAST_UNIFORM, tail, np.nextafter(tail, 0.0),
                      float(row[-1]), float(row[data.draw(st.integers(0, row.size - 1))])]
        u = data.draw(st.one_of(st.sampled_from(candidates), st.floats(0.0, 1.0)))
        u = data.draw(st.sampled_from([u, float(np.nextafter(u, 0.0)),
                                       float(np.nextafter(u, 1.0))]))
        us.append(min(max(u, 0.0), _LAST_UNIFORM))
    return np.array(us, dtype=np.float64)


def _assert_lookup_matches_binary_search(table, data):
    u = _boundary_uniforms(table, data)
    assert np.array_equal(table.lookup(u), _binary_search_lookup(table, u))
    # every station again at entries spread over its whole row, where the
    # guess can start on either side of the answer; rows depend only on
    # (n, p), so a table of copies of the station holds the same row
    for i in range(table.lo.size):
        row = table.cdf[table.offsets[i]:table.offsets[i + 1]]
        picks = row[np.unique(np.linspace(0, row.size - 1, min(row.size, 24)).astype(int))]
        u = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, 1.0)])
        u = np.clip(u, 0.0, _LAST_UNIFORM)
        copies = _build_table(np.full(u.size, table.n[i]), np.full(u.size, table.p[i]))
        assert np.array_equal(copies.lookup(u), _binary_search_lookup(copies, u))


@settings(max_examples=60, deadline=None)
@hgiven(
    dens=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    ps=st.lists(_p_values, min_size=6, max_size=6),
    data=st.data(),
)
def test_binomial_table_lookup_matches_binary_search_property(dens, ps, data):
    den = np.array(dens, dtype=np.int64)
    p = np.array(ps[: den.size])
    _assert_lookup_matches_binary_search(_build_table(den, p), data)


@settings(max_examples=60, deadline=None)
@hgiven(
    c=st.sampled_from([3, 7]),
    quots=st.lists(st.integers(0, 10**6 // 7), min_size=1, max_size=6),
    rems=st.lists(st.sampled_from([0, 1, 2]), min_size=6, max_size=6),
    fracs=st.lists(_p_values, min_size=6, max_size=6),
    data=st.data(),
)
def test_clustered_table_lookup_matches_binary_search_property(c, quots, rems, fracs, data):
    # the remainder table's rows have n in {0, 1, 2}: degenerate and tiny
    den = np.array([c * q + r for q, r in zip(quots, rems)], dtype=np.int64)
    num = np.array([int(f * d) for f, d in zip(fracs, den)], dtype=np.int64)
    sampler = make_sampler(den, num, NullModel("clustered", c), "turnout")
    for table in (sampler._quot_table, sampler._rem_table):
        _assert_lookup_matches_binary_search(table, data)
