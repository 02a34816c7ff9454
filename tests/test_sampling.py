"""Null-model samplers: exactness, determinism, counter discipline."""

import dataclasses
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap import sampling
from pollheap.model import MAX_COUNT, METRIC_CODES
from pollheap.sampling import (
    _build_table,
    NullModel,
    binom_quantile,
    iteration_uniforms,
    make_sampler,
)

import oracles


def _row(table, i):
    """Station i's stored band in a _QuantileTable."""
    return table.cdf[table.starts[i]:table.starts[i] + table.last[i] + 1]


def _reference(den, p):
    """The float64 whole-window rows every table draw must match:
    oracles.station_order_table, which also keeps each station's n and p."""
    ref = oracles.station_order_table(den, p)
    ref.update(n=np.asarray(den, dtype=np.int64), p=np.asarray(p, dtype=np.float64))
    return ref


def _ref_row(ref, i):
    """Station i's float64 window row in a _reference."""
    return ref["cdf"][ref["offsets"][i]:ref["offsets"][i + 1]]


def _binary_search_lookup(ref, u, stations=None):
    """Reference for _QuantileTable.lookup: a fixed-step binary search on
    the oracle's rows, u[j] on the row of stations[j] (station j if None).

    Finds each row's first entry with cdf > u; strays (no entry above u,
    or u below the row's left tail) are settled by binom_quantile.
    """
    idx = np.arange(u.size) if stations is None else np.asarray(stations)
    starts = ref["offsets"][idx]
    ends = ref["offsets"][idx + 1]
    left = starts.copy()
    right = ends.copy()
    max_width = int((ends - starts).max()) if starts.size else 1
    for _ in range(max_width.bit_length() + 1):
        active = left < right
        if not active.any():
            break
        mid = (left + right) >> 1
        val = ref["cdf"][np.minimum(mid, ref["cdf"].size - 1)]
        above = active & (val > u)
        below = active & ~above
        right[above] = mid[above]
        left[below] = mid[below] + 1
    k = ref["lo"][idx] + (left - starts)
    stray = (left == ends) | (u < ref["left_tail"][idx])
    if stray.any():
        s = np.flatnonzero(stray)
        k[s] = binom_quantile(u[s], ref["n"][idx[s]], ref["p"][idx[s]])
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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            binom_quantile(np.array([np.nan]), np.array([5], dtype=np.int64), np.array([0.5]))

    @pytest.mark.parametrize(
        "n, p, name",
        [(10, np.nan, "p"), (10, -0.2, "p"), (10, 1.5, "p"), (-4, 0.3, "n"), (2.7, 0.5, "n")],
    )
    def test_an_invalid_n_or_p_is_refused_by_name(self, n, p, name):
        # each of these once returned a count: [0], [0], [10], [0], and
        # [1] from n truncated to 2
        with pytest.raises(ValueError, match=rf"^{name} must"):
            binom_quantile(0.5, n, p)

    def test_degenerate_p(self):
        got = binom_quantile(
            np.array([0.0, 0.999999, 0.5]),
            np.array([8, 8, 8], dtype=np.int64),
            np.array([0.0, 0.0, 1.0]),
        )
        assert list(got) == [0, 0, 8]

    @pytest.mark.parametrize("n, p", [(10**7, 0.5), (10**8, 0.3)])
    def test_large_n_matches_the_float64_row(self, n, p):
        # scipy's bdtr loses accuracy near the mean above n ~ 2e6 (2e-3
        # at 1e7, 0.12 at 1e8); the row is a running pmf sum, off by
        # at most 4e-7 here, so a draw may differ from it by one count
        ref = _reference([n], [p])
        u = np.arange(1, 1000) / 1000.0
        want = ref["lo"][0] + np.searchsorted(_ref_row(ref, 0), u, "right")
        got = binom_quantile(u, n, p)
        assert np.abs(got - want).max() <= 1


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


def _betainc_spy(asked):
    """A stand-in for scipy.special.betainc that records each call's
    first argument, n - k, before it evaluates."""
    from scipy.special import betainc

    def spy(a, b, x):
        asked.append(np.array(a, dtype=np.float64, copy=True))
        return betainc(a, b, x)

    return mock.patch("scipy.special.betainc", spy)


def test_binom_quantile_equals_the_walk_on_betainc_alone():
    # n up to MAX_COUNT; p across (0, 1), and 1e-17 to 0.1 away from 0
    # and from 1; u at 0 and at the largest uniform besides random ones
    rng = np.random.default_rng(33)
    size = 20_000
    n = np.floor(10.0 ** rng.uniform(0.0, np.log10(MAX_COUNT), size)).astype(np.int64)
    n[:50] = MAX_COUNT
    tiny = 10.0 ** -rng.uniform(1.0, 17.0, size)
    side = rng.integers(0, 3, size)
    p = np.select([side == 0, side == 1], [tiny, 1.0 - tiny], rng.random(size))
    u = rng.random(size)
    u[::40] = 0.0
    u[1::40] = _LAST_UNIFORM
    got = binom_quantile(u, n, p)
    assert np.array_equal(got, oracles.binom_quantile_walk(u, n, p))

    # the guard's premise, at each answer k > 0 and at k + 1, from where
    # a first step down goes: F(k) - pmf(k) lies far inside _GUARD of
    # _binom_cdf(k - 1), so that a scipy whose betainc breaks it fails here
    regular = (got > 0) & (p > 0.0) & (p < 1.0)
    nn, pp = n[regular].astype(np.float64), p[regular]
    for k in (got[regular].astype(np.float64), np.minimum(got[regular] + 1.0, nn)):
        F = np.where(k >= nn, 1.0, sampling._binom_cdf(np.minimum(k, nn - 1.0), nn, pp))
        est = F - sampling._step_pmf(nn, k, pp)
        gap = np.abs(est - sampling._binom_cdf(k - 1.0, nn, pp))
        assert np.all(gap <= sampling._GUARD / 16), float(np.nanmax(gap))


def test_a_first_step_down_inside_the_guard_evaluates_betainc():
    # u = F(k - 1) +- 2^-40 at a guess k near the mean: F(k) - pmf(k)
    # cannot settle F(k - 1) > u, so betainc does, at k - 1 for every
    # station; at +- 2^-20 the difference settles it and, above F(k - 1),
    # no second evaluation runs
    rng = np.random.default_rng(34)
    n = rng.integers(10, 10**6, 400).astype(np.float64)
    p = rng.uniform(0.05, 0.95, 400)
    k = np.floor(n * p) + rng.integers(-2, 3, 400)
    below = sampling._binom_cdf(k - 1.0, n, p)
    for offset, inside in ((2.0**-40, True), (-(2.0**-40), True), (2.0**-20, False)):
        u = below + offset
        kept = sampling._quantile_guess(u, n, p) == k
        assert kept.sum() >= 50
        asked = []
        with _betainc_spy(asked):
            got = binom_quantile(u[kept], n[kept], p[kept])
        assert np.array_equal(got, oracles.binom_quantile_walk(u[kept], n[kept], p[kept]))
        assert np.array_equal(got, k[kept] - (offset < 0))
        assert np.array_equal(asked[0], n[kept] - k[kept])
        if inside:
            assert np.array_equal(asked[1], n[kept] - k[kept] + 1.0)
        else:
            assert len(asked) == 1

    # a NaN difference is as unsure as one inside the guard
    u = below - 2.0**-20
    kept = sampling._quantile_guess(u, n, p) == k
    with mock.patch.object(sampling, "_binom_pmf", lambda n, k, p: np.full(n.shape, np.nan)):
        got = binom_quantile(u[kept], n[kept], p[kept])
    assert np.array_equal(got, k[kept] - 1)


def test_the_direct_walk_evaluates_betainc_about_once_per_station(null_2k):
    # a beta-binomial draw walks binom_quantile for every station; the
    # walk on betainc alone evaluates it twice per station at least
    sampler = make_sampler(null_2k.registered, null_2k.given, "beta-binomial", "turnout")
    u = iteration_uniforms(5, 0, "turnout", sampler.n_stations, 2)
    walked, alone = [], []
    with _betainc_spy(walked):
        sampler.draw_from_uniforms(u)
    from scipy.special import betaincinv

    num, den = null_2k.given, null_2k.registered
    p = betaincinv(num + 1.0, den - num + 1.0, u[:, 0])
    with _betainc_spy(alone):
        oracles.binom_quantile_walk(u[:, 1], den, p)
    regular = np.count_nonzero((p > 0.0) & (p < 1.0) & (den > 0))
    per_station = sum(a.size for a in walked) / regular
    assert 1.0 <= per_station <= 1.05
    assert sum(a.size for a in alone) / regular >= 2.0


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


def _single_draw(den, num, model, metric, master_seed, iteration_index, i):
    """Station i drawn alone: its own uniforms and a one-station sampler."""
    u = oracles.station_uniforms(
        master_seed, iteration_index, METRIC_CODES[metric], i, model.words_per_station
    )
    sampler = make_sampler(den[i:i + 1], num[i:i + 1], model, metric)
    return int(sampler.draw_from_uniforms(u.reshape(1, -1))[0])


class TestDeterminism:
    @pytest.mark.parametrize(
        "model",
        [NullModel("binomial"), NullModel("beta_binomial"), NullModel("clustered", cluster_size=4)],
    )
    def test_single_station_matches_batch(self, model, null_2k):
        sampler = make_sampler(null_2k.registered, null_2k.given, model, "turnout")
        batch = sampler.draw(master_seed=7, iteration_index=3)
        for i in (0, 1, 17, 500, 1999):
            single = _single_draw(null_2k.registered, null_2k.given, model, "turnout", 7, 3, i)
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

    def test_seed_outside_one_word_rejected(self, null_2k):
        # SeedSequence would split 2**32 + 5 into the words (5, 1), the
        # key of seed 5's iteration 1
        sampler = make_sampler(null_2k.registered, null_2k.given, NullModel("binomial"), "turnout")
        for seed in (-1, 2**32, 2**32 + 5):
            with pytest.raises(ValueError, match="seed"):
                sampler.draw(seed, 0)
            with pytest.raises(ValueError, match="seed"):
                iteration_uniforms(seed, 0, "turnout", 64, 1)
        assert sampler.draw(2**32 - 1, 0).shape == (len(null_2k),)

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
            single = _single_draw(null_2k.cast, null_2k.leader, model, "result", 21, 2, i)
            assert single == batch[i], i


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


def _boundary_uniforms(ref, data):
    """One u per station, drawn at 0, just below 1, the left tail, row
    entries (the last one included), their float neighbours, or anywhere."""
    us = []
    for i in range(ref["lo"].size):
        row = _ref_row(ref, i)
        tail = float(ref["left_tail"][i])
        candidates = [0.0, _LAST_UNIFORM, tail, np.nextafter(tail, 0.0),
                      float(row[-1]), float(row[data.draw(st.integers(0, row.size - 1))])]
        u = data.draw(st.one_of(st.sampled_from(candidates), st.floats(0.0, 1.0)))
        u = data.draw(st.sampled_from([u, float(np.nextafter(u, 0.0)),
                                       float(np.nextafter(u, 1.0))]))
        us.append(min(max(u, 0.0), _LAST_UNIFORM))
    return np.array(us, dtype=np.float64)


def _assert_lookup_matches_binary_search(table, data):
    ref = _reference(table.n, table.p)
    u = _boundary_uniforms(ref, data)
    assert np.array_equal(table.lookup(u), _binary_search_lookup(ref, u))
    # every station again at entries spread over its whole window row,
    # where the guess can start on either side of the answer and the
    # answer on either side of the band; rows depend only on (n, p), so a
    # table of copies of the station holds the same row
    for i in range(table.lo.size):
        row = _ref_row(ref, i)
        picks = row[np.unique(np.linspace(0, row.size - 1, min(row.size, 24)).astype(int))]
        u = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, 1.0)])
        u = np.clip(u, 0.0, _LAST_UNIFORM)
        copies = _build_table(np.full(u.size, table.n[i]), np.full(u.size, table.p[i]))
        assert np.array_equal(copies.lookup(u), _binary_search_lookup(ref, u, np.full(u.size, i)))


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
    for table in (sampler._table, sampler._rem_table):
        _assert_lookup_matches_binary_search(table, data)


def test_build_scratch_memory_is_bounded_by_cells():
    # one aggregate station about 300 times wider than the rest must not
    # make the scratch arrays grow with the station count
    rng = np.random.default_rng(5)
    den = np.append(rng.integers(500, 3001, size=2000), 10**6)
    p = np.full(den.size, 0.6)
    tracemalloc.start()
    try:
        table = _build_table(den, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.cdf.nbytes + 16 * 2**20


# what a build may hold per station beyond its finished table and its
# chunk scratch (about 58 bytes measured on generate stations)
_BUILD_BYTES_PER_STATION = 80


def test_build_holds_little_beyond_the_finished_table():
    # each per-station temporary is dropped once consumed and a row's
    # float64 terms are computed with its chunk's, so the build's peak
    # is the table, a few int64 arrays in sorted order and its scratch
    from pollheap.synth import GeneratorConfig, generate

    num, den = generate(GeneratorConfig(50_000), 1).dataset.metric("turnout")
    p = sampling._empirical_p(den, num)
    _build_table(den[:1], p[:1])  # so that first-call set-up is not traced
    tracemalloc.start()
    try:
        table = _build_table(den, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # n and p are the caller's arrays
    own = sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table)
              if f.name not in ("n", "p"))
    scratch = 2 * sampling._BUILD_CELLS * np.dtype(np.float64).itemsize
    assert peak < own + _BUILD_BYTES_PER_STATION * den.size + scratch


def test_table_fields_are_narrow():
    # 52 bytes per station with n and p: band bounds fit int32 as counts
    # are at most MAX_COUNT, and a start only sets how far a walk goes
    table = _build_table(np.array([0, 10, 2000, 10**6]), np.array([0.5, 1.0, 0.3, 0.6]))
    for name in ("lo", "last"):
        assert getattr(table, name).dtype == np.int32, name
    for name in ("shift", "sig", "skew"):
        assert getattr(table, name).dtype == np.float32, name
    assert table.starts.dtype == np.int64 and table.left_tail.dtype == np.float64
    per_station = sum(getattr(table, f.name).itemsize for f in dataclasses.fields(table)
                      if f.name != "cdf")
    assert per_station == 52


def test_draws_at_max_count_stay_int64():
    # int32 band bounds do not narrow a draw: 100 times a count of up to
    # MAX_COUNT, as the scorer takes it, passes int32 but fits int64
    den = np.full(3, MAX_COUNT, dtype=np.int64)
    num = np.array([MAX_COUNT // 2, MAX_COUNT - 1, MAX_COUNT])
    sampler = make_sampler(den, num, "binomial", "turnout")
    assert sampler._table.lo.dtype == np.int32
    u = np.array([[0.5], [1.0 - 2.0**-20], [0.25]])
    got = sampler.draw_from_uniforms(u)
    assert got.dtype == np.int64
    assert got[2] == MAX_COUNT
    want = binom_quantile(u[:, 0], den, sampling._empirical_p(den, num))
    assert np.array_equal(got, want)
    assert (100 * got).tolist() == [100 * int(k) for k in want]


_station = st.one_of(
    st.tuples(st.just(0), st.floats(0.0, 1.0)),  # den = 0
    st.tuples(st.integers(1, 3000), st.sampled_from([0.0, 1.0])),
    st.tuples(st.integers(1, 3000), _p_values),
    st.tuples(st.integers(10**5, 10**6), _p_values),  # wide rows
)


_PER_STATION = ("lo", "last", "left_tail", "shift", "sig", "skew")


def _table_names(model):
    return ("_table",) if model == "binomial" else ("_table", "_rem_table")


def _stations_to_counts(stations):
    den = np.array([d for d, _ in stations], dtype=np.int64)
    num = np.array([min(int(f * d), d) for d, f in stations], dtype=np.int64)
    return den, num


def _fixed_point(entries):
    """CDF entries as a banded table stores them: floor(F * 2^16) in uint16."""
    return np.minimum(np.floor(entries * 2.0**16), 2.0**16 - 1).astype(np.uint16)


def _assert_band_is_a_slice(banded, ref):
    """Each stored row is its oracle row's band in fixed point, its tail
    is the oracle's float64 entry before, and the rows tile cdf."""
    assert banded.cdf.dtype == np.uint16
    assert np.all(banded.lo >= ref["lo"])
    assert np.all(banded.lo + banded.last < ref["lo"] + np.diff(ref["offsets"]))
    for i in range(banded.lo.size):
        first = int(banded.lo[i] - ref["lo"][i])
        row = _ref_row(ref, i)
        want = _fixed_point(row[first:first + banded.last[i] + 1])
        assert _row(banded, i).tobytes() == want.tobytes(), i
        tail = row[first - 1] if first else ref["left_tail"][i]
        assert banded.left_tail[i:i + 1].tobytes() == np.float64(tail).tobytes(), i
    first = np.sort(banded.starts)
    widths = (banded.last + 1)[np.argsort(banded.starts)]
    assert first[0] == 0 and banded.cdf.size == widths.sum()
    assert np.array_equal(first[1:], first[:-1] + widths[:-1])


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(_station, min_size=1, max_size=12),
    cells=st.sampled_from([1, 100, 5000, sampling._BUILD_CELLS]),
    model=st.sampled_from(["binomial", "clustered:3", "clustered:7"]),
)
def test_build_table_is_chunk_invariant_property(stations, cells, model):
    # every build operation is row-independent, so how stations fall
    # into chunks cannot change a byte of any station's band or constants
    den, num = _stations_to_counts(stations)
    singles = [make_sampler(den[i:i + 1], num[i:i + 1], model, "turnout")
               for i in range(den.size)]
    with mock.patch.object(sampling, "_BUILD_CELLS", cells):
        batch = make_sampler(den, num, model, "turnout")
    for name in _table_names(model):
        got = getattr(batch, name)
        _assert_band_is_a_slice(got, _reference(got.n, got.p))
        for i, single in enumerate(singles):
            want = getattr(single, name)
            assert _row(got, i).tobytes() == want.cdf.tobytes(), (name, i)
            for field in _PER_STATION:
                assert getattr(got, field)[i:i + 1].tobytes() == getattr(want, field).tobytes(), (
                    name, field, i)


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(_station, min_size=1, max_size=12),
    cells=st.sampled_from([1, 100, 5000, sampling._BUILD_CELLS]),
    model=st.sampled_from(["binomial", "clustered:3", "clustered:7"]),
)
def test_build_table_matches_station_order_oracle_property(stations, cells, model):
    # the width-ordered build must give every station the band of the
    # row the station-ordered build gives it, and its rows must tile cdf
    den, num = _stations_to_counts(stations)
    with mock.patch.object(sampling, "_BUILD_CELLS", cells):
        sampler = make_sampler(den, num, model, "turnout")
    p = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    c = 1 if model == "binomial" else NullModel.parse(model).cluster_size
    parts = {"_table": den // c, "_rem_table": den % c}
    for name in _table_names(model):
        _assert_band_is_a_slice(getattr(sampler, name), _reference(parts[name], p))


def _band_uniforms(banded, ref, data):
    """One u per station at the edges of its band and of its window:
    stored entries, the band's tail and just below it, the band's last
    entry (answers past the band), the window's tail and below it, and
    the edges of a band entry's fixed-point cell (keys that tie)."""
    us = []
    for i in range(ref["lo"].size):
        row = _ref_row(ref, i)
        first = int(banded.lo[i] - ref["lo"][i])
        end = first + int(banded.last[i]) + 1
        band_tail = float(banded.left_tail[i])
        window_tail = float(ref["left_tail"][i])
        entry = float(row[data.draw(st.integers(first, end - 1))])
        q = np.floor(entry * 2.0**16)
        candidates = [0.0, _LAST_UNIFORM, band_tail, np.nextafter(band_tail, 0.0),
                      window_tail, np.nextafter(window_tail, 0.0),
                      entry, q / 2.0**16, np.nextafter((q + 1.0) / 2.0**16, 0.0),
                      float(row[end - 1]),
                      float(row[data.draw(st.integers(0, row.size - 1))]), float(row[-1])]
        u = data.draw(st.one_of(st.sampled_from(candidates), st.floats(0.0, 1.0)))
        u = data.draw(st.sampled_from([u, float(np.nextafter(u, 0.0)),
                                       float(np.nextafter(u, 1.0))]))
        us.append(min(max(u, 0.0), _LAST_UNIFORM))
    return np.array(us, dtype=np.float64)


@settings(max_examples=40, deadline=None)
@hgiven(
    dens=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    ps=st.lists(_p_values, min_size=6, max_size=6),
    data=st.data(),
)
def test_lookup_answer_does_not_depend_on_its_start_property(dens, ps, data):
    # stored constants that start every station at its band's first
    # entry, then at its last, change how far the walk goes, not where
    # it ends: a row never decreases; nor whether the walk from there
    # leaves the band or stops on a tie
    den, p = np.array(dens, dtype=np.int64), np.array(ps[: len(dens)])
    table = _build_table(den, p)
    ref = _reference(den, p)
    u = _band_uniforms(table, ref, data)
    want = _binary_search_lookup(ref, u)
    still = np.zeros(table.lo.size)
    for shift in (still, table.last.astype(np.float64)):
        pinned = dataclasses.replace(table, shift=shift, sig=still, skew=still)
        assert np.array_equal(pinned.lookup(u), want)


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(_station, min_size=1, max_size=8),
    cells=st.sampled_from([1, 100, sampling._BUILD_CELLS]),
    model=st.sampled_from(["binomial", "clustered:3", "clustered:7"]),
    data=st.data(),
)
def test_banded_lookup_matches_full_window_lookup_property(stations, cells, model, data):
    # a draw inside the band reads the full row's own entries; one tied
    # or outside it is settled on the full row, re-run in chunks of any
    # size, so every draw is the one the oracle's float64 rows give
    den, num = _stations_to_counts(stations)
    sampler = make_sampler(den, num, model, "turnout")
    refs = {}
    for name in _table_names(model):
        table = getattr(sampler, name)
        refs[name] = ref = _reference(table.n, table.p)
        _assert_band_is_a_slice(table, ref)
        u = _band_uniforms(table, ref, data)
        with mock.patch.object(sampling, "_BUILD_CELLS", cells):
            assert np.array_equal(table.lookup(u), _binary_search_lookup(ref, u)), name
    # one uniform column per table, as the sampler hands them out
    u = np.stack([_band_uniforms(getattr(sampler, n), refs[n], data)
                  for n in _table_names(model)], axis=1)
    want = _binary_search_lookup(refs["_table"], u[:, 0])
    if model != "binomial":
        c = NullModel.parse(model).cluster_size
        want = c * want + _binary_search_lookup(refs["_rem_table"], u[:, 1])
    assert np.array_equal(sampler.draw_from_uniforms(u), want)


def _spy_on_settle(calls):
    """Patch _QuantileTable._settle to record the stations of each call
    in calls."""
    settle = sampling._QuantileTable._settle

    def spy(self, t, u, cols):
        calls.append(t.tolist())
        return settle(self, t, u, cols)

    return mock.patch.object(sampling._QuantileTable, "_settle", spy)


def _no_build_table():
    """Patch _build_table to fail the test if a lookup calls it."""
    return mock.patch.object(sampling, "_build_table",
                             side_effect=AssertionError("lookup built a table"))


def test_band_strays_are_settled_without_a_rebuild():
    # a 0-sigma band keeps at most 12 entries of a row hundreds wide, so
    # most draws leave it; each lookup settles them on their full rows in
    # one call, and builds no table
    rng = np.random.default_rng(11)
    den = rng.integers(2000, 200_000, size=300)
    num = rng.binomial(den, 0.55)
    u = iteration_uniforms(4, 0, "turnout", den.size, 1)
    want = _binary_search_lookup(_reference(den, sampling._empirical_p(den, num)), u[:, 0])
    with mock.patch.object(sampling, "_BAND_SIGMAS", 0.0):
        sampler = make_sampler(den, num, "binomial", "turnout")
    assert sampler._table.cdf.size <= 12 * den.size
    settled = []
    with _no_build_table(), _spy_on_settle(settled):
        got = sampler.draw_from_uniforms(u)
    assert np.array_equal(got, want)
    assert len(settled) == 1 and den.size // 2 < len(settled[0]) <= den.size


def test_a_key_tied_with_the_entry_below_is_settled_on_the_row_kernel():
    # station 0's u on the lower edge of entry j's fixed-point cell lies
    # below F(j), so the answer is j, but its key equals entry j's stored
    # value and the fixed-point walk stops one past it; stations 1 and 2
    # have u inside a run of equal stored entries at the start of their
    # bands, so the walk stops past the run. Each tie is settled on its
    # row, re-run from its window's start: no table is built
    den = np.array([3000, 5000, 800], dtype=np.int64)
    num = np.array([1500, 2750, 120], dtype=np.int64)
    sampler = make_sampler(den, num, "binomial", "turnout")
    table = sampler._table
    ref = _reference(den, table.p)
    first = table.lo - ref["lo"]
    j = int(table.last[0]) // 2
    stored = table.cdf[table.starts[0] + j]
    u = np.empty((den.size, 1))
    u[0, 0] = float(stored) / 2.0**16
    assert u[0, 0] < _ref_row(ref, 0)[first[0] + j]
    assert table.cdf[table.starts[0] + j + 1] > stored
    for i in (1, 2):
        entries = _ref_row(ref, i)[first[i]:first[i] + 4]
        u[i, 0] = (entries[2] + entries[3]) / 2
        assert np.all(_row(table, i)[:5] == int(u[i, 0] * 2.0**16)), i
    ties = []
    with _no_build_table(), _spy_on_settle(ties):
        got = sampler.draw_from_uniforms(u)
        # started at its row's first entry the walk goes up to the tie,
        # started at its last it comes down to it
        still = np.zeros(den.size)
        for shift in (still, table.last.astype(np.float64)):
            pinned = dataclasses.replace(table, shift=shift, sig=still, skew=still)
            assert np.array_equal(pinned.lookup(u[:, 0]), got)
    assert ties == [[0, 1, 2]] * 3
    assert got[0] == table.lo[0] + j
    assert np.array_equal(got[1:], table.lo[1:] + 3)
    assert np.array_equal(got, _binary_search_lookup(ref, u[:, 0]))


_extreme_p = st.one_of(_p_values, st.floats(1e-7, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-7))


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(
        st.tuples(st.one_of(st.integers(1, 3000), st.integers(10**6, 10**7)), _extreme_p),
        min_size=1, max_size=6,
    ),
)
def test_settled_draws_read_the_full_rows_entries_property(stations):
    # the settlement's only source of float64 entries is the row kernel
    # re-run from the window's start. At u on a row entry and on the float
    # below it, the first entry above u moves by a column wherever that
    # entry's bytes differ from the oracle's. Band entries are settled as
    # ties (rows through the band's end), the others as strays (rows
    # through the window's end)
    den = np.array([d for d, _ in stations], dtype=np.int64)
    p = np.array([q for _, q in stations])
    table = _build_table(den, p)
    ref = _reference(den, p)
    for i in np.flatnonzero((p > 0.0) & (p < 1.0)):
        row = _ref_row(ref, i)
        first, last = int(table.lo[i] - ref["lo"][i]), int(table.last[i])
        spread = [np.linspace(first, first + last, 8), np.linspace(0, row.size - 1, 8)]
        picks = row[np.unique(np.concatenate(spread).astype(int))]
        u = np.clip(np.concatenate([picks, np.nextafter(picks, 0.0)]), 0.0, _LAST_UNIFORM)
        tie = (u >= table.left_tail[i]) & (u < row[first + last])
        same = np.full(u.size, i)
        got = table._settle(same, u, np.where(tie, last, last + 1))
        assert np.array_equal(got, _binary_search_lookup(ref, u, same)), (den[i], p[i])


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(
        st.tuples(st.one_of(st.integers(1, 3000), st.integers(10**5, 10**6)),
                  _extreme_p.filter(lambda q: 0.0 < q < 1.0)),
        min_size=1, max_size=8,
    ),
    cells=st.sampled_from([1, 100, 5000, sampling._BUILD_CELLS]),
)
def test_rows_yield_whole_rows_and_window_tails_property(stations, cells):
    # the row source hands out finished CDFs: each station's row is its
    # whole window's CDF, tail included, and its tail is F(lo - 1), both
    # byte for byte the station-order oracle's, however it is chunked
    den = np.array([d for d, _ in stations], dtype=np.int64)
    p = np.array([q for _, q in stations])
    ref = _reference(den, p)
    width = np.diff(ref["offsets"])
    order = np.argsort(width, kind="stable")
    seen = np.zeros(den.size, dtype=bool)
    with mock.patch.object(sampling, "_BUILD_CELLS", cells):
        for s, e, tail, rows, _ in sampling._rows(den[order], ref["lo"][order], p[order],
                                                  width[order]):
            for j, i in enumerate(order[s:e]):
                assert rows[j, :width[i]].tobytes() == _ref_row(ref, i).tobytes(), i
                assert tail[j:j + 1].tobytes() == ref["left_tail"][i:i + 1].tobytes(), i
                seen[i] = True
    assert seen.all()


def test_every_cdf_value_of_a_build_or_a_settlement_comes_from_the_row_source():
    # neither a build nor a settlement computes a row's anchor pmf or a
    # window tail of its own: every _binom_pmf and _lower_tail call they
    # make is made in _rows, and none reaches the direct _binom_cdf
    callers = []

    def spy(name):
        real = getattr(sampling, name)

        def call(*args):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        return mock.patch.object(sampling, name, call)

    den = np.array([3000, 5000, 10**6, 800, 0], dtype=np.int64)
    p = np.array([0.5, 0.55, 0.3, 0.15, 0.5])
    t = np.arange(4)
    u = np.full(t.size, 0.5)
    with spy("_binom_pmf"), spy("_lower_tail"), spy("_binom_cdf"):
        table = _build_table(den, p)
        built = len(callers)
        # walks past the band: rows through the window's end, no fallback
        got = table._settle(t, u, table.last[t] + 1)
    assert 0 < built < len(callers)
    assert set(callers) == {("_binom_pmf", "_rows"), ("_lower_tail", "_rows")}
    assert np.array_equal(got, _binary_search_lookup(_reference(den[t], p[t]), u))


def _exact_anchor_and_tail(n, lo, p):
    """Binom(n, p) pmf at lo and F(lo - 1), for the float64 p = a / 2^e,
    correctly rounded: term k is C(n, k) a^k (2^e - a)^(n - k) over 2^(e
    n), each term below lo from the one above by exact integer division.
    Term k - 1 is at most r = lo b / ((n - lo + 1) a) < 1 times term k,
    so the sum stops once the terms left, at most term r / (1 - r), are
    below 2^-80 of it."""
    a, scale = Fraction(p).as_integer_ratio()
    b = scale - a
    term = comb(n, lo) * a**lo * b**(n - lo)
    anchor, total = term, 0
    r_num, r_den = lo * b, (n - lo + 1) * a
    for k in range(lo, 0, -1):
        term = term * k * b // ((n - k + 1) * a)
        total += term
        if (term * r_num) << 80 <= total * (r_den - r_num):
            break
    return anchor / scale**n, total / scale**n


def test_row_anchor_and_window_tail_match_exact_binomial_sums():
    # each row's anchor pmf and window tail, against exact integer sums:
    # within 1e-12 relative at window starts up to n = 10^4, lo = 0 and
    # 1 and p near 0 and 1 among them, and at every outcome below 20,
    # where the stirlerr table, correctly rounded, stands in for its series
    assert sampling._STIRLERR.tolist() == list(oracles._stirlerr_table())
    rng = np.random.default_rng(32)
    n = np.concatenate([[80, 10**4, 10**4, 10**4, 10**4, 9, 400], rng.integers(10, 10**4, 9)])
    p = np.concatenate([[0.5, 1e-4, 1e-7, 1.0 - 2.0**-20, 0.999, 0.3, 0.05],
                        rng.uniform(0.0, 1.0, 9)])
    lo = sampling._window(n, p)[2]
    assert {0, 1} <= set(lo.tolist())
    small = [(m, k, q) for m in (1, 7, 15, 16, 19) for k in range(m) for q in (0.2, 0.7)]
    nn = np.concatenate([n, [m for m, _, _ in small]]).astype(np.float64)
    kk = np.concatenate([lo, [k for _, k, _ in small]]).astype(np.float64)
    pp = np.concatenate([p, [q for _, _, q in small]])
    anchors = sampling._binom_pmf(nn, kk, pp)
    order = np.argsort(n, kind="stable")
    tails = np.empty(n.size)
    for s, e, tail, _, _ in sampling._rows(n[order], lo[order], p[order], np.ones(n.size, int)):
        tails[order[s:e]] = tail
    for i in range(nn.size):
        m, k = int(nn[i]), int(kk[i])
        anchor, tail = _exact_anchor_and_tail(m, k, float(pp[i]))
        assert abs(anchors[i] / anchor - 1.0) <= 1e-12, (m, k, pp[i])
        if i < n.size:
            assert tails[i] == tail == 0.0 if k == 0 else abs(tails[i] / tail - 1.0) <= 1e-12, (
                m, k, pp[i])


def _copies(table, count):
    """A table whose count stations all read the first station's row."""
    per_station = {f.name: np.repeat(getattr(table, f.name)[:1], count)
                   for f in dataclasses.fields(table) if f.name != "cdf"}
    return dataclasses.replace(table, **per_station)


def test_keys_of_the_top_fixed_point_cell_are_settled_without_a_rebuild():
    # this station's band ends in entries stored as 2^16 - 1, the key of
    # every u >= 1 - 2^-16, so those walks pass the band; the answers,
    # most of them inside it, are the oracle's, and no table is built
    n, p, copies = 800, 0.3, 400
    table = _copies(_build_table(np.array([n]), np.array([p])), copies)
    assert _row(table, 0)[-2:].tolist() == [sampling._FIXED_MAX] * 2
    u = np.linspace(1.0 - 2.0**-16, 1.0 - 2.0**-53, copies)
    assert np.all((u * 2.0**16).astype(np.int64) == sampling._FIXED_MAX)
    want = _binary_search_lookup(_reference([n], [p]), u, np.zeros(copies, dtype=np.int64))
    with _no_build_table():
        got = table.lookup(u)
    assert np.array_equal(got, want)
    assert np.mean(got <= table.lo[0] + table.last[0]) > 0.5


def test_a_lookup_starts_from_the_key_table_without_ndtri():
    # once the key table exists a lookup evaluates no ndtri; draws whose
    # key is the first or the last (u below 2^-16 or at least 1 - 2^-16)
    # start at the table's ends and still give the oracle's answers
    import scipy.special

    rng = np.random.default_rng(26)
    den = rng.integers(0, 200_000, size=200)
    p = rng.choice([0.0, 1.0, 1e-4, 0.5, 0.97, 1.0 - 1e-4], size=den.size)
    table = _build_table(den, p)
    ref = _reference(den, p)
    keys = sampling._key_quantiles()
    assert keys.size == 2**16 and keys.nbytes == 512 * 1024
    # AS241 in numpy gives scipy's quantiles to within a few ulps
    assert np.abs(keys - scipy.special.ndtri((np.arange(2**16) + 0.5) / 2**16)).max() < 1e-14
    edge = rng.uniform(0.0, 2.0**-16, size=den.size)
    with mock.patch.object(scipy.special, "ndtri", side_effect=AssertionError("ndtri")):
        for u in (edge, np.minimum(1.0 - edge, _LAST_UNIFORM), rng.uniform(size=den.size)):
            assert np.array_equal(table.lookup(u), _binary_search_lookup(ref, u))


def _assert_follows_pmf(draws, pmf, label):
    """Chi-square bound on draws against pmf over outcomes 0..n: every
    draw on an outcome of positive mass, and the outcomes with at least
    5 expected draws, each tail pooled into its edge."""
    from scipy.stats import chi2

    support = np.flatnonzero(pmf > 0.0)
    assert np.isin(draws, support).all(), label
    draws, pmf = np.searchsorted(support, draws), pmf[support]
    keep = np.flatnonzero(pmf * draws.size >= 5)
    lo, hi = int(keep[0]), int(keep[-1])
    observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
    expected = draws.size * pmf[lo:hi + 1]
    expected[0] += draws.size * pmf[:lo].sum()
    expected[-1] += draws.size * pmf[hi + 1:].sum()
    stat = np.sum((observed - expected) ** 2 / expected)
    assert stat < chi2.isf(1e-6, expected.size - 1), (label, stat)


def test_table_draws_follow_the_binomial_pmf_station_by_station():
    # many copies of one station in one lookup, including the keys that
    # tie with a 16-bit entry and are settled on the row kernel: the
    # counts must pass a chi-square bound against the exact pmf
    from scipy.stats import binom

    copies = 200_000
    rng = np.random.default_rng(24)
    for n, p in zip(rng.integers(20_000, 200_000, size=3), rng.uniform(0.05, 0.95, size=3)):
        table = _copies(_build_table(np.array([n]), np.array([p])), copies)
        ties = []
        with _spy_on_settle(ties):
            draws = table.lookup(iteration_uniforms(int(n), 0, "turnout", copies, 1)[:, 0])
        assert sum(map(len, ties)) > copies // 1000, (n, p)
        _assert_follows_pmf(draws, binom.pmf(np.arange(n + 1), n, p), (n, p))


def test_clustered_draws_follow_their_pmf_station_by_station():
    # c * K + R from the quotient and the remainder table, each station
    # copied into one lookup; the remainder must read its own uniform,
    # or K and R move together and the lattice's pmf is lost
    from scipy.stats import binom

    copies, c = 100_000, 3
    rng = np.random.default_rng(26)
    for quot, rem in zip(rng.integers(300, 3000, size=2), (1, 2)):
        n = c * int(quot) + rem
        k = int(rng.integers(n // 10, n - n // 10))
        sampler = make_sampler(np.array([n]), np.array([k]), f"clustered:{c}", "turnout")
        copied = dataclasses.replace(
            sampler, den=np.full(copies, n), num=np.full(copies, k),
            _table=_copies(sampler._table, copies), _rem_table=_copies(sampler._rem_table, copies),
        )
        draws = copied.draw(n, 0)
        pmf = np.zeros(n + 1)
        for r, mass in enumerate(binom.pmf(np.arange(rem + 1), rem, k / n)):
            pmf[r::c][: quot + 1] += mass * binom.pmf(np.arange(quot + 1), quot, k / n)
        _assert_follows_pmf(draws, pmf, (n, k))


def test_beta_binomial_draws_follow_their_pmf_station_by_station():
    # p ~ Beta(k + 1, n - k + 1), then Binom(n, p), for copies of one
    # station; small n, so a shifted Beta parameter moves the pmf by
    # a visible fraction of its spread
    from scipy.stats import betabinom

    copies = 40_000
    rng = np.random.default_rng(27)
    for n in rng.integers(20, 200, size=2):
        k = int(rng.integers(0, n + 1))
        sampler = _repeat_sampler(int(n), k, "beta-binomial", copies)
        draws = sampler.draw(int(n), 0)
        _assert_follows_pmf(draws, betabinom.pmf(np.arange(n + 1), n, k + 1, n - k + 1), (n, k))


def test_beta_binomial_draws_in_blocks_equal_the_whole_array_draw(null_2k):
    # 200 stations in blocks of 64: four blocks, the last of 8 stations
    den, num = null_2k.registered[:200], null_2k.given[:200]
    model = NullModel("beta_binomial")
    edges = (0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 193, 198, 199)
    sizes = []

    def spy(u, n, p):
        sizes.append(np.size(u))
        return binom_quantile(u, n, p)

    with mock.patch.object(sampling, "_DRAW_BLOCK", 64):
        batch = make_sampler(den, num, model, "turnout").draw(master_seed=9, iteration_index=2)
        singles = [_single_draw(den, num, model, "turnout", 9, 2, i) for i in edges]
        with mock.patch.object(sampling, "binom_quantile", spy):
            make_sampler(den, num, model, "turnout").draw(master_seed=9, iteration_index=2)
    assert sizes == [64, 64, 64, 8]
    assert singles == batch[list(edges)].tolist()

    from scipy.special import betaincinv

    u = iteration_uniforms(9, 2, "turnout", den.size, 2)
    p = betaincinv(num + 1.0, den - num + 1.0, u[:, 0])
    assert np.array_equal(batch, oracles.binom_quantile_walk(u[:, 1], den, p))


@pytest.mark.parametrize("model", ["binomial", "beta-binomial", "clustered:3"])
@pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, np.nan])
def test_draw_refuses_a_uniform_outside_the_unit_interval(model, bad):
    # a table's 16-bit key wraps to 0 at u = 1.0 and indexes outside the
    # table beyond it, and NaN compares false with everything
    sampler = make_sampler(np.array([1000, 2000]), np.array([600, 500]), model, "turnout")
    u = np.full((2, sampler.model.words_per_station), 0.5)
    u[1, :] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sampler.draw_from_uniforms(u)


@pytest.fixture(scope="module")
def null_5k():
    from pollheap.synth import GeneratorConfig, generate

    return generate(GeneratorConfig(n_stations=5000), seed=12).dataset


def test_tables_store_at_most_three_fifths_of_the_window(null_5k):
    ds = null_5k
    for metric in ("turnout", "result"):
        num, den = ds.metric(metric)
        table = make_sampler(den, num, "binomial", metric)._table
        projected = sampling._projected_entries(den, sampling._empirical_p(den, num))
        assert table.cdf.size <= 0.6 * projected, metric


@pytest.mark.parametrize("model", ["binomial", "clustered:4"])
def test_table_or_direct_counts_the_full_window(model, null_5k):
    # the cap compares the projected window, not the stored band: a
    # sampler at the cap keeps its tables, one entry past it inverts per draw
    num, den = null_5k.metric("turnout")
    c = NullModel.parse(model).cluster_size
    projected = sampling._projected_entries(den // c, sampling._empirical_p(den, num))
    for cap, direct in ((projected, False), (projected - 1, True)):
        with mock.patch.object(sampling, "_MAX_TABLE_ENTRIES", cap):
            sampler = make_sampler(den, num, model, "turnout")
        assert (sampler._table is None) is direct, cap


def test_a_draw_past_its_window_goes_to_the_direct_quantile():
    # station 0's u is its window's last float64 entry, so no entry of
    # its row lies above it; its row is settled in one chunk with the
    # wider row of station 1, whose padding continues station 0's row
    # past its window, but only binom_quantile may answer it. Station
    # 1's u lies past its band and below its window's last entry
    den = np.array([10**6, 4 * 10**6], dtype=np.int64)
    p = np.array([0.5, 0.5])
    table = _build_table(den, p)
    ref = _reference(den, p)
    u = np.array([_ref_row(ref, 0)[-1], _ref_row(ref, 1)[-2]])
    assert u[0] < _LAST_UNIFORM and u[1] < _ref_row(ref, 1)[-1]
    asked = []

    def spy(u, n, p):
        asked.append(np.asarray(n).tolist())
        return binom_quantile(u, n, p)

    with mock.patch.object(sampling, "binom_quantile", spy):
        got = table.lookup(u)
    assert asked == [[10**6]]
    assert np.array_equal(got, _binary_search_lookup(ref, u))
