"""Null-model samplers: exactness, determinism, counter discipline."""

import dataclasses
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap import sampling
from pollheap.model import METRIC_CODES
from pollheap.sampling import (
    _TAIL_SIGMAS,
    _build_table,
    NullModel,
    binom_quantile,
    iteration_uniforms,
    make_sampler,
)

import oracles


def _row(table, i):
    """Station i's CDF row in a _QuantileTable."""
    return table.cdf[table.starts[i]:table.starts[i] + table.last[i] + 1]


def _binary_search_lookup(table, u):
    """Reference for _QuantileTable.lookup: a fixed-step binary search.

    Finds each row's first entry with cdf > u; strays (no entry above u,
    or u below the row's left tail) are settled by binom_quantile.
    """
    starts = table.starts
    ends = starts + table.last + 1
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


def _full_window():
    """Have make_sampler store every row's whole computed window.

    Band sigmas equal to the window's make _build_table the builder the
    stray rebuild uses, so the oracle properties below compare every
    entry of every full row.
    """
    return mock.patch.object(sampling, "_BAND_SIGMAS", sampling._TAIL_SIGMAS)


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

    @pytest.mark.parametrize("n, p", [(10**7, 0.5), (10**8, 0.3)])
    def test_large_n_matches_the_float64_row(self, n, p):
        # scipy's bdtr loses accuracy near the mean above n ~ 2e6 (2e-3
        # at 1e7, 0.12 at 1e8); the row is a running pmf sum, off by
        # at most 4e-7 here, so a draw may differ from it by one count
        table = _build_table(np.array([n]), np.array([p]), _TAIL_SIGMAS)
        u = np.arange(1, 1000) / 1000.0
        want = table.lo[0] + np.searchsorted(_row(table, 0), u, "right")
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


def _boundary_uniforms(table, data):
    """One u per station, drawn at 0, just below 1, the left tail, row
    entries (the last one included), their float neighbours, or anywhere."""
    us = []
    for i in range(table.lo.size):
        row = _row(table, i)
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
        row = _row(table, i)
        picks = row[np.unique(np.linspace(0, row.size - 1, min(row.size, 24)).astype(int))]
        u = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, 1.0)])
        u = np.clip(u, 0.0, _LAST_UNIFORM)
        copies = _build_table(np.full(u.size, table.n[i]), np.full(u.size, table.p[i]),
                              sampling._TAIL_SIGMAS)
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
    _assert_lookup_matches_binary_search(_build_table(den, p, sampling._TAIL_SIGMAS), data)


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
    with _full_window():
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


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(_station, min_size=1, max_size=12),
    cells=st.sampled_from([1, 100, 5000, sampling._BUILD_CELLS]),
    model=st.sampled_from(["binomial", "clustered:3", "clustered:7"]),
)
def test_build_table_is_chunk_invariant_property(stations, cells, model):
    # every build operation is row-independent, so how stations fall
    # into chunks cannot change a byte of any station's row or constants
    den, num = _stations_to_counts(stations)
    with _full_window():
        singles = [make_sampler(den[i:i + 1], num[i:i + 1], model, "turnout")
                   for i in range(den.size)]
        with mock.patch.object(sampling, "_BUILD_CELLS", cells):
            batch = make_sampler(den, num, model, "turnout")
    for name in _table_names(model):
        got = getattr(batch, name)
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
    # the width-ordered build must give every station the bytes the
    # station-ordered build gave it, and its rows must tile cdf exactly
    den, num = _stations_to_counts(stations)
    with _full_window(), mock.patch.object(sampling, "_BUILD_CELLS", cells):
        sampler = make_sampler(den, num, model, "turnout")
    p = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    c = 1 if model == "binomial" else NullModel.parse(model).cluster_size
    parts = {"_table": den // c, "_rem_table": den % c}
    for name in _table_names(model):
        got = getattr(sampler, name)
        want = oracles.station_order_table(parts[name], p)
        for i in range(den.size):
            row = want["cdf"][want["offsets"][i]:want["offsets"][i + 1]]
            assert _row(got, i).tobytes() == row.tobytes(), (name, i)
        assert got.lo.tobytes() == want["lo"].tobytes()
        assert got.left_tail.tobytes() == want["left_tail"].tobytes()
        first = np.sort(got.starts)
        widths = (got.last + 1)[np.argsort(got.starts)]
        assert first[0] == 0 and got.cdf.size == want["cdf"].size
        assert np.array_equal(first[1:], first[:-1] + widths[:-1])


@settings(max_examples=40, deadline=None)
@hgiven(
    dens=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    ps=st.lists(_p_values, min_size=6, max_size=6),
    data=st.data(),
)
def test_lookup_answer_does_not_depend_on_its_start_property(dens, ps, data):
    # stored constants that start every station at its row's first
    # entry, then at its last, change how far the walk goes, not where
    # it ends: a row never decreases; nor, for a banded table, whether
    # the walk from there leaves the band
    den, p = np.array(dens, dtype=np.int64), np.array(ps[: len(dens)])
    table = _build_table(den, p, sampling._TAIL_SIGMAS)
    u = _boundary_uniforms(table, data)
    want = _binary_search_lookup(table, u)
    still = np.zeros(table.lo.size)
    for built in (table, _build_table(den, p)):
        for shift in (still, built.last.astype(np.float64)):
            pinned = dataclasses.replace(built, shift=shift, sig=still, skew=still)
            assert np.array_equal(pinned.lookup(u), want)


def _fixed_point(entries):
    """CDF entries as a banded table stores them: floor(F * 2^16) in uint16."""
    return np.minimum(np.floor(entries * 2.0**16), 2.0**16 - 1).astype(np.uint16)


def _assert_band_is_a_slice(banded, full):
    """Each stored row is its full row's band in fixed point; its tail is
    the float64 entry before."""
    assert banded.cdf.dtype == np.uint16 and full.cdf.dtype == np.float64
    assert np.all(banded.lo >= full.lo)
    assert np.all(banded.lo + banded.last <= full.lo + full.last)
    for i in range(full.lo.size):
        first = int(banded.lo[i] - full.lo[i])
        row = _row(full, i)
        want = _fixed_point(row[first:first + banded.last[i] + 1])
        assert _row(banded, i).tobytes() == want.tobytes(), i
        tail = row[first - 1] if first else full.left_tail[i]
        assert banded.left_tail[i:i + 1].tobytes() == np.float64(tail).tobytes(), i
    first = np.sort(banded.starts)
    widths = (banded.last + 1)[np.argsort(banded.starts)]
    assert first[0] == 0 and banded.cdf.size == widths.sum()
    assert np.array_equal(first[1:], first[:-1] + widths[:-1])


def _band_uniforms(banded, full, data):
    """One u per station at the edges of its band and of its window:
    stored entries, the band's tail and just below it, the band's last
    entry (answers past the band), the window's tail and below it, and
    the edges of a band entry's fixed-point cell (keys that tie)."""
    us = []
    for i in range(full.lo.size):
        row = _row(full, i)
        first = int(banded.lo[i] - full.lo[i])
        end = first + int(banded.last[i]) + 1
        band_tail = float(banded.left_tail[i])
        window_tail = float(full.left_tail[i])
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
    stations=st.lists(_station, min_size=1, max_size=8),
    model=st.sampled_from(["binomial", "clustered:3", "clustered:7"]),
    data=st.data(),
)
def test_banded_lookup_matches_full_window_lookup_property(stations, model, data):
    # a draw inside the band reads the full row's own entries; one
    # outside it is finished on the rebuilt full row, so every draw keeps
    # its bytes
    den, num = _stations_to_counts(stations)
    banded = make_sampler(den, num, model, "turnout")
    with _full_window():
        full = make_sampler(den, num, model, "turnout")
    for name in _table_names(model):
        b, f = getattr(banded, name), getattr(full, name)
        _assert_band_is_a_slice(b, f)
        u = _band_uniforms(b, f, data)
        assert np.array_equal(b.lookup(u), f.lookup(u)), name
        assert np.array_equal(b.lookup(u), _binary_search_lookup(f, u)), name
    # one uniform column per table, as the sampler hands them out
    u = np.stack([_band_uniforms(getattr(banded, n), getattr(full, n), data)
                  for n in _table_names(model)], axis=1)
    assert np.array_equal(banded.draw_from_uniforms(u), full.draw_from_uniforms(u))


def test_band_strays_are_settled_on_the_rebuilt_full_row():
    # a 0-sigma band keeps at most 12 entries of a row hundreds wide, so most
    # draws leave it; each lookup rebuilds its strays in one full build
    rng = np.random.default_rng(11)
    den = rng.integers(2000, 200_000, size=300)
    num = rng.binomial(den, 0.55)
    u = iteration_uniforms(4, 0, "turnout", den.size, 1)
    with _full_window():
        want = make_sampler(den, num, "binomial", "turnout").draw_from_uniforms(u)
    build = sampling._build_table
    calls = []

    def spy(den, p, band_sigmas=None):
        calls.append((den.size, band_sigmas))
        return build(den, p, band_sigmas)

    with mock.patch.object(sampling, "_BAND_SIGMAS", 0.0):
        sampler = make_sampler(den, num, "binomial", "turnout")
        assert sampler._table.cdf.size <= 12 * den.size
        with mock.patch.object(sampling, "_build_table", spy):
            got = sampler.draw_from_uniforms(u)
    assert np.array_equal(got, want)
    assert len(calls) == 1 and calls[0][1] == sampling._TAIL_SIGMAS
    assert den.size // 2 < calls[0][0] <= den.size


def test_a_key_tied_with_the_entry_below_is_settled_from_the_stored_row_state():
    # station 0's u on the lower edge of entry j's fixed-point cell lies
    # below F(j), so the answer is j, but its key equals entry j's stored
    # value and the fixed-point walk stops one past it; stations 1 and 2
    # have u inside a run of equal stored entries at the start of their
    # bands, so the walk stops past the run. Each tie is settled on its
    # band's float64 entries, continued from the stored row state: no row
    # is rebuilt
    den = np.array([3000, 5000, 800], dtype=np.int64)
    num = np.array([1500, 2750, 120], dtype=np.int64)
    sampler = make_sampler(den, num, "binomial", "turnout")
    table = sampler._table
    with _full_window():
        full = make_sampler(den, num, "binomial", "turnout")
    first = table.lo - full._table.lo
    j = int(table.last[0]) // 2
    stored = table.cdf[table.starts[0] + j]
    u = np.empty((den.size, 1))
    u[0, 0] = float(stored) / 2.0**16
    assert u[0, 0] < _row(full._table, 0)[first[0] + j]
    assert table.cdf[table.starts[0] + j + 1] > stored
    for i in (1, 2):
        entries = _row(full._table, i)[first[i]:first[i] + 4]
        u[i, 0] = (entries[2] + entries[3]) / 2
        assert np.all(_row(table, i)[:5] == int(u[i, 0] * 2.0**16)), i
    build = sampling._build_table
    settle = sampling._QuantileTable._settle_ties
    calls, ties = [], []

    def spy(den, p, band_sigmas=None):
        calls.append(den.size)
        return build(den, p, band_sigmas)

    def tie_spy(self, t, u, cols):
        ties.append(t.tolist())
        return settle(self, t, u, cols)

    with mock.patch.object(sampling, "_build_table", spy), \
            mock.patch.object(sampling._QuantileTable, "_settle_ties", tie_spy):
        got = sampler.draw_from_uniforms(u)
        # started at its row's first entry the walk goes up to the tie,
        # started at its last it comes down to it
        still = np.zeros(den.size)
        for shift in (still, table.last.astype(np.float64)):
            pinned = dataclasses.replace(table, shift=shift, sig=still, skew=still)
            assert np.array_equal(pinned.lookup(u[:, 0]), got)
    assert calls == [] and ties == [[0, 1, 2]] * 3
    assert got[0] == table.lo[0] + j
    assert np.array_equal(got[1:], table.lo[1:] + 3)
    assert np.array_equal(got, full.draw_from_uniforms(u))


_extreme_p = st.one_of(_p_values, st.floats(1e-7, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-7))


@settings(max_examples=40, deadline=None)
@hgiven(
    stations=st.lists(
        st.tuples(st.one_of(st.integers(1, 3000), st.integers(10**6, 10**7)), _extreme_p),
        min_size=1, max_size=6,
    ),
)
def test_band_entries_continued_from_the_stored_state_are_the_full_rows_property(stations):
    # the tie path's only source of float64 entries: from each band's
    # stored (product, sum), every band entry must be its full-window
    # row's entry, bit for bit
    den = np.array([d for d, _ in stations], dtype=np.int64)
    p = np.array([q for _, q in stations])
    banded = _build_table(den, p)
    full = _build_table(den, p, _TAIL_SIGMAS)
    t = np.flatnonzero((p > 0.0) & (p < 1.0))
    if not t.size:
        return
    rows = banded.band_entries(t, int(banded.last[t].max()) + 1)
    for row, i in zip(rows, t):
        first, width = int(banded.lo[i] - full.lo[i]), int(banded.last[i]) + 1
        want = _row(full, i)[first:first + width]
        assert row[:width].tobytes() == want.tobytes(), (den[i], p[i])


def _copies(table, count):
    """A table whose count stations all read the first station's row."""
    per_station = {f.name: np.repeat(getattr(table, f.name)[:1], count)
                   for f in dataclasses.fields(table) if f.name not in ("cdf", "full")}
    return dataclasses.replace(table, **per_station)


def test_table_draws_follow_the_binomial_pmf_station_by_station():
    # many copies of one station in one lookup, including the keys that
    # tie with a 16-bit entry and are settled from the stored row state:
    # the counts must pass a chi-square bound against the exact pmf
    from scipy.stats import binom, chi2

    copies = 200_000
    rng = np.random.default_rng(24)
    settle = sampling._QuantileTable._settle_ties
    for n, p in zip(rng.integers(20_000, 200_000, size=3), rng.uniform(0.05, 0.95, size=3)):
        table = _copies(_build_table(np.array([n]), np.array([p])), copies)
        ties = []

        def tie_spy(self, t, u, cols):
            ties.append(t.size)
            return settle(self, t, u, cols)

        with mock.patch.object(sampling._QuantileTable, "_settle_ties", tie_spy):
            draws = table.lookup(iteration_uniforms(int(n), 0, "turnout", copies, 1)[:, 0])
        assert sum(ties) > copies // 1000, (n, p)
        # outcomes with at least 5 expected draws, each tail pooled into its edge
        pmf = binom.pmf(np.arange(n + 1), n, p)
        keep = np.flatnonzero(pmf * copies >= 5)
        lo, hi = int(keep[0]), int(keep[-1])
        observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
        expected = copies * pmf[lo:hi + 1]
        expected[0] += copies * pmf[:lo].sum()
        expected[-1] += copies * pmf[hi + 1:].sum()
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < chi2.isf(1e-6, expected.size - 1), (n, p, stat)


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
