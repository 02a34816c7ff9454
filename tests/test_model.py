"""Core data model: exact bounds, filtering, dataset ops."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import pollheap.histograms as histograms
import pollheap.sampling as sampling
import pollheap.synth as synth
from pollheap.anomaly import StatisticDef, WindowSpec, _Scorer
from pollheap.histograms import build_histogram
from pollheap.model import (
    MAX_COUNT,
    MAX_DENOMINATOR,
    METRIC_CODES,
    METRICS,
    SYNTH,
    ElectionDataset,
    FilterPolicy,
    apply_filters,
    as_fraction,
    stream,
)
from pollheap.regions import _candidate_cells, fingerprint

import oracles
from helpers import make_dataset, random_counts


class TestAsFraction:
    def test_string_decimal(self):
        assert as_fraction("0.05") == Fraction(1, 20)

    def test_float_roundtrip(self):
        # floats go through their decimal rendering, not their binary
        # expansion, so 0.1 means exactly 1/10
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_int_and_fraction_passthrough(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(Fraction(7, 2)) == Fraction(7, 2)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            as_fraction("half a percent")


class TestFilters:
    def _mixed(self):
        # station 0: fine; 1: too small; 2: turnout 100% (> 99 cap);
        # 3: zero cast so the result share is undefined
        return make_dataset(
            registered=[500, 50, 400, 300],
            given=[350, 40, 400, 200],
            cast=[345, 39, 395, 0],
            leader=[200, 20, 300, 0],
        )

    def test_default_policy_drops_expected_rows(self):
        ds = apply_filters(self._mixed())
        assert len(ds) == 1
        assert ds.registered[0] == 500

    def test_keep_undefined_result(self):
        policy = FilterPolicy(exclude_undefined_result=False)
        ds = apply_filters(self._mixed(), policy)
        assert len(ds) == 2

    def test_min_registered_override(self):
        policy = FilterPolicy(min_registered=10)
        ds = apply_filters(self._mixed(), policy)
        assert len(ds) == 2

    def test_idempotent(self):
        once = apply_filters(self._mixed())
        twice = apply_filters(once)
        assert len(once) == len(twice)
        assert np.array_equal(once.registered, twice.registered)

    def test_max_percentage_precision_is_bounded(self):
        # at this precision 100 * given * denominator wraps in int64, and
        # the filter dropped stations far below the cap as over_max_turnout
        with pytest.raises(ValueError, match="precision"):
            FilterPolicy(max_percentage=Fraction("98.99999999999999"))
        finest = FilterPolicy(max_percentage=Fraction(98_999_999, MAX_DENOMINATOR))
        assert finest.max_percentage.denominator == MAX_DENOMINATOR

    def test_cap_above_100_keeps_every_valid_station(self):
        # a numerator this large wrapped bn * registered in int64 and
        # dropped every station
        ds = make_dataset([1000, 2000], [700, 1500], [690, 1490], [300, 800])
        for cap in (Fraction(100), Fraction(10**17), Fraction(10**30 + 1, 3)):
            assert len(apply_filters(ds, FilterPolicy(max_percentage=cap))) == 2

    def test_max_percentage_is_inclusive_cap(self):
        # exactly 99% survives the 99 cap, anything above is dropped
        ds = make_dataset([200, 200], [198, 199], [198, 199], [100, 100])
        kept = apply_filters(ds, FilterPolicy(min_registered=1))
        assert len(kept) == 1
        assert kept.given[0] == 198


class TestElectionDataset:
    def test_arrays_are_readonly(self, null_2k):
        with pytest.raises(ValueError):
            null_2k.registered[0] = 7

    def test_take_preserves_rows(self, null_multiregion):
        idx = np.array([5, 2, 9])
        sub = null_multiregion.take(idx)
        assert len(sub) == 3
        assert np.array_equal(sub.given, null_multiregion.given[idx])
        assert list(sub.station_ids) == [null_multiregion.station_ids[i] for i in idx]

    def test_take_matches_the_station_by_station_subset(self, null_multiregion):
        ds = null_multiregion
        n = len(ds)
        rng = np.random.default_rng(17)
        one = np.zeros(n, dtype=bool)
        one[n // 2] = True
        cases = [rng.random(n) < share for share in (0.0, 0.01, 0.5, 0.97, 1.0)] + [
            one, np.array([], dtype=np.int64), np.array([n - 1]),
            rng.permutation(n)[:50], np.array([-1, 0, 5]), np.arange(0, n, 7),
        ]
        for indices in cases:
            sub = ds.take(indices, label="sub", extra_log={"x": "y"})
            idx = np.flatnonzero(indices) if indices.dtype == bool else indices
            assert sub.station_ids == tuple(ds.station_ids[i] for i in idx)
            assert sub.region_codes == tuple(ds.region_codes[i] for i in idx)
            assert sub.constituency_ids == tuple(ds.constituency_ids[i] for i in idx)
            for name in ("registered", "given", "cast", "leader"):
                assert np.array_equal(getattr(sub, name), getattr(ds, name)[idx])
                assert not getattr(sub, name).flags.writeable
            assert sub.label == "sub"
            assert sub.filter_log == dict(ds.filter_log, x="y")
        assert ds.take(one).label == ds.label

    def test_take_with_repeated_stations_raises(self, null_multiregion):
        n = len(null_multiregion)
        # the last case increases, yet -(n - 1) and 1 are the same station
        for idx in ([3, 3], [4, 2, 4], [-(n - 1), 1]):
            with pytest.raises(ValueError, match="not unique"):
                null_multiregion.take(np.array(idx))

    def test_metric_pairs_each_percentage_with_its_columns(self, null_2k):
        num, den = null_2k.metric("turnout")
        assert num is null_2k.given and den is null_2k.registered
        num, den = null_2k.metric("result")
        assert num is null_2k.leader and den is null_2k.cast
        with pytest.raises(ValueError, match="metric must be one of"):
            null_2k.metric("given")

    def test_metric_order_fixes_the_sampling_stream_tags(self):
        assert METRICS == ("turnout", "result")
        assert METRIC_CODES == {"turnout": 0, "result": 1}

    def test_region_partition_covers_everything(self, null_multiregion):
        codes, idx = null_multiregion.region_partition()
        assert len(idx) == len(null_multiregion)
        assert codes == sorted(set(null_multiregion.region_codes))
        for i in (0, len(null_multiregion) - 1):
            assert codes[idx[i]] == null_multiregion.region_codes[i]

    def test_from_arrays_synthesizes_ids(self):
        ds = make_dataset([100], [60], [59], [30])
        assert ds.station_ids[0].startswith("S")
        assert ds.region_codes[0] == "ALL"

    def test_inconsistent_rows_are_kept_until_filtered(self):
        # raw ingestion must not crash on a broken row; the filter is
        # where such stations get excluded, with a logged reason
        ds = make_dataset([100, 300], [60, 200], [61, 190], [30, 100])
        assert len(ds) == 2
        kept = apply_filters(ds)
        assert len(kept) == 1
        assert ds.station_ids[0] in kept.filter_log
        assert kept.filter_log[ds.station_ids[0]] == "invalid_counts"

    def test_counts_outside_range_are_rejected(self):
        # 4e16 registered at 75% turnout: 100 * given wrapped int64 and
        # the station fell in turnout bin 58 instead of 750
        with pytest.raises(ValueError, match="outside"):
            make_dataset([4 * 10**16], [3 * 10**16], [3 * 10**16], [10**16])
        for column in range(4):
            for bad in (-1, -5, MAX_COUNT + 1):
                counts = [[100], [60], [59], [30]]
                counts[column] = [bad]
                with pytest.raises(ValueError, match="outside"):
                    make_dataset(*counts)
        with pytest.raises(ValueError, match="outside"):
            make_dataset([-5], [0], [0], [0])
        ds = make_dataset([MAX_COUNT, 0], [MAX_COUNT, 0], [MAX_COUNT, 0], [MAX_COUNT, 0])
        assert len(ds) == 2

    def test_in_range_inconsistent_counts_are_accepted(self):
        # given > registered is in range; the filter drops it, logged
        ds = make_dataset([100, 300], [120, 200], [110, 190], [50, 100])
        assert len(ds) == 2
        assert apply_filters(ds).filter_log[ds.station_ids[0]] == "invalid_counts"


@settings(max_examples=30, deadline=None)
@hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_filter_idempotence_property(seed, n):
    rng = np.random.default_rng(seed)
    v, g, b, l = random_counts(rng, n)
    ds = make_dataset(v, g, b, l)
    once = apply_filters(ds)
    twice = apply_filters(once)
    assert np.array_equal(once.given, twice.given)
    assert np.array_equal(once.registered, twice.registered)


@settings(max_examples=30, deadline=None)
@hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_filtered_stations_satisfy_policy_property(seed, n):
    rng = np.random.default_rng(seed)
    v, g, b, l = random_counts(rng, n)
    ds = apply_filters(make_dataset(v, g, b, l))
    assert np.all(ds.registered >= 100)
    assert np.all(100 * ds.given <= 99 * ds.registered)
    assert np.all(ds.cast > 0)
    assert np.all(100 * ds.leader <= 99 * ds.cast)


@settings(max_examples=30, deadline=None)
@hgiven(
    seed=st.integers(0, 2**32 - 1),
    cap_num=st.integers(1, 100 * MAX_DENOMINATOR),
)
def test_filter_matches_exact_fractions_at_finest_cap_property(seed, cap_num):
    # country-scale counts against a cap at the finest accepted precision
    rng = np.random.default_rng(seed)
    v = rng.integers(1, 10**7, size=40)
    g = rng.integers(0, v + 1)
    b = rng.integers(0, g + 1)
    l = rng.integers(0, b + 1)
    cap = Fraction(cap_num, MAX_DENOMINATOR)
    kept = apply_filters(
        make_dataset(v, g, b, l), FilterPolicy(min_registered=1, max_percentage=cap)
    )
    expected = [
        i for i in range(v.size)
        if Fraction(100 * int(g[i]), int(v[i])) <= cap
        and b[i] > 0
        and Fraction(100 * int(l[i]), int(b[i])) <= cap
    ]
    assert list(kept.station_ids) == [f"S{i:07d}" for i in expected]


# counts at either end of the range, and just past its top
_EDGE_COUNT = st.one_of(st.integers(0, 50), st.integers(MAX_COUNT - 10**6, MAX_COUNT + 2))
_HALF_WIDTH = st.one_of(
    st.fractions(Fraction(1, MAX_DENOMINATOR), Fraction(1, 2), max_denominator=MAX_DENOMINATOR),
    # exact distances of the small stations, so boundary hits occur
    st.builds(Fraction, st.integers(1, 25), st.integers(50, 100)),
)


@settings(max_examples=80, deadline=None)
@hgiven(
    stations=st.lists(st.lists(_EDGE_COUNT, min_size=4, max_size=4), min_size=1, max_size=6),
    m=st.sampled_from([1, 10, 1000]),
    center_kind=st.sampled_from(["integer", "half_integer"]),
    half_width=_HALF_WIDTH,
)
def test_exact_arithmetic_at_the_count_bound_property(stations, m, center_kind, half_width):
    # each station sorted so that registered >= given >= cast >= leader
    columns = [list(c) for c in zip(*(sorted(s, reverse=True) for s in stations))]
    if max(columns[0]) > MAX_COUNT:
        with pytest.raises(ValueError, match="outside"):
            ElectionDataset.from_arrays("edge", *columns)
        return
    ds = ElectionDataset.from_arrays("edge", *columns)
    registered = ds.registered.tolist()
    window = WindowSpec(center_kind, half_width)
    for metric, num, den in (("turnout", ds.given, ds.registered), ("result", ds.leader, ds.cast)):
        pairs = list(zip(num.tolist(), den.tolist()))
        bins = np.zeros(100 * m + 1, dtype=np.int64)
        region = np.zeros((1, 1001), dtype=np.int64)
        for (n, d), v in zip(pairs, registered):
            if d > 0:
                region[0, oracles.nearest_bin(n, d, 10)] += v
                if n != d:  # build_histogram drops stations at exactly 100%
                    bins[oracles.nearest_bin(n, d, m)] += v
        hist = build_histogram(ds, metric, Fraction(1, m))
        assert np.array_equal(hist.weights, bins)
        one_region = np.zeros(len(ds), dtype=np.int64)
        every_bin = np.full((len(METRICS), 1001), -1, dtype=np.int64)  # of this metric
        every_bin[METRICS.index(metric)] = np.arange(1001)
        reported = {m: ds.metric(m)[0] for m in METRICS}
        assert np.array_equal(_candidate_cells(every_bin, one_region, 1, reported, ds), region)

        scorer = _Scorer(ds, [(StatisticDef(), window)])
        member = scorer.members({m: ds.metric(m)[0] for m in METRICS})[metric, window]
        expected = [
            d > 0 and oracles.count_in_window([Fraction(100 * n, d)], center_kind, half_width) == 1
            for n, d in pairs
        ]
        assert member.tolist() == expected

    cells = np.zeros((201, 201), dtype=np.int64)
    for v, g, b, l in zip(*(c.tolist() for c in (ds.registered, ds.given, ds.cast, ds.leader))):
        if b > 0 and v > 0:
            cells[oracles.nearest_bin(g, v, 2), oracles.nearest_bin(l, b, 2)] += v
    assert np.array_equal(fingerprint(ds).cells, cells)


def test_stream_domains_stay_apart(monkeypatch):
    # every key each drawing function asks model.stream for, over seeds,
    # iterations 0..1023 and synth tags 0..8; SeedSequence zero-pads a
    # key to its 4-word pool, so streams coincide when their states do.
    # A key is recorded under its calling function, so two functions of
    # one module that share a key stay two entries
    keys = set()
    for module in (sampling, histograms, synth):
        def recorder(seed, index, domain, real=module.stream):
            keys.add((sys._getframe(1).f_code.co_name, (int(seed), int(index), int(domain))))
            return real(seed, index, domain)

        monkeypatch.setattr(module, "stream", recorder)
    seeds = (0, 5, 2**32 - 1)
    ds = make_dataset([1000], [700], [690], [400])
    for seed in seeds:
        for metric in METRICS:
            num, den = ds.metric(metric)
            build_histogram(ds, metric, jitter=True, seed=seed)
            for i in range(1024):
                sampling.iteration_uniforms(seed, i, metric, 1, 1)
                histograms._simulated_histogram(
                    metric, den, ds.registered, 10, True, True, seed, i, {metric: num}
                )
        election = synth.generate(synth.GeneratorConfig(n_stations=20, n_regions=2), seed)
        synth.inject_fraud(election.dataset, synth.FraudSpec("integer_rounding", 0.5), seed)

    by_state = {}
    for name, key in keys:
        state = tuple(np.random.SeedSequence(key).generate_state(4))
        by_state.setdefault(state, set()).add((name, key))
    shared = {frozenset(group) for group in by_state.values() if len(group) > 1}
    # synth's SYNTH domain is turnout's count domain (model's stream
    # table): generate draws tags 0-7 and inject_fraud tag 8
    turnout = METRIC_CODES["turnout"]
    assert shared == {
        frozenset({
            ("generate" if t < 8 else "inject_fraud", (seed, t, SYNTH)),
            ("iteration_uniforms", (seed, t, turnout)),
        })
        for seed in seeds for t in range(9)
    }


@pytest.mark.parametrize("index", [-1, 2**32])
def test_stream_index_stays_in_its_word(index):
    # 2**32 would spill into the domain word: (5, 2**32, 0) keys what
    # (5, 0, 1), iteration 0's result counts, keys
    with pytest.raises(ValueError, match="index"):
        sampling.iteration_uniforms(5, index, "turnout", 4, 1)
    sampler = sampling.make_sampler(np.array([1000]), np.array([700]), "binomial", "turnout")
    with pytest.raises(ValueError, match="index"):
        sampler.draw(5, index)
    with pytest.raises(ValueError, match="index"):
        stream(5, 0, index)
    assert sampler.draw(5, 2**32 - 1).shape == (1,)
