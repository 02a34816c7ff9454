"""Core data model: records, exact metrics, filtering, dataset ops."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap.model import (
    MAX_COUNT,
    MAX_DENOMINATOR,
    ElectionDataset,
    FilterPolicy,
    StationRecord,
    apply_filters,
    as_fraction,
    compute_metrics,
)

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


class TestStationRecord:
    def test_count_violation_names_first_broken_rule(self):
        r = StationRecord("s1", "R", "", registered=100, given=50, cast=60, leader=10)
        assert r.count_violation() == "cast exceeds given"

    def test_leader_exceeding_cast_flagged(self):
        r = StationRecord("s1", "R", "", registered=100, given=80, cast=70, leader=71)
        assert r.count_violation() == "leader exceeds cast"

    def test_negative_count_flagged(self):
        r = StationRecord("s1", "R", "", registered=-1, given=0, cast=0, leader=0)
        assert r.count_violation() == "negative count"

    def test_consistent_record_has_no_violation(self):
        r = StationRecord("s1", "R", "c", registered=200, given=140, cast=138, leader=90)
        assert r.count_violation() is None


class TestComputeMetrics:
    def test_exact_percentages(self):
        r = StationRecord("s", "R", "", registered=974, given=682, cast=680, leader=340)
        m = compute_metrics(r)
        assert m.turnout == Fraction(682 * 100, 974)
        assert m.result == Fraction(340 * 100, 680) == Fraction(50)

    def test_zero_cast_has_undefined_result(self):
        r = StationRecord("s", "R", "", registered=100, given=0, cast=0, leader=0)
        m = compute_metrics(r)
        assert m.turnout == 0
        assert m.result is None
        assert m.result_percent is None

    def test_zero_registered_raises(self):
        r = StationRecord("s", "R", "", registered=0, given=0, cast=0, leader=0)
        with pytest.raises(ValueError):
            compute_metrics(r)


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
            ElectionDataset.from_records(
                "t", [StationRecord("s1", "R", "", registered=-5, given=0, cast=0, leader=0)]
            )
        ds = make_dataset([MAX_COUNT, 0], [MAX_COUNT, 0], [MAX_COUNT, 0], [MAX_COUNT, 0])
        assert len(ds) == 2

    def test_in_range_inconsistent_counts_are_accepted(self):
        # given > registered is in range; the filter drops it, logged
        ds = make_dataset([100, 300], [120, 200], [110, 190], [50, 100])
        assert len(ds) == 2
        assert apply_filters(ds).filter_log[ds.station_ids[0]] == "invalid_counts"

    def test_record_roundtrip(self, null_2k):
        r = null_2k.record(17)
        assert r.registered == null_2k.registered[17]
        assert r.station_id == null_2k.station_ids[17]


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
