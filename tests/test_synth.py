"""Synthetic election generator and fraud injector."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from pollheap.synth import (
    BetaProb,
    FixedProb,
    FixedSize,
    FraudSpec,
    GeneratorConfig,
    LogNormalSize,
    _rounding_numerator,
    default_target_palette,
    generate,
    inject_fraud,
)

from helpers import make_dataset
from oracles import rounding_numerator


def arrays_equal(a, b):
    return (
        a.station_ids == b.station_ids
        and np.array_equal(a.registered, b.registered)
        and np.array_equal(a.given, b.given)
        and np.array_equal(a.cast, b.cast)
        and np.array_equal(a.leader, b.leader)
    )


class TestGenerate:
    def test_reproducible_by_seed(self):
        cfg = GeneratorConfig(n_stations=300, n_regions=4)
        a = generate(cfg, 42)
        b = generate(cfg, 42)
        c = generate(cfg, 43)
        assert arrays_equal(a.dataset, b.dataset)
        assert np.array_equal(a.turnout_p, b.turnout_p)
        assert not arrays_equal(a.dataset, c.dataset)

    def test_seed_must_fit_in_one_word(self):
        # SeedSequence would split 2**32 + 5 into the words (5, 1), the
        # key of seed 5's region stream
        cfg = GeneratorConfig(n_stations=20, n_regions=2)
        for seed in (-1, 2**32, 2**32 + 5):
            with pytest.raises(ValueError, match="seed"):
                generate(cfg, seed)
        assert len(generate(cfg, 2**32 - 1).dataset) == 20

    def test_count_invariants_hold(self):
        elec = generate(GeneratorConfig(n_stations=500), 7)
        ds = elec.dataset
        assert np.all(ds.leader >= 0)
        assert np.all(ds.leader <= ds.cast)
        assert np.all(ds.cast <= ds.given)
        assert np.all(ds.given <= ds.registered)

    def test_probability_arrays_align(self):
        elec = generate(GeneratorConfig(n_stations=64), 1)
        assert len(elec) == 64
        assert elec.turnout_p.shape == (64,)
        assert elec.result_p.shape == (64,)
        assert elec.invalid_p.shape == (64,)
        assert np.all((elec.turnout_p > 0) & (elec.turnout_p < 1))

    def test_region_codes(self):
        single = generate(GeneratorConfig(n_stations=10), 2).dataset
        assert set(single.region_codes) == {"R00"}
        multi = generate(GeneratorConfig(n_stations=400, n_regions=10), 2).dataset
        assert set(multi.region_codes) <= {f"R{k:02d}" for k in range(10)}
        assert len(set(multi.region_codes)) > 5

    def test_region_weights_shift_mass(self):
        cfg = GeneratorConfig(
            n_stations=1000, n_regions=2, region_weights=(9.0, 1.0)
        )
        ds = generate(cfg, 5).dataset
        share = sum(c == "R00" for c in ds.region_codes) / 1000
        assert share > 0.8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_stations=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(n_stations=10, n_regions=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n_stations=10, n_regions=3, region_weights=(1.0, 2.0))

    def test_small_fixed_size_warns(self):
        with pytest.warns(UserWarning, match="below 100"):
            generate(GeneratorConfig(n_stations=5, size=FixedSize(50)), 1)

    def test_size_models(self):
        rng = np.random.default_rng(0)
        fixed = FixedSize(1200).draw(rng, 8)
        assert np.all(fixed == 1200)
        ln = LogNormalSize(median=1000, sigma=0.5, low=200, high=2500).draw(rng, 500)
        assert ln.min() >= 200 and ln.max() <= 2500

    def test_prob_models(self):
        rng = np.random.default_rng(0)
        assert np.all(FixedProb(0.6).draw(rng, 4) == 0.6)
        beta = BetaProb(14, 8).draw(rng, 2000)
        assert abs(beta.mean() - 14 / 22) < 0.02
        with pytest.raises(ValueError):
            FixedProb(1.5).draw(rng, 1)
        with pytest.raises(ValueError):
            BetaProb(0, 1).draw(rng, 1)


class TestRoundingNumerator:
    def test_pins(self):
        hw = Fraction(1, 20)
        assert _rounding_numerator(1000, 70, hw, "just_above") == 700
        assert _rounding_numerator(997, 70, hw, "just_above") == 698
        assert _rounding_numerator(7, 70, hw, "just_above") is None

    def test_prefers_non_round_counts(self):
        hw = Fraction(1, 20)
        # window [70, 70.05] on den 2000 holds 1400 and 1401; the
        # round count loses
        assert _rounding_numerator(2000, 70, hw, "just_above") == 1401
        # nearest side adds 1399; ties go below
        assert _rounding_numerator(2000, 70, hw, "nearest") == 1399

    def test_result_is_always_in_window(self):
        hw = Fraction(1, 20)
        for den in (503, 997, 1201, 2000, 2999):
            for target in (70, 75, 84, 99):
                for side in ("just_above", "nearest"):
                    num = _rounding_numerator(den, target, hw, side)
                    if num is None:
                        continue
                    pct = Fraction(100 * num, den)
                    assert abs(pct - target) <= hw
                    if side == "just_above":
                        assert pct >= target

    @settings(max_examples=300, deadline=None)
    @hgiven(
        den=st.one_of(st.integers(0, 50), st.integers(0, 20_000),
                      st.integers(0, 200).map(lambda k: 100 * k)),
        target=st.integers(-3, 110),
        hn=st.integers(1, 200),
        hd=st.integers(2, 400),
        side=st.sampled_from(["just_above", "nearest"]),
    )
    # the nearest counts on one side lie past the window's edge
    @example(den=1000, target=-1, hn=3, hd=2, side="nearest")
    @example(den=1000, target=101, hn=3, hd=2, side="nearest")
    def test_matches_the_enumeration_oracle_property(self, den, target, hn, hd, side):
        # windows clipped at 0 and den, targets outside 0..100%, windows
        # of no, one or many counts, centers off an integer, on one and on
        # a multiple of 10 (den a multiple of 100)
        hw = Fraction(min(hn, 2 * hd), hd)
        assert _rounding_numerator(den, target, hw, side) == rounding_numerator(
            den, target, hw, side)

    def test_cost_does_not_grow_with_the_window(self):
        # a 0.5-point window at den = 10^8 holds a million counts
        start = time.perf_counter()
        num = _rounding_numerator(10**8, 71, Fraction(1, 2), "nearest")
        assert time.perf_counter() - start < 1.0
        # 71,000,000 is round; of the two counts 1 away the smaller wins
        assert num == 70_999_999


class TestPalettes:
    def test_default_palette(self):
        pal = default_target_palette()
        assert len(pal) == 30
        assert pal[0] == (70, 3)
        weights = dict(pal)
        assert weights[75] == 3 and weights[95] == 3
        assert weights[71] == 1 and weights[99] == 1

    def test_five_multiple_palette(self):
        spec = FraudSpec(mechanism="five_multiple_rounding", affected_fraction=0.1)
        pal = spec.palette()
        assert [p for p, _ in pal] == [70, 75, 80, 85, 90, 95]

    def test_explicit_targets_override(self):
        spec = FraudSpec(
            mechanism="integer_rounding", affected_fraction=0.1, targets=((80, 1),)
        )
        assert spec.palette() == ((80, 1),)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FraudSpec(mechanism="wishful", affected_fraction=0.1)
        with pytest.raises(ValueError):
            FraudSpec(mechanism="integer_rounding", affected_fraction=1.2)
        with pytest.raises(ValueError):
            FraudSpec(mechanism="integer_rounding", affected_fraction=0.1, target_side="below")
        with pytest.raises(ValueError):
            FraudSpec(mechanism="integer_rounding", affected_fraction=0.1, metric_choice="all")
        with pytest.raises(ValueError):
            FraudSpec(
                mechanism="integer_rounding", affected_fraction=0.1,
                window_half_width=Fraction(3, 4),
            )


class TestInjectFraud:
    def _spec(self, **kw):
        base = dict(mechanism="integer_rounding", affected_fraction=0.1)
        base.update(kw)
        return FraudSpec(**base)

    def test_deterministic(self, null_2k):
        a_ds, a_log = inject_fraud(null_2k, self._spec(), 9)
        b_ds, b_log = inject_fraud(null_2k, self._spec(), 9)
        assert arrays_equal(a_ds, b_ds)
        assert a_log == b_log
        c_ds, _ = inject_fraud(null_2k, self._spec(), 10)
        assert not arrays_equal(a_ds, c_ds)

    def test_denominators_never_change(self, null_2k):
        out, _ = inject_fraud(null_2k, self._spec(affected_fraction=0.5), 3)
        assert np.array_equal(out.registered, null_2k.registered)
        assert np.array_equal(out.cast, null_2k.cast)
        assert out.station_ids == null_2k.station_ids

    def test_invariants_survive_every_mechanism(self, null_2k):
        for mech in (
            "integer_rounding",
            "five_multiple_rounding",
            "ballot_stuffing",
            "extreme_cluster",
        ):
            out, log = inject_fraud(
                null_2k, self._spec(mechanism=mech, affected_fraction=0.3), 4
            )
            assert log.modified > 0
            assert np.all(out.leader <= out.cast)
            assert np.all(out.cast <= out.given)
            assert np.all(out.given <= out.registered)

    def test_zero_fraction_is_identity(self, null_2k):
        out, log = inject_fraud(null_2k, self._spec(affected_fraction=0.0), 1)
        assert arrays_equal(out, null_2k)
        assert log.requested == 0 and log.modified == 0

    def test_only_chosen_stations_change(self, null_2k):
        out, log = inject_fraud(null_2k, self._spec(), 9)
        touched = {r.station_id for r in log.records}
        for i, sid in enumerate(null_2k.station_ids):
            if sid not in touched:
                assert out.given[i] == null_2k.given[i]
                assert out.leader[i] == null_2k.leader[i]

    def test_records_match_dataset(self, null_2k):
        out, log = inject_fraud(null_2k, self._spec(), 9)
        index = {sid: i for i, sid in enumerate(out.station_ids)}
        for rec in log.records:
            i = index[rec.station_id]
            assert out.given[i] == rec.given_after
            assert out.leader[i] == rec.leader_after
            assert null_2k.given[i] == rec.given_before
            assert null_2k.leader[i] == rec.leader_before
            assert rec.metric in ("turnout", "result", "both")

    def test_rounded_stations_land_in_window(self, null_2k):
        out, log = inject_fraud(
            null_2k, self._spec(target_side="nearest", affected_fraction=0.2), 5
        )
        index = {sid: i for i, sid in enumerate(out.station_ids)}
        for rec in log.records:
            i = index[rec.station_id]
            t = int(rec.target_percent)
            if rec.metric == "turnout":
                pct = Fraction(100 * int(out.given[i]), int(out.registered[i]))
            else:
                pct = Fraction(100 * int(out.leader[i]), int(out.cast[i]))
            assert abs(pct - t) <= Fraction(1, 20)

    def test_region_concentration(self, null_multiregion):
        codes = sorted(set(null_multiregion.region_codes))
        target_region = codes[0]
        out, log = inject_fraud(
            null_multiregion,
            self._spec(affected_fraction=0.05, region_concentration={target_region}),
            2,
        )
        region_of = dict(zip(null_multiregion.station_ids, null_multiregion.region_codes))
        assert log.modified > 0
        for rec in log.records:
            assert region_of[rec.station_id] == target_region

    def test_requested_capped_by_eligible(self, null_multiregion):
        codes = sorted(set(null_multiregion.region_codes))
        n_in_region = sum(c == codes[0] for c in null_multiregion.region_codes)
        out, log = inject_fraud(
            null_multiregion,
            self._spec(affected_fraction=1.0, region_concentration={codes[0]}),
            2,
        )
        assert log.requested == len(null_multiregion)
        assert log.modified + len(log.skipped) <= n_in_region + len(log.skipped)
        assert log.modified <= n_in_region

    def test_infeasible_target_skip_reasons(self):
        # station 0: cast swallows the 70% turnout target; station 1:
        # a 7-voter roll has no numerator within 0.05% of 70
        ds = make_dataset([1000, 7], [720, 5], [719, 4], [300, 2])
        spec = self._spec(
            affected_fraction=1.0, metric_choice="turnout", targets=((70, 1),)
        )
        out, log = inject_fraud(ds, spec, 1)
        reasons = dict(log.skipped)
        assert "falls below cast count" in reasons[ds.station_ids[0]]
        assert "no turnout numerator" in reasons[ds.station_ids[1]]
        assert log.modified == 0
        assert arrays_equal(out, ds)

    def test_metric_choice_both_touches_both_sides(self):
        ds = make_dataset([2000], [1500], [1000], [500])
        spec = self._spec(
            affected_fraction=1.0, metric_choice="both", targets=((75, 1),)
        )
        out, log = inject_fraud(ds, spec, 1)
        assert log.modified == 1
        rec = log.records[0]
        assert rec.metric == "both"
        assert out.given[0] == 1501  # 75.05%, non-round count preferred
        assert out.leader[0] == 750  # 75% exactly, the only candidate

    # (station, metric, target, given_before, leader_before, given_after,
    # leader_after) per record, then (station, reason) per skip, in order
    _PINNED_LOGS = {
        ("just_above", "turnout"): (
            [(0, "turnout", 70.0, 0, 0, 0, 0), (1, "turnout", 70.0, 10, 0, 350, 0),
             (4, "turnout", 70.0, 1500, 500, 1401, 500)],
            [(2, "turnout target 83% falls below cast count"),
             (3, "no turnout numerator lands at 83%")],
        ),
        ("just_above", "result"): (
            [(4, "result", 70.0, 1500, 500, 1500, 700)],
            [(0, "result undefined (no cast ballots)"),
             (1, "result undefined (no cast ballots)"),
             (2, "no result numerator lands at 83%"),
             (3, "no result numerator lands at 83%")],
        ),
        ("just_above", "both"): (
            [(0, "both", 70.0, 0, 0, 0, 0), (1, "both", 70.0, 10, 0, 350, 0),
             (4, "both", 70.0, 1500, 500, 1401, 700)],
            [(0, "result undefined (no cast ballots)"),
             (1, "result undefined (no cast ballots)"),
             (2, "turnout target 83% falls below cast count"),
             (2, "no result numerator lands at 83%"),
             (3, "no turnout numerator lands at 83%"),
             (3, "no result numerator lands at 83%")],
        ),
        ("just_above", "either"): (
            [(0, "turnout", 70.0, 0, 0, 0, 0), (4, "result", 83.0, 1500, 500, 1500, 830)],
            [(1, "result undefined (no cast ballots)"),
             (2, "turnout target 83% falls below cast count"),
             (3, "no turnout numerator lands at 83%")],
        ),
        ("nearest", "turnout"): (
            [(0, "turnout", 70.0, 0, 0, 0, 0), (1, "turnout", 70.0, 10, 0, 350, 0),
             (4, "turnout", 70.0, 1500, 500, 1399, 500)],
            [(2, "turnout target 83% falls below cast count"),
             (3, "no turnout numerator lands at 83%")],
        ),
        ("nearest", "result"): (
            [(2, "result", 83.0, 950, 500, 950, 780), (4, "result", 70.0, 1500, 500, 1500, 700)],
            [(0, "result undefined (no cast ballots)"),
             (1, "result undefined (no cast ballots)"),
             (3, "no result numerator lands at 83%")],
        ),
        ("nearest", "both"): (
            [(0, "both", 70.0, 0, 0, 0, 0), (1, "both", 70.0, 10, 0, 350, 0),
             (2, "both", 83.0, 950, 500, 950, 780), (4, "both", 70.0, 1500, 500, 1399, 700)],
            [(0, "result undefined (no cast ballots)"),
             (1, "result undefined (no cast ballots)"),
             (2, "turnout target 83% falls below cast count"),
             (3, "no turnout numerator lands at 83%"),
             (3, "no result numerator lands at 83%")],
        ),
        ("nearest", "either"): (
            [(0, "turnout", 70.0, 0, 0, 0, 0), (4, "result", 83.0, 1500, 500, 1500, 830)],
            [(1, "result undefined (no cast ballots)"),
             (2, "turnout target 83% falls below cast count"),
             (3, "no turnout numerator lands at 83%")],
        ),
    }

    @pytest.mark.parametrize("side,choice", sorted(_PINNED_LOGS))
    def test_rounding_log_is_pinned(self, side, choice):
        # every station gets a rounding target: an empty roll, a roll
        # with no cast ballots, one whose cast count exceeds the turnout
        # target, one too small for any numerator to land, and a plain
        # one; the whole log, skip reasons in order, is fixed
        ds = make_dataset(
            [0, 500, 1000, 7, 2000], [0, 10, 950, 5, 1500],
            [0, 0, 940, 4, 1000], [0, 0, 500, 2, 500],
        )
        spec = self._spec(
            affected_fraction=1.0, target_side=side, metric_choice=choice,
            targets=((70, 1), (83, 1)),
        )
        _, log = inject_fraud(ds, spec, 1)
        index = {sid: i for i, sid in enumerate(ds.station_ids)}
        records = [
            (index[r.station_id], r.metric, r.target_percent, r.given_before,
             r.leader_before, r.given_after, r.leader_after)
            for r in log.records
        ]
        skipped = [(index[sid], why) for sid, why in log.skipped]
        assert (records, skipped) == self._PINNED_LOGS[side, choice]
        assert {r.mechanism for r in log.records} == {"integer_rounding"}
        assert log.requested == 5

    def test_ballot_stuffing_only_raises_counts(self, null_2k):
        out, log = inject_fraud(
            null_2k, self._spec(mechanism="ballot_stuffing"), 6
        )
        for rec in log.records:
            assert rec.given_after >= rec.given_before
            assert rec.leader_after >= rec.leader_before

    def test_extreme_cluster_pushes_turnout_high(self, null_2k):
        out, log = inject_fraud(
            null_2k, self._spec(mechanism="extreme_cluster"), 6
        )
        index = {sid: i for i, sid in enumerate(out.station_ids)}
        for rec in log.records:
            i = index[rec.station_id]
            assert out.given[i] / out.registered[i] > 0.9
