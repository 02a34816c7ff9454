"""Window statistic and its Monte Carlo null distribution."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import pollheap.cli as cli
import pollheap.sampling as sampling
from pollheap.anomaly import (
    CENTER_KINDS,
    METRIC_SCOPES,
    WEIGHTINGS,
    StatisticDef,
    WindowSpec,
    _Scorer,
    empirical_statistic,
    is_in_window,
    percentile_band,
    run_null,
    run_nulls,
    window_sweep,
)
from pollheap.model import METRICS
from pollheap.synth import GeneratorConfig, generate

import oracles
from helpers import make_dataset, random_counts


class TestWindowMembership:
    def test_integer_window_pins(self):
        w = WindowSpec(half_width=Fraction(1, 20))
        assert is_in_window(Fraction(7002, 100), w)  # 70.02
        assert not is_in_window(Fraction(6994, 100), w)  # 69.94
        assert is_in_window(Fraction(7005, 100), w)  # boundary is inside
        assert not is_in_window(Fraction(70051, 1000), w)

    def test_half_integer_window_pins(self):
        w = WindowSpec(center_kind="half_integer", half_width=Fraction(1, 20))
        assert is_in_window(Fraction(845, 10), w)  # 84.5 is a center
        assert is_in_window(Fraction(8454, 100), w)
        assert not is_in_window(Fraction(846, 10), w)
        assert not is_in_window(Fraction(84, 1), w)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(half_width=Fraction(0))
        with pytest.raises(ValueError):
            WindowSpec(half_width=Fraction(51, 100))
        with pytest.raises(ValueError):
            WindowSpec(center_kind="thirds")

    def test_matches_oracle_on_random_fractions(self):
        rng = np.random.default_rng(11)
        hw = Fraction(1, 20)
        for kind in ("integer", "half_integer"):
            w = WindowSpec(center_kind=kind, half_width=hw)
            pcts = [
                Fraction(int(rng.integers(0, 100 * 997)), 997) for _ in range(300)
            ]
            mine = sum(is_in_window(x, w) for x in pcts)
            assert mine == oracles.count_in_window(pcts, kind, hw)


class TestEmpiricalStatistic:
    def _pinned(self):
        # station 0: turnout 70.00% (in), result 50.29% (out)
        # station 1: turnout 69.80% (out), result 50.00% (in)
        # station 2: turnout 66.30% (out), result 33.33% (out)
        # station 3: turnout 65.03% (in), result 34.11% (out)
        return make_dataset(
            registered=[1000, 1000, 1000, 10000],
            given=[700, 698, 663, 6503],
            cast=[700, 698, 660, 6500],
            leader=[352, 349, 220, 2217],
        )

    def test_union_semantics(self):
        ds = self._pinned()
        both = empirical_statistic(ds, StatisticDef(), WindowSpec())
        t = empirical_statistic(ds, StatisticDef(metric_scope="turnout_only"), WindowSpec())
        r = empirical_statistic(ds, StatisticDef(metric_scope="result_only"), WindowSpec())
        assert t == 2  # stations 0 and 3
        assert r == 1  # station 1
        assert both == 3  # a station counts once even via both metrics
        assert max(t, r) <= both <= t + r

    def test_voter_weighting(self):
        ds = self._pinned()
        q = empirical_statistic(
            ds, StatisticDef(weighting="registered_voters"), WindowSpec()
        )
        # stations 0, 1, 3 are members and contribute their sizes
        assert q == 12000

    def test_zero_exclusion_drops_trailing_zero_counts(self):
        # both stations are inside the turnout window; the first has
        # given and registered counts ending in digit 0 so
        # zero_exclusion ignores its turnout side
        ds = make_dataset(
            registered=[1000, 997],
            given=[700, 698],
            cast=[699, 697],
            leader=[350, 348],
        )
        plain = empirical_statistic(
            ds, StatisticDef(metric_scope="turnout_only"), WindowSpec()
        )
        strict = empirical_statistic(
            ds,
            StatisticDef(metric_scope="turnout_only", zero_exclusion=True),
            WindowSpec(),
        )
        assert plain == 2
        assert strict == 1


class TestPercentileBand:
    def test_spec_pinned_indices_n100(self):
        samples = np.arange(100, dtype=np.int64)
        lo, hi = percentile_band(samples, (Fraction(1, 2), Fraction(199, 2)))
        assert (lo, hi) == (1, 98)

    def test_extremes_clamped(self):
        samples = np.arange(10, dtype=np.int64)
        lo, hi = percentile_band(samples, (Fraction(0), Fraction(100)))
        assert lo == samples.min() and hi == samples.max()

    def test_band_is_sorted_invariant(self):
        rng = np.random.default_rng(3)
        samples = rng.integers(0, 1000, size=257)
        lo, hi = percentile_band(samples, (Fraction(5), Fraction(95)))
        assert lo <= hi
        assert lo in samples and hi in samples


class TestRunNull:
    def test_iterations_floor_enforced(self, null_2k):
        with pytest.raises(ValueError):
            run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 99, 1)

    def test_report_fields(self, null_2k):
        rep = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 120, 5)
        assert rep.iterations == 120
        assert rep.mc_samples.shape == (120,)
        assert rep.anomaly_size == pytest.approx(rep.empirical - rep.mc_mean)
        lo, hi = rep.percentile_interval
        assert lo <= rep.mc_mean <= hi
        assert rep.model == "binomial"
        assert 0 < rep.p_value_bound <= 1

    def test_p_value_bound_definition(self, null_2k):
        rep = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 150, 5)
        count_ge = int(np.sum(rep.mc_samples >= rep.empirical))
        if count_ge:
            assert not rep.p_is_bound
            assert rep.p_value_bound == pytest.approx(count_ge / 150)
        else:
            assert rep.p_is_bound
            assert rep.p_value_bound == pytest.approx(1 / 150)
            assert rep.p_value_text().startswith("<")

    def test_full_width_window_is_degenerate(self, null_2k):
        rep = run_null(
            null_2k, StatisticDef(), WindowSpec(half_width=Fraction(1, 2)),
            "binomial", 100, 2,
        )
        # every percentage is within 1/2 of an integer, so the
        # statistic is constant and the z-score is exactly zero
        assert rep.mc_sd == 0.0
        assert rep.z_score == 0.0
        assert rep.empirical == rep.mc_mean

    def test_worker_count_does_not_change_output(self, null_2k):
        a = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 128, 9, workers=1)
        b = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 128, 9, workers=3)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert np.array_equal(a.mc_samples, b.mc_samples)

    def test_shared_run_equals_standalone(self, null_2k):
        defs = [
            (StatisticDef(), WindowSpec()),
            (StatisticDef(metric_scope="turnout_only"), WindowSpec()),
        ]
        both = run_nulls(null_2k, defs, "binomial", 110, 4)
        solo = run_null(null_2k, StatisticDef(metric_scope="turnout_only"), WindowSpec(), "binomial", 110, 4)
        assert np.array_equal(both[1].mc_samples, solo.mc_samples)

    def test_json_roundtrip(self, null_2k):
        rep = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 100, 1)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["iterations"] == 100
        assert len(rep.mc_samples) == 100
        assert doc["half_width"] == 0.05
        assert doc["model"] == "binomial"

    def test_progress_reports_completion(self, null_2k):
        seen = []
        run_null(
            null_2k, StatisticDef(), WindowSpec(), "binomial", 100, 1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (100, 100)
        assert all(t == 100 for _, t in seen)

    def test_refilter_toggle(self, null_2k):
        on = run_null(
            null_2k, StatisticDef(), WindowSpec(), "binomial", 100, 3,
            refilter_max_percent=Fraction(99),
        )
        off = run_null(null_2k, StatisticDef(), WindowSpec(), "binomial", 100, 3)
        # pre-filtered data: the empirical side is unchanged, only the
        # simulated side may lose stations
        assert on.empirical == off.empirical
        assert on.mc_mean <= off.mc_mean


def _check_exact_null_moments(model, cap=None):
    # q sums independent weighted Bernoulli terms, so its null mean and
    # sd are exact; station 0 has no cast ballots, so its result is
    # never in a window
    counts = generate(GeneratorConfig(n_stations=300), seed=23).dataset
    cast, leader = counts.cast.copy(), counts.leader.copy()
    cast[0] = leader[0] = 0
    dataset = make_dataset(counts.registered, counts.given, cast, leader)
    defs = [
        (stat, WindowSpec(center_kind=kind)) for _, stat, kind in cli._ANALYZE_DEFS
    ]
    iterations = 400
    reports = run_nulls(
        dataset, defs, model, iterations, master_seed=5, workers=1, refilter_max_percent=cap
    )
    for (stat, window), rep in zip(defs, reports):
        weights = np.ones(len(dataset))
        if stat.weighting == "registered_voters":
            weights = dataset.registered
        scope = METRIC_SCOPES[stat.metric_scope]
        mean, sd = oracles.q_moments(
            [dataset.metric(m) for m in scope], weights,
            model, window.half_width, window.center_kind, stat.zero_exclusion,
            cap=cap, other_sides=[dataset.metric(m) for m in METRICS if m not in scope],
        )
        assert abs(rep.mc_mean - mean) <= 5 * sd / np.sqrt(iterations), (stat, window)
        assert abs(rep.mc_sd - sd) <= 0.2 * sd, (stat, window)


@pytest.mark.parametrize("model", ["binomial", "beta-binomial", "clustered:3"])
def test_mc_moments_match_the_exact_null_law(model):
    _check_exact_null_moments(model)


@pytest.mark.parametrize("model", ["binomial", "clustered:3"])
def test_mc_moments_match_the_exact_null_law_under_the_refilter_cap(model):
    # an 80% cap drops a sizeable share of simulated stations; the cap
    # is applied after the draws, so no model reaches it another way
    _check_exact_null_moments(model, cap=Fraction(80))


@pytest.mark.parametrize("model", ["binomial", "clustered:3"])
def test_mc_moments_match_the_exact_null_law_without_tables(model, monkeypatch):
    # no table fits, so every draw takes the direct binom_quantile walk
    monkeypatch.setattr(sampling, "_MAX_TABLE_ENTRIES", 0)
    _check_exact_null_moments(model)


# a station's four counts, sorted so registered >= given >= cast >= leader
_STATION = st.lists(
    st.one_of(st.just(0), st.integers(1, 100), st.integers(0, 10**5)), min_size=4, max_size=4
)


@settings(max_examples=15, deadline=None, derandomize=True)
@hgiven(
    stations=st.lists(_STATION, min_size=20, max_size=40),
    model=st.sampled_from(["binomial", "beta-binomial", "clustered:2", "clustered:4"]),
    cap=st.sampled_from([None, Fraction(80), Fraction(95)]),
    seed=st.integers(0, 2**16),
)
def test_mc_moments_match_the_exact_null_law_property(stations, model, cap, seed):
    columns = [list(c) for c in zip(*(sorted(s, reverse=True) for s in stations))]
    dataset = make_dataset(*columns)
    defs = [
        (stat, WindowSpec(kind, hw))
        for _, stat, kind in cli._ANALYZE_DEFS
        for hw in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
    ]
    iterations = 200
    reports = run_nulls(
        dataset, defs, model, iterations, master_seed=seed, workers=1, refilter_max_percent=cap
    )
    for (stat, window), rep in zip(defs, reports):
        weights = np.ones(len(dataset))
        if stat.weighting == "registered_voters":
            weights = dataset.registered
        scope = METRIC_SCOPES[stat.metric_scope]
        mean, sd = oracles.q_moments(
            [dataset.metric(m) for m in scope], weights,
            model, window.half_width, window.center_kind, stat.zero_exclusion,
            cap=cap, other_sides=[dataset.metric(m) for m in METRICS if m not in scope],
        )
        # the second term keeps a definition that hits a few times in
        # the whole run from failing on the hits alone
        bound = 5 * sd / np.sqrt(iterations) + 5 * max(weights) / iterations
        assert abs(rep.mc_mean - mean) <= bound, (stat, window)
        # 0.25 is five normal-theory standard errors of a sample sd,
        # 5 / sqrt(2 * iterations - 2); the second term as above
        bound = 0.25 * sd + 5 * max(weights) / iterations
        assert abs(rep.mc_sd - sd) <= bound, (stat, window)


class TestWindowSweep:
    def test_sweep_shares_draws_and_orders_widths(self, null_2k):
        reps = window_sweep(
            null_2k, StatisticDef(), "binomial", 100, 8,
            half_widths=[Fraction(1, 20), Fraction(1, 10)],
        )
        assert [r.window.half_width for r in reps] == [Fraction(1, 20), Fraction(1, 10)]
        # wider windows contain the narrow ones in every iteration
        assert np.all(reps[0].mc_samples <= reps[1].mc_samples)
        assert reps[0].empirical <= reps[1].empirical

    def test_empty_widths_rejected(self, null_2k):
        with pytest.raises(ValueError):
            window_sweep(null_2k, StatisticDef(), "binomial", 100, 8, half_widths=[])


@settings(max_examples=25, deadline=None)
@hgiven(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    hw_num=st.integers(1, 10),
)
def test_window_monotonicity_property(seed, n, hw_num):
    rng = np.random.default_rng(seed)
    v, g, b, l = random_counts(rng, n)
    ds = make_dataset(v, g, b, l)
    narrow = WindowSpec(half_width=Fraction(hw_num, 40))
    wide = WindowSpec(half_width=Fraction(hw_num + 2, 40))
    stat = StatisticDef()
    assert empirical_statistic(ds, stat, narrow) <= empirical_statistic(ds, stat, wide)


@settings(max_examples=25, deadline=None)
@hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
def test_union_bound_property(seed, n):
    rng = np.random.default_rng(seed)
    v, g, b, l = random_counts(rng, n)
    ds = make_dataset(v, g, b, l)
    w = WindowSpec()
    q_both = empirical_statistic(ds, StatisticDef(), w)
    q_t = empirical_statistic(ds, StatisticDef(metric_scope="turnout_only"), w)
    q_r = empirical_statistic(ds, StatisticDef(metric_scope="result_only"), w)
    assert max(q_t, q_r) <= q_both <= q_t + q_r


@settings(max_examples=20, deadline=None)
@hgiven(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_membership_matches_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    v, g, b, l = random_counts(rng, n)
    ds = make_dataset(v, g, b, l)
    hw = Fraction(1, 20)
    q_t = empirical_statistic(
        ds, StatisticDef(metric_scope="turnout_only"), WindowSpec(half_width=hw)
    )
    pcts = [Fraction(100 * int(gi), int(vi)) for vi, gi in zip(v, g) if vi > 0]
    assert q_t == oracles.count_in_window(pcts, "integer", hw)


@settings(max_examples=60, deadline=None)
@hgiven(
    hw=st.builds(Fraction, st.integers(1, 500), st.integers(1, 1000)).filter(
        lambda f: f <= Fraction(1, 2)
    ),
    stations=st.lists(
        st.tuples(
            st.integers(1, 5), st.integers(0, 200), st.sampled_from([-1, 1]),
            st.integers(-1, 1),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_side_membership_matches_fraction_at_boundaries_property(hw, stations):
    # den = 200 * hd * k puts the window edges c +- hw of every integer
    # and half-integer center c = c2 / 2 on an integer num; each station
    # sits on an edge or one vote either side of it. One scorer and one
    # residue per metric serve both center kinds, as in a run.
    hn, hd = hw.numerator, hw.denominator
    den, num = [0], [0]
    for k, c2, sign, delta in stations:
        d = 200 * hd * k
        den.append(d)
        num.append(min(max(c2 * hd * k + sign * 2 * hn * k + delta, 0), d))
    den = np.array(den, dtype=np.int64)
    num = np.array(num, dtype=np.int64)
    windows = [WindowSpec(center_kind=kind, half_width=hw) for kind in CENTER_KINDS]
    ds = make_dataset(registered=den, given=num, cast=den, leader=num)
    member = _Scorer(ds, [(StatisticDef(), w) for w in windows]).members(
        {m: ds.metric(m)[0] for m in METRICS}
    )
    for w in windows:
        want = [d > 0 and is_in_window(Fraction(100 * int(n), int(d)), w)
                for n, d in zip(num, den)]
        for m in METRICS:
            assert member[m, w].tolist() == want


def _oracle_scores(dataset, defs, nums, cap):
    """q of each (StatisticDef, WindowSpec), one station at a time in
    exact rationals: oracles.count_in_window on each in-scope side with
    den > 0, zero exclusion on both counts' last digit, and the refilter
    cap 100 * num <= cap * den on every metric."""
    dens = {m: dataset.metric(m)[1].tolist() for m in METRICS}
    scores = []
    for stat, window in defs:
        q = 0
        for i, weight in enumerate(dataset.registered.tolist()):
            def inside(m):
                num, den = int(nums[m][i]), dens[m][i]
                if den == 0 or stat.zero_exclusion and (num % 10 == 0 or den % 10 == 0):
                    return False
                pct = Fraction(100 * num, den)
                return oracles.count_in_window([pct], window.center_kind, window.half_width) == 1
            hit = any(inside(m) for m in METRIC_SCOPES[stat.metric_scope])
            if cap is not None:
                hit = hit and all(100 * int(nums[m][i]) <= cap * dens[m][i] for m in METRICS)
            if hit:
                q += weight if stat.weighting == "registered_voters" else 1
        scores.append(q)
    return scores


@settings(max_examples=40, deadline=None)
@hgiven(
    # (registered, cast) per station; either may be 0
    dens=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=20),
    defs=st.lists(
        st.builds(
            lambda scope, weighting, zero, kind, hw: (
                StatisticDef(scope, weighting, zero), WindowSpec(kind, hw)
            ),
            st.sampled_from(list(METRIC_SCOPES)),
            st.sampled_from(WEIGHTINGS),
            st.booleans(),
            st.sampled_from(CENTER_KINDS),
            st.builds(Fraction, st.integers(1, 50), st.integers(1, 100)).filter(
                lambda f: f <= Fraction(1, 2)
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    cap=st.none() | st.fractions(Fraction(1, 1000), 100, max_denominator=1000),
    data=st.data(),
)
def test_scorer_matches_a_station_by_station_oracle_property(dens, defs, cap, data):
    # one scorer per dataset, as in a run, scores several numerator sets;
    # a numerator is anywhere in [0, den] or on either side of the cap
    registered = [v for v, _ in dens]
    cast = [b for _, b in dens]
    ds = make_dataset(registered=registered, given=[0] * len(dens), cast=cast,
                      leader=[0] * len(dens))
    scorer = _Scorer(ds, defs, cap)

    def numerator(den):
        edge = math.floor((cap if cap is not None else 100) * den / 100)
        near = [min(max(k, 0), den) for k in (edge, edge + 1)]
        return data.draw(st.integers(0, den) | st.sampled_from(near))

    for _ in range(3):
        nums = {m: np.array([numerator(d) for d in ds.metric(m)[1].tolist()], dtype=np.int64)
                for m in METRICS}
        assert scorer(nums) == _oracle_scores(ds, defs, nums, cap)
