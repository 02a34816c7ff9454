"""Integer-window station counting and its Monte Carlo null distribution.

The central statistic q counts stations whose turnout or leader result
percentage falls within a half_width of an integer (or half-integer)
center. Window membership is decided in exact integer arithmetic on
the raw counts, so boundary cases never depend on float rounding:
with half_width hn/hd percent, a ratio num/den lies within the window
of an integer center iff hd * min(r, den - r) <= hn * den, where
r = (100 * num) mod den, and within the window of a half-integer
center iff hd * |2r - den| <= 2 * hn * den.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .mc import Reducer, run_simulation
from .model import MAX_DENOMINATOR, METRICS, ElectionDataset, as_fraction
from .sampling import NullModel, make_sampler

__all__ = [
    "WindowSpec",
    "StatisticDef",
    "AnomalyReport",
    "is_in_window",
    "empirical_statistic",
    "run_null",
    "run_nulls",
    "window_sweep",
    "percentile_band",
]

CENTER_KINDS = ("integer", "half_integer")
# the metrics each scope reads
METRIC_SCOPES = {
    "turnout_or_result": METRICS,
    "turnout_only": ("turnout",),
    "result_only": ("result",),
}
WEIGHTINGS = ("station_count", "registered_voters")

DEFAULT_LEVELS = (Fraction(1, 2), Fraction(199, 2))


@dataclass(frozen=True)
class WindowSpec:
    """Window centers and half-width, both in percentage points."""

    center_kind: str = "integer"
    half_width: Fraction = Fraction(1, 20)

    def __post_init__(self) -> None:
        if self.center_kind not in CENTER_KINDS:
            raise ValueError(f"center_kind must be one of {CENTER_KINDS}")
        hw = as_fraction(self.half_width)
        if not 0 < hw <= Fraction(1, 2):
            raise ValueError("half_width must lie in (0, 0.5] percentage points")
        if hw.denominator > MAX_DENOMINATOR:
            raise ValueError(
                "half_width precision exceeds 1e-6; exact window tests "
                "would overflow 64-bit integer arithmetic"
            )
        object.__setattr__(self, "half_width", hw)


@dataclass(frozen=True)
class StatisticDef:
    """Names one scalar statistic over a dataset."""

    metric_scope: str = "turnout_or_result"
    weighting: str = "station_count"
    zero_exclusion: bool = False

    def __post_init__(self) -> None:
        if self.metric_scope not in METRIC_SCOPES:
            raise ValueError(f"metric_scope must be one of {tuple(METRIC_SCOPES)}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")


def is_in_window(value, window: WindowSpec) -> bool:
    """Whether a percentage lies within half_width of a window center.

    Comparison happens on exact rationals; a boundary hit counts as
    inside. value may be an int, float, Fraction, or decimal string.
    """
    v = as_fraction(value)
    if not 0 <= v <= 100:
        raise ValueError("percentage must lie in [0, 100]")
    frac = v - math.floor(v)
    if window.center_kind == "integer":
        dist = min(frac, 1 - frac)
    else:
        dist = abs(frac - Fraction(1, 2))
    return dist <= window.half_width


def _window_bound(den: np.ndarray, window: WindowSpec) -> np.ndarray:
    """The largest in-window distance of each station, -1 where den = 0.

    With half-width hn/hd, hd * x <= hn * den holds for an integer x
    exactly when x <= floor(hn * den / hd); so min(r, den - r) is tested
    against floor(hn * den / hd) for an integer center, and |2r - den|
    against floor(2 * hn * den / hd) for a half-integer one.
    """
    hn = window.half_width.numerator
    hd = window.half_width.denominator
    if window.center_kind == "half_integer":
        hn *= 2
    # at most den <= MAX_COUNT < 2^31, as every distance is
    return np.where(den > 0, hn * den // hd, -1).astype(np.int32)


class _Scorer:
    """q of each (StatisticDef, WindowSpec) in defs, on any set of one
    dataset's numerators.

    run_nulls builds one per run and scores the reported counts and
    every simulated iteration with it, so both sides use identical
    station sets and identical membership arithmetic. What depends only
    on the dataset is computed here once: each window side's bound
    (_window_bound), the den % 10 masks of zero exclusion and the
    refilter_max cap. A call computes one residue r = (100 * num) mod den
    per metric, one distance per metric and center kind, and one int32
    comparison per (metric, window) side. A station with den = 0 is
    scored with den read as 1 (so r = 0) against a bound of -1, which no
    distance meets. refilter_max is the sensitivity toggle of run_nulls:
    it drops stations whose percentage exceeds the cap on either metric.
    """

    def __init__(
        self,
        dataset: ElectionDataset,
        defs: Sequence[tuple[StatisticDef, WindowSpec]],
        refilter_max: Fraction | None = None,
    ) -> None:
        self.defs = [(METRIC_SCOPES[stat.metric_scope], stat, w) for stat, w in defs]
        self.registered = dataset.registered
        dens = {m: dataset.metric(m)[1] for m in METRICS}
        sides = dict.fromkeys((m, w) for scope, _, w in self.defs for m in scope)
        self.bound = {(m, w): _window_bound(dens[m], w) for m, w in sides}
        self.distances = dict.fromkeys((m, w.center_kind) for m, w in sides)
        # a den of 0 is read as 1, so r = 0; only such a column is copied
        self.den = {m: dens[m] if dens[m].all() else np.maximum(dens[m], 1) for m, _ in sides}
        self.den_digit = {
            m: dens[m] % 10 != 0
            for scope, stat, _ in self.defs if stat.zero_exclusion for m in scope
        }
        # 100 * pd * num <= pn * den exactly when num <= floor(pn * den / (100 * pd))
        self.cap = None
        if refilter_max is not None:
            pn, pd = refilter_max.numerator, refilter_max.denominator
            self.cap = {m: pn * dens[m] // (100 * pd) for m in METRICS}

    def members(self, nums: Mapping[str, np.ndarray]) -> dict:
        """Window membership per station of each (metric, window) side."""
        r = {m: (100 * nums[m]) % d for m, d in self.den.items()}
        dist = {}
        for m, kind in self.distances:
            d = self.den[m]
            # (200 * num) mod (2 * den) is exactly 2 * r
            x = np.minimum(r[m], d - r[m]) if kind == "integer" else np.abs(2 * r[m] - d)
            dist[m, kind] = x.astype(np.int32)
        return {(m, w): dist[m, w.center_kind] <= b for (m, w), b in self.bound.items()}

    def __call__(self, nums: Mapping[str, np.ndarray]) -> list[int]:
        """q of each definition, nums holding one numerator array per metric."""
        member = self.members(nums)
        # num != 10 * (num // 10) is num % 10 != 0; numpy divides by a
        # scalar several times faster than it takes a remainder
        kept = {m: (nums[m] != 10 * (nums[m] // 10)) & digit
                for m, digit in self.den_digit.items()}
        capped = None
        if self.cap is not None:
            capped = np.logical_and.reduce([nums[m] <= self.cap[m] for m in METRICS])
        scores = []
        for scope, stat, window in self.defs:
            hits = [member[m, window] & kept[m] if stat.zero_exclusion else member[m, window]
                    for m in scope]
            hit = reduce(np.logical_or, hits)
            if capped is not None:
                hit = hit & capped
            if stat.weighting == "registered_voters":
                scores.append(int(self.registered[hit].sum()))
            else:
                scores.append(int(np.count_nonzero(hit)))
        return scores


def empirical_statistic(
    dataset: ElectionDataset, stat: StatisticDef, window: WindowSpec
) -> int:
    """The q statistic on the dataset's reported counts.

    A station is counted once when any in-scope metric is in-window.
    With zero_exclusion, the turnout side ignores stations whose given
    or registered count ends in digit 0, and the result side those
    whose leader or cast count ends in 0.
    """
    reported = {m: dataset.metric(m)[0] for m in METRICS}
    return _Scorer(dataset, [(stat, window)])(reported)[0]


def _band_indices(n: int, levels) -> tuple[int, int]:
    """Sorted-sample indices of the percentile_band bounds of n samples."""
    lo_level = as_fraction(levels[0])
    hi_level = as_fraction(levels[1])
    if not 0 <= lo_level <= hi_level <= 100:
        raise ValueError("levels must satisfy 0 <= low <= high <= 100")
    if n == 0:
        raise ValueError("percentile_band needs at least one sample")
    lo_idx = min(math.ceil(n * lo_level / 100), n - 1)
    hi_idx = max(n - 1 - math.ceil(n * (100 - hi_level) / 100), 0)
    return lo_idx, hi_idx


def percentile_band(samples: np.ndarray, levels=DEFAULT_LEVELS) -> tuple[float, float]:
    """Order-statistic percentile interval at the given percent levels.

    The low bound is the smallest sample with at least level percent of
    the mass strictly below it computed by exact rational ceiling, so
    100 samples at levels (0.5, 99.5) give the second-smallest and
    second-largest values.
    """
    s = np.sort(np.asarray(samples))
    lo_idx, hi_idx = _band_indices(s.size, levels)
    return float(s[lo_idx]), float(s[hi_idx])


@dataclass(frozen=True)
class AnomalyReport:
    """Null-distribution summary for one statistic definition."""

    statistic: StatisticDef
    window: WindowSpec
    model: str
    iterations: int
    master_seed: int
    percentile_levels: tuple[float, float]
    empirical: float
    mc_samples: np.ndarray
    mc_mean: float
    mc_sd: float
    percentile_interval: tuple[float, float]
    z_score: float
    anomaly_size: float
    p_value_bound: float
    p_is_bound: bool

    def p_value_text(self) -> str:
        if self.p_is_bound:
            return f"<{self.p_value_bound:.6g}"
        return f"{self.p_value_bound:.6g}"

    def to_dict(self) -> dict:
        return {
            "metric_scope": self.statistic.metric_scope,
            "weighting": self.statistic.weighting,
            "zero_exclusion": self.statistic.zero_exclusion,
            "center_kind": self.window.center_kind,
            "half_width": float(self.window.half_width),
            "model": self.model,
            "iterations": self.iterations,
            "master_seed": self.master_seed,
            "percentile_levels": list(self.percentile_levels),
            "empirical": self.empirical,
            "mc_mean": self.mc_mean,
            "mc_sd": self.mc_sd,
            "percentile_low": self.percentile_interval[0],
            "percentile_high": self.percentile_interval[1],
            "z_score": self.z_score,
            "anomaly_size": self.anomaly_size,
            "p_value": self.p_value_text(),
            "p_value_bound": self.p_value_bound,
            "p_is_bound": self.p_is_bound,
        }


def _build_report(
    stat: StatisticDef,
    window: WindowSpec,
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    levels,
    empirical: int,
    samples: np.ndarray,
) -> AnomalyReport:
    mean = float(samples.mean())
    sd = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    if sd > 0.0:
        z = (empirical - mean) / sd
    elif empirical == mean:
        z = 0.0
    else:
        z = math.copysign(math.inf, empirical - mean)
    count_ge = int(np.count_nonzero(samples >= empirical))
    p_is_bound = count_ge == 0
    p = (count_ge if count_ge else 1) / iterations
    return AnomalyReport(
        statistic=stat,
        window=window,
        model=model.describe(),
        iterations=iterations,
        master_seed=int(master_seed),
        percentile_levels=(float(as_fraction(levels[0])), float(as_fraction(levels[1]))),
        empirical=float(empirical),
        mc_samples=samples,
        mc_mean=mean,
        mc_sd=sd,
        percentile_interval=percentile_band(samples, levels),
        z_score=z,
        anomaly_size=float(empirical) - mean,
        p_value_bound=p,
        p_is_bound=p_is_bound,
    )


# Fewest iterations a null test runs, here and in every Monte Carlo
# command; fewer give too few samples for the percentile band.
MIN_ITERATIONS = 100


def run_nulls(
    dataset: ElectionDataset,
    defs: Sequence[tuple[StatisticDef, WindowSpec]],
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    workers: int | None = None,
    levels=DEFAULT_LEVELS,
    progress=None,
    refilter_max_percent: Fraction | None = None,
) -> list[AnomalyReport]:
    """Null-test several statistic definitions on one set of MC draws.

    Both metrics are resampled for every station in every iteration no
    matter which scopes appear in defs, so each definition's samples
    are identical to what a standalone run would produce.

    By default simulated iterations score the exact station set the
    empirical statistic used, even when a simulated percentage lands
    above the ingest filter cap. refilter_max_percent turns on the
    sensitivity variant that drops such stations per iteration; it
    makes the effective station count random, so it is off by default.
    """
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"iterations must be >= {MIN_ITERATIONS} for meaningful percentiles")
    if not defs:
        raise ValueError("at least one statistic definition is required")
    refilter_max = None
    if refilter_max_percent is not None:
        refilter_max = as_fraction(refilter_max_percent)
        if not 0 < refilter_max <= 100:
            raise ValueError("refilter_max_percent must be in (0, 100]")
        if refilter_max.denominator > MAX_DENOMINATOR:
            raise ValueError("refilter_max_percent denominator too large")
    if isinstance(model, str):
        model = NullModel.parse(model)
    # built before run_simulation, not by a group builder, so building
    # the tables is not part of the simulation pass
    samplers, reported = {}, {}
    for metric in METRICS:
        num, den = dataset.metric(metric)
        reported[metric] = num
        samplers[metric] = make_sampler(den, num, model, metric)

    score = _Scorer(dataset, defs, refilter_max)

    def q_row(iteration_index, counts):
        return np.array(score(counts), dtype=np.int64)

    (samples_matrix,) = run_simulation(
        [samplers], [Reducer(q_row, (len(defs),))], iterations, master_seed, workers, progress
    )
    empirical = score(reported)
    return [
        _build_report(
            stat, window, model, iterations, master_seed, levels,
            emp, samples_matrix[:, j].copy(),
        )
        for j, ((stat, window), emp) in enumerate(zip(defs, empirical))
    ]


def run_null(
    dataset: ElectionDataset,
    stat: StatisticDef,
    window: WindowSpec,
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    workers: int | None = None,
    levels=DEFAULT_LEVELS,
    progress=None,
    refilter_max_percent: Fraction | None = None,
) -> AnomalyReport:
    """Monte Carlo null test of one statistic definition."""
    return run_nulls(
        dataset, [(stat, window)], model, iterations, master_seed,
        workers, levels, progress, refilter_max_percent,
    )[0]


def window_sweep(
    dataset: ElectionDataset,
    stat: StatisticDef,
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    half_widths: Sequence,
    center_kind: str = "integer",
    workers: int | None = None,
    levels=DEFAULT_LEVELS,
) -> list[AnomalyReport]:
    """One AnomalyReport per half_width, all sharing the same draws."""
    if not half_widths:
        raise ValueError("half_widths must be non-empty")
    defs = [
        (stat, WindowSpec(center_kind=center_kind, half_width=as_fraction(hw)))
        for hw in half_widths
    ]
    return run_nulls(dataset, defs, model, iterations, master_seed, workers, levels)
