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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .mc import Reducer, run_simulation
from .model import MAX_DENOMINATOR, ElectionDataset, as_fraction
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
METRIC_SCOPES = ("turnout_or_result", "turnout_only", "result_only")
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
            raise ValueError(f"metric_scope must be one of {METRIC_SCOPES}")
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


_Residues = tuple[np.ndarray, np.ndarray, np.ndarray]


def _side_residues(num: np.ndarray, den: np.ndarray) -> _Residues:
    """Stations with den > 0, their den, and r = (100 * num) mod den.

    Every window tested on one side's numerators needs only these.
    """
    ok = np.flatnonzero(den > 0)
    d = den[ok]
    return ok, d, (100 * num[ok]) % d


def _side_membership(residues: _Residues, size: int, window: WindowSpec) -> np.ndarray:
    """Window membership per station from one side's _side_residues."""
    ok, d, r = residues
    hn = window.half_width.numerator
    hd = window.half_width.denominator
    if window.center_kind == "integer":
        inside = hd * np.minimum(r, d - r) <= hn * d
    else:
        # (200 * num) mod (2 * den) is exactly 2 * r
        inside = hd * np.abs(2 * r - d) <= 2 * hn * d
    member = np.zeros(size, dtype=bool)
    member[ok] = inside
    return member


@dataclass(frozen=True)
class _Evaluator:
    """Evaluates one (StatisticDef, WindowSpec) pair on numerator arrays.

    Denominators and weights are frozen at construction; the same
    instance scores the empirical numerators and every simulated
    iteration, guaranteeing both sides use identical station sets and
    identical membership arithmetic.
    """

    stat: StatisticDef
    window: WindowSpec
    registered: np.ndarray
    cast: np.ndarray
    # sensitivity toggle: drop stations whose evaluated percentages
    # exceed this cap. Off by default, so simulated iterations score
    # the exact station set the empirical statistic used.
    refilter_max: Fraction | None = None

    def __call__(
        self, turnout_num: np.ndarray, result_num: np.ndarray, memo: dict | None = None
    ) -> int:
        """Score one set of numerators.

        Evaluators built on one dataset that share a memo over the same
        numerators compute each side's residues once (key: side, None)
        and each side's membership in a window once (key: side, window).
        Memo entries are never modified in place.
        """
        memo = {} if memo is None else memo
        scope = self.stat.metric_scope
        sides = []
        if scope != "result_only":
            sides.append(("turnout", turnout_num, self.registered))
        if scope != "turnout_only":
            sides.append(("result", result_num, self.cast))
        member = None
        for side, num, den in sides:
            key = (side, self.window)
            if key not in memo:
                if (side, None) not in memo:
                    memo[(side, None)] = _side_residues(num, den)
                memo[key] = _side_membership(memo[(side, None)], den.size, self.window)
            m = memo[key]
            if self.stat.zero_exclusion:
                m = m & (num % 10 != 0) & (den % 10 != 0)
            member = m if member is None else member | m
        if self.refilter_max is not None:
            pn, pd = self.refilter_max.numerator, self.refilter_max.denominator
            member = member & (100 * pd * turnout_num <= pn * self.registered)
            ok_cast = self.cast > 0
            member = member & (~ok_cast | (100 * pd * result_num <= pn * self.cast))
        if self.stat.weighting == "registered_voters":
            return int(self.registered[member].sum())
        return int(np.count_nonzero(member))


def _make_evaluator(
    dataset: ElectionDataset,
    stat: StatisticDef,
    window: WindowSpec,
    refilter_max: Fraction | None = None,
) -> _Evaluator:
    if refilter_max is not None:
        refilter_max = as_fraction(refilter_max)
        if not 0 < refilter_max <= 100:
            raise ValueError("refilter_max_percent must be in (0, 100]")
        if refilter_max.denominator > MAX_DENOMINATOR:
            raise ValueError("refilter_max_percent denominator too large")
    return _Evaluator(
        stat=stat,
        window=window,
        registered=dataset.registered,
        cast=dataset.cast,
        refilter_max=refilter_max,
    )


def empirical_statistic(
    dataset: ElectionDataset, stat: StatisticDef, window: WindowSpec
) -> int:
    """The q statistic on the dataset's reported counts.

    A station is counted once when any in-scope metric is in-window.
    With zero_exclusion, the turnout side ignores stations whose given
    or registered count ends in digit 0, and the result side those
    whose leader or cast count ends in 0.
    """
    ev = _make_evaluator(dataset, stat, window)
    return ev(dataset.given, dataset.leader)


class _QReducer(Reducer):
    """Per-iteration q values for a list of statistic definitions."""

    mode = "stack"
    dtype = np.dtype(np.int64)

    def __init__(self, evaluators: Sequence[_Evaluator]):
        self.evaluators = list(evaluators)
        self.out_shape = (len(self.evaluators),)

    def reduce(self, iteration_index: int, counts: Mapping[str, np.ndarray]):
        t = counts["turnout"]
        r = counts["result"]
        memo: dict = {}
        return np.array([ev(t, r, memo) for ev in self.evaluators], dtype=np.int64)


def percentile_band(samples: np.ndarray, levels=DEFAULT_LEVELS) -> tuple[float, float]:
    """Order-statistic percentile interval at the given percent levels.

    The low bound is the smallest sample with at least level percent of
    the mass strictly below it computed by exact rational ceiling, so
    100 samples at levels (0.5, 99.5) give the second-smallest and
    second-largest values.
    """
    lo_level = as_fraction(levels[0])
    hi_level = as_fraction(levels[1])
    if not 0 <= lo_level <= hi_level <= 100:
        raise ValueError("levels must satisfy 0 <= low <= high <= 100")
    s = np.sort(np.asarray(samples))
    n = s.size
    if n == 0:
        raise ValueError("percentile_band needs at least one sample")
    lo_idx = min(math.ceil(n * lo_level / 100), n - 1)
    hi_idx = max(n - 1 - math.ceil(n * (100 - hi_level) / 100), 0)
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

    def to_dict(self, include_samples: bool = False) -> dict:
        d = {
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
        if include_samples:
            d["mc_samples"] = [int(v) for v in self.mc_samples]
        return d

    def to_json(self, include_samples: bool = False) -> str:
        return json.dumps(self.to_dict(include_samples), sort_keys=True)


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
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations < 100:
        raise ValueError("iterations must be >= 100 for meaningful percentiles")
    if not defs:
        raise ValueError("at least one statistic definition is required")
    if isinstance(model, str):
        model = NullModel.parse(model)
    samplers = {
        "turnout": make_sampler(dataset.registered, dataset.given, model, "turnout"),
        "result": make_sampler(dataset.cast, dataset.leader, model, "result"),
    }
    evaluators = [
        _make_evaluator(dataset, stat, window, refilter_max_percent)
        for stat, window in defs
    ]
    reducer = _QReducer(evaluators)
    (samples_matrix,) = run_simulation(
        [samplers], [reducer], iterations, master_seed, workers, progress
    )
    reports = []
    for j, (stat, window) in enumerate(defs):
        emp = evaluators[j](dataset.given, dataset.leader)
        reports.append(
            _build_report(
                stat, window, model, iterations, master_seed, levels,
                emp, samples_matrix[:, j].copy(),
            )
        )
    return reports


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
