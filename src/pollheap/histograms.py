"""Voter-weighted percentage histograms, MC envelopes, and peak shapes.

Histograms put each station's registered-voter count into the bin
containing its turnout or result percentage. Bins are centered on a
uniform grid 0.0, bw, 2*bw, ..., 100.0 and are lower-closed: bin k
covers [k*bw - bw/2, k*bw + bw/2). Bin assignment for unjittered data
is exact integer arithmetic (see percent_bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .mc import Reducer, run_simulation
from .model import JITTER, METRIC_CODES, METRICS, REPORTED_JITTER, ElectionDataset, as_fraction, stream
from .sampling import NullModel, make_sampler
from .anomaly import DEFAULT_LEVELS, _band_indices

__all__ = [
    "WeightedHistogram",
    "Envelope",
    "PeakShape",
    "build_histogram",
    "mc_histograms",
    "mc_histogram_matrices",
    "average_histograms",
    "peak_shape",
]

DEFAULT_BIN_WIDTH = Fraction(1, 10)

def _bins_per_percent(bin_width) -> int:
    bw = as_fraction(bin_width)
    if bw <= 0 or (Fraction(1) % bw) != 0:
        raise ValueError("bin_width must divide 1 percent evenly")
    m = int(Fraction(1) / bw)
    if m > 1000:
        raise ValueError("bin_width below 0.001 percent is not supported")
    return m


@dataclass(frozen=True)
class WeightedHistogram:
    """Per-bin sums of registered voters over a percentage grid."""

    metric: str
    bin_width: Fraction
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {sorted(METRICS)}")
        bw = as_fraction(self.bin_width)
        m = _bins_per_percent(bw)
        object.__setattr__(self, "bin_width", bw)
        w = np.asarray(self.weights)
        if w.ndim != 1 or w.size != 100 * m + 1:
            raise ValueError(
                f"weights must have 100 * {m} + 1 entries for bin_width {bw}"
            )
        object.__setattr__(self, "weights", w)

    @property
    def bins_per_percent(self) -> int:
        return int(Fraction(1) / self.bin_width)

    @property
    def bin_centers(self) -> np.ndarray:
        return np.arange(self.weights.size) * (1.0 / self.bins_per_percent)

    def same_grid(self, other: "WeightedHistogram") -> bool:
        return (
            self.bin_width == other.bin_width
            and self.weights.size == other.weights.size
        )


def percent_bin(num: np.ndarray, den: np.ndarray, m: int) -> np.ndarray:
    """Bin of each 100*num/den on the grid of m bins per percent (den > 0).

    Exact: the nearest multiple of 1/m percent, a half-way value going
    up, is (200*m*num + den) // (2*den).
    """
    return (200 * m * num + den) // (2 * den)


def _bin_histogram(
    num: np.ndarray,
    den: np.ndarray,
    weight: np.ndarray,
    m: int,
    suppress_hundred: bool,
    jitter_u: np.ndarray | None,
) -> np.ndarray:
    """Weight sums per bin; stations with den = 0 contribute nothing."""
    n_bins = 100 * m + 1
    out = np.zeros(n_bins, dtype=np.int64)
    keep = den > 0
    if suppress_hundred:
        keep &= num != den
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return out
    if jitter_u is None:
        bins = percent_bin(num[idx], den[idx], m)
    else:
        pct = 100.0 * (num[idx] + jitter_u[idx]) / den[idx]
        bins = np.floor(pct * m + 0.5).astype(np.int64)
        np.clip(bins, 0, n_bins - 1, out=bins)
    np.add.at(out, bins, weight[idx])
    return out


def build_histogram(
    dataset: ElectionDataset,
    metric: str,
    bin_width=DEFAULT_BIN_WIDTH,
    jitter: bool = False,
    seed: int = 0,
    suppress_hundred: bool = True,
) -> WeightedHistogram:
    """Voter-weighted histogram of one metric.

    Each station adds its registered count to the bin containing its
    percentage; a station above 100% is refused with a ValueError.
    Stations whose metric is undefined (zero denominator)
    are skipped; stations at exactly 100% are dropped when
    suppress_hundred is set. With jitter on, uniform(-0.5, 0.5) noise
    is added to the numerator before division, de-quantizing the
    small-denominator division artifacts; the noise stream is keyed by
    (seed, metric) only, apart from every simulated iteration's streams.
    """
    m = _bins_per_percent(bin_width)
    num, den = dataset.checked_metric(metric)
    u = None
    if jitter:
        u = stream(seed, 0, REPORTED_JITTER + METRIC_CODES[metric]).random(len(dataset)) - 0.5
    weights = _bin_histogram(num, den, dataset.registered, m, suppress_hundred, u)
    return WeightedHistogram(metric=metric, bin_width=as_fraction(bin_width), weights=weights)


def _simulated_histogram(
    metric: str,
    den: np.ndarray,
    weight: np.ndarray,
    m: int,
    suppress_hundred: bool,
    jitter: bool,
    master_seed: int,
    iteration_index: int,
    counts: Mapping[str, np.ndarray],
) -> np.ndarray:
    """One iteration's histogram of simulated percentages (a Reducer.reduce)."""
    num = counts[metric]
    u = None
    if jitter:
        u = stream(master_seed, iteration_index, JITTER + METRIC_CODES[metric]).random(num.size) - 0.5
    return _bin_histogram(num, den, weight, m, suppress_hundred, u)


def mc_histograms(
    dataset: ElectionDataset,
    metric: str,
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    bin_width=DEFAULT_BIN_WIDTH,
    jitter: bool = False,
    suppress_hundred: bool = True,
    workers: int | None = None,
    progress=None,
) -> np.ndarray:
    """Simulated histograms, one row per iteration.

    Row i is the histogram the dataset would show if every station's
    metric numerator were replaced by its iteration-i null draw. Rows
    are reproducible individually: they depend only on (master_seed,
    iteration index, model, dataset).
    """
    (matrix,) = mc_histogram_matrices(
        [(dataset, metric)], model, iterations, master_seed,
        bin_width, jitter, suppress_hundred, workers, progress,
    )
    return matrix


def _sampler_builder(den: np.ndarray, num: np.ndarray, model, metric: str):
    # make_sampler is looked up when the group is built, which may be
    # in a forked worker
    return lambda: {metric: make_sampler(den, num, model, metric)}


def mc_histogram_matrices(
    jobs: Sequence[tuple[ElectionDataset, str]],
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    bin_width=DEFAULT_BIN_WIDTH,
    jitter: bool = False,
    suppress_hundred: bool = True,
    workers: int | None = None,
    progress=None,
    finish=None,
) -> list:
    """mc_histograms of several (dataset, metric) jobs in one simulation.

    Entry k equals mc_histograms(*jobs[k], model, ...) bit for bit:
    each job is its own station-set group, so its draws do not depend
    on the other jobs. Each job's sampler table is built by whichever
    process simulates it (see mc.run_simulation). finish, if given, is
    one one-argument callable per job, and entry k is then
    finish[k](matrix) instead, computed where job k's simulation
    completes (Reducer.finish), so with several jobs over several
    workers each matrix stays in the worker that made it.
    """
    if not jobs:
        raise ValueError("at least one (dataset, metric) job is required")
    if finish is None:
        finish = [None] * len(jobs)
    elif len(finish) != len(jobs):
        raise ValueError("finish needs one callable per job")
    m = _bins_per_percent(bin_width)
    if isinstance(model, str):
        model = NullModel.parse(model)
    groups = []
    reducers = []
    for (dataset, metric), fin in zip(jobs, finish):
        num, den = dataset.metric(metric)
        groups.append(_sampler_builder(den, num, model, metric))
        reduce = partial(
            _simulated_histogram, metric, den, dataset.registered, m, suppress_hundred, jitter,
            master_seed,
        )
        reducers.append(Reducer(reduce, (100 * m + 1,), finish=fin))
    return run_simulation(groups, reducers, iterations, master_seed, workers, progress)


@dataclass(frozen=True)
class Envelope:
    """Per-bin MC percentile band and mean for one metric's histogram."""

    metric: str
    bin_width: Fraction
    levels: tuple[float, float]
    iterations: int
    low: np.ndarray
    high: np.ndarray
    mean: np.ndarray


def envelope_from_matrix(
    matrix: np.ndarray, metric: str, bin_width, levels=DEFAULT_LEVELS
) -> Envelope:
    """Order-statistic band per bin from a (iterations, bins) matrix.

    Each bin's band is percentile_band of its column.
    """
    n = matrix.shape[0]
    lo_idx, hi_idx = _band_indices(n, levels)
    s = np.sort(matrix, axis=0)
    return Envelope(
        metric=metric,
        bin_width=as_fraction(bin_width),
        levels=(float(as_fraction(levels[0])), float(as_fraction(levels[1]))),
        iterations=n,
        low=s[lo_idx].astype(np.float64),
        high=s[hi_idx].astype(np.float64),
        mean=matrix.mean(axis=0),
    )


def average_histograms(histograms: Sequence[WeightedHistogram]) -> WeightedHistogram:
    """Per-bin arithmetic mean of same-grid, same-metric histograms."""
    if not histograms:
        raise ValueError("need at least one histogram")
    first = histograms[0]
    for h in histograms[1:]:
        if not first.same_grid(h):
            raise ValueError("histograms must share one bin grid")
        if h.metric != first.metric:
            raise ValueError("histograms must share one metric")
    stack = np.stack([np.asarray(h.weights, dtype=np.float64) for h in histograms])
    return WeightedHistogram(
        metric=first.metric,
        bin_width=first.bin_width,
        weights=stack.mean(axis=0),
    )


@dataclass(frozen=True)
class PeakShape:
    """Average shape of the excess mass around integer percentages."""

    bin_width: Fraction
    offsets: np.ndarray  # -0.5 ... +0.5 in bin_width steps
    mean_excess: np.ndarray  # per-offset mean of empirical - MC mean
    intervals: int  # how many 1%-wide windows were averaged


def _as_pairs(empirical, mc_mean):
    if isinstance(empirical, WeightedHistogram):
        empirical = [empirical]
    if isinstance(mc_mean, WeightedHistogram):
        mc_mean = [mc_mean]
    if len(empirical) != len(mc_mean):
        raise ValueError("need one MC-mean histogram per empirical histogram")
    return list(zip(empirical, mc_mean))


def peak_shape(empirical, mc_mean) -> PeakShape:
    """Average excess around integers over all 1% windows and inputs.

    Accepts single histograms or parallel sequences (e.g. the turnout
    and result averages, giving 99 + 99 = 198 windows). For every
    integer center k = 1..99 the excess (empirical - MC mean) in
    [k - 0.5, k + 0.5] is extracted and the windows are averaged
    offset-wise.
    """
    pairs = _as_pairs(empirical, mc_mean)
    first_emp = pairs[0][0]
    m = first_emp.bins_per_percent
    if m % 2 != 0:
        raise ValueError("bin_width must align half-percent window edges")
    half = m // 2
    windows = []
    for emp, mc in pairs:
        if not (emp.same_grid(first_emp) and mc.same_grid(first_emp)):
            raise ValueError("all histograms must share one bin grid")
        excess = np.asarray(emp.weights, dtype=np.float64) - np.asarray(
            mc.weights, dtype=np.float64
        )
        for k in range(1, 100):
            c = k * m
            windows.append(excess[c - half : c + half + 1])
    stack = np.stack(windows)
    offsets = (np.arange(2 * half + 1) - half) / m
    return PeakShape(
        bin_width=first_emp.bin_width,
        offsets=offsets,
        mean_excess=stack.mean(axis=0),
        intervals=len(windows),
    )
