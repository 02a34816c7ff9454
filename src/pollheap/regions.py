"""Geographic attribution: per-region peak tables and 2D fingerprints.

The national integer anomaly is decomposed by region: for every region
and every election, the excess of the empirical voter-weighted
histogram over its MC mean is evaluated at a fixed set of candidate
percentages, and the largest excess is the region's peak amplitude.
Only the candidate cells of the histograms are ever summed, for the
reported counts and for every simulated iteration alike.
Ranking regions by that amplitude across elections shows where the
anomalous mass lives; excluding the top of the ranking and re-running
any analysis shows how much of the national signal they carry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

import numpy as np

from .histograms import percent_bin
from .mc import Reducer, run_simulation
from .model import METRICS, ElectionDataset
from .sampling import NullModel, make_sampler

__all__ = [
    "RegionPeakRow",
    "RegionPeakTable",
    "Fingerprint2D",
    "region_peaks",
    "exclude_regions",
    "restrict_regions",
    "fingerprint",
]

_BINS_PER_PERCENT = 10  # peak tables always use the 0.1% grid
_INT64_MAX = 2**63 - 1

# Candidate centers. Integer mode: the 29 integers 70..98, i.e. 58
# candidates over both metrics. Half-integer control: 70.5..99.5.
_INTEGER_CANDIDATES = tuple(Fraction(k) for k in range(70, 99))
_HALF_CANDIDATES = tuple(Fraction(2 * k + 1, 2) for k in range(70, 100))


def _candidate_list(center_kind: str) -> tuple[tuple[Fraction, str], ...]:
    """Ordered candidates: percent ascending, turnout before result."""
    if center_kind == "integer":
        percents = _INTEGER_CANDIDATES
    elif center_kind == "half_integer":
        percents = _HALF_CANDIDATES
    else:
        raise ValueError("center_kind must be 'integer' or 'half_integer'")
    return tuple((p, m) for p in percents for m in METRICS)


def _candidate_cells(
    cells: np.ndarray,
    region_idx: np.ndarray,
    n_regions: int,
    nums: Mapping[str, np.ndarray],
    dataset: ElectionDataset,
) -> np.ndarray:
    """(n_regions, candidates) registered-voter sums, exact ints.

    cells[k, b] is the candidate column of metric k's 0.1% bin b, or -1
    where no candidate sits. Each station with den > 0 adds its
    registered count to its region's column of every metric whose bin
    under nums is a candidate; no other bin is summed.
    """
    out = np.zeros((n_regions, int(cells.max()) + 1), dtype=np.int64)
    for k, metric in enumerate(METRICS):
        den = dataset.metric(metric)[1]
        ok = np.flatnonzero(den > 0)
        col = cells[k, percent_bin(nums[metric][ok], den[ok], _BINS_PER_PERCENT)]
        hit = col >= 0
        at = ok[hit]
        np.add.at(out, (region_idx[at], col[hit]), dataset.registered[at])
    return out


def _simulated_cells(cells, region_idx, n_regions, dataset, iteration_index, counts):
    """One iteration's _candidate_cells (a Reducer.reduce)."""
    return _candidate_cells(cells, region_idx, n_regions, counts, dataset)


@dataclass(frozen=True)
class RegionPeakRow:
    region_code: str
    dataset_label: str
    peak_amplitude: float | None  # None when the region is absent that year
    peak_metric: str | None
    peak_percent: float | None


@dataclass(frozen=True)
class RegionPeakTable:
    """Per-region peak amplitudes and the cross-year ranking."""

    center_kind: str
    rows: tuple[RegionPeakRow, ...]
    ranking: tuple[str, ...]  # region codes, largest cross-year peak first

    def rows_for(self, region_code: str) -> list[RegionPeakRow]:
        return [r for r in self.rows if r.region_code == region_code]


def _sampler_builder(ds: ElectionDataset, model: NullModel):
    def build():
        # make_sampler is looked up when the group is built, which may
        # be in a forked worker
        samplers = {}
        for metric in METRICS:
            num, den = ds.metric(metric)
            samplers[metric] = make_sampler(den, num, model, metric)
        return samplers

    return build


def region_peaks(
    datasets: Mapping[str, ElectionDataset],
    model: NullModel | str,
    iterations: int,
    master_seed: int,
    center_kind: str = "integer",
    workers: int | None = None,
    progress=None,
) -> RegionPeakTable:
    """Peak table over one or more elections keyed by label.

    For every region and dataset, both metrics' voter-weighted 0.1%
    histograms are compared against their MC means (same seeds as the
    national analysis, so the decomposition is consistent with it) and
    the maximal excess over the candidate centers is recorded. Ties on
    the maximum go to the lower percentage, then turnout before result.
    Regions are ranked by their maximum amplitude over datasets,
    descending, ties by code.
    """
    if not datasets:
        raise ValueError("at least one dataset is required")
    candidates = _candidate_list(center_kind)
    cells = np.full((len(METRICS), 100 * _BINS_PER_PERCENT + 1), -1, dtype=np.int64)
    for j, (p, m) in enumerate(candidates):
        cells[METRICS.index(m), int(p * _BINS_PER_PERCENT)] = j

    if isinstance(model, str):
        model = NullModel.parse(model)
    labels = sorted(datasets)
    all_codes = sorted({c for ds in datasets.values() for c in ds.region_codes})

    # one simulation: each dataset is a group, built where it is simulated
    groups = []
    reducers = []
    reported = []  # (region codes, reported candidate cells) per dataset
    largest = 0  # registered total of the largest region
    for label in labels:
        ds = datasets[label]
        codes, region_idx = ds.region_partition()
        nums = {m: ds.metric(m)[0] for m in METRICS}
        reported.append((codes, _candidate_cells(cells, region_idx, len(codes), nums, ds)))
        totals = np.zeros(len(codes), dtype=np.int64)
        np.add.at(totals, region_idx, ds.registered)
        largest = max(largest, int(totals.max(initial=0)))
        groups.append(_sampler_builder(ds, model))
        reduce = partial(_simulated_cells, cells, region_idx, len(codes), ds)
        reducers.append(Reducer(reduce, (len(codes), len(candidates)), mode="sum"))
    # a cell adds at most its region's total per iteration, summed in int64
    if iterations * largest > _INT64_MAX:
        raise ValueError(
            f"{iterations} iterations would overflow the int64 region sums; "
            f"at most {_INT64_MAX // largest} fit"
        )
    # one simulated sum per dataset, in label order
    sums = run_simulation(groups, reducers, iterations, master_seed, workers, progress)

    rows: list[RegionPeakRow] = []
    best: dict[str, float] = {}
    for label, (codes, emp), simulated in zip(labels, reported, sums):
        # (n_regions, n_candidates) excess of the data over the MC mean
        excess = emp - simulated / iterations
        present = {c: i for i, c in enumerate(codes)}
        for code in all_codes:
            if code not in present:
                rows.append(RegionPeakRow(code, label, None, None, None))
                continue
            r = present[code]
            j = int(np.argmax(excess[r]))  # first max: built-in tie-break
            amp = float(excess[r, j])
            rows.append(
                RegionPeakRow(
                    region_code=code,
                    dataset_label=label,
                    peak_amplitude=amp,
                    peak_metric=candidates[j][1],
                    peak_percent=float(candidates[j][0]),
                )
            )
            if code not in best or amp > best[code]:
                best[code] = amp

    ranking = tuple(
        sorted(best, key=lambda c: (-best[c], c))
        + sorted(c for c in all_codes if c not in best)
    )
    return RegionPeakTable(center_kind=center_kind, rows=tuple(rows), ranking=ranking)


def _region_mask(dataset: ElectionDataset, region_codes) -> np.ndarray:
    """Which stations lie in the named regions; warns of unknown codes."""
    wanted = {str(c) for c in region_codes}
    unknown = sorted(wanted - set(dataset.region_codes))
    if unknown:
        warnings.warn(f"region codes not present in {dataset.label!r}: {', '.join(unknown)}")
    return np.array([c in wanted for c in dataset.region_codes], dtype=bool)


def exclude_regions(dataset: ElectionDataset, region_codes) -> ElectionDataset:
    """Dataset minus all stations in the named regions.

    Unknown codes are reported as a warning, not an error, so a fixed
    exclusion list can be applied across years where some regions do
    not appear.
    """
    return dataset.take(~_region_mask(dataset, region_codes))


def restrict_regions(dataset: ElectionDataset, region_codes) -> ElectionDataset:
    """The complement of exclude_regions: only the named regions."""
    return dataset.take(_region_mask(dataset, region_codes))


@dataclass(frozen=True)
class Fingerprint2D:
    """Joint turnout-result histogram with station-level correlation.

    cells[i, j] sums registered voters of stations whose turnout falls
    in 0.5% bin i and result in 0.5% bin j. correlation is the Pearson
    coefficient across stations (None for fewer than two stations or
    zero variance), unweighted unless weighted is set.
    """

    bin_width: Fraction
    cells: np.ndarray  # (201, 201) int64, turnout axis first
    correlation: float | None
    weighted: bool
    n_stations: int

    @property
    def bin_centers(self) -> np.ndarray:
        return np.arange(self.cells.shape[0]) * float(self.bin_width)


def _pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> float | None:
    if x.size < 2:
        return None
    if w is None:
        w = np.ones_like(x)
    sw = w.sum()
    mx = (w * x).sum() / sw
    my = (w * y).sum() / sw
    cov = (w * (x - mx) * (y - my)).sum()
    vx = (w * (x - mx) ** 2).sum()
    vy = (w * (y - my) ** 2).sum()
    if vx <= 0.0 or vy <= 0.0:
        return None
    return float(cov / np.sqrt(vx * vy))


def fingerprint(
    dataset: ElectionDataset, weighted_correlation: bool = False
) -> Fingerprint2D:
    """2D turnout-result fingerprint at 0.5% bins.

    Only stations with a defined result (cast > 0) participate; a
    station above 100% is refused with a ValueError. Cell
    weights are exact integer sums, so fingerprints over a partition of
    the dataset add cell-exactly to the whole-dataset fingerprint.
    """
    m = 2  # bins per percent at 0.5% width
    n_bins = 100 * m + 1
    t_num, t_den = dataset.checked_metric("turnout")
    r_num, r_den = dataset.checked_metric("result")
    ok = np.flatnonzero((r_den > 0) & (t_den > 0))
    t_num, t_den, r_num, r_den = t_num[ok], t_den[ok], r_num[ok], r_den[ok]
    cells = np.zeros((n_bins, n_bins), dtype=np.int64)
    ti = percent_bin(t_num, t_den, m)
    ri = percent_bin(r_num, r_den, m)
    np.add.at(cells, (ti, ri), dataset.registered[ok])

    t_pct = 100.0 * t_num / t_den
    r_pct = 100.0 * r_num / r_den
    w = dataset.registered[ok].astype(np.float64) if weighted_correlation else None
    corr = _pearson(t_pct, r_pct, w)
    return Fingerprint2D(
        bin_width=Fraction(1, 2),
        cells=cells,
        correlation=corr,
        weighted=weighted_correlation,
        n_stations=int(ok.size),
    )
