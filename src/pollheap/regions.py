"""Geographic attribution: per-region peak tables and 2D fingerprints.

The national integer anomaly is decomposed by region: for every region
and every election, the excess of the empirical voter-weighted
histogram over its MC mean is evaluated at a fixed set of candidate
percentages, and the largest excess is the region's peak amplitude.
Ranking regions by that amplitude across elections shows where the
anomalous mass lives; excluding the top of the ranking and re-running
any analysis shows how much of the national signal they carry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .mc import Reducer, run_simulation
from .model import ElectionDataset
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
_N_BINS = 100 * _BINS_PER_PERCENT + 1

# Candidate centers. Integer mode: the 29 integers 70..98, i.e. 58
# candidates over both metrics. Half-integer control: 70.5..99.5.
_INTEGER_CANDIDATES = tuple(Fraction(k) for k in range(70, 99))
_HALF_CANDIDATES = tuple(Fraction(2 * k + 1, 2) for k in range(70, 100))

_METRIC_ORDER = ("turnout", "result")


def _candidate_list(center_kind: str) -> tuple[tuple[Fraction, str], ...]:
    """Ordered candidates: percent ascending, turnout before result."""
    if center_kind == "integer":
        percents = _INTEGER_CANDIDATES
    elif center_kind == "half_integer":
        percents = _HALF_CANDIDATES
    else:
        raise ValueError("center_kind must be 'integer' or 'half_integer'")
    return tuple((p, m) for p in percents for m in _METRIC_ORDER)


def _region_histograms(
    region_idx: np.ndarray,
    n_regions: int,
    num: np.ndarray,
    den: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """(n_regions, bins) voter-weight sums at 0.1% bins, exact ints."""
    out = np.zeros((n_regions, _N_BINS), dtype=np.int64)
    ok = np.flatnonzero(den > 0)
    if ok.size:
        bins = (200 * _BINS_PER_PERCENT * num[ok] + den[ok]) // (2 * den[ok])
        np.add.at(out, (region_idx[ok], bins), weight[ok])
    return out


class _RegionHistogramReducer(Reducer):
    """Accumulates per-region simulated histograms for one metric."""

    mode = "sum"
    dtype = np.dtype(np.int64)

    def __init__(self, metric, region_idx, n_regions, den, weight, group=0):
        self.metric = metric
        self.region_idx = region_idx
        self.n_regions = n_regions
        self.den = den
        self.weight = weight
        self.out_shape = (n_regions, _N_BINS)
        self.group = group

    def reduce(self, iteration_index, counts):
        return _region_histograms(
            self.region_idx, self.n_regions, counts[self.metric], self.den, self.weight
        )


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

    def top(self, count: int) -> tuple[str, ...]:
        return self.ranking[:count]


def _sampler_builder(ds: ElectionDataset, model: NullModel):
    # make_sampler is looked up when the group is built, which may be
    # in a forked worker
    return lambda: {
        "turnout": make_sampler(ds.registered, ds.given, model, "turnout"),
        "result": make_sampler(ds.cast, ds.leader, model, "result"),
    }


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
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not datasets:
        raise ValueError("at least one dataset is required")
    candidates = _candidate_list(center_kind)
    cand_bins = np.array(
        [int(p * _BINS_PER_PERCENT) for p, _ in candidates], dtype=np.int64
    )
    cand_metric_is_result = np.array([m == "result" for _, m in candidates])

    if isinstance(model, str):
        model = NullModel.parse(model)
    labels = sorted(datasets)
    all_codes = sorted({c for ds in datasets.values() for c in ds.region_codes})

    # one simulation: each dataset is a group, built where it is simulated
    groups = []
    reducers = []
    partitions = []
    for g, label in enumerate(labels):
        ds = datasets[label]
        codes, region_idx = ds.region_partition()
        partitions.append((codes, region_idx))
        groups.append(_sampler_builder(ds, model))
        reducers += [
            _RegionHistogramReducer(
                "turnout", region_idx, len(codes), ds.registered, ds.registered, group=g
            ),
            _RegionHistogramReducer(
                "result", region_idx, len(codes), ds.cast, ds.registered, group=g
            ),
        ]
    sums = run_simulation(groups, reducers, iterations, master_seed, workers, progress)

    rows: list[RegionPeakRow] = []
    best: dict[str, float] = {}
    for g, label in enumerate(labels):
        ds = datasets[label]
        codes, region_idx = partitions[g]
        n_regions = len(codes)
        mc_mean = {
            "turnout": sums[2 * g] / iterations,
            "result": sums[2 * g + 1] / iterations,
        }
        emp = {
            "turnout": _region_histograms(region_idx, n_regions, ds.given, ds.registered, ds.registered),
            "result": _region_histograms(region_idx, n_regions, ds.leader, ds.cast, ds.registered),
        }
        # (n_regions, n_candidates) excess, candidate order fixed above
        excess = np.where(
            cand_metric_is_result[None, :],
            emp["result"][:, cand_bins] - mc_mean["result"][:, cand_bins],
            emp["turnout"][:, cand_bins] - mc_mean["turnout"][:, cand_bins],
        )
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


def _region_mask(dataset: ElectionDataset, region_codes) -> tuple[np.ndarray, list[str]]:
    wanted = {str(c) for c in region_codes}
    present = set(dataset.region_codes)
    unknown = sorted(wanted - present)
    mask = np.array([c in wanted for c in dataset.region_codes], dtype=bool)
    return mask, unknown


def exclude_regions(dataset: ElectionDataset, region_codes) -> ElectionDataset:
    """Dataset minus all stations in the named regions.

    Unknown codes are reported as a warning, not an error, so a fixed
    exclusion list can be applied across years where some regions do
    not appear.
    """
    mask, unknown = _region_mask(dataset, region_codes)
    if unknown:
        warnings.warn(f"region codes not present in {dataset.label!r}: {', '.join(unknown)}")
    return dataset.take(~mask, label=dataset.label)


def restrict_regions(dataset: ElectionDataset, region_codes) -> ElectionDataset:
    """The complement of exclude_regions: only the named regions."""
    mask, unknown = _region_mask(dataset, region_codes)
    if unknown:
        warnings.warn(f"region codes not present in {dataset.label!r}: {', '.join(unknown)}")
    return dataset.take(mask, label=dataset.label)


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

    Only stations with a defined result (cast > 0) participate. Cell
    weights are exact integer sums, so fingerprints over a partition of
    the dataset add cell-exactly to the whole-dataset fingerprint.
    """
    m = 2  # bins per percent at 0.5% width
    n_bins = 100 * m + 1
    ok = np.flatnonzero((dataset.cast > 0) & (dataset.registered > 0))
    cells = np.zeros((n_bins, n_bins), dtype=np.int64)
    ti = (200 * m * dataset.given[ok] + dataset.registered[ok]) // (2 * dataset.registered[ok])
    ri = (200 * m * dataset.leader[ok] + dataset.cast[ok]) // (2 * dataset.cast[ok])
    np.add.at(cells, (ti, ri), dataset.registered[ok])

    t_pct = 100.0 * dataset.given[ok] / dataset.registered[ok]
    r_pct = 100.0 * dataset.leader[ok] / dataset.cast[ok]
    w = dataset.registered[ok].astype(np.float64) if weighted_correlation else None
    corr = _pearson(t_pct, r_pct, w)
    return Fingerprint2D(
        bin_width=Fraction(1, 2),
        cells=cells,
        correlation=corr,
        weighted=weighted_correlation,
        n_stations=int(ok.size),
    )
