"""Domain types for polling-station election data.

Each station carries four integer counts: registered voters, given
ballots, cast ballots, and ballots for the leading candidate.
Percentages derived from those counts (turnout, leader's result) are
kept as exact integer ratios until a comparison or a histogram bin
actually needs a real number, so decisions near boundaries such as
69.95% never depend on floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "StationRecord",
    "StationMetrics",
    "ElectionDataset",
    "FilterPolicy",
    "compute_metrics",
    "apply_filters",
    "as_fraction",
    "MAX_COUNT",
    "MAX_DENOMINATOR",
    "REASON_INVALID",
    "REASON_TOO_SMALL",
    "REASON_OVER_TURNOUT",
    "REASON_OVER_RESULT",
    "REASON_UNDEFINED_RESULT",
]

# Exclusion reason tags, in precedence order. A station excluded for
# several reasons is logged under the first one that applies.
REASON_INVALID = "invalid_counts"
REASON_TOO_SMALL = "too_small"
REASON_OVER_TURNOUT = "over_max_turnout"
REASON_OVER_RESULT = "over_max_result"
REASON_UNDEFINED_RESULT = "undefined_result"

# Largest denominator accepted for an exact percentage bound (a filter
# cap, a window half-width). Keeps every integer product the exact
# comparisons form, such as 100 * given * denominator, well inside
# int64 for country-scale counts.
MAX_DENOMINATOR = 10**6

# Largest station count a dataset holds (ingest applies it to a cell
# and to a derived sum). With MAX_DENOMINATOR it bounds the widest
# exact product, 100 * count * denominator <= 10**17, inside int64, and
# every count is exact as a float64.
MAX_COUNT = 10**9


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Convert a percentage-like bound to an exact Fraction.

    Floats are read through their shortest decimal repr, so 99.0 means
    exactly 99 and 0.05 means exactly 1/20, not the nearest binary
    double. Strings like "0.05" or "1/20" are accepted directly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact percentage")


@dataclass(frozen=True, slots=True)
class StationRecord:
    """Raw counts for one polling station."""

    station_id: str
    region_code: str
    constituency_id: str
    registered: int
    given: int
    cast: int
    leader: int

    def count_violation(self) -> str | None:
        """Name the first violated count constraint, or None if sane.

        A consistent protocol satisfies leader <= cast <= given <=
        registered. Real exports contain isolated violations; those are
        reported here and handled by the filter, never by aborting.
        """
        if min(self.registered, self.given, self.cast, self.leader) < 0:
            return "negative count"
        if self.leader > self.cast:
            return "leader exceeds cast"
        if self.cast > self.given:
            return "cast exceeds given"
        if self.given > self.registered:
            return "given exceeds registered"
        return None


@dataclass(frozen=True, slots=True)
class StationMetrics:
    """Derived percentages for one station, as exact ratios.

    result is None when cast = 0 (the ratio is undefined).
    """

    turnout: Fraction
    result: Fraction | None

    @property
    def turnout_percent(self) -> float:
        return float(self.turnout)

    @property
    def result_percent(self) -> float | None:
        return None if self.result is None else float(self.result)


def compute_metrics(record: StationRecord) -> StationMetrics:
    """Exact turnout and result percentages for a station.

    turnout = given/registered * 100, result = leader/cast * 100.
    Raises ValueError when registered is not positive.
    """
    if record.registered <= 0:
        raise ValueError(
            f"station {record.station_id!r}: registered must be positive "
            f"to define turnout (got {record.registered})"
        )
    turnout = Fraction(100 * record.given, record.registered)
    result = None
    if record.cast > 0:
        result = Fraction(100 * record.leader, record.cast)
    return StationMetrics(turnout=turnout, result=result)


def _readonly(values: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ElectionDataset:
    """Ordered, immutable collection of stations for one election.

    Storage is columnar (one int64 array per count field) because every
    analysis is vectorized over stations; StationRecord views are
    materialized on demand. filter_log maps excluded station ids to the
    single primary reason for their exclusion.
    """

    label: str
    station_ids: tuple[str, ...]
    region_codes: tuple[str, ...]
    constituency_ids: tuple[str, ...]
    registered: np.ndarray
    given: np.ndarray
    cast: np.ndarray
    leader: np.ndarray
    filter_log: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.station_ids)
        for name in ("region_codes", "constituency_ids"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length {len(getattr(self, name))} != {n}")
        for name in ("registered", "given", "cast", "leader"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if len(set(self.station_ids)) != n:
            raise ValueError(f"dataset {self.label!r}: station_ids are not unique")
        counts = np.stack([self.registered, self.given, self.cast, self.leader])
        outside = np.flatnonzero(((counts < 0) | (counts > MAX_COUNT)).any(axis=0))
        if outside.size:
            raise ValueError(
                f"dataset {self.label!r}: station {self.station_ids[outside[0]]!r} "
                f"has a count outside [0, {MAX_COUNT}]"
            )

    @classmethod
    def from_arrays(
        cls,
        label: str,
        registered,
        given,
        cast,
        leader,
        station_ids: Sequence[str] | None = None,
        region_codes: Sequence[str] | None = None,
        constituency_ids: Sequence[str] | None = None,
    ) -> "ElectionDataset":
        """Build a dataset from count arrays, synthesizing missing ids."""
        registered = np.asarray(registered, dtype=np.int64)
        n = registered.size
        if station_ids is None:
            station_ids = tuple(f"S{i:07d}" for i in range(n))
        if region_codes is None:
            region_codes = ("ALL",) * n
        if constituency_ids is None:
            constituency_ids = ("",) * n
        return cls(
            label=label,
            station_ids=tuple(str(s) for s in station_ids),
            region_codes=tuple(str(c) for c in region_codes),
            constituency_ids=tuple(str(c) for c in constituency_ids),
            registered=registered,
            given=np.asarray(given, dtype=np.int64),
            cast=np.asarray(cast, dtype=np.int64),
            leader=np.asarray(leader, dtype=np.int64),
        )

    @classmethod
    def from_records(
        cls,
        label: str,
        records: Sequence[StationRecord],
        filter_log: Mapping[str, str] | None = None,
    ) -> "ElectionDataset":
        records = list(records)
        return cls(
            label=label,
            station_ids=tuple(r.station_id for r in records),
            region_codes=tuple(r.region_code for r in records),
            constituency_ids=tuple(r.constituency_id for r in records),
            registered=np.array([r.registered for r in records], dtype=np.int64),
            given=np.array([r.given for r in records], dtype=np.int64),
            cast=np.array([r.cast for r in records], dtype=np.int64),
            leader=np.array([r.leader for r in records], dtype=np.int64),
            filter_log=dict(filter_log or {}),
        )

    def __len__(self) -> int:
        return len(self.station_ids)

    def record(self, i: int) -> StationRecord:
        return StationRecord(
            station_id=self.station_ids[i],
            region_code=self.region_codes[i],
            constituency_id=self.constituency_ids[i],
            registered=int(self.registered[i]),
            given=int(self.given[i]),
            cast=int(self.cast[i]),
            leader=int(self.leader[i]),
        )

    def __iter__(self) -> Iterator[StationRecord]:
        return (self.record(i) for i in range(len(self)))

    def take(
        self,
        indices: np.ndarray,
        label: str | None = None,
        extra_log: Mapping[str, str] | None = None,
    ) -> "ElectionDataset":
        """Subset preserving station order; used by filters and region cuts."""
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        log = dict(self.filter_log)
        if extra_log:
            log.update(extra_log)
        return ElectionDataset(
            label=label if label is not None else self.label,
            station_ids=tuple(self.station_ids[i] for i in idx),
            region_codes=tuple(self.region_codes[i] for i in idx),
            constituency_ids=tuple(self.constituency_ids[i] for i in idx),
            registered=self.registered[idx],
            given=self.given[idx],
            cast=self.cast[idx],
            leader=self.leader[idx],
            filter_log=log,
        )

    def region_partition(self) -> tuple[list[str], np.ndarray]:
        """Sorted unique region codes and each station's index into them."""
        codes = sorted(set(self.region_codes))
        lookup = {c: i for i, c in enumerate(codes)}
        idx = np.fromiter(
            (lookup[c] for c in self.region_codes), dtype=np.int64, count=len(self)
        )
        return codes, idx


@dataclass(frozen=True)
class FilterPolicy:
    """Station admission rules applied before any statistic.

    A station survives iff registered >= min_registered, turnout and
    result (where defined) do not exceed max_percentage, the counts are
    internally consistent, and, when exclude_undefined_result is set,
    cast > 0 so the result percentage exists.
    """

    min_registered: int = 100
    max_percentage: Fraction = Fraction(99)
    exclude_undefined_result: bool = True

    def __post_init__(self) -> None:
        bound = as_fraction(self.max_percentage)
        if bound.denominator > MAX_DENOMINATOR:
            raise ValueError(
                "max_percentage precision exceeds 1e-6; exact filter tests "
                "would overflow 64-bit integer arithmetic"
            )
        object.__setattr__(self, "max_percentage", bound)

    def with_overrides(self, **kwargs) -> "FilterPolicy":
        return replace(self, **kwargs)


def apply_filters(
    dataset: ElectionDataset, policy: FilterPolicy | None = None
) -> ElectionDataset:
    """Apply a FilterPolicy, logging one primary reason per exclusion.

    Precedence when several rules reject the same station:
    invalid_counts, too_small, over_max_turnout, over_max_result,
    undefined_result. Idempotent: filtering a filtered dataset with the
    same policy is the identity.
    """
    if policy is None:
        policy = FilterPolicy()
    V = dataset.registered
    G = dataset.given
    B = dataset.cast
    L = dataset.leader

    # a valid station's percentages never exceed 100, so a higher cap
    # acts as 100; the clamp keeps bn * V inside int64 for any cap
    bound = min(policy.max_percentage, Fraction(100))
    bn, bd = bound.numerator, bound.denominator

    invalid = (
        (L > B)
        | (B > G)
        | (G > V)
        | (V < 0)
        | (G < 0)
        | (B < 0)
        | (L < 0)
        | (V == 0)
    )
    too_small = V < policy.min_registered
    # turnout > bound  <=>  100*G*bd > bn*V, exact in int64 for any
    # real-world census size because bd <= MAX_DENOMINATOR
    over_turnout = 100 * G * bd > bn * V
    over_result = (B > 0) & (100 * L * bd > bn * B)
    undefined = (B == 0) & policy.exclude_undefined_result

    reasons = np.full(len(dataset), "", dtype=object)
    for mask, tag in (
        (invalid, REASON_INVALID),
        (too_small, REASON_TOO_SMALL),
        (over_turnout, REASON_OVER_TURNOUT),
        (over_result, REASON_OVER_RESULT),
        (undefined, REASON_UNDEFINED_RESULT),
    ):
        fresh = mask & (reasons == "")
        reasons[fresh] = tag

    keep = reasons == ""
    extra = {
        dataset.station_ids[i]: str(reasons[i]) for i in np.flatnonzero(~keep)
    }
    return dataset.take(keep, extra_log=extra)
