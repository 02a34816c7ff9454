"""Election datasets as count columns, and the station filter.

Each station carries four integer counts: registered voters, given
ballots, cast ballots, and ballots for the leading candidate. A
dataset holds them as four int64 columns. Every analysis reads the two
METRICS, turnout (given / registered) and the leader's result
(leader / cast), as (numerators, denominators) column pairs from
ElectionDataset.metric, the one place that pairs a metric with its
columns. Percentages are decided on the columns in exact integer
arithmetic, so decisions near boundaries such as 69.95% never depend
on floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "METRICS",
    "ElectionDataset",
    "FilterPolicy",
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

# The two percentages of every station; ElectionDataset.metric gives
# each one's columns, and its code, its place here, keys its random
# streams (see stream).
METRICS = ("turnout", "result")
METRIC_CODES = {metric: code for code, metric in enumerate(METRICS)}

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

# Every seed is one 32-bit word of a numpy SeedSequence key. A larger
# int spills into the next word, so (2**32 + 5, 0) would key the same
# streams as (5, 1).
SEED_LIMIT = 2**32


def check_seed(seed: int) -> int:
    """seed as an int; ValueError unless 0 <= seed < SEED_LIMIT."""
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} is not in [0, 2**32)")
    return seed


# Random stream domains: stream(seed, index, domain) is the one source
# of random draws, and each key names one stream.
#
#   draws                               index         domain
#   simulated counts of metric code c   iteration     c
#   jitter of simulated metric code c   iteration     JITTER + c
#   jitter of reported metric code c    0             REPORTED_JITTER + c
#   synthetic election sub-stream t     tag t (0-8)   SYNTH
#
# A key keeps all three words, as SeedSequence zero-pads a key to its
# 4-word pool: (seed, 16) would draw what (seed, 16, 0), the turnout
# counts of iteration 16, draws. By that padding SYNTH = 0 keeps the
# draws of the old (seed, tag) keys, but shares domain 0 with turnout:
# simulate --seed s draws on tag t what iteration t's turnout draws.
JITTER = 16
REPORTED_JITTER = 32
SYNTH = 0


def stream(seed: int, index: int, domain: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, index, domain).

    ValueError unless seed, index and domain all lie in [0, SEED_LIMIT),
    so no word spills into the next (see check_seed).
    """
    index, domain = int(index), int(domain)
    if not (0 <= index < SEED_LIMIT and 0 <= domain < SEED_LIMIT):
        raise ValueError(f"stream index {index} or domain {domain} is not in [0, 2**32)")
    key = (check_seed(seed), index, domain)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))

# The int64 bound of every exact product, from count <= MAX_COUNT (C)
# and bound denominator <= MAX_DENOMINATOR (D); int64 holds 9.2e18. A
# filter cap or window half-width is at most 100, so its numerator is
# at most 100 * D. m is bins per percent, N the station count and I
# the iterations of a run; a bin sum adds registered counts.
#
#   site                         largest product              bound
#   apply_filters                100*num*bd, bn*den           1e17
#   _Scorer refilter_max cap     pn*den                       1e17
#   _Scorer residue              100*num                      1e11
#   _window_bound                2*hn*den                     1e15
#   _Scorer distance (int32)     min(r, d-r), |2r-d|          1e9
#   percent_bin (m <= 1000)      200*m*num + den              2e14
#   a histogram bin or cell      sum of registered            N*C
#   regions sum over iterations  I bin sums                   I*R
#
# R is the largest region's registered total (at most N*C). Only the
# last two grow with the input: a bin or cell is exact while N*C fits
# int64, and region_peaks raises ValueError before simulating when
# I*R would not.


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


def _readonly(values: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ElectionDataset:
    """Ordered, immutable collection of stations for one election.

    Storage is columnar (one int64 array per count field) because every
    analysis is vectorized over stations. Every count lies in
    [0, MAX_COUNT]; the order leader <= cast <= given <= registered is
    not required here, apply_filters drops the stations that break it.
    filter_log maps excluded station ids to the single primary reason
    for their exclusion.
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
        self._check(unique_ids_known=False)

    def _check(self, unique_ids_known: bool) -> None:
        n = len(self.station_ids)
        for name in ("region_codes", "constituency_ids"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length {len(getattr(self, name))} != {n}")
        for name in ("registered", "given", "cast", "leader"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if not unique_ids_known and len(set(self.station_ids)) != n:
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

    def __len__(self) -> int:
        return len(self.station_ids)

    def metric(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(numerators, denominators) of one of METRICS.

        turnout is given / registered and result is leader / cast.
        """
        if name == "turnout":
            return self.given, self.registered
        if name == "result":
            return self.leader, self.cast
        raise ValueError(f"metric must be one of {sorted(METRICS)}")

    def checked_metric(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """metric(name), refusing with a ValueError that names it and the
        first station above 100% (num > den, den = 0 with num > 0
        included), which apply_filters drops but a dataset may hold."""
        num, den = self.metric(name)
        over = np.flatnonzero(num > den)
        if over.size:
            i = over[0]
            raise ValueError(
                f"station {self.station_ids[i]!r} has {name} {num[i]} of {den[i]}, above 100%"
            )
        return num, den

    def take(
        self,
        indices: np.ndarray,
        label: str | None = None,
        extra_log: Mapping[str, str] | None = None,
    ) -> "ElectionDataset":
        """Subset preserving station order; used by filters and region cuts.

        Strictly increasing indices (every boolean mask gives them) pick
        distinct stations of a dataset whose ids are already unique, so
        that subset skips the id uniqueness check; any other index array
        gets every check.
        """
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        log = dict(self.filter_log)
        if extra_log:
            log.update(extra_log)

        def pick(column: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(np.array(column, dtype=object)[idx].tolist())

        subset = object.__new__(ElectionDataset)  # fields set here, checked below
        subset.__dict__.update(
            label=label if label is not None else self.label,
            station_ids=pick(self.station_ids),
            region_codes=pick(self.region_codes),
            constituency_ids=pick(self.constituency_ids),
            registered=self.registered[idx],
            given=self.given[idx],
            cast=self.cast[idx],
            leader=self.leader[idx],
            filter_log=log,
        )
        increasing = idx.size < 2 or (idx[0] >= 0 and bool((idx[1:] > idx[:-1]).all()))
        subset._check(unique_ids_known=increasing)
        return subset

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
    # acts as 100; the clamp keeps bn * den inside int64 for any cap
    bound = min(policy.max_percentage, Fraction(100))
    bn, bd = bound.numerator, bound.denominator

    # counts are never negative (ElectionDataset checks the range)
    invalid = (
        (L > B)
        | (B > G)
        | (G > V)
        | (V == 0)
    )
    too_small = V < policy.min_registered
    # percent > bound  <=>  100*num*bd > bn*den, exact in int64 for any
    # real-world census size because bd <= MAX_DENOMINATOR; with den = 0
    # it holds only for num > 0, which invalid_counts has already taken
    over = [100 * num * bd > bn * den for num, den in map(dataset.metric, METRICS)]
    undefined = (B == 0) & policy.exclude_undefined_result

    reasons = np.full(len(dataset), "", dtype=object)
    for mask, tag in (
        (invalid, REASON_INVALID),
        (too_small, REASON_TOO_SMALL),
        *zip(over, (REASON_OVER_TURNOUT, REASON_OVER_RESULT)),
        (undefined, REASON_UNDEFINED_RESULT),
    ):
        fresh = mask & (reasons == "")
        reasons[fresh] = tag

    keep = reasons == ""
    extra = {
        dataset.station_ids[i]: str(reasons[i]) for i in np.flatnonzero(~keep)
    }
    return dataset.take(keep, extra_log=extra)
