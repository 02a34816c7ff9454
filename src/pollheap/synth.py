"""Synthetic election generator and fraud injector.

The generator draws every station from the declared null model
(binomial counts around per-station true probabilities), which makes
it the calibration oracle for the detectors: whatever the analysis
flags on generated data is a false positive by construction. The
injector then edits numerators (given or leader counts, denominators
held fixed) to emulate specific manipulation mechanisms, providing
ground truth for power analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .model import SYNTH, ElectionDataset, as_fraction, stream

__all__ = [
    "FixedSize",
    "LogNormalSize",
    "FixedProb",
    "BetaProb",
    "GeneratorConfig",
    "SyntheticElection",
    "FraudSpec",
    "InjectionRecord",
    "InjectionLog",
    "generate",
    "inject_fraud",
    "default_target_palette",
]

MECHANISMS = (
    "integer_rounding",
    "five_multiple_rounding",
    "ballot_stuffing",
    "extreme_cluster",
)
TARGET_SIDES = ("just_above", "nearest")
METRIC_CHOICES = ("either", "turnout", "result", "both")

# Sub-stream tags: tag t draws from stream(seed, t, SYNTH).
_TAG_SIZE = 0
_TAG_REGION = 1
_TAG_TURNOUT_P = 2
_TAG_RESULT_P = 3
_TAG_INVALID_P = 4
_TAG_GIVEN = 5
_TAG_INVALID = 6
_TAG_LEADER = 7
_TAG_FRAUD = 8


@dataclass(frozen=True)
class FixedSize:
    registered: int

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.registered < 1:
            raise ValueError("registered must be >= 1")
        return np.full(n, int(self.registered), dtype=np.int64)


@dataclass(frozen=True)
class LogNormalSize:
    """Station sizes from a truncated log-normal (counts clipped)."""

    median: float = 1200.0
    sigma: float = 0.6
    low: int = 100
    high: int = 3000

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if not 1 <= self.low <= self.high:
            raise ValueError("need 1 <= low <= high")
        raw = rng.lognormal(mean=np.log(self.median), sigma=self.sigma, size=n)
        return np.clip(np.rint(raw), self.low, self.high).astype(np.int64)


@dataclass(frozen=True)
class FixedProb:
    value: float

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class BetaProb:
    alpha: float
    beta: float

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")
        return rng.beta(self.alpha, self.beta, n)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of a synthetic election."""

    n_stations: int
    size: FixedSize | LogNormalSize = field(default_factory=LogNormalSize)
    turnout: FixedProb | BetaProb = field(default_factory=lambda: BetaProb(14.0, 8.0))
    result: FixedProb | BetaProb = field(default_factory=lambda: BetaProb(10.0, 6.0))
    invalid: FixedProb | BetaProb = field(default_factory=lambda: FixedProb(0.015))
    n_regions: int = 1
    region_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_stations < 0:
            raise ValueError("n_stations must be >= 0")
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.region_weights is not None and len(self.region_weights) != self.n_regions:
            raise ValueError("region_weights length must equal n_regions")


@dataclass(frozen=True)
class SyntheticElection:
    """Generated dataset plus the true per-station probabilities."""

    dataset: ElectionDataset
    turnout_p: np.ndarray
    result_p: np.ndarray
    invalid_p: np.ndarray

    def __len__(self) -> int:
        return len(self.dataset)


def generate(config: GeneratorConfig, seed: int) -> SyntheticElection:
    """Draw a synthetic election from the null model.

    Per station: registered V from the size distribution, given
    G ~ Binom(V, p_turnout), cast B = G minus Binom(G, p_invalid)
    spoiled ballots, leader L ~ Binom(B, p_result). All invariants
    (L <= B <= G <= V) hold by construction. Identical (config, seed)
    produce identical elections.
    """
    n = config.n_stations
    V = config.size.draw(stream(seed, _TAG_SIZE, SYNTH), n)
    if isinstance(config.size, FixedSize) and config.size.registered < 100:
        warnings.warn(
            "fixed station size below 100 registered voters: the default "
            "filter policy would drop every station"
        )
    pt = config.turnout.draw(stream(seed, _TAG_TURNOUT_P, SYNTH), n)
    pr = config.result.draw(stream(seed, _TAG_RESULT_P, SYNTH), n)
    pi = config.invalid.draw(stream(seed, _TAG_INVALID_P, SYNTH), n)

    G = stream(seed, _TAG_GIVEN, SYNTH).binomial(V, pt)
    I = stream(seed, _TAG_INVALID, SYNTH).binomial(G, pi)
    B = G - I
    L = stream(seed, _TAG_LEADER, SYNTH).binomial(B, pr)

    if config.n_regions == 1:
        codes = ("R00",) * n
    else:
        w = config.region_weights
        p = None if w is None else np.asarray(w, dtype=np.float64) / np.sum(w)
        assign = stream(seed, _TAG_REGION, SYNTH).choice(config.n_regions, size=n, p=p)
        # one str object per region, shared by its stations
        names = [f"R{r:02d}" for r in range(config.n_regions)]
        codes = tuple(map(names.__getitem__, assign.tolist()))

    dataset = ElectionDataset.from_arrays(
        label=f"synthetic-{seed}",
        registered=V,
        given=G.astype(np.int64),
        cast=B.astype(np.int64),
        leader=L.astype(np.int64),
        region_codes=codes,
    )
    return SyntheticElection(dataset=dataset, turnout_p=pt, result_p=pr, invalid_p=pi)


def default_target_palette() -> tuple[tuple[int, int], ...]:
    """(percent, weight) pairs: integers 70..99, multiples of 5 weighted 3x."""
    return tuple((k, 3 if k % 5 == 0 else 1) for k in range(70, 100))


@dataclass(frozen=True)
class FraudSpec:
    """What to inject and where.

    metric_choice controls which percentage an affected station gets
    rounded on: "either" picks turnout or result at random per station
    (the default; manipulating both at once would also distort the
    half-integer control through sheer mass displacement), "both"
    rounds both metrics.
    """

    mechanism: str
    affected_fraction: float
    target_side: str = "just_above"
    region_concentration: frozenset[str] | None = None
    metric_choice: str = "either"
    window_half_width: Fraction = Fraction(1, 20)
    targets: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}")
        if not 0.0 <= self.affected_fraction <= 1.0:
            raise ValueError("affected_fraction must lie in [0, 1]")
        if self.target_side not in TARGET_SIDES:
            raise ValueError(f"target_side must be one of {TARGET_SIDES}")
        if self.metric_choice not in METRIC_CHOICES:
            raise ValueError(f"metric_choice must be one of {METRIC_CHOICES}")
        hw = as_fraction(self.window_half_width)
        if not 0 < hw <= Fraction(1, 2):
            raise ValueError("window_half_width must lie in (0, 0.5]")
        object.__setattr__(self, "window_half_width", hw)
        if self.region_concentration is not None:
            object.__setattr__(
                self, "region_concentration", frozenset(self.region_concentration)
            )

    def palette(self) -> tuple[tuple[int, int], ...]:
        if self.targets is not None:
            return self.targets
        if self.mechanism == "five_multiple_rounding":
            return tuple((k, 1) for k in range(70, 100) if k % 5 == 0)
        return default_target_palette()


@dataclass(frozen=True)
class InjectionRecord:
    station_id: str
    mechanism: str
    metric: str  # which percentage was targeted, or "both"
    target_percent: float | None
    given_before: int
    leader_before: int
    given_after: int
    leader_after: int


@dataclass(frozen=True)
class InjectionLog:
    records: tuple[InjectionRecord, ...]
    skipped: tuple[tuple[str, str], ...]  # (station_id, reason)
    requested: int

    @property
    def modified(self) -> int:
        return len(self.records)


def _rounding_numerator(
    den: int, target: int, hw: Fraction, side: str
) -> int | None:
    """Numerator placing num/den within the window at/around target%.

    Non-multiples of 10 are preferred (round counts would be caught by
    the trailing-zero control), then the count closest to the target,
    then the smaller. Of two consecutive integers one is not a multiple
    of 10, so the best count is among the window's two nearest the
    target from below and its two nearest from above; only those are
    scored, exactly, so the cost does not grow with den. Returns None
    when the window holds no integer numerator.
    """
    hn, hd = hw.numerator, hw.denominator
    if side == "just_above":
        lo_bound = Fraction(target * den, 100)
    else:
        lo_bound = Fraction((target * hd - hn) * den, 100 * hd)
    hi_bound = Fraction((target * hd + hn) * den, 100 * hd)
    lo = max(math.ceil(lo_bound), 0)
    hi = min(math.floor(hi_bound), den)
    if lo > hi:
        return None
    center = Fraction(target * den, 100)
    below, above = min(math.floor(center), hi), max(math.ceil(center), lo)
    cands = [c for c in (below - 1, below, above, above + 1) if lo <= c <= hi]

    def key(c: int):
        # non-round counts first, then closest to the target, then
        # smallest (lands "just above" when side permits)
        return (c % 10 == 0, abs(Fraction(c) - center), c)

    return min(cands, key=key)


def inject_fraud(
    dataset: ElectionDataset, spec: FraudSpec, seed: int
) -> tuple[ElectionDataset, InjectionLog]:
    """Apply one fraud mechanism to a seeded random station subset.

    Only numerators change: given for the turnout side, leader for the
    result side; registered and cast stay fixed. Stations where the
    mechanism cannot reach its target without breaking count
    invariants are skipped and logged.
    """
    n = len(dataset)
    rng = stream(seed, _TAG_FRAUD, SYNTH)
    eligible = np.arange(n)
    if spec.region_concentration is not None:
        mask = np.array(
            [c in spec.region_concentration for c in dataset.region_codes], dtype=bool
        )
        eligible = np.flatnonzero(mask)
    requested = int(round(spec.affected_fraction * n))
    count = min(requested, eligible.size)
    if count == 0:
        return dataset, InjectionLog(records=(), skipped=(), requested=requested)
    chosen = np.sort(rng.choice(eligible, size=count, replace=False))

    given = dataset.given.copy()
    leader = dataset.leader.copy()
    V = dataset.registered
    B = dataset.cast
    palette = spec.palette()
    percents = np.array([p for p, _ in palette], dtype=np.int64)
    weights = np.array([w for _, w in palette], dtype=np.float64)
    weights /= weights.sum()

    records: list[InjectionRecord] = []
    skipped: list[tuple[str, str]] = []

    for i in chosen:
        i = int(i)
        sid = dataset.station_ids[i]
        g0, l0 = int(given[i]), int(leader[i])
        label, target, changed = "both", None, True
        if spec.mechanism in ("integer_rounding", "five_multiple_rounding"):
            if spec.metric_choice == "either":
                sides = ("turnout" if rng.random() < 0.5 else "result",)
            elif spec.metric_choice == "both":
                sides = ("turnout", "result")
            else:
                sides = (spec.metric_choice,)
            label = sides[0] if len(sides) == 1 else "both"
            target = int(rng.choice(percents, p=weights))
            changed = False
            for metric in sides:
                den, counts = (V, given) if metric == "turnout" else (B, leader)
                if metric == "result" and den[i] < 1:
                    skipped.append((sid, "result undefined (no cast ballots)"))
                    continue
                num = _rounding_numerator(
                    int(den[i]), target, spec.window_half_width, spec.target_side
                )
                if num is None:
                    skipped.append((sid, f"no {metric} numerator lands at {target}%"))
                elif metric == "turnout" and num < B[i]:
                    skipped.append((sid, f"turnout target {target}% falls below cast count"))
                else:
                    counts[i] = num
                    changed = True
        elif spec.mechanism == "ballot_stuffing":
            s = rng.uniform(0.1, 0.5)
            given[i] = g0 + int(np.floor(s * (int(V[i]) - g0)))
            leader[i] = l0 + int(np.floor(s * (int(B[i]) - l0)))
        else:  # extreme_cluster
            u1 = rng.uniform(0.95, 0.999)
            u2 = rng.uniform(0.95, 0.999)
            given[i] = max(int(np.rint(u1 * int(V[i]))), int(B[i]))
            leader[i] = int(np.rint(u2 * int(B[i])))
        if changed:
            records.append(
                InjectionRecord(
                    station_id=sid,
                    mechanism=spec.mechanism,
                    metric=label,
                    target_percent=None if target is None else float(target),
                    given_before=g0,
                    leader_before=l0,
                    given_after=int(given[i]),
                    leader_after=int(leader[i]),
                )
            )

    out = replace(dataset, given=given, leader=leader)
    return out, InjectionLog(
        records=tuple(records), skipped=tuple(skipped), requested=requested
    )
