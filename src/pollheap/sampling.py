"""Deterministic sampling of simulated station counts under null models.

Every random quantity is a pure function of a (master_seed,
iteration_index, station_index, metric_tag) tuple. Uniform variates
come from a counter-based generator (Philox) keyed by the first three
coordinates, with station i consuming a fixed block of words, so a draw
can be reproduced in isolation or inside a vectorized batch and the
result is bit-identical under any parallel schedule.

Counts are produced from those uniforms by inverse-CDF transforms using
the convention k = min{k : F(k) > u}, which maps a uniform on [0, 1)
to the exact pmf. The hot path precomputes, per station, the binomial
CDF over a central support window. A lookup starts each station at the
same Cornish-Fisher guess the direct quantile uses and walks the
station's table row to the first entry above u; draws landing outside
the window (probability ~1e-12 each) fall back to a direct quantile
whose CDF authority is scipy's bdtr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import bdtr, betaincinv, gammaln, ndtri

__all__ = [
    "NullModel",
    "SimSeed",
    "DatasetSampler",
    "binom_quantile",
    "iteration_uniforms",
    "station_uniforms",
    "sample_turnout",
    "sample_result",
    "make_sampler",
]

METRIC_CODES = {"turnout": 0, "result": 1}

# Philox-4x64 emits four 64-bit words per counter value and Generator
# consumes one word per double, so word w lives at counter w // 4,
# offset w % 4. advance() moves the counter.
_WORDS_PER_BLOCK = 4

# Support window for tabulated CDFs: mean +- _TAIL_SIGMAS stddevs plus
# slack. Beyond-window draws are settled by the direct quantile.
_TAIL_SIGMAS = 7.5
_TAIL_PAD = 5

# Above this many table entries (~1.2 GB as float64) skip tables and
# invert per draw instead.
_MAX_TABLE_ENTRIES = 150_000_000

_BUILD_CHUNK = 20_000


@dataclass(frozen=True)
class NullModel:
    """Generative model for simulated counts.

    kind "binomial": count ~ Binom(n, k/n) per station.
    kind "beta_binomial": p ~ Beta(k+1, n-k+1), then count ~ Binom(n, p).
    kind "clustered": voters decide in blocs of cluster_size; count =
    c*K + R with K ~ Binom(n // c, p) and R ~ Binom(n % c, p). The mean
    is preserved exactly and the variance inflates about c-fold.
    """

    kind: Literal["binomial", "beta_binomial", "clustered"]
    cluster_size: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("binomial", "beta_binomial", "clustered"):
            raise ValueError(f"unknown null model kind {self.kind!r}")
        if self.kind == "clustered":
            if not 1 <= int(self.cluster_size) <= 10:
                raise ValueError("cluster_size must be in 1..10")
        elif self.cluster_size != 1:
            raise ValueError("cluster_size only applies to the clustered model")

    @property
    def words_per_station(self) -> int:
        """Uniform words each station consumes per iteration."""
        return 1 if self.kind == "binomial" else 2

    def describe(self) -> str:
        if self.kind == "clustered":
            return f"clustered:{self.cluster_size}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "NullModel":
        """Parse "binomial", "beta-binomial", or "clustered:c"."""
        t = text.strip().lower().replace("-", "_")
        if t.startswith("clustered"):
            _, _, arg = t.partition(":")
            return cls("clustered", int(arg) if arg else 1)
        return cls(t)


@dataclass(frozen=True)
class SimSeed:
    """Addresses one station's random block within one iteration."""

    master_seed: int
    iteration_index: int
    station_index: int
    metric_tag: Literal["turnout", "result"]

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.iteration_index < 0 or self.station_index < 0:
            raise ValueError("iteration_index and station_index must be >= 0")
        if self.metric_tag not in METRIC_CODES:
            raise ValueError(f"metric_tag must be one of {sorted(METRIC_CODES)}")


def _stream_entropy(master_seed: int, iteration_index: int, metric_tag: str):
    return (int(master_seed), int(iteration_index), METRIC_CODES[metric_tag])


def iteration_uniforms(
    master_seed: int,
    iteration_index: int,
    metric_tag: str,
    n_stations: int,
    words_per_station: int,
) -> np.ndarray:
    """All uniforms for one iteration, shape (n_stations, words)."""
    seq = np.random.SeedSequence(
        _stream_entropy(master_seed, iteration_index, metric_tag)
    )
    gen = np.random.Generator(np.random.Philox(seq))
    flat = gen.random(n_stations * words_per_station)
    return flat.reshape(n_stations, words_per_station)


def station_uniforms(seed: SimSeed, words_per_station: int) -> np.ndarray:
    """One station's uniform block, bit-identical to its batch row."""
    first = words_per_station * seed.station_index
    bitgen = np.random.Philox(
        np.random.SeedSequence(
            _stream_entropy(seed.master_seed, seed.iteration_index, seed.metric_tag)
        )
    )
    bitgen.advance(first // _WORDS_PER_BLOCK)
    gen = np.random.Generator(bitgen)
    skip = first % _WORDS_PER_BLOCK
    return gen.random(skip + words_per_station)[skip:]


def _quantile_guess(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Second-order Cornish-Fisher guess at the Binom(n, p) quantile of u.

    n is float64. The result is a float64 count clipped to [0, n]. Both
    binom_quantile and the table lookup start from it; the walk that
    follows makes the answer exact, but binom_quantile walks on bdtr,
    which is not bitwise monotone, so this arithmetic must not change.
    """
    q = 1.0 - p
    mu = n * p
    sig = np.sqrt(mu * q)
    with np.errstate(divide="ignore"):
        z = np.clip(ndtri(u), -40.0, 40.0)
    # continuity-corrected
    k = np.floor(mu + sig * z + (z * z - 1.0) * (q - p) / 6.0 + 0.5)
    return np.clip(k, 0.0, n)


def binom_quantile(u, n, p) -> np.ndarray:
    """Smallest k with Binom(n, p) CDF(k) strictly above u, vectorized.

    The initial guess is a Cornish-Fisher corrected normal quantile,
    then walked to the exact answer with CDF evaluations on the rapidly
    shrinking set of unsettled entries. F(n) is taken as exactly 1, so
    the walk always terminates.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), u.shape)
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), u.shape)
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("uniform variates must lie in [0, 1)")

    out = np.zeros(u.shape, dtype=np.int64)
    saturated = (p >= 1.0) & (n > 0)
    out[saturated] = n[saturated]
    regular = (n > 0) & (p > 0.0) & (p < 1.0)
    if not regular.any():
        return out

    idx = np.flatnonzero(regular)
    nn = n[idx].astype(np.float64)
    ni = n[idx]
    pp = p[idx]
    uu = u[idx]
    k = _quantile_guess(uu, nn, pp)

    F = np.where(k >= nn, 1.0, bdtr(k, ni, pp))
    lag = np.flatnonzero(F <= uu)
    while lag.size:
        k[lag] += 1.0
        hit_top = k[lag] >= nn[lag]
        F[lag] = np.where(hit_top, 1.0, bdtr(np.minimum(k[lag], nn[lag]), ni[lag], pp[lag]))
        lag = lag[F[lag] <= uu[lag]]

    cand = np.flatnonzero(k > 0.0)
    while cand.size:
        Fm = bdtr(k[cand] - 1.0, ni[cand], pp[cand])
        cand = cand[Fm > uu[cand]]
        k[cand] -= 1.0
        cand = cand[k[cand] > 0.0]

    out[idx] = k.astype(np.int64)
    return out


@dataclass
class _QuantileTable:
    """Per-station tabulated binomial CDFs over a central support window."""

    n: np.ndarray  # int64 denominators
    p: np.ndarray  # float64 success probabilities
    lo: np.ndarray  # int64 first tabulated outcome per station
    offsets: np.ndarray  # int64, len n_stations + 1, into cdf
    cdf: np.ndarray  # float64 flat: F(lo), F(lo+1), ... per station
    left_tail: np.ndarray  # float64 F(lo - 1) per station

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """Map one uniform per station to a count.

        Each station starts at the Cornish-Fisher guess, clipped into
        its row, and walks up while cdf <= u and down while the entry
        below is > u. A row is a running sum of non-negative terms, so
        the walk ends at the row's first entry above u from any start.
        """
        starts = self.offsets[:-1]
        ends = self.offsets[1:]
        guess = _quantile_guess(u, self.n.astype(np.float64), self.p)
        i = starts + np.clip(guess.astype(np.int64) - self.lo, 0, ends - starts - 1)
        above = self.cdf[i] > u
        up = np.flatnonzero(~above)
        while up.size:
            i[up] += 1
            up = up[i[up] < ends[up]]
            up = up[self.cdf[i[up]] <= u[up]]
        down = np.flatnonzero(above & (i > starts))
        down = down[self.cdf[i[down] - 1] > u[down]]
        while down.size:
            i[down] -= 1
            down = down[i[down] > starts[down]]
            down = down[self.cdf[i[down] - 1] > u[down]]
        k = self.lo + (i - starts)
        # outside the tabulated window: settle exactly; rare by design
        stray = (i == ends) | (u < self.left_tail)
        if stray.any():
            s = np.flatnonzero(stray)
            k[s] = binom_quantile(u[s], self.n[s], self.p[s])
        return k


def _build_table(den: np.ndarray, p: np.ndarray) -> _QuantileTable:
    """Tabulate per-station binomial CDFs.

    Degenerate stations (den = 0, p = 0, p = 1) get single-entry
    tables holding their certain outcome. The pmf is anchored at the
    window's left edge via log-gamma and extended by the ratio
    recurrence; every operation is row-independent, so a one-station
    build is bit-identical to the same station inside a batch.
    """
    den = np.asarray(den, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    n_st = den.size

    degenerate = (den <= 0) | (p <= 0.0) | (p >= 1.0)
    mu = den * p
    sig = np.sqrt(np.maximum(mu * (1.0 - p), 0.0))
    half = np.ceil(_TAIL_SIGMAS * sig).astype(np.int64) + _TAIL_PAD
    lo = np.clip(np.floor(mu).astype(np.int64) - half, 0, None)
    hi = np.minimum(np.ceil(mu).astype(np.int64) + half, den)
    certain = np.where(p >= 1.0, den, 0)
    lo = np.where(degenerate, np.maximum(certain, 0), lo)
    hi = np.where(degenerate, lo, hi)

    width = hi - lo + 1
    offsets = np.zeros(n_st + 1, dtype=np.int64)
    np.cumsum(width, out=offsets[1:])
    cdf = np.empty(int(offsets[-1]), dtype=np.float64)
    left_tail = np.zeros(n_st, dtype=np.float64)

    for s in range(0, n_st, _BUILD_CHUNK):
        e = min(s + _BUILD_CHUNK, n_st)
        deg = degenerate[s:e]
        w = width[s:e]
        wmax = int(w.max())
        nn = den[s:e, None].astype(np.float64)
        pp = np.where(deg, 0.5, p[s:e])[:, None]  # placeholder under deg
        llo = lo[s:e].astype(np.float64)
        grid = llo[:, None] + np.arange(wmax, dtype=np.float64)[None, :]
        valid = grid <= hi[s:e, None]

        log_anchor = (
            gammaln(nn[:, 0] + 1.0)
            - gammaln(llo + 1.0)
            - gammaln(nn[:, 0] - llo + 1.0)
            + llo * np.log(pp[:, 0])
            + (nn[:, 0] - llo) * np.log1p(-pp[:, 0])
        )
        pmf = np.empty((e - s, wmax), dtype=np.float64)
        pmf[:, 0] = np.exp(log_anchor)
        if wmax > 1:
            ratio = np.where(
                valid, (nn - grid) / (grid + 1.0) * (pp / (1.0 - pp)), 1.0
            )
            np.cumprod(ratio[:, :-1], axis=1, out=ratio[:, :-1])
            pmf[:, 1:] = pmf[:, :1] * ratio[:, :-1]
        rows = np.cumsum(np.where(valid, pmf, 0.0), axis=1)

        tail = np.zeros(e - s, dtype=np.float64)
        has_tail = (lo[s:e] > 0) & ~deg
        if has_tail.any():
            t = np.flatnonzero(has_tail)
            tail[t] = bdtr(llo[t] - 1.0, den[s:e][t], p[s:e][t])
        rows += tail[:, None]
        rows[deg, 0] = 1.0
        left_tail[s:e] = tail

        keep = np.arange(wmax)[None, :] < w[:, None]
        dst = offsets[s:e][:, None] + np.arange(wmax, dtype=np.int64)[None, :]
        cdf[dst[keep]] = rows[keep]

    return _QuantileTable(
        n=den,
        p=p,
        lo=lo,
        offsets=offsets,
        cdf=cdf,
        left_tail=left_tail,
    )


def _projected_entries(den: np.ndarray, p: np.ndarray) -> int:
    den = np.asarray(den, dtype=np.float64)
    sig = np.sqrt(np.maximum(den * p * (1.0 - p), 0.0))
    return int(np.sum(2 * np.ceil(_TAIL_SIGMAS * sig) + 2 * _TAIL_PAD + 3))


def _empirical_p(den: np.ndarray, num: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)


@dataclass
class DatasetSampler:
    """Vectorized per-iteration draws for one dataset + metric + model.

    den holds the fixed denominators (registered voters for turnout,
    cast ballots for the result), num the empirical numerators. This
    object only caches derived tables; it is read-only after
    construction and safe to share across worker processes.
    """

    metric: str
    model: NullModel
    den: np.ndarray
    num: np.ndarray
    _table: _QuantileTable | None = None
    _quot_table: _QuantileTable | None = None
    _rem_table: _QuantileTable | None = None
    _direct: bool = False

    @property
    def n_stations(self) -> int:
        return self.den.size

    def draw(self, master_seed: int, iteration_index: int) -> np.ndarray:
        """Simulated counts for every station in one iteration."""
        u = iteration_uniforms(
            master_seed,
            iteration_index,
            self.metric,
            self.n_stations,
            self.model.words_per_station,
        )
        return self.draw_from_uniforms(u)

    def draw_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if u.shape != (self.n_stations, self.model.words_per_station):
            raise ValueError("uniform block shape does not match the sampler")
        kind = self.model.kind
        if kind == "binomial":
            if self._direct:
                return binom_quantile(u[:, 0], self.den, _empirical_p(self.den, self.num))
            return self._table.lookup(u[:, 0])
        if kind == "beta_binomial":
            a = (self.num + 1).astype(np.float64)
            b = (self.den - self.num + 1).astype(np.float64)
            p_draw = betaincinv(a, b, u[:, 0])
            return binom_quantile(u[:, 1], self.den, p_draw)
        c = self.model.cluster_size
        if self._direct:
            p = _empirical_p(self.den, self.num)
            quot = binom_quantile(u[:, 0], self.den // c, p)
            rem = binom_quantile(u[:, 1], self.den % c, p)
        else:
            quot = self._quot_table.lookup(u[:, 0])
            rem = self._rem_table.lookup(u[:, 1])
        return c * quot + rem


def make_sampler(
    den: np.ndarray, num: np.ndarray, model: NullModel | str, metric: str
) -> DatasetSampler:
    """Build a DatasetSampler, precomputing CDF tables where they pay off."""
    if isinstance(model, str):
        model = NullModel.parse(model)
    den = np.ascontiguousarray(den, dtype=np.int64)
    num = np.ascontiguousarray(num, dtype=np.int64)
    if den.shape != num.shape or den.ndim != 1:
        raise ValueError("den and num must be equal-length 1-d arrays")
    if np.any(num > den) or np.any(num < 0) or np.any(den < 0):
        raise ValueError("need 0 <= num <= den for every station")
    if metric not in METRIC_CODES:
        raise ValueError(f"metric must be one of {sorted(METRIC_CODES)}")
    sampler = DatasetSampler(metric=metric, model=model, den=den, num=num)
    p = _empirical_p(den, num)
    if model.kind == "binomial":
        if _projected_entries(den, p) > _MAX_TABLE_ENTRIES:
            sampler._direct = True
        else:
            sampler._table = _build_table(den, p)
    elif model.kind == "clustered":
        c = model.cluster_size
        if _projected_entries(den // c, p) > _MAX_TABLE_ENTRIES:
            sampler._direct = True
        else:
            # both parts reuse the station's empirical p = num/den
            sampler._quot_table = _build_table(den // c, p)
            sampler._rem_table = _build_table(den % c, p)
    return sampler


def _single_draw(den: int, num: int, model: NullModel, seed: SimSeed) -> int:
    words = station_uniforms(seed, model.words_per_station)
    sampler = make_sampler(
        np.array([den], dtype=np.int64),
        np.array([num], dtype=np.int64),
        model,
        seed.metric_tag,
    )
    return int(sampler.draw_from_uniforms(words.reshape(1, -1))[0])


def sample_turnout(record, model: NullModel, seed: SimSeed) -> int:
    """Simulated given-ballot count for one station.

    Reproduces exactly the value the vectorized engine assigns to the
    station sitting at seed.station_index, because both the uniform
    block and the inverse-CDF arithmetic are position-independent.
    """
    if seed.metric_tag != "turnout":
        raise ValueError("sample_turnout requires a seed with metric_tag='turnout'")
    if record.registered < 1:
        raise ValueError(
            f"station {record.station_id!r}: registered must be >= 1 to simulate"
        )
    if record.given > record.registered:
        raise ValueError(
            f"station {record.station_id!r}: given > registered should have "
            "been filtered before sampling"
        )
    return _single_draw(record.registered, record.given, model, seed)


def sample_result(record, model: NullModel, seed: SimSeed) -> int:
    """Simulated leader count for one station (denominator held fixed)."""
    if seed.metric_tag != "result":
        raise ValueError("sample_result requires a seed with metric_tag='result'")
    if record.cast < 1:
        raise ValueError(
            f"station {record.station_id!r}: cast must be >= 1 to simulate a result"
        )
    if record.leader > record.cast:
        raise ValueError(
            f"station {record.station_id!r}: leader > cast should have been "
            "filtered before sampling"
        )
    return _single_draw(record.cast, record.leader, model, seed)
