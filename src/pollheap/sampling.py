"""Deterministic sampling of simulated station counts under null models.

Every random quantity is a pure function of a (master_seed,
iteration_index, station_index, metric_tag) tuple. Uniform variates
come from model.stream keyed by (master_seed, iteration_index, the
metric's code), with station i consuming the i-th fixed block of words,
so a draw can be reproduced in isolation or inside a vectorized batch
and the result is bit-identical under any parallel schedule.

Counts are produced from those uniforms by inverse-CDF transforms using
the convention k = min{k : F(k) > u}, which maps a uniform on [0, 1)
to the exact pmf. The hot path computes, per station, the binomial CDF
over a central support window in float64, and stores only the central
band of each row, as 16-bit fixed point rounded down, rows laid out in
order of window width. A lookup starts each station at a
Cornish-Fisher estimate from constants stored at build and the normal
quantile of u's 16-bit key, read from one 2^16-entry table built per
process (_key_quantiles), and walks the station's band to the first
entry above that key (sequential search from a start, Devroye 1986,
section III.2); rows are non-decreasing, so the start sets only how
far it walks, and no draw evaluates a special function. Every
float64 row and its window tail, the build's and a settled draw's,
come from one chunked generator (_rows), the only code that computes
either, in numpy alone: each row's pmf anchor from Loader's
saddle-point form (_binom_pmf) and its tail summed down from it
(_lower_tail). A draw the band cannot answer is settled on its
window's float64 row, re-run from the window's start: one whose key
ties with the entry below the walk's stop (about one in 540 on
synthetic stations) through the stop, one whose answer lies outside
the band (about one in 50,000) through the window's end. One outside
the window (probability ~1e-12) falls back to a direct quantile on the
regularized incomplete beta function (_binom_cdf); in every case the
draw is the one a float64 table of whole windows gives.
The direct quantile (binom_quantile) evaluates _binom_cdf about once
per station, at its Cornish-Fisher guess k: its first step down reads
F(k - 1) as F(k) minus Loader's pmf at k, and evaluates _binom_cdf(k -
1) only where that lies within a 2^-30 guard (_GUARD) of u. It rests on
the difference lying well inside the guard from _binom_cdf(k - 1)
(within 2e-12 on random stations up to n = 10^9, which a test pins), so
every draw is the one a walk on _binom_cdf alone gives.
Beta-binomial draws run betaincinv and binom_quantile over blocks of
_DRAW_BLOCK stations, which bound their temporaries.
scipy.special is imported inside the functions that call it: the
beta-binomial draw, and the direct quantile that a draw outside its
window, or a sampler above _MAX_TABLE_ENTRIES, takes. Binomial and
clustered:c draws from tables never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .model import METRIC_CODES, stream

__all__ = [
    "NullModel",
    "DatasetSampler",
    "binom_quantile",
    "iteration_uniforms",
    "make_sampler",
]

# Support window for tabulated CDFs: mean +- _TAIL_SIGMAS stddevs plus
# slack. Beyond-window draws are settled by the direct quantile.
_TAIL_SIGMAS = 7.5
_TAIL_PAD = 5

# Stored band of each row: mean +- _BAND_SIGMAS stddevs plus the same
# slack, clipped to the window. A row stores about half its window.
_BAND_SIGMAS = 4.0

# Above this many projected window entries skip tables and invert per
# draw instead. _projected_entries takes 2 ceil(_TAIL_SIGMAS sd) + 13 a
# station, at least one above its window's width hi - lo + 1, so the cap
# bounds the windows. A table stores 2 bytes per band entry (about 55% of
# the window) plus 52 bytes per station: at the cap, the turnout table of
# the first 565,036 stations of generate(GeneratorConfig(600_000), 1)
# stores 82.6M entries, 186 MiB. Bounding whole windows, not bands, keeps
# the table-or-direct choice (and every draw) independent of the band and
# its storage; _BUILD_CELLS bounds the build's scratch space separately.
_MAX_TABLE_ENTRIES = 150_000_000

# A banded table stores each CDF entry F as the 16-bit fixed-point
# q = min(floor(F * _FIXED_ONE), _FIXED_MAX). A format constant: the
# scale sets only how often a lookup ties (see _QuantileTable), never a
# draw.
_FIXED_ONE = 2.0**16
_FIXED_MAX = 2**16 - 1

# Cells (rows x widest row) per build chunk: about 0.5 MB per float64
# temporary, so a chunk's scratch stays in cache whatever the input.
_BUILD_CELLS = 2**16

# binom_quantile's first step down takes F(k - 1) as F(k) - pmf(k) where
# that lies more than _GUARD from u, and evaluates _binom_cdf(k - 1)
# inside it. The two agree within 2e-12 on random stations up to n =
# 10^9, far inside the guard, so it sets only how many stations evaluate
# _binom_cdf twice, never a draw.
_GUARD = 2.0**-30

# Stations per block of a beta-binomial draw, which bounds the walk's
# temporaries. Each station's draw is its own, so the block sets only the
# peak memory, never a draw.
_DRAW_BLOCK = 2048


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


def iteration_uniforms(
    master_seed: int,
    iteration_index: int,
    metric_tag: str,
    n_stations: int,
    words_per_station: int,
) -> np.ndarray:
    """All uniforms for one iteration, shape (n_stations, words)."""
    gen = stream(master_seed, iteration_index, METRIC_CODES[metric_tag])
    return gen.random(n_stations * words_per_station).reshape(n_stations, words_per_station)


def _binom_cdf(k, n, p):
    """Binom(n, p) CDF at k, for 0 <= k < n, as I_{1-p}(n - k, k + 1).

    Not scipy's bdtr, which loses accuracy near the mean above n ~ 2e6
    (2e-3 at n = 1e7, 0.35 at 1e9).
    """
    from scipy.special import betainc

    return betainc(n - k, k + 1.0, 1.0 - p)


def _quantile_guess(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Second-order Cornish-Fisher guess at the Binom(n, p) quantile of u.

    n is float64. The result is a float64 count clipped to [0, n].
    binom_quantile starts from it; the walk that follows makes the
    answer exact, but it walks on _binom_cdf, which need not be bitwise
    monotone, so a different start can give a different draw and this
    arithmetic, ndtri at u itself included, must not change. The table
    lookup starts near the same estimate, from per-station constants
    stored at build and the key table of _key_quantiles; there a start
    only sets how far the walk goes.
    """
    from scipy.special import ndtri

    q = 1.0 - p
    mu = n * p
    sig = np.sqrt(mu * q)
    with np.errstate(divide="ignore"):
        z = np.clip(ndtri(u), -40.0, 40.0)
    # continuity-corrected
    k = np.floor(mu + sig * z + (z * z - 1.0) * (q - p) / 6.0 + 0.5)
    return np.clip(k, 0.0, n)


def _step_pmf(n: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Binom(n, p) pmf at float64 counts 0 < k <= n, 0 < p < 1, as
    _binom_cdf differences it: at the success probability 1 - q that its
    q = 1 - p leaves, and, where k > n / 2, as the Binom(n, q) pmf at n -
    k, which keeps _binom_pmf's log1p(-k / n) accurate and gives (1 -
    q)^n at k = n. At n near 10^9 the pmf at p itself was off by 4e-8
    near p = 1e-10, and the pmf at k near n by 7e-9; this form stays
    within 2e-12 of F(k) - F(k - 1) on _binom_cdf.
    """
    q = 1.0 - p
    low = k <= n - k
    # q rounds to 1 below p = 2^-54, where (1 - q)^n at k = n is 0
    with np.errstate(divide="ignore"):
        return _binom_pmf(n, np.where(low, k, n - k), np.where(low, 1.0 - q, q))


def binom_quantile(u, n, p) -> np.ndarray:
    """Smallest k with Binom(n, p) CDF(k) strictly above u, vectorized.

    The initial guess is a Cornish-Fisher corrected normal quantile,
    then walked to the exact answer with CDF evaluations on the rapidly
    shrinking set of unsettled entries. F(n) is taken as exactly 1, so
    the walk always terminates.

    A regular station takes one _binom_cdf evaluation, F(k) at its
    guess k, unless it walks up. The first step down asks whether F(k -
    1) > u, and answers it from est = F(k) - pmf(k) wherever |est - u| >
    _GUARD; only a station inside the guard, or with a NaN est,
    evaluates _binom_cdf(k - 1). pmf(k) comes from _step_pmf. Wherever
    est lies within _GUARD of _binom_cdf(k - 1), every comparison is the
    one the all-_binom_cdf walk makes; it lies within 2e-12 of it for n
    up to 10^9. Later steps down evaluate _binom_cdf as before.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    n = np.asarray(n)
    p = np.asarray(p, dtype=np.float64)
    # written so that NaN fails too
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("uniform variates must lie in [0, 1)")
    if not np.all((n >= 0) & np.isfinite(n) & (np.floor(n) == n)):
        raise ValueError("n must be a non-negative whole number")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), u.shape)
    p = np.broadcast_to(p, u.shape)

    out = np.zeros(u.shape, dtype=np.int64)
    saturated = (p >= 1.0) & (n > 0)
    out[saturated] = n[saturated]
    regular = (n > 0) & (p > 0.0) & (p < 1.0)
    if not regular.any():
        return out

    idx = np.flatnonzero(regular)
    nn = n[idx].astype(np.float64)
    pp = p[idx]
    uu = u[idx]
    k = _quantile_guess(uu, nn, pp)

    F = np.where(k >= nn, 1.0, _binom_cdf(np.minimum(k, nn - 1.0), nn, pp))
    lag = np.flatnonzero(F <= uu)
    while lag.size:
        k[lag] += 1.0
        below_top = np.minimum(k[lag], nn[lag] - 1.0)
        F[lag] = np.where(k[lag] >= nn[lag], 1.0, _binom_cdf(below_top, nn[lag], pp[lag]))
        lag = lag[F[lag] <= uu[lag]]

    cand = np.flatnonzero(k > 0.0)
    if cand.size:
        # the first step down, on F(k - 1) = F(k) - pmf(k) outside the guard
        kc, nc, pc = k[cand], nn[cand], pp[cand]
        est = _step_pmf(nc, kc, pc)
        np.subtract(F[cand], est, out=est)
        # written so that a NaN est is unsure too
        unsure = np.flatnonzero(~(np.abs(est - uu[cand]) > _GUARD))
        if unsure.size:
            est[unsure] = _binom_cdf(kc[unsure] - 1.0, nc[unsure], pc[unsure])
        cand = cand[est > uu[cand]]
        k[cand] -= 1.0
        cand = cand[k[cand] > 0.0]
    while cand.size:
        Fm = _binom_cdf(k[cand] - 1.0, nn[cand], pp[cand])
        cand = cand[Fm > uu[cand]]
        k[cand] -= 1.0
        cand = cand[k[cand] > 0.0]

    out[idx] = k.astype(np.int64)
    return out


# Wichura's AS241 (1988) rational approximations to the normal quantile,
# highest power first: A/B for |u - 1/2| <= 0.425, C/D in r = sqrt(-log
# min(u, 1 - u)) - 1.6 for the tails up to r = 5; the key table's cells
# reach r <= 3.5. Relative error about 1e-16.
_AS241_A = (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
            45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
            133.14166789178437745, 3.387132872796366608)
_AS241_B = (5226.495278852545561, 28729.085735721942674, 39307.89580009271061,
            21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
            42.313330701600911252, 1.0)
_AS241_C = (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
            1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
            4.6303378461565452959, 1.42343711074968357734)
_AS241_D = (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
            0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
            2.05319162663775882187, 1.0)


@cache
def _key_quantiles() -> np.ndarray:
    """The normal quantile at the middle of each 16-bit key's cell:
    entry v is the quantile at (v + 0.5) / 2^16, by AS241, 2^16 float64
    (512 KB), built once per process on a lookup's first call. A
    lookup's start reads it at u's key instead of taking a quantile at
    u; the start only sets how far the walk goes, never its answer.
    """
    u = (np.arange(_FIXED_MAX + 1) + 0.5) / _FIXED_ONE
    q = u - 0.5
    r = 0.180625 - q * q
    z = q * np.polyval(_AS241_A, r) / np.polyval(_AS241_B, r)
    tails = np.flatnonzero(np.abs(q) > 0.425)
    r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)[tails])) - 1.6
    z[tails] = np.copysign(np.polyval(_AS241_C, r) / np.polyval(_AS241_D, r), q[tails])
    z.setflags(write=False)
    return z


def _window(den: np.ndarray, p: np.ndarray, sigmas: float = _TAIL_SIGMAS):
    """Each station's mean, sd and interval [lo, hi]: mean +- sigmas
    stddevs plus _TAIL_PAD, clipped to [0, den]. The computed window
    takes _TAIL_SIGMAS, the stored band _BAND_SIGMAS."""
    mu = den * p
    sig = np.sqrt(np.maximum(mu * (1.0 - p), 0.0))
    half = np.ceil(sigmas * sig).astype(np.int64) + _TAIL_PAD
    lo = np.maximum(np.floor(mu).astype(np.int64) - half, 0)
    hi = np.minimum(np.ceil(mu).astype(np.int64) + half, den)
    return mu, sig, lo, hi


# Loader's stirlerr(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi) at
# k = 1..15, below the reach of its series; index 0 only fills in at k = 0,
# where _binom_pmf takes (1 - p)^n instead
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_LN_2PI = 1.8378770664093453

def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Loader's stirlerr at float64 counts k >= 1: the table up to 15,
    above it 1/12k - 1/360k^3 + 1/1260k^5 - 1/1680k^7 + 1/1188k^9."""
    kk = k * k
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / kk) / kk) / kk) / kk) / k
    small = k <= 15.0
    if small.any():
        out[small] = _STIRLERR[k[small].astype(np.int64)]
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Loader's deviance term x log(x / m) + m - x, for x > 0 and m > 0.

    Where |x - m| < (x + m) / 10 the direct form cancels, so it is summed
    as the series (x - m) v + 2x sum_j v^(2j+1) / (2j + 1), v = (x - m) /
    (x + m), term by term, up to the first term that is at most 2^-55 of
    the series' first term for the largest |v|. Term j is at most 2
    |v|^(2j-1) / (2j + 1) of the first, and the sum at least 0.93 of it,
    so from there on every term is below half an ulp of the sum and
    leaves it as it is: a sum gets the same bits whatever its neighbours.
    """
    d = x - m
    xm = x + m
    out = x * np.log(x / m) + m - x
    near = np.abs(d) < 0.1 * xm
    if near.any():
        x, d = x[near], d[near]
        v = d / xm[near]
        s = d * v
        term = 2.0 * x * v
        v *= v
        vv = float(v.max())
        j = 1
        while 2.0 * vv ** (j - 0.5) / (2 * j + 1) > 2.0**-55:
            j += 1
        for i in range(1, j + 1):
            term *= v
            s += term / (2 * i + 1)
        out[near] = s
    return out


def _binom_pmf(n: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Binom(n, p) pmf at float64 counts 0 <= k < n, 0 < p < 1: Loader's
    saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000; R's dbinom), exp(stirlerr(n) -
    stirlerr(k) - stirlerr(n - k) - bd0(k, np) - bd0(n - k, nq)) /
    sqrt(2 pi k (n - k) / n), and (1 - p)^n at k = 0. Within about 1e-13
    relative of the exact pmf of the float64 p for n below 10^4.
    """
    m = n.size
    nk = n - k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        st = _stirlerr(np.concatenate((n, k, nk)))
        dev = _bd0(np.concatenate((k, nk)), np.concatenate((n * p, n * (1.0 - p))))
        lc = st[:m] - st[m:2 * m] - st[2 * m:] - dev[:m] - dev[m:]
        lf = _LN_2PI + np.log(k) + np.log1p(-k / n)
        pmf = np.exp(lc - 0.5 * lf)
    zero = k == 0.0
    if zero.any():
        pmf[zero] = np.exp(n[zero] * np.log1p(-p[zero]))
    return pmf


def _lower_tail(n, lo, p, pmf, scratch) -> np.ndarray:
    """F(lo - 1), the Binom(n, p) mass below each float64 lo <= n - 1
    (0 where lo = 0), summed down from pmf, the pmf at lo, by the ratio
    r(k) = pmf(k - 1) / pmf(k) = k q / ((n - k + 1) p).

    Every lo lies below the mean, so r(k) < 1 falls with k and the j-th
    term is at most the first times r(lo)^(j - 1): the first count terms,
    with r(lo)^count <= 2^-53 (1 - r(lo)) and count <= lo, leave out at
    most 2^-53 of the sum. count is the station's own, so its sum is the
    same however its chunk runs. The terms go through the flat scratch
    in blocks of the chunk's largest count, or of as many columns as half
    of it holds: ratios, their running product and running sum, carried
    on from the block before, left to right, with a zero ratio after
    each row's last term.
    """
    tail = np.zeros(n.size)
    t = np.flatnonzero(lo > 0.0)
    if t.size == 0:
        return tail
    if t.size < n.size:
        n, lo, p, pmf = n[t], lo[t], p[t], pmf[t]
    odds = (1.0 - p) / p
    r = lo * odds / (n - lo + 1.0)
    count = np.minimum(np.ceil(np.log(2.0**-53 * (1.0 - r)) / np.log(r)), lo)
    total = int(count.max())
    w = max(1, min(total, scratch.size // (2 * n.size)))
    block = scratch[:n.size * w].reshape(n.size, w)
    grid = scratch[block.size:2 * block.size].reshape(n.size, w)
    steps = np.arange(w, dtype=np.float64)
    term, top, acc = pmf, lo, 0.0
    for first in range(0, total, w):
        np.subtract(top[:, None], steps, out=grid)  # k = top, top - 1, ...
        np.add((n + 1.0 - top)[:, None], steps, out=block)  # n - k + 1
        np.divide(grid, block, out=block)
        block *= odds[:, None]
        end = np.flatnonzero(count - first < w)
        block[end, np.maximum(count[end] - first, 0).astype(np.int64)] = 0.0
        block[:, 0] *= term
        np.cumprod(block, axis=1, out=block)  # pmf(top - 1), pmf(top - 2), ...
        term = block[:, -1].copy()
        block[:, 0] += acc
        np.cumsum(block, axis=1, out=block)
        acc = block[:, -1].copy()
        top = top - w
    tail[t] = acc
    return tail


def _rows(n: np.ndarray, lo: np.ndarray, p: np.ndarray, width: np.ndarray):
    """Float64 CDF rows of Binom(n, p) stations of non-decreasing width,
    a chunk at a time: yields (s, e, tail, rows, spare), row r - s of
    rows holding station r's CDF F(lo), F(lo + 1), ... and tail[r - s]
    its window tail F(lo - 1), 0 where lo = 0.

    The only code that computes a row or its tail. A row starts at
    outcome lo, with the pmf there from _binom_pmf, and runs width
    columns: column t > 0 gets the ratio (n - k) / (k + 1) * p / q for
    k = lo + t - 1, then the running product, the pmf, the running sum
    and the tail, summed down from the same pmf by _lower_tail. Every
    step is row-independent and runs left to right, so a row depends
    neither on the rows beside it nor on its padding to the chunk's
    widest row, and a station's float64 terms are computed with its
    chunk's. A chunk is the longest run from s with at most _BUILD_CELLS
    cells once padded, or one row if that is wider. rows and spare share
    one scratch buffer, sized to the largest chunk and reused by the
    next; spare, free once rows are done, holds at least as many cells
    as rows. The tail's terms run through the same scratch first.
    """
    widest = int(width[-1]) if width.size else 1
    cells = min(max(_BUILD_CELLS, widest), width.size * widest)
    scratch = np.empty(2 * cells)
    s = 0
    while s < width.size:
        e = min(width.size, s + max(1, _BUILD_CELLS // int(width[s])))
        while e - s > 1 and (e - s) * int(width[e - 1]) > _BUILD_CELLS:
            e = s + max(1, _BUILD_CELLS // int(width[e - 1]))
        k = int(width[e - 1])
        nn = n[s:e].astype(np.float64)
        llo = lo[s:e].astype(np.float64)
        pp = p[s:e]
        anchor = _binom_pmf(nn, llo, pp)
        tail = _lower_tail(nn, llo, pp, anchor, scratch)
        rows = scratch[:(e - s) * k].reshape(e - s, k)
        spare = scratch[rows.size:]
        rows[:, 0] = 1.0
        # cells past a row's own are padding: cumprod and cumsum run left
        # to right, so whatever they hold never reaches a row's own cells
        with np.errstate(over="ignore", invalid="ignore"):
            if k > 1:
                ratio = rows[:, 1:]
                grid = spare[:(e - s) * (k - 1)].reshape(e - s, k - 1)
                np.add(llo[:, None], np.arange(k - 1, dtype=np.float64), out=grid)
                np.subtract(nn[:, None], grid, out=ratio)
                grid += 1.0
                ratio /= grid
                ratio *= (pp / (1.0 - pp))[:, None]
                np.cumprod(rows, axis=1, out=rows)
            rows[:, 1:] *= anchor[:, None]
            rows[:, 0] = anchor
            np.cumsum(rows, axis=1, out=rows)
            rows += tail[:, None]
        yield s, e, tail, rows, spare
        s = e


@dataclass
class _QuantileTable:
    """Per-station tabulated binomial CDFs over a band of each window.

    Station i's stored row F(lo[i]), F(lo[i] + 1), ... is cdf[starts[i]:
    starts[i] + last[i] + 1], the entries of its computed window's row
    that lie in its band; rows lie in order of window width, not of
    station. shift, sig and skew are the per-station constants of the
    lookup's Cornish-Fisher start; with the key's normal quantile from
    _key_quantiles, a start costs one gather and a few in-place
    operations. lo and last fit int32, as counts are at most
    model.MAX_COUNT, and the start constants float32, as a start only
    sets how far the walk goes; a draw is int64 all the same.

    cdf holds each entry F as q = min(floor(F * 2^16), 2^16 - 1) in
    uint16, and a lookup compares it with key = floor(u * 2^16) <=
    2^16 - 1. As floor is monotone:
      q > key gives floor(F * 2^16) >= q > floor(u * 2^16), so F > u;
      q < key leaves q unclipped, floor(F * 2^16) < floor(u * 2^16), so F < u.
    Only q == key leaves F against u open, so the walk's answer is exact
    unless the entry below it equals key; _settle answers those draws.
    """

    n: np.ndarray  # int64 denominators
    p: np.ndarray  # float64 success probabilities
    lo: np.ndarray  # int32 first stored outcome (the band's) per station
    starts: np.ndarray  # int64 index of each station's row in cdf
    last: np.ndarray  # int32 stored row width - 1
    cdf: np.ndarray  # uint16 fixed point, every stored row back to back
    left_tail: np.ndarray  # float64 band tail F(lo - 1) per station
    shift: np.ndarray  # float32 mu + 0.5 - lo
    sig: np.ndarray  # float32 sqrt(n p q)
    skew: np.ndarray  # float32 (q - p) / 6

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """Map one uniform per station to a count.

        Each station starts at the Cornish-Fisher estimate of its answer
        at the normal quantile of the middle of key's cell (not of u),
        clipped into its band, and walks up while cdf <= key and down
        while the entry below is > key, for u's fixed-point key. A row is
        a running sum of non-negative terms, and rounding down to fixed
        point keeps it non-decreasing, so the walk ends at the band's
        first entry above key from any start; the start only sets how
        far it walks. That entry is the answer the whole window gives
        when u is at or above the band's tail and the walk stops inside
        the band, unless the entry below it ties with the key. _settle
        answers every other draw but a degenerate station's (last == 0),
        whose one entry is its certain count.
        """
        starts = self.starts
        ends = starts + self.last + 1
        # u * 2^16 is exact and below 2^16, so truncation is the floor
        v = (u * _FIXED_ONE).astype(np.uint16)
        z = _key_quantiles()[v]
        x = z * z
        x -= 1.0
        x *= self.skew
        z *= self.sig
        x += z
        x += self.shift
        # x >= 0 after the clip, so truncation is the floor
        np.clip(x, 0.0, self.last, out=x)
        i = x.astype(np.int64)
        i += starts
        up = np.flatnonzero(self.cdf[i] <= v)
        while up.size:
            i[up] += 1
            up = up[i[up] < ends[up]]
            up = up[self.cdf[i[up]] <= v[up]]
        # i - 1 leaves a station's row only where i == starts, and those
        # stations are masked out; none that walked up walks down
        down = np.flatnonzero((self.cdf[i - 1] > v) & (i > starts))
        while down.size:
            i[down] -= 1
            down = down[i[down] > starts[down]]
            down = down[self.cdf[i[down] - 1] > v[down]]
        k = self.lo + np.minimum(i - starts, self.last)
        tie = (self.cdf[i - 1] == v) & (i > starts)
        # outside the stored band, or tied: rare by design
        unsettled = np.flatnonzero((tie | (i == ends) | (u < self.left_tail)) & (self.last > 0))
        if unsettled.size:
            k[unsettled] = self._settle(unsettled, u[unsettled], i[unsettled] - starts[unsettled])
        return k

    def _settle(self, t: np.ndarray, u: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Answers of stations t whose walk stopped at band column cols
        without settling u: the first entry above u of each station's
        float64 window row, as the build computes it.

        Each row and its window tail come from _rows, the build's row
        source, from its window's start. A tie's answer lies in its band
        at or before cols, whose entry is above u, so its row runs
        through there; a walk past the band, or a u below the band's
        tail, runs through the window's end. A u below the window's tail
        or at or above its row's last entry goes to binom_quantile. Rows
        are taken in order of width.
        """
        n, p = self.n[t], self.p[t]
        lo, hi = _window(n, p)[2:]
        inside = (cols <= self.last[t]) & (u >= self.left_tail[t])
        width = np.where(inside, self.lo[t] - lo + cols, hi - lo) + 1
        k = lo.copy()
        direct = np.zeros(t.size, dtype=bool)
        order = np.argsort(width, kind="stable")
        for s, e, tail, rows, _ in _rows(n[order], lo[order], p[order], width[order]):
            r = order[s:e]
            k[r] += (rows > u[r, None]).argmax(axis=1)
            # rows never decrease, so a row whose last entry is above u
            # has its first entry above u among its own, not its padding
            direct[r] = (u[r] < tail) | (rows[np.arange(r.size), width[r] - 1] <= u[r])
        if direct.any():
            k[direct] = binom_quantile(u[direct], n[direct], p[direct])
        return k


def _build_table(den: np.ndarray, p: np.ndarray) -> _QuantileTable:
    """Tabulate per-station binomial CDFs, storing each row's band.

    Degenerate stations (den = 0, p = 0, p = 1) get single-entry
    tables holding their certain outcome. Each row and its window tail
    come from _rows, from the window's left edge through the band's
    last entry; every operation there is row-independent, so a
    one-station build is bit-identical to the same station inside a
    batch. The band is _window's interval at _BAND_SIGMAS, clipped to
    the window.

    Stations are taken in order of computed width, then of band width
    and offset (a stable sort), so _rows's chunks are near-equal rows
    and its scratch holds at most 2 max(_BUILD_CELLS, widest row) cells
    whatever the station count. A chunk's band cells are turned into
    fixed point (see _QuantileTable) in its spare scratch and copied
    into one contiguous stretch of cdf, one block per run of rows of
    equal shape. Each per-station temporary is dropped once consumed,
    and cdf is allocated after the table's other fields, so the build
    holds little beyond the finished table and its chunk scratch.
    """
    den = np.asarray(den, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    n_st = den.size

    degenerate = (den <= 0) | (p <= 0.0) | (p >= 1.0)
    mu, sig, lo, hi = _window(den, p)
    d = np.flatnonzero(degenerate)
    lo[d] = np.where(p[d] >= 1.0, np.maximum(den[d], 0), 0)
    hi[d] = lo[d]
    band_lo, band_hi = np.clip(_window(den, p, _BAND_SIGMAS)[2:], lo, hi)
    del hi
    shift = (mu + 0.5 - band_lo).astype(np.float32)
    del mu
    sig = sig.astype(np.float32)
    skew = ((1.0 - p - p) / 6.0).astype(np.float32)

    # a row is computed only through its band's last entry
    width = band_hi - lo + 1
    last = (band_hi - band_lo).astype(np.int32)
    del band_hi
    first = band_lo - lo  # the band's offset in its row
    band_lo = band_lo.astype(np.int32)
    # rows of one shape (width, band width, band offset) lie together
    order = np.lexsort((first, last, width))
    w = width[order]
    del width
    first = first[order]
    stored = last[order] + 1
    # a degenerate row runs from outcome 0, so its tail is 0, at a placeholder p
    lo = np.where(degenerate, 0, lo)[order]
    nn = den[order]
    pp = np.where(degenerate, 0.5, p)[order]
    # where a row's shape differs from the row before it
    reshaped = (w[1:] != w[:-1]) | (stored[1:] != stored[:-1]) | (first[1:] != first[:-1])
    bounds = np.cumsum(stored, dtype=np.int64)
    starts = np.empty(n_st, dtype=np.int64)
    starts[order] = bounds - stored
    left_tail = np.empty(n_st, dtype=np.float64)
    cdf = np.empty(int(bounds[-1]) if n_st else 0, dtype=np.uint16)
    del bounds

    for s, e, tail, rows, spare in _rows(nn, lo, pp, w):
        # one block per run of equal shape; the band's tail F(band_lo -
        # 1) is the row's entry before the band, or the window's tail
        # where the band starts it
        cuts = [s, *(s + 1 + np.flatnonzero(reshaped[s:e - 1])).tolist(), e]
        for a, b in zip(cuts[:-1], cuts[1:]):
            f, k = int(first[a]), int(stored[a])
            r = order[a:b]
            o = int(starts[r[0]])
            # to fixed point through the chunk's spare scratch; x 2^16 is exact
            band = spare[:(b - a) * k].reshape(b - a, k)
            np.multiply(rows[a - s:b - s, f:f + k], _FIXED_ONE, out=band)
            np.minimum(band, _FIXED_MAX, out=cdf[o:o + (b - a) * k].reshape(b - a, k),
                       casting="unsafe")
            left_tail[r] = rows[a - s:b - s, f - 1] if f else tail[a - s:b - s]
    cdf[starts[d]] = _FIXED_MAX

    return _QuantileTable(
        n=den,
        p=p,
        lo=band_lo,
        starts=starts,
        last=last,
        cdf=cdf,
        left_tail=left_tail,
        shift=shift,
        sig=sig,
        skew=skew,
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

    den holds the metric's fixed denominators and num its empirical
    numerators, as ElectionDataset.metric gives them. The binomial and
    clustered:c models draw c*K + R with p = num/den (c = 1, R = 0 for
    binomial): _table tabulates K ~ Binom(den // c, p), _rem_table
    R ~ Binom(den % c, p) for clustered:c, and a sampler without tables
    inverts each draw with binom_quantile. It is read-only after
    construction and safe to share across worker processes.
    """

    metric: str
    model: NullModel
    den: np.ndarray
    num: np.ndarray
    _table: _QuantileTable | None = None
    _rem_table: _QuantileTable | None = None

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
        # written so that NaN fails too
        if not np.all((u >= 0.0) & (u < 1.0)):
            raise ValueError("uniform variates must lie in [0, 1)")
        kind = self.model.kind
        if kind == "beta_binomial":
            from scipy.special import betaincinv

            out = np.empty(self.n_stations, dtype=np.int64)
            for s in range(0, self.n_stations, _DRAW_BLOCK):
                e = s + _DRAW_BLOCK
                den, num = self.den[s:e], self.num[s:e]
                a = (num + 1).astype(np.float64)
                b = (den - num + 1).astype(np.float64)
                p_draw = betaincinv(a, b, u[s:e, 0])
                out[s:e] = binom_quantile(u[s:e, 1], den, p_draw)
            return out
        c = self.model.cluster_size
        clustered = kind == "clustered"
        if self._table is not None:
            quot = self._table.lookup(u[:, 0])
            rem = self._rem_table.lookup(u[:, 1]) if clustered else None
        else:
            p = _empirical_p(self.den, self.num)
            quot = binom_quantile(u[:, 0], self.den // c, p)
            rem = binom_quantile(u[:, 1], self.den % c, p) if clustered else None
        return c * quot + rem if clustered else quot


def make_sampler(
    den: np.ndarray, num: np.ndarray, model: NullModel | str, metric: str
) -> DatasetSampler:
    """Build a DatasetSampler, making its one table-or-direct decision.

    Binomial and clustered samplers get tables (see DatasetSampler)
    unless their projected windows pass _MAX_TABLE_ENTRIES entries.
    """
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
    if model.kind == "beta_binomial":
        return sampler
    p = _empirical_p(den, num)
    c = model.cluster_size
    # binomial tabulates den itself, not a copy of den // 1
    quot = den // c if model.kind == "clustered" else den
    if _projected_entries(quot, p) <= _MAX_TABLE_ENTRIES:
        # both parts reuse the station's empirical p = num/den
        sampler._table = _build_table(quot, p)
        if model.kind == "clustered":
            sampler._rem_table = _build_table(den % c, p)
    return sampler

