"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and literal: exact rational
arithmetic for the probability mass functions, O(N^2) direct sums for
the discrete Fourier transform, one csv record at a time for ingest,
fresh arrays for every spectrogram row, the heatmap colour ramp over a
whole image at once, binomial CDF tables built in station order, one
station's uniforms read alone from its Philox stream, the null mean
and spread of q summed station by station from scipy's marginal pmfs,
region peak tables summed station by station as Python ints, every
numerator in a fraud window scored one by one.
None of it imports the package under test, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

import cmath
import csv
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor

import numpy as np


def binom_pmf(n: int, p: Fraction) -> list[Fraction]:
    """Exact Binomial(n, p) pmf as Fractions, indexed by outcome."""
    p = Fraction(p)
    q = 1 - p
    return [comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]


def beta_binom_pmf(n: int, a: int, b: int) -> list[Fraction]:
    """Exact beta-binomial pmf for integer shape parameters.

    pmf(k) = C(n,k) * B(k+a, n-k+b) / B(a, b) with
    B(x, y) = (x-1)! (y-1)! / (x+y-1)! for integer arguments.
    """

    def beta(x: int, y: int) -> Fraction:
        num = Fraction(1)
        for i in range(1, x):
            num *= i
        for i in range(1, y):
            num *= i
        den = Fraction(1)
        for i in range(1, x + y):
            den *= i
        return num / den

    norm = beta(a, b)
    return [comb(n, k) * beta(k + a, n - k + b) / norm for k in range(n + 1)]


def clustered_pmf(n: int, c: int, p: Fraction) -> list[Fraction]:
    """Exact pmf of c*K + R with K ~ Binom(n//c, p), R ~ Binom(n%c, p)."""
    p = Fraction(p)
    pk = binom_pmf(n // c, p)
    pr = binom_pmf(n % c, p)
    out = [Fraction(0)] * (n + 1)
    for k, wk in enumerate(pk):
        for r, wr in enumerate(pr):
            out[c * k + r] += wk * wr
    return out


def binom_cdf_inverse(n: int, p: Fraction, u: Fraction) -> int:
    """Smallest k with CDF(k) >= u, evaluated in exact arithmetic."""
    acc = Fraction(0)
    for k, w in enumerate(binom_pmf(n, p)):
        acc += w
        if acc >= u:
            return k
    return n


def station_uniforms(master_seed, iteration_index, metric_code, station_index, words):
    """One station's uniforms, read alone from its iteration's Philox stream.

    Philox-4x64 emits four 64-bit words per counter value and Generator
    consumes one word per double, so word w lives at counter w // 4,
    offset w % 4; advance() moves the counter to the station's block.
    """
    first = words * station_index
    seq = np.random.SeedSequence((master_seed, iteration_index, metric_code))
    bitgen = np.random.Philox(seq)
    bitgen.advance(first // 4)
    skip = first % 4
    return np.random.Generator(bitgen).random(skip + words)[skip:]


def nearest_bin(num: int, den: int, bins_per_percent: int) -> int:
    """Bin of 100 * num / den on a grid of 1/bins_per_percent percent; halves round up."""
    return floor(Fraction(100 * bins_per_percent * num, den) + Fraction(1, 2))


def dft_direct(values) -> list[complex]:
    """O(N^2) forward DFT, same sign convention as numpy.fft.fft.

    exp(-2 pi i k j / n) is read from a table of the n roots of unity at
    index k * j mod n, and zero samples add nothing, so they are skipped.
    """
    n = len(values)
    roots = [cmath.exp(-2j * cmath.pi * m / n) for m in range(n)]
    terms = [(j, complex(v)) for j, v in enumerate(values) if v != 0]
    return [sum((v * roots[k * j % n] for j, v in terms), 0j) for k in range(n)]


def spectrogram_rows(values, mc_rows, window_bins=151, fft_len=300):
    """(raw, mc_mean) of a sliding Hamming-window spectrogram, row by row.

    Each window is demeaned and Hamming-weighted, then transformed with
    fft_len-point zero padding; the DC column holds |sum of the weighted
    window| instead. mc_mean averages the per-row spectrograms of
    mc_rows, accumulated in row order. Every row allocates its own
    arrays.
    """
    j = np.arange(window_bins, dtype=np.float64)
    ham = 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (window_bins - 1))

    def raw_of(row):
        windows = np.lib.stride_tricks.sliding_window_view(row, window_bins)
        demeaned = (windows - windows.mean(axis=1, keepdims=True)) * ham
        spec = np.abs(np.fft.rfft(demeaned, n=fft_len, axis=1))
        spec[:, 0] = np.abs((windows * ham).sum(axis=1))
        return spec

    raw = raw_of(np.asarray(values, dtype=np.float64))
    mc = np.asarray(mc_rows, dtype=np.float64)
    acc = np.zeros_like(raw)
    for i in range(mc.shape[0]):
        acc += raw_of(mc[i])
    return raw, acc / mc.shape[0]


def colormap_whole(values) -> np.ndarray:
    """The heatmap colour ramp computed over the whole array at once.

    [0, 1] maps to blue-white-red, NaN and +-inf to light gray, in
    float64 temporaries as large as the image times three.
    """
    v = np.asarray(values, dtype=np.float64)
    nan = ~np.isfinite(v)
    v = np.where(nan, 0.5, np.clip(v, 0.0, 1.0))
    lo = np.array([33.0, 102.0, 172.0])
    mid = np.array([247.0, 247.0, 247.0])
    hi = np.array([178.0, 24.0, 43.0])
    t = v[..., None]
    rgb = np.where(t < 0.5, lo + (mid - lo) * (t / 0.5), mid + (hi - mid) * ((t - 0.5) / 0.5))
    rgb[nan] = np.array([224.0, 224.0, 224.0])
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def count_in_window(percentages, centers: str, half_width: Fraction) -> int:
    """Count exact-Fraction percentages within half_width of a center.

    centers is "integer" or "half_integer". Boundary counts as inside.
    """
    half_width = Fraction(half_width)
    hits = 0
    for x in percentages:
        x = Fraction(x)
        if centers == "integer":
            nearest = round(x)
            dist = abs(x - nearest)
        else:
            # nearest k + 1/2 for integer k
            shifted = x - Fraction(1, 2)
            nearest = round(shifted) + Fraction(1, 2)
            dist = abs(x - nearest)
        if dist <= half_width:
            hits += 1
    return hits


def rounding_numerator(den: int, target: int, hw: Fraction, side: str) -> int | None:
    """The fraud injector's numerator for den at target% by enumeration:
    every count in the window, scored as (multiple of 10, distance
    from target * den / 100, count), lowest first; None for an empty
    window."""
    hn, hd = hw.numerator, hw.denominator
    if side == "just_above":
        lo_bound = Fraction(target * den, 100)
    else:
        lo_bound = Fraction((target * hd - hn) * den, 100 * hd)
    hi_bound = Fraction((target * hd + hn) * den, 100 * hd)
    lo = max(ceil(lo_bound), 0)
    hi = min(floor(hi_bound), den)
    if lo > hi:
        return None
    center = Fraction(target * den, 100)
    return min(range(lo, hi + 1), key=lambda c: (c % 10 == 0, abs(Fraction(c) - center), c))


def load_rows(path, delimiter, has_header, resolve, max_count, max_errors):
    """Row-at-a-time reference loader for a delimited export.

    resolve(header, width) maps each canonical field to its source
    column indices, in mapping order (header is None without a header
    row). Blank records are skipped; a bad record is tallied with the
    message of its first failing check: too few cells, a count cell
    that is not plain ASCII digits or exceeds max_count, a sum above
    max_count, an empty or a duplicate station id.
    """
    count_fields = ("registered", "given", "cast", "leader")

    def parse_count(cell):
        s = cell.strip()
        if not (s.isascii() and s.isdigit()):
            raise ValueError(f"not a plain integer: {cell!r}")
        # int() refuses over 4300 digits: strip leading zeros, then
        # test the length before converting
        digits = s.lstrip("0") or "0"
        if len(digits) > len(str(max_count)) or int(digits) > max_count:
            raise ValueError(f"count above {max_count}: {cell!r}")
        return int(digits)

    out = {
        "ids": [],
        "regions": [],
        "constituencies": [],
        "counts": {name: [] for name in count_fields},
        "parsed": 0,
        "invalid": 0,
        "errors": [],
    }

    def record_error(line_no, message):
        out["invalid"] += 1
        if len(out["errors"]) < max_errors:
            out["errors"].append(f"line {line_no}: {message}")

    seen = set()
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        indices = None
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if indices is None:
                if has_header:
                    header = [cell.strip() for cell in row]
                    indices = resolve(header, len(header))
                    continue
                indices = resolve(None, len(row))
            needed = max(i for cols in indices.values() for i in cols)
            if len(row) <= needed:
                record_error(
                    line_no, f"expected at least {needed + 1} columns, got {len(row)}"
                )
                continue
            try:
                values = {}
                for name, cols in indices.items():
                    if name in count_fields:
                        total = sum(parse_count(row[i]) for i in cols)
                        if total > max_count:
                            raise ValueError(f"{name} sum above {max_count}: {total}")
                        values[name] = total
            except ValueError as exc:
                record_error(line_no, str(exc))
                continue
            sid = row[indices["station_id"][0]].strip()
            if not sid:
                record_error(line_no, "empty station_id")
                continue
            if sid in seen:
                record_error(line_no, f"duplicate station_id {sid!r}")
                continue
            seen.add(sid)
            region = "ALL"
            if "region_code" in indices:
                region = row[indices["region_code"][0]].strip() or "ALL"
            constituency = ""
            if "constituency_id" in indices:
                constituency = row[indices["constituency_id"][0]].strip()
            out["ids"].append(sid)
            out["regions"].append(region)
            out["constituencies"].append(constituency)
            for name in count_fields:
                out["counts"][name].append(values[name])
            out["parsed"] += 1
        if indices is None and has_header:
            raise ValueError(f"{path}: no header row found")
    out["skipped"] = out["invalid"]
    return out


def station_order_table(den, p, cells=2**16, tail_sigmas=7.5, tail_pad=5):
    """Per-station binomial CDF rows over mean +- tail_sigmas sd + tail_pad.

    The table build in station order: rows lie back to back in cdf in
    station order (row i is cdf[offsets[i]:offsets[i + 1]]), built in
    chunks of max(1, cells // widest row) consecutive stations, each
    padded to its widest row and masked. Each row is a log-gamma anchor
    at lo, the pmf ratio recurrence (cumprod), a cumsum and then + F(lo
    - 1); degenerate stations (den = 0, p = 0, p = 1) get the single
    entry 1.0 at their certain outcome. Returns lo, offsets, cdf and
    left_tail (F(lo - 1), 0 where lo = 0 or degenerate).
    """
    from scipy.special import betainc, gammaln

    den = np.asarray(den, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    n_st = den.size

    degenerate = (den <= 0) | (p <= 0.0) | (p >= 1.0)
    mu = den * p
    sig = np.sqrt(np.maximum(mu * (1.0 - p), 0.0))
    half = np.ceil(tail_sigmas * sig).astype(np.int64) + tail_pad
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

    step = max(1, cells // int(width.max(initial=1)))
    for s in range(0, n_st, step):
        e = min(s + step, n_st)
        deg = degenerate[s:e]
        wmax = int(width[s:e].max())
        nn = den[s:e, None].astype(np.float64)
        pp = np.where(deg, 0.5, p[s:e])[:, None]
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
            # F(lo - 1) = I_{1-p}(n - lo + 1, lo), as the build takes it
            tail[t] = betainc(den[s:e][t] - llo[t] + 1.0, llo[t], 1.0 - p[s:e][t])
        rows += tail[:, None]
        rows[deg, 0] = 1.0
        left_tail[s:e] = tail
        cdf[offsets[s]:offsets[e]] = rows[valid]

    return {"lo": lo, "offsets": offsets, "cdf": cdf, "left_tail": left_tail}


def _window_outcomes(den: int, hn: int, hd: int, center_kind: str) -> np.ndarray:
    """Outcomes k in 0..den whose 100 * k / den lies in some window.

    Each center c (an integer 0..100, or k + 1/2 for k in 0..99) covers
    the k with |100 * k / den - c| <= hn / hd, found as one integer
    interval per center by exact floor and ceiling division.
    """
    inside = np.zeros(den + 1, dtype=bool)
    # each center as cn / 2: j = 2j / 2, j + 1/2 = (2j + 1) / 2
    if center_kind == "integer":
        centers = [(2 * j, 2) for j in range(101)]
    else:
        centers = [(2 * j + 1, 2) for j in range(100)]
    for cn, cd in centers:
        # |100 k / den - cn/cd| <= hn/hd  <=>  lo_num <= 100 * cd * hd * k <= hi_num
        lo_num = den * (cn * hd - hn * cd)
        hi_num = den * (cn * hd + hn * cd)
        scale = 100 * cd * hd
        lo = max(-((-lo_num) // scale), 0)
        hi = min(hi_num // scale, den)
        if lo <= hi:
            inside[lo : hi + 1] = True
    return np.flatnonzero(inside)


def _marginal_pmf(ks: np.ndarray, num: int, den: int, model: str) -> np.ndarray:
    """One station's null pmf at outcomes ks, for den > 0."""
    from scipy import stats

    p = num / den
    if model == "binomial":
        return stats.binom.pmf(ks, den, p)
    if model == "beta-binomial":
        return stats.betabinom.pmf(ks, den, num + 1, den - num + 1)
    c = int(model.split(":")[1])
    # c * K + R with R < c: outcome k is K = k // c and R = k % c
    return stats.binom.pmf(ks // c, den // c, p) * stats.binom.pmf(ks % c, den % c, p)


# q_moments asks for the same station terms under many definitions;
# both are pure, so they are computed once per argument tuple


@lru_cache(maxsize=None)
def _capped_mass(num: int, den: int, model: str, top: int) -> float:
    """P(outcome <= top) for one station's metric (den > 0)."""
    if top == den:
        return 1.0
    return float(_marginal_pmf(np.arange(top + 1), num, den, model).sum())


@lru_cache(maxsize=None)
def _window_mass(num, den, model, top, half_width, center_kind, zero_exclusion) -> float:
    """P(outcome <= top and in a window), zero_exclusion applied (den > 0)."""
    ks = _window_outcomes(den, half_width.numerator, half_width.denominator, center_kind)
    if zero_exclusion:
        ks = ks[ks % 10 != 0]
    return float(_marginal_pmf(ks[ks <= top], num, den, model).sum())


def q_moments(sides, weights, model: str, half_width, center_kind="integer",
              zero_exclusion=False, cap=None, other_sides=()) -> tuple[float, float]:
    """Exact null mean and standard deviation of the window statistic q.

    sides holds one (num, den) pair of count arrays per metric in
    scope, weights each station's weight. Stations are independent,
    and so are a station's metrics, so q is a sum of independent
    w * Bernoulli(P) terms. Per station and metric, j is the marginal
    probability that the metric lands in a window (and, with
    zero_exclusion, that neither the outcome nor den ends in digit 0).
    A metric with den = 0 is never in a window.

    cap (run_nulls' refilter_max_percent) also asks every metric, in
    scope (sides) or not (other_sides), to stay at or below cap
    percent: c is that probability (1 where den = 0), j is taken with
    it, and P = prod(c) - prod_scope(c - j) * prod_other(c). Without a
    cap, c = 1 and P = 1 - prod(1 - j).
    model is "binomial", "beta-binomial" or "clustered:c".
    """
    hw = Fraction(half_width)
    kept = np.ones(len(weights))
    miss = np.ones(len(weights))
    metrics = [(side, True) for side in sides] + [(side, False) for side in other_sides]
    for (num, den), in_scope in metrics:
        for i, (n_i, d_i) in enumerate(zip(np.asarray(num).tolist(), np.asarray(den).tolist())):
            if d_i == 0:
                continue
            # outcomes k with 100 * k / d_i <= cap
            top = d_i if cap is None else min(d_i, Fraction(cap) * d_i // 100)
            c = _capped_mass(n_i, d_i, model, top)
            j = 0.0
            if in_scope and not (zero_exclusion and d_i % 10 == 0):
                j = _window_mass(n_i, d_i, model, top, hw, center_kind, zero_exclusion)
            kept[i] *= c
            miss[i] *= c - j
    prob = kept - miss
    w = np.asarray(weights, dtype=np.float64)
    return float(np.sum(w * prob)), float(np.sqrt(np.sum(w * w * prob * (1.0 - prob))))


def region_peak_table(inputs, center_kind: str):
    """Rows and ranking of a region peak table, from given draws.

    inputs maps a label to (region_codes, registered, sides, draws):
    sides holds the reported (num, den) of turnout, then result, and
    draws one [turnout num, result num] per simulated iteration. A
    station adds its registered count to its region's 0.1% bin of a
    metric (den > 0 only); a region's excess at candidate (percent,
    metric) is reported sum - simulated sum / iterations. Candidates
    are 70..98, or 70.5..99.5 for half-integer centres, turnout before
    result at each percent; the first maximal excess in that order is
    the row's peak. Regions rank by their largest peak over inputs,
    descending, ties by code, and a region absent from an input gets a
    row of Nones there.
    """
    if center_kind == "integer":
        percents = [Fraction(k) for k in range(70, 99)]
    else:
        percents = [Fraction(2 * k + 1, 2) for k in range(70, 100)]
    candidates = [(p, side) for p in percents for side in (0, 1)]
    names = ("turnout", "result")
    all_codes = sorted({c for codes, *_ in inputs.values() for c in codes})

    def cell_sums(codes, registered, dens, nums):
        sums = {}
        for i, code in enumerate(codes):
            for side in (0, 1):
                d = int(dens[side][i])
                if d > 0:
                    key = (code, side, nearest_bin(int(nums[side][i]), d, 10))
                    sums[key] = sums.get(key, 0) + int(registered[i])
        return sums

    rows, best = [], {}
    for label in sorted(inputs):
        codes, registered, sides, draws = inputs[label]
        dens = [den for _, den in sides]
        reported = cell_sums(codes, registered, dens, [num for num, _ in sides])
        simulated = {}
        for nums in draws:
            for key, v in cell_sums(codes, registered, dens, nums).items():
                simulated[key] = simulated.get(key, 0) + v
        for code in all_codes:
            if code not in codes:
                rows.append((code, label, None, None, None))
                continue
            peak = None
            for p, side in candidates:
                key = (code, side, int(p * 10))
                amp = reported.get(key, 0) - simulated.get(key, 0) / len(draws)
                if peak is None or amp > peak[0]:
                    peak = (amp, names[side], float(p))
            rows.append((code, label) + peak)
            if code not in best or peak[0] > best[code]:
                best[code] = peak[0]
    ranking = sorted(best, key=lambda c: (-best[c], c))
    return rows, ranking + sorted(c for c in all_codes if c not in best)
