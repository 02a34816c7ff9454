"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and literal: exact rational
arithmetic for the probability mass functions, O(N^2) direct sums for
the discrete Fourier transform, one csv record at a time for ingest,
fresh arrays for every spectrogram row, binomial CDF tables built in
station order. None of it imports the package under test, so agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

import cmath
import csv
from fractions import Fraction
from math import comb

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


def dft_direct(values) -> list[complex]:
    """O(N^2) forward DFT, same sign convention as numpy.fft.fft."""
    n = len(values)
    out = []
    for k in range(n):
        s = 0j
        for j, v in enumerate(values):
            s += v * cmath.exp(-2j * cmath.pi * k * j / n)
        out.append(s)
    return out


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
        # the length test comes first: int() refuses over 4300 digits
        if len(s.lstrip("0")) > len(str(max_count)) or int(s) > max_count:
            raise ValueError(f"count above {max_count}: {cell!r}")
        return int(s)

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
    from scipy.special import bdtr, gammaln

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
            tail[t] = bdtr(llo[t] - 1.0, den[s:e][t], p[s:e][t])
        rows += tail[:, None]
        rows[deg, 0] = 1.0
        left_tail[s:e] = tail
        cdf[offsets[s]:offsets[e]] = rows[valid]

    return {"lo": lo, "offsets": offsets, "cdf": cdf, "left_tail": left_tail}
