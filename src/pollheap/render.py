"""Deterministic SVG rendering of analysis outputs.

Every function returns a complete standalone SVG document as a string.
Output bytes depend only on the input data: fixed canvas geometry,
fixed-precision coordinate formatting, no timestamps, no external
assets. Heatmaps embed a losslessly compressed raster as a data URI so
a 150k-cell spectrogram does not become 150k SVG nodes. Text (titles,
labels, notes, the <desc> metadata) is XML-escaped, so any file name or
label yields a well-formed document.
"""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

__all__ = [
    "render_line_plot",
    "render_envelope_plot",
    "render_box_plot",
    "render_heatmap",
]

_W, _H = 900, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins: left right top bottom

_COLORS = ("#1f6fb4", "#d1495b", "#3a7d44", "#8d5a97", "#c87d2f", "#4f6d7a")


def _escape(text: str) -> str:
    """Text as XML character data: &, < and > become entities.

    xml.sax.saxutils.escape does the same, but importing it loads
    urllib.request, http.client and ssl.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = np.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(float(t))
        t += step
    return out or [lo]


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W/2:.0f}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>',
            f'<text x="{_W/2:.0f}" y="{_H-10}" text-anchor="middle" font-size="12">{_escape(xlabel)}</text>',
            f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {_H/2:.0f})">{_escape(ylabel)}</text>',
        ]

    def px(self, x: float) -> float:
        f = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + f * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        f = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _H - _MB - f * (_H - _MT - _MB)

    def axes(self) -> None:
        x0, x1 = _ML, _W - _MR
        y0, y1 = _H - _MB, _MT
        self.parts.append(
            f'<path d="M{x0} {y1} L{x0} {y0} L{x1} {y0}" fill="none" stroke="#333"/>'
        )
        for t in _ticks(self.x_lo, self.x_hi):
            x = self.px(t)
            self.parts.append(f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0+4}" stroke="#333"/>')
            self.parts.append(
                f'<text x="{x:.1f}" y="{y0+18}" text-anchor="middle" font-size="11">{_fmt(t)}</text>'
            )
        for t in _ticks(self.y_lo, self.y_hi):
            y = self.py(t)
            self.parts.append(f'<line x1="{x0-4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="#333"/>')
            self.parts.append(
                f'<text x="{x0-7}" y="{y+4:.1f}" text-anchor="end" font-size="11">{_fmt(t)}</text>'
            )

    def polyline(self, xs, ys, color: str, width: float = 1.4) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def band(self, xs, lows, highs, color: str, opacity: float = 0.25) -> None:
        fwd = [f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, highs)]
        bwd = [f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs[::-1], lows[::-1])]
        self.parts.append(
            f'<polygon points="{" ".join(fwd + bwd)}" fill="{color}" '
            f'opacity="{opacity}" stroke="none"/>'
        )

    def legend(self, entries: list[tuple[str, str]]) -> None:
        x, y = _ML + 12, _MT + 8
        for label, color in entries:
            self.parts.append(
                f'<line x1="{x}" y1="{y+4}" x2="{x+22}" y2="{y+4}" stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{x+28}" y="{y+8}" font-size="11">{_escape(label)}</text>'
            )
            y += 16

    def note(self, text: str) -> None:
        self.parts.append(
            f'<text x="{_W-_MR-6}" y="{_MT+14}" text-anchor="end" font-size="12">{_escape(text)}</text>'
        )

    def done(self, meta: str = "") -> str:
        if meta:
            self.parts.insert(1, f"<desc>{_escape(meta)}</desc>")
        self.parts.append("</svg>")
        return "\n".join(self.parts)


def render_line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    meta: str = "",
) -> str:
    """Overlaid lines; series is a list of (label, x, y)."""
    xs_all = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, float) for _, _, y in series])
    ys_all = ys_all[np.isfinite(ys_all)]
    y_hi = float(ys_all.max()) if ys_all.size else 1.0
    y_lo = min(0.0, float(ys_all.min())) if ys_all.size else 0.0
    c = _Canvas(xs_all.min(), xs_all.max(), y_lo, y_hi * 1.05, title, xlabel, ylabel)
    c.axes()
    legend = []
    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        y = np.asarray(y, float)
        m = np.isfinite(y)
        c.polyline(np.asarray(x, float)[m], y[m], color)
        legend.append((label, color))
    if len(legend) > 1:
        c.legend(legend)
    return c.done(meta)


def render_envelope_plot(
    x: np.ndarray,
    empirical: np.ndarray,
    mean: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
    meta: str = "",
) -> str:
    """Empirical line over the MC mean and percentile band."""
    y_hi = float(max(np.max(empirical), np.max(high))) * 1.05
    c = _Canvas(float(np.min(x)), float(np.max(x)), 0.0, y_hi, title, xlabel, ylabel)
    c.axes()
    c.band(np.asarray(x, float), np.asarray(low, float), np.asarray(high, float), "#999999")
    c.polyline(x, mean, "#777777")
    c.polyline(x, empirical, _COLORS[0])
    c.legend([("empirical", _COLORS[0]), ("simulated mean", "#777777")])
    return c.done(meta)


def render_box_plot(
    entries: list[dict],
    title: str,
    ylabel: str,
    meta: str = "",
) -> str:
    """Percentile boxes with empirical markers.

    Each entry: {label, low, high, mean, empirical}. Mirrors the
    significance chart: a box per dataset, dot = empirical value.
    """
    n = len(entries)
    y_vals = []
    for e in entries:
        y_vals += [e["low"], e["high"], e["empirical"], e["mean"]]
    y_lo = min(y_vals) if y_vals else 0.0
    y_hi = max(y_vals) if y_vals else 1.0
    pad = (y_hi - y_lo) * 0.08 or 1.0
    c = _Canvas(-0.5, n - 0.5, y_lo - pad, y_hi + pad, title, "", ylabel)
    c.axes()
    bw = 0.3
    for i, e in enumerate(entries):
        x0, x1 = c.px(i - bw), c.px(i + bw)
        yl, yh = c.py(e["low"]), c.py(e["high"])
        ym = c.py(e["mean"])
        c.parts.append(
            f'<rect x="{x0:.1f}" y="{yh:.1f}" width="{x1-x0:.1f}" height="{yl-yh:.1f}" '
            f'fill="#cfd8e3" stroke="#555"/>'
        )
        c.parts.append(
            f'<line x1="{x0:.1f}" y1="{ym:.1f}" x2="{x1:.1f}" y2="{ym:.1f}" stroke="#555"/>'
        )
        ye = c.py(e["empirical"])
        xc = c.px(i)
        c.parts.append(f'<circle cx="{xc:.1f}" cy="{ye:.1f}" r="4" fill="{_COLORS[1]}"/>')
        c.parts.append(
            f'<text x="{xc:.1f}" y="{_H-_MB+18}" text-anchor="middle" font-size="11">{_escape(e["label"])}</text>'
        )
    return c.done(meta)


def _png_bytes(rgb: np.ndarray) -> bytes:
    """Minimal PNG encoder for an (h, w, 3) uint8 array."""
    h, w, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[r].tobytes() for r in range(h))
    compressed = zlib.compress(raw, 9)

    def chunk(tag: bytes, data: bytes) -> bytes:
        body = tag + data
        return struct.pack(">I", len(data)) + body + struct.pack(
            ">I", zlib.crc32(body) & 0xFFFFFFFF
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", compressed)
        + chunk(b"IEND", b"")
    )


def _colormap_row(v: np.ndarray) -> np.ndarray:
    nan = ~np.isfinite(v)
    v = np.where(nan, 0.5, np.clip(v, 0.0, 1.0))
    lo = np.array([33.0, 102.0, 172.0])
    mid = np.array([247.0, 247.0, 247.0])
    hi = np.array([178.0, 24.0, 43.0])
    t = v[..., None]
    rgb = np.where(t < 0.5, lo + (mid - lo) * (t / 0.5), mid + (hi - mid) * ((t - 0.5) / 0.5))
    rgb[nan] = np.array([224.0, 224.0, 224.0])
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def _colormap(image: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map [lo, hi] to a blue-white-red ramp, NaN and +-inf to light gray.

    image is (height, width); it is normalized and mapped a row at a
    time, so the float temporaries are one row wide, not one image.
    """
    v = np.asarray(image, dtype=np.float64)
    rgb = np.empty(v.shape + (3,), dtype=np.uint8)
    for row, out in zip(v, rgb):
        out[...] = _colormap_row((row - lo) / (hi - lo))
    return rgb


def render_heatmap(
    matrix: np.ndarray,
    x_extent: tuple[float, float],
    y_extent: tuple[float, float],
    title: str,
    xlabel: str,
    ylabel: str,
    v_lo: float | None = None,
    v_hi: float | None = None,
    log_scale: bool = False,
    note: str = "",
    meta: str = "",
) -> str:
    """Raster heatmap of matrix[x_index, y_index] with axes.

    The matrix's first axis runs along x, the second along y (bottom
    to top). Values are normalized to [v_lo, v_hi] (data range by
    default), optionally through log1p for mass-like data.
    """
    vals = np.asarray(matrix, dtype=np.float64)
    if log_scale:
        vals = np.log1p(np.maximum(vals, 0.0))
    finite = vals[np.isfinite(vals)] if v_lo is None or v_hi is None else None
    lo = float(np.min(finite)) if v_lo is None else (np.log1p(v_lo) if log_scale else v_lo)
    hi = float(np.max(finite)) if v_hi is None else (np.log1p(v_hi) if log_scale else v_hi)
    if hi <= lo:
        hi = lo + 1.0
    # image rows top-to-bottom = y descending; columns = x ascending
    rgb = _colormap(vals.T[::-1], lo, hi)
    png = base64.b64encode(_png_bytes(rgb)).decode("ascii")

    c = _Canvas(x_extent[0], x_extent[1], y_extent[0], y_extent[1], title, xlabel, ylabel)
    x0, y1 = c.px(x_extent[0]), c.py(y_extent[1])
    iw = c.px(x_extent[1]) - x0
    ih = c.py(y_extent[0]) - y1
    c.parts.append(
        f'<image x="{x0:.1f}" y="{y1:.1f}" width="{iw:.1f}" height="{ih:.1f}" '
        f'preserveAspectRatio="none" style="image-rendering:pixelated" '
        f'href="data:image/png;base64,{png}"/>'
    )
    c.axes()
    if note:
        c.note(note)
    return c.done(meta)
