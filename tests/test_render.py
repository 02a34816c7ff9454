"""Deterministic SVG rendering."""

import base64
import re
import zlib
from xml.dom import minidom

import numpy as np

import oracles
from pollheap.render import (
    _colormap,
    _fmt,
    _ticks,
    render_box_plot,
    render_envelope_plot,
    render_heatmap,
    render_line_plot,
)


def test_fmt_trims_trailing_zeros():
    assert _fmt(1.0) == "1"
    assert _fmt(0.05) == "0.05"
    assert _fmt(2 / 3) == "0.667"
    assert _fmt(70.5) == "70.5"
    assert _fmt(0.0) == "0"


def test_ticks_cover_range():
    t = _ticks(0.0, 100.0)
    assert t[0] >= 0.0 and t[-1] <= 100.0
    assert len(t) >= 4
    steps = np.diff(t)
    assert np.allclose(steps, steps[0])
    assert _ticks(5.0, 5.0) == [5.0]


def line_svg():
    x = np.linspace(0, 100, 50)
    return render_line_plot(
        [("a", x, np.sin(x / 9.0)), ("b", x, np.cos(x / 9.0))],
        "two waves", "percent", "level", meta="cfg-echo-123",
    )


def test_line_plot_structure():
    svg = line_svg()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "two waves" in svg and "percent" in svg and "level" in svg
    assert "<desc>cfg-echo-123</desc>" in svg
    assert svg.count("<polyline") >= 2


def test_rendering_is_deterministic():
    assert line_svg() == line_svg()


def test_envelope_plot_has_band_polygon():
    x = np.linspace(0, 10, 30)
    mean = np.full(30, 5.0)
    svg = render_envelope_plot(
        x, mean + 0.5, mean, mean - 1, mean + 1,
        "band", "x", "y", meta="m",
    )
    assert "<polygon" in svg
    assert svg.count("<polyline") >= 2  # mean and empirical


def test_box_plot_one_group_per_entry():
    entries = [
        {"label": f"def{k}", "low": 1.0, "high": 3.0, "mean": 2.0, "empirical": 2.5}
        for k in range(4)
    ]
    svg = render_box_plot(entries, "boxes", "q", meta="m")
    for k in range(4):
        assert f"def{k}" in svg


def test_heatmap_embeds_valid_png():
    rng = np.random.default_rng(1)
    matrix = rng.uniform(0, 2, size=(40, 30))
    matrix[3, 4] = np.nan  # NaN cells must render, not raise
    svg = render_heatmap(
        matrix, (0.0, 100.0), (0.0, 5.0), "heat", "x", "y",
        v_lo=0.0, v_hi=3.0, meta="m",
    )
    m = re.search(r'href="data:image/png;base64,([^"]+)"', svg)
    assert m, "heatmap must embed its raster as a data URI"
    png = base64.b64decode(m.group(1))
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    assert png[-8:-4] == b"IEND"
    # IDAT payload inflates to rows of filter byte + RGB pixels;
    # image is matrix transposed (x horizontal) and y flipped
    idat = png[png.index(b"IDAT") + 4 : png.rindex(b"IEND") - 4]
    raw = zlib.decompress(idat)
    assert len(raw) == 30 * (1 + 40 * 3)


def test_row_wise_colormap_matches_the_whole_image_ramp():
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 1.0, -2.5, 1.0 + 1e-12, 7.0,
               0.5 - 1e-15, 0.5 + 1e-15, 1e308, -1e308]
    for shape, lo, hi in [((1, 1), 0.0, 1.0), ((1, 9), 0.0, 1.0), ((9, 1), -1.0, 2.0),
                          ((151, 851), 0.0, 3.0), ((4, 40), np.log1p(0.0), np.log1p(7.0))]:
        image = rng.uniform(lo - 0.5, hi + 0.5, size=shape)
        flat = image.reshape(-1)
        picks = rng.integers(0, flat.size, size=min(flat.size, 3 * len(special)))
        flat[picks] = np.resize(special, picks.size)
        got = _colormap(image, lo, hi)
        assert got.dtype == np.uint8 and got.shape == shape + (3,)
        want = oracles.colormap_whole((image - lo) / (hi - lo))
        assert got.tobytes() == want.tobytes()
    grid = rng.uniform(0, 3, size=(30, 20))
    flipped = grid.T[::-1]  # the heatmap passes a strided view
    want = oracles.colormap_whole(((grid - 0.0) / 3.0).T[::-1])
    assert _colormap(flipped, 0.0, 3.0).tobytes() == want.tobytes()


def test_heatmap_log_scale_runs():
    matrix = np.zeros((10, 10))
    matrix[5, 5] = 1e6
    svg = render_heatmap(
        matrix, (0.0, 1.0), (0.0, 1.0), "log", "x", "y",
        log_scale=True, note="correlation 0.5", meta="m",
    )
    assert "correlation 0.5" in svg


def _texts(svg: str) -> list[str]:
    doc = minidom.parseString(svg)
    return ["".join(n.data for n in t.childNodes) for t in doc.getElementsByTagName("text")]


def test_text_and_meta_are_xml_escaped():
    x = np.arange(5.0)
    svg = render_line_plot(
        [("a<b", x, x), ("c&d", x, x + 1)],
        title="p < 0.05 & q > 1",
        xlabel="x&y",
        ylabel="<y>",
        meta='{"input": ["a&b.tsv"]}',
    )
    assert {"p < 0.05 & q > 1", "x&y", "<y>", "a<b", "c&d"} <= set(_texts(svg))
    desc = minidom.parseString(svg).getElementsByTagName("desc")[0]
    assert desc.firstChild.data == '{"input": ["a&b.tsv"]}'
    box = render_box_plot(
        [{"label": "R&1", "low": 0.0, "high": 1.0, "mean": 0.5, "empirical": 0.7}],
        title="t",
        ylabel="y",
    )
    assert "R&1" in _texts(box)
    heat = render_heatmap(
        np.ones((3, 3)), (0.0, 1.0), (0.0, 1.0), "t", "x", "y", note="n < 5 & m > 2"
    )
    assert "n < 5 & m > 2" in _texts(heat)
