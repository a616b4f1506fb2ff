"""Self-contained SVG line charts for time series, with deterministic bytes.

No plotting dependency: charts are assembled as strings with fixed number
formatting, so identical input always yields byte-identical text.  CSV
remains the canonical output; these charts exist so a run can be eyeballed
without further tooling.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import DomainError

Series = Sequence[tuple[str, Sequence[tuple[float, float]]]]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 760
_HEIGHT = 380
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi], for hi > lo; pure and deterministic."""
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a step below float resolution at t: no further tick
            break
        t += step
    return ticks


def emit_svg(
    series: Series,
    *,
    title: str = "",
    x_label: str = "time steps",
    y_label: str = "",
) -> str:
    """The SVG text, no final newline, of a line chart of labeled (x, y) sequences.

    Axis ranges cover the union of the series with a small padding; a
    constant series yields a horizontal line with the y-axis spanning the
    value plus/minus the padding.  Identical input produces byte-identical
    output.
    """
    if not series:
        raise DomainError("at least one series is required")
    for label, points in series:
        if not points:
            raise DomainError(f"series {label!r} has no points")

    arrays = [np.array(points, dtype=float) for _, points in series]
    xy = np.concatenate(arrays)  # min and max propagate NaN
    (x_lo, y_lo), (x_hi, y_hi) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = (y_hi - y_lo) * 0.05
    if pad == 0.0:
        pad = max(abs(y_lo) * 0.1, 1e-6)
    y_lo -= pad
    y_hi += pad
    # a non-finite point or a span past float range makes a span inf or NaN
    if not all(np.finfo(float).tiny <= s < np.inf for s in (x_hi - x_lo, y_hi - y_lo)):
        raise DomainError("chart points must be finite, each axis spanning a normal float")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # pixels of a value or an array, with the same IEEE operations either way
    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out: list[str] = []

    # one routine per repeated element kind; attrs is any attribute text that
    # closes the tag, and a text's body is always escaped as html.escape(body,
    # quote=False) does it, without importing html's entity tables
    def line(x1, y1, x2, y2, stroke="#333", attrs=""):
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{attrs}/>')

    def text(x, y, size, body, anchor="middle", attrs=""):
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
                   f'font-size="{size}"{attrs}>{body}</text>')

    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        text(f"{_WIDTH / 2:.0f}", 20, 14, title)

    # axes box
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    bottom = _MARGIN_TOP + plot_h
    for t in _nice_ticks(x_lo, x_hi):
        px = f"{sx(t):.2f}"
        line(px, bottom, px, bottom + 5)
        text(px, bottom + 18, 11, f"{t:.6g}")
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        line(_MARGIN_LEFT - 5, f"{py:.2f}", _MARGIN_LEFT, f"{py:.2f}")
        text(_MARGIN_LEFT - 8, f"{py + 3.5:.2f}", 11, f"{t:.6g}", "end")
    text(f"{_MARGIN_LEFT + plot_w / 2:.0f}", _HEIGHT - 8, 12, x_label)
    if y_label:
        cy = f"{_MARGIN_TOP + plot_h / 2:.0f}"
        text(16, cy, 12, y_label, attrs=f' transform="rotate(-90 16 {cy})"')

    for idx, ((label, _), points) in enumerate(zip(series, arrays)):
        color = _PALETTE[idx % len(_PALETTE)]
        pixels = np.column_stack((sx(points[:, 0]), sy(points[:, 1]))).ravel()
        coords = " ".join(["%.2f,%.2f"] * len(points)) % tuple(pixels.tolist())
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        # legend entry, top-right corner of the plot box
        ly = _MARGIN_TOP + 14 + 16 * idx
        lx = _MARGIN_LEFT + plot_w - 150
        line(lx, ly, lx + 22, ly, color, ' stroke-width="2"')
        text(lx + 28, ly + 4, 11, str(label), anchor=None)
    out.append("</svg>")
    return "\n".join(out)
