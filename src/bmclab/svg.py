"""The slope chart as a minimal self-contained SVG document.

Draws axes, ticks, a title, axis labels, a legend, an optional shaded band
and one polyline per series on a fixed 720 x 480 canvas.  Kept
dependency-free so chart output is byte-reproducible across environments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from html import escape

from .errors import ConfigError

WIDTH, HEIGHT = 720, 480
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class Series:
    """One labeled polyline; nonfinite points are dropped."""

    label: str
    x: tuple
    y: tuple
    color: str
    dashed: bool = False


@dataclass(frozen=True)
class Band:
    """A shaded vertical band between two curves over a common grid."""

    x: tuple
    lower: tuple
    upper: tuple


def _finite_pairs(xs, ys):
    return [(float(x), float(y)) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)]


def _tick_values(lo: float, hi: float, target: int = 6):
    """Round values from lo to hi, at most 2 * target + 2 of them; a span
    too small for a nonzero double step gets the single tick lo."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi / 2 - lo / 2) / target * 2  # hi - lo may overflow, half of it cannot
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if step >= raw:
            break
    if step == 0.0:
        return [lo]
    ticks, value = [], math.ceil(lo / step) * step
    for _ in range(2 * target + 2):
        if value > hi + 1e-9 * step or math.isinf(value):
            break
        if value >= lo:  # ceil(lo / step) * step can round to below lo
            ticks.append(min(0.0 if abs(value) < 1e-12 * step else value, hi))
        if value + step == value:
            break
        value += step
    return ticks or [lo]


def line_chart(series, *, title: str, x_label: str, y_label: str,
               band: Band | None) -> str:
    """Render series (and an optional band) to an SVG document string."""
    series = list(series)
    if not series:
        raise ConfigError("line_chart needs at least one series")
    for s in series:
        if len(s.x) != len(s.y):
            raise ConfigError(f"series {s.label!r} has mismatched lengths")
    finite = [_finite_pairs(s.x, s.y) for s in series]
    all_x = [x for pts in finite for x, _ in pts]
    all_y = [y for pts in finite for _, y in pts]
    if band is not None:
        if not (len(band.x) == len(band.lower) == len(band.upper)):
            raise ConfigError("band arrays must share one length")
        all_x += [float(v) for v in band.x if math.isfinite(v)]
        for arr in (band.lower, band.upper):
            all_y += [float(v) for v in arr if math.isfinite(v)]
    if not all_x:
        raise ConfigError("no finite data points to plot")

    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    # Spans in halves, as in _tick_values: finite for any finite bounds.
    x_pad = 0.1 * (x_hi / 2 - x_lo / 2 or 0.5)
    y_pad = 0.1 * (y_hi / 2 - y_lo / 2 or 0.5)
    top = sys.float_info.max
    x_lo, x_hi = max(x_lo - x_pad, -top), min(x_hi + x_pad, top)
    y_lo, y_hi = max(y_lo - y_pad, -top), min(y_hi + y_pad, top)

    plot_w = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi / 2 - y / 2) / (y_hi / 2 - y_lo / 2) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
    ]

    for tick in _tick_values(x_lo, x_hi):
        x = px(tick)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="#e0e0e0"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 16:.2f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{tick:g}</text>')
    for tick in _tick_values(y_lo, y_hi):
        y = py(tick)
        out.append(f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" '
                   f'x2="{_MARGIN_LEFT + plot_w:.2f}" y2="{y:.2f}" '
                   f'stroke="#e0e0e0"/>')
        out.append(f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{y + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{tick:g}</text>')

    if band is not None:
        forward = _finite_pairs(band.x, band.upper)
        backward = _finite_pairs(band.x, band.lower)[::-1]
        if forward and backward:
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in forward + backward)
            out.append(f'<polygon points="{points}" fill="#9e9e9e" '
                       f'fill-opacity="0.25" stroke="none"/>')

    frame = (f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" '
             f'width="{plot_w:.2f}" height="{plot_h:.2f}" fill="none" '
             f'stroke="#424242"/>')
    out.append(frame)

    for s, pts in zip(series, finite):
        if not pts:
            continue
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(f'<polyline points="{points}" fill="none" '
                   f'stroke="{s.color}" stroke-width="1.8"{dash}/>')

    out.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" '
               f'y="{HEIGHT - 8:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">'
               f'{escape(x_label, quote=False)}</text>')
    cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
    out.append(f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 {cx:.1f} {cy:.1f})">'
               f'{escape(y_label, quote=False)}</text>')

    legend_y = _MARGIN_TOP + 10
    legend_x = _MARGIN_LEFT + plot_w - 150
    for s in series:
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(f'<line x1="{legend_x:.1f}" y1="{legend_y:.1f}" '
                   f'x2="{legend_x + 24:.1f}" y2="{legend_y:.1f}" '
                   f'stroke="{s.color}" stroke-width="1.8"{dash}/>')
        out.append(f'<text x="{legend_x + 30:.1f}" y="{legend_y + 4:.1f}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{escape(s.label, quote=False)}</text>')
        legend_y += 16

    out.append("</svg>")
    return "\n".join(out)
