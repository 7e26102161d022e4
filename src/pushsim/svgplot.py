"""Minimal self-contained SVG line charts.

Enough plotting for run diagnostics without pulling in a plotting stack:
straight polylines on linear or log10 axes, tick labels, and a legend.
Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

__all__ = ["Series", "line_chart"]

_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8e5fa8", "#c77d2e", "#38808f")
LOG_FLOOR = 1e-300
WIDTH, HEIGHT = 720, 440   # chart size in pixels
TICKS = 6                  # tick marks wanted per axis


@dataclass(frozen=True)
class Series:
    xs: Sequence[float]
    ys: Sequence[float]
    label: str


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out or [lo, hi]


def _drawable(y: float, logy: bool) -> bool:
    """Whether a value can be placed on the y axis."""
    return math.isfinite(y) and not (logy and y <= LOG_FLOOR)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_chart(
    path: str | Path,
    series: Sequence[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a line chart of the given series to ``path`` as SVG.

    The y axis is log10 when some value is positive, else linear.
    Non-finite values are dropped from the drawing, and on a log axis so
    are nonpositive ones; a series with no drawable value is skipped, and
    with none at all the chart is the frame and legend on linear axes.
    """
    series = [s for s in series if len(s.xs) > 0]
    if not series:
        raise ValueError("nothing to plot")
    logy = any(y > 0 for s in series for y in s.ys)
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    # the axis ranges in one pass over the drawable points (faster than min/max calls)
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if not _drawable(y, logy):
                continue
            x, y = float(x), math.log10(y) if logy else float(y)
            if x < x_lo:
                x_lo = x
            if x > x_hi:
                x_hi = x
            if y < y_lo:
                y_lo = y
            if y > y_hi:
                y_hi = y
    if x_lo > x_hi:  # nothing drawable: every x at y = 0
        logy, y_lo, y_hi = False, 0.0, 0.0
        x_lo = min(float(x) for s in series for x in s.xs)
        x_hi = max(float(x) for s in series for x in s.xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(xv)}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        label = f"1e{yv:g}" if logy else _fmt(yv)
        out.append(
            f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end">{label}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
        )

    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        chunk: list[str] = []
        chunks: list[list[str]] = [chunk]
        for x, y in zip(s.xs, s.ys):
            if not _drawable(y, logy):
                if chunk:
                    chunk = []
                    chunks.append(chunk)
                continue
            yy = math.log10(y) if logy else float(y)
            chunk.append(f"{sx(float(x)):.2f},{sy(yy):.2f}")
        for ch in chunks:
            if len(ch) >= 2:
                out.append(
                    f'<polyline points="{" ".join(ch)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
            elif len(ch) == 1:
                cx, cy = ch[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
        ly = mt + 16 + 16 * k
        out.append(
            f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        out.append(f'<text x="{ml + pw - 120}" y="{ly}">{s.label}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
