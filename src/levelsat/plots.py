"""Static SVG plots of dimension trends, emitted directly as text with no
plotting dependency. Log-count against stage, one polyline per trend; a
stage with count zero has no log value, so the series breaks into a gap
there and the legend says so."""

from __future__ import annotations

import math
from html import escape

from .dimension import DimTrend

_COLORS = ("#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#666666")
_FONT = "font-family='Helvetica,Arial,sans-serif'"
_WIDTH, _HEIGHT = 720, 400


def trend_plot_svg(
    trends: list[DimTrend],
    *,
    window: int = 0,
    caption: str = "",
) -> str:
    """One figure comparing the trends. window > 0 shades the final
    `window` stages, the region a comparator verdict would read."""
    if not trends:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 56, 16, 18, 52
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb
    x0 = min(t.start_stage for t in trends)
    x1 = max(t.end_stage for t in trends)
    span = max(1, x1 - x0)
    logs = [
        math.log(c) for t in trends for c in t.counts if c
    ]
    y1 = max(logs, default=1.0) * 1.08 or 1.0

    def X(stage: float) -> float:
        return ml + (stage - x0) / span * pw

    def Y(v: float) -> float:
        return mt + ph - v / y1 * ph

    out = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_WIDTH}' height='{_HEIGHT}' "
        f"viewBox='0 0 {_WIDTH} {_HEIGHT}'>",
        f"<rect width='{_WIDTH}' height='{_HEIGHT}' fill='white'/>",
    ]
    if window > 0:
        wx = X(max(x0, x1 - window + 1))
        out.append(
            f"<rect x='{wx:.1f}' y='{mt}' width='{X(x1) - wx:.1f}' height='{ph}' "
            "fill='#dbe7f5' opacity='0.6'/>"
        )
    # axes and ticks
    out.append(
        f"<line x1='{ml}' y1='{mt + ph}' x2='{ml + pw}' y2='{mt + ph}' stroke='#333'/>"
        f"<line x1='{ml}' y1='{mt}' x2='{ml}' y2='{mt + ph}' stroke='#333'/>"
    )
    xstep = max(1, round(span / 8))
    s = x0
    while s <= x1:
        out.append(
            f"<line x1='{X(s):.1f}' y1='{mt + ph}' x2='{X(s):.1f}' y2='{mt + ph + 4}' stroke='#333'/>"
            f"<text x='{X(s):.1f}' y='{mt + ph + 16}' {_FONT} font-size='11' "
            f"text-anchor='middle'>{s}</text>"
        )
        s += xstep
    ystep = 1 if y1 <= 8 else 2
    v = 0.0
    while v <= y1:
        out.append(
            f"<line x1='{ml - 4}' y1='{Y(v):.1f}' x2='{ml}' y2='{Y(v):.1f}' stroke='#333'/>"
            f"<text x='{ml - 7}' y='{Y(v) + 4:.1f}' {_FONT} font-size='11' "
            f"text-anchor='end'>{v:g}</text>"
        )
        v += ystep
    out.append(
        f"<text x='{ml + pw / 2:.0f}' y='{mt + ph + 32}' {_FONT} font-size='12' "
        "text-anchor='middle'>stage</text>"
        f"<text x='14' y='{mt + ph / 2:.0f}' {_FONT} font-size='12' "
        f"text-anchor='middle' transform='rotate(-90 14 {mt + ph / 2:.0f})'>log count</text>"
    )
    # series: split each trend into segments at empty stages
    for i, t in enumerate(trends):
        color = _COLORS[i % len(_COLORS)]
        segment: list[tuple[float, float]] = []
        segments = [segment]
        for j, c in enumerate(t.counts):
            if c == 0:
                if segment:
                    segment = []
                    segments.append(segment)
                continue
            segment.append((X(t.start_stage + j), Y(math.log(c))))
        for seg in segments:
            if len(seg) > 1:
                pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in seg)
                out.append(
                    f"<polyline points='{pts}' fill='none' stroke='{color}' stroke-width='1.8'/>"
                )
            for x, y in seg:
                out.append(f"<circle cx='{x:.1f}' cy='{y:.1f}' r='2.2' fill='{color}'/>")
    # legend
    ly = mt + 6
    for i, t in enumerate(trends):
        color = _COLORS[i % len(_COLORS)]
        label = t.label
        if any(c == 0 for c in t.counts):
            label += " (gaps: empty set)"
        out.append(
            f"<line x1='{ml + 10}' y1='{ly + 4}' x2='{ml + 34}' y2='{ly + 4}' "
            f"stroke='{color}' stroke-width='2.4'/>"
            f"<text x='{ml + 40}' y='{ly + 8}' {_FONT} font-size='11'>{escape(label, quote=False)}</text>"
        )
        ly += 16
    if caption:
        out.append(
            f"<text x='{ml}' y='{_HEIGHT - 6}' {_FONT} font-size='12'>{escape(caption, quote=False)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
