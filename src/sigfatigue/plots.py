"""Static SVG rendering of detection reports.

Hand-rolled SVG keeps the output byte-deterministic and dependency
free: a daily metric polyline, dashed vertical lines at change points,
and a trend label per segment.
"""

from __future__ import annotations

from .detector import ChangePointReport
from .windowing import TimeSeries

__all__ = ["report_svg"]

WIDTH = 900
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 40
MARGIN_BOTTOM = 36
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
X0, Y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H  # the axes' corner

TREND_COLORS = {"improving": "#1a7f37", "declining": "#c62828", "stable": "#555555"}


# xml.sax.saxutils.escape's three entities, plus U+FFFD for each character
# XML 1.0 cannot hold: C0 controls but tab, LF and CR, lone surrogates
# (the undecodable bytes of a file name) and U+FFFE, U+FFFF
_XML_TEXT = {
    ord("&"): "&amp;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
    **dict.fromkeys(
        [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF],
        "\ufffd",
    ),
}


def _escape(text: str) -> str:
    return text.translate(_XML_TEXT)


def _text(x, y, anchor: str, size: int, body: str, fill: str = "") -> str:
    fill = f' fill="{fill}"' if fill else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}"{fill}>{body}</text>'
    )


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def report_svg(series: TimeSeries, report: ChangePointReport, title: str = "") -> str:
    """Render a detection report as an SVG document string."""
    values = series.metric_values()
    offsets = series.day_offsets()
    span = offsets[-1] if offsets[-1] > 0 else 1.0
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5

    def sx(day: float) -> float:
        return MARGIN_LEFT + PLOT_W * day / span

    def sy(val: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - (val - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(WIDTH // 2, 20, "middle", 14, _escape(title)))
    parts += [
        _line(X0, MARGIN_TOP, X0, Y0, 'stroke="black"'),
        _line(X0, Y0, X0 + PLOT_W, Y0, 'stroke="black"'),
        _text(X0 - 6, f"{sy(hi) + 4:.2f}", "end", 10, f"{hi:.4g}"),
        _text(X0 - 6, f"{sy(lo) + 4:.2f}", "end", 10, f"{lo:.4g}"),
        _text(X0, Y0 + 16, "middle", 10, series.start_date.isoformat()),
        _text(X0 + PLOT_W, Y0 + 16, "middle", 10, series.end_date.isoformat()),
    ]

    coords = " ".join(f"{sx(d):.2f},{sy(v):.2f}" for d, v in zip(offsets, values))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1565c0" stroke-width="1.5"/>')

    # change points as dashed verticals
    for cp in report.change_points:
        x = f"{sx((cp.date - series.start_date).days):.2f}"
        parts.append(_line(x, MARGIN_TOP, x, Y0, 'stroke="#c62828" stroke-dasharray="5,4"'))
        parts.append(_text(x, MARGIN_TOP - 4, "middle", 9, cp.date.isoformat()))

    # per-segment trend labels
    for seg in report.segments:
        mid = ((seg.start_date - series.start_date).days + (seg.end_date - series.start_date).days) / 2
        color = TREND_COLORS.get(seg.trend, "#555555")
        parts.append(_text(f"{sx(mid):.2f}", MARGIN_TOP + 14, "middle", 11, seg.trend, color))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
