"""Static SVG rendering of detection reports.

Hand-rolled SVG keeps the output byte-deterministic and dependency
free: a daily metric polyline, dashed vertical lines at change points,
and a trend label per segment.
"""

from __future__ import annotations

from .detector import ChangePointReport
from .windowing import TimeSeries

__all__ = ["report_svg"]

MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 40
MARGIN_BOTTOM = 36

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


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def report_svg(
    series: TimeSeries,
    report: ChangePointReport,
    title: str = "",
    width: int = 900,
    height: int = 420,
) -> str:
    """Render a detection report as an SVG document string."""
    values = series.metric_values()
    offsets = series.day_offsets()
    span = offsets[-1] if offsets[-1] > 0 else 1.0
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM

    def sx(day: float) -> float:
        return MARGIN_LEFT + plot_w * day / span

    def sy(val: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - (val - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{MARGIN_LEFT + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{x0 - 6}" y="{sy(hi) + 4:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{hi:.4g}</text>'
    )
    parts.append(
        f'<text x="{x0 - 6}" y="{sy(lo) + 4:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{lo:.4g}</text>'
    )
    parts.append(
        f'<text x="{x0}" y="{y0 + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{series.start_date.isoformat()}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w}" y="{y0 + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{series.end_date.isoformat()}</text>'
    )

    # metric polyline
    coords = " ".join(
        f"{_fmt(sx(d))},{_fmt(sy(v))}" for d, v in zip(offsets, values)
    )
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1565c0" stroke-width="1.5"/>'
    )

    # change points as dashed verticals
    for cp in report.change_points:
        day = (cp.date - series.start_date).days
        x = _fmt(sx(day))
        parts.append(
            f'<line x1="{x}" y1="{MARGIN_TOP}" x2="{x}" y2="{y0}" '
            f'stroke="#c62828" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{x}" y="{MARGIN_TOP - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">{cp.date.isoformat()}</text>'
        )

    # per-segment trend labels
    for seg in report.segments:
        mid = ((seg.start_date - series.start_date).days + (seg.end_date - series.start_date).days) / 2
        color = TREND_COLORS.get(seg.trend, "#555555")
        parts.append(
            f'<text x="{_fmt(sx(mid))}" y="{MARGIN_TOP + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{seg.trend}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
