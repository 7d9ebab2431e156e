import datetime as dt
import xml.etree.ElementTree as ET
from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np
from hypothesis import example, given, strategies as st

from conftest import series_from_ctr
from sigfatigue.detector import ChangePoint, detect, segment_series
from sigfatigue.plots import _escape, report_svg


def _xml_char(c: str) -> bool:
    """A character XML 1.0 can hold."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


@given(st.text(st.characters().filter(_xml_char)))
@example("a&b<c>d\"e'")
def test_escape_matches_saxutils_on_xml_text(text):
    assert _escape(text) == escape(text)


def test_escape_replaces_what_xml_cannot_hold():
    assert _escape("\x00\x08\x0b\x0c\x0e\x1f\ud800\udcff\ufffe\uffff") == "\ufffd" * 10
    kept = "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
    assert _escape(kept) == kept


def test_flat_metric_spans_one_unit_around_its_value(constant_series):
    svg = report_svg(constant_series, detect(constant_series))
    # a flat series has no range, so the axis spans value +/- 0.5
    assert ">0.52</text>" in svg and ">-0.48</text>" in svg
    (points,) = [line for line in svg.splitlines() if line.startswith("<polyline")]
    ys = {pair.split(",")[1] for pair in points.split('"')[1].split()}
    assert len(ys) == 1


def test_two_change_points_and_a_declining_segment():
    flat, decline = [0.02] * 40, list(np.linspace(0.02, 0.008, 40))
    series = series_from_ctr(flat + decline + [0.008] * 40)
    cuts = [series.start_date + dt.timedelta(days=d) for d in (40, 80)]
    report = replace(
        detect(series),
        change_points=tuple(ChangePoint(d, 1.0, 0.5) for d in cuts),
        segments=tuple(segment_series(series, cuts)),
    )
    root = ET.fromstring(report_svg(series, report, title="two cuts"))
    ns = "{http://www.w3.org/2000/svg}"
    dashed = [el for el in root.iter(f"{ns}line") if el.get("stroke-dasharray")]
    assert len(dashed) == 2
    labels = {el.text: el.get("fill") for el in root.iter(f"{ns}text") if el.get("fill")}
    assert labels["declining"] == "#c62828"
