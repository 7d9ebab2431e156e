from sigfatigue.detector import detect
from sigfatigue.plots import report_svg


def test_flat_metric_spans_one_unit_around_its_value(constant_series):
    svg = report_svg(constant_series, detect(constant_series))
    # a flat series has no range, so the axis spans value +/- 0.5
    assert ">0.52</text>" in svg and ">-0.48</text>" in svg
    (points,) = [line for line in svg.splitlines() if line.startswith("<polyline")]
    ys = {pair.split(",")[1] for pair in points.split('"')[1].split()}
    assert len(ys) == 1
