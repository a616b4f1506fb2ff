import os
import re
import subprocess
import sys

import pytest

import growthlab
from growthlab.core import DomainError
from growthlab.svgchart import emit_svg

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_single_constant_series_draws_horizontal_line():
    text = emit_svg([("flat", [(0, 2.0), (5, 2.0), (10, 2.0)])])
    polylines = re.findall(r'<polyline points="([^"]+)"', text)
    assert len(polylines) == 1
    ys = {pt.split(",")[1] for pt in polylines[0].split()}
    assert len(ys) == 1  # horizontal
    # y-axis spans the value with padding, so the line sits inside the box
    assert "2" in text


def test_two_series_get_distinct_styles_and_legend():
    text = emit_svg(
        [
            ("alpha", [(0, 1.0), (1, 1.5), (2, 1.2)]),
            ("beta", [(0, 0.8), (1, 0.9), (2, 1.1)]),
        ],
    )
    strokes = re.findall(r'<polyline points="[^"]+" fill="none" stroke="([^"]+)"', text)
    assert len(strokes) == 2
    assert strokes[0] != strokes[1]
    assert ">alpha</text>" in text
    assert ">beta</text>" in text


def test_byte_identical_for_identical_input():
    series = [("s", [(i, (i * 7919) % 13 / 3.0) for i in range(50)])]
    assert emit_svg(series).encode() == emit_svg(series).encode()


def test_empty_series_rejected():
    with pytest.raises(Exception):
        emit_svg([])
    with pytest.raises(Exception):
        emit_svg([("empty", [])])


def test_axis_labels_present():
    text = emit_svg(
        [("x", [(0, 0.0), (1, 1.0)])],
        title="T",
        x_label="steps",
        y_label="value",
    )
    assert ">steps</text>" in text
    assert ">value</text>" in text
    assert ">T</text>" in text


@pytest.mark.parametrize("points", [
    [(0, 1.0), (1, float("nan"))],
    [(0, 1.0), (1, float("inf"))],
    [(0, -float("inf")), (1, 1.0)],
    [(float("nan"), 1.0), (1, 1.0)],
    [(0, -1e308), (1, 1e308)],  # finite points, span past float range
    [(-1e308, 0.0), (1e308, 1.0)],
    [(0, 1.7e308), (1, 1.7e308)],  # constant: the padding leaves float range
    [(2.0**53, 1.0)],  # one x: x + 1 is x, so the x axis spans 0
    [(0.0, 1.0), (5e-324, 2.0)],  # an x span below the normal floats
], ids=["nan", "inf", "-inf", "nan-x", "y-span", "x-span", "padded", "x-unit-lost",
        "x-subnormal"])
def test_points_past_float_range_rejected_before_writing(points):
    with pytest.raises(DomainError, match="finite"):
        emit_svg([("bad", points)])


def test_span_below_tick_resolution_finishes():
    # a tick step below half an ulp of the ticks: t + step == t
    text = emit_svg([("s", [(0, 1e10), (1, 1e10 + 2e-6)])])
    polylines = re.findall(r'<polyline points="([^"]+)"', text)
    assert len(polylines[0].split()) == 2


#: pin name -> emit_svg's arguments, for the paths the run pins do not draw
CHART_PINS = {
    # no title or y label, the default x label, one x (the x axis spans x to
    # x + 1) and a label with every character that markup cares about
    "chart_bare": ([("a & b < c > d \"e\" 'f'", [(3.0, 0.25), (3.0, 0.75), (3.0, 0.5)])],
                   {}),
    # seven series, so the palette wraps, a custom x label and & in the title
    "chart_seven_series": (
        [(f"rule {i}", [(t, 0.1 * (i + 1) + 0.013 * t * (i - 3)) for t in range(0, 60, 7)])
         for i in range(7)],
        {"title": "growth & excess", "x_label": "years", "y_label": "log income"},
    ),
}


@pytest.mark.parametrize("name", list(CHART_PINS))
def test_chart_bytes_match_their_pin(name):
    series, kwargs = CHART_PINS[name]
    # with the final newline that a run's writer adds
    got = (emit_svg(series, **kwargs) + "\n").encode()
    with open(os.path.join(DATA, f"{name}.svg"), "rb") as fh:
        assert got == fh.read(), f"{name}.svg differs from its pin"


# run in a fresh interpreter, so no module another test imported counts
_HTML_PROBE = """
import sys
import growthlab, growthlab.cli, growthlab.experiments
from growthlab.svgchart import emit_svg
text = emit_svg([("a & <b>", [(0, 1.0), (1, 2.0)])], title="x < y & y > z",
                y_label="<&>")
assert "&amp; &lt;b&gt;" in text and "x &lt; y &amp; y &gt; z" in text
print(sorted(name for name in ("html", "html.entities") if name in sys.modules))
"""


def test_no_growthlab_import_or_chart_loads_html():
    """Escaping needs neither ``html`` nor ``html.entities``, whose tables
    would cost every growthlab process peak memory."""
    src = os.path.dirname(os.path.dirname(growthlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", _HTML_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
