"""Tests for the SVG chart writer."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmclab
from bmclab.errors import ConfigError
from bmclab.svg import Band, Series, _tick_values, line_chart


def _chart(series, title="t", band=None):
    return line_chart(series, title=title, x_label="x", y_label="y", band=band)


def test_chart_structure():
    chart = line_chart(
        [
            Series(label="data", x=(0, 1, 2, 3), y=(1.0, 0.5, 0.25, 0.125),
                   color="#000000"),
            Series(label="reference", x=(0, 3), y=(1.0, 0.1), color="#c62828",
                   dashed=True),
        ],
        title="decay", x_label="n", y_label="variance", band=None,
    )
    assert chart.startswith("<svg ")
    assert chart.endswith("</svg>")
    assert chart.count("<polyline ") == 2
    assert "stroke-dasharray" in chart
    assert ">decay</text>" in chart
    assert ">n</text>" in chart
    assert ">variance</text>" in chart
    assert ">data</text>" in chart
    assert 'width="720"' in chart


def test_chart_escapes_labels():
    chart = _chart([Series(label="a<b>&c", x=(0, 1), y=(0, 1), color="#000000")],
                   title='q "quote" <tag>')
    assert "a&lt;b&gt;&amp;c" in chart
    assert "<tag>" not in chart


def test_chart_escapes_text_as_xml_character_data():
    # &, < and > become entities and quotes stay as typed, the bytes that
    # xml.sax.saxutils.escape gave, so the golden slopes.svg digests hold.
    chart = line_chart([Series(label="a<b & c>", x=(0, 1), y=(0, 1), color="#000000")],
                       title="a<b & c>", x_label='say "x"', y_label="it's y", band=None)
    assert chart.count(">a&lt;b &amp; c&gt;</text>") == 2
    assert '>say "x"</text>' in chart
    assert ">it's y</text>" in chart


def test_cli_import_leaves_out_xml_and_urllib():
    # The chart escape needs neither; xml.sax pulled in urllib.request, about
    # 19 ms of start-up for every command.
    src = Path(bmclab.__file__).resolve().parent.parent
    code = ("import sys, bmclab.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


def test_chart_band_and_nan_points():
    band = Band(x=(0, 1, 2), lower=(-1.0, -1.2, -1.1), upper=(-0.8, -0.9, -0.7))
    chart = _chart(
        [Series(label="s", x=(0, 1, 2), y=(-0.9, math.nan, -0.8), color="#000000")],
        band=band,
    )
    assert "<polygon " in chart
    assert "nan" not in chart


def test_chart_errors():
    with pytest.raises(ConfigError):
        _chart([])
    with pytest.raises(ConfigError):
        _chart([Series(label="bad", x=(0, 1), y=(0.0,), color="#000000")])
    with pytest.raises(ConfigError):
        _chart([Series(label="empty", x=(math.nan,), y=(1.0,), color="#000000")])
    with pytest.raises(ConfigError):
        _chart([Series(label="s", x=(0, 1), y=(0, 1), color="#000000")],
               band=Band(x=(0, 1), lower=(0.0,), upper=(0.0, 1.0)))


def test_chart_deterministic():
    series = [Series(label="s", x=(0, 1, 2), y=(3.0, 1.0, 2.0), color="#000000")]
    assert _chart(series) == _chart(series)


# The examples once hung, raised, or gave a tick outside [lo, hi].
@settings(derandomize=True, database=None, max_examples=500)
@example(lo=0.5, hi=0.5000000000000001)  # the step is below half an ulp
@example(lo=5e-324, hi=1e-323)  # the span over the tick target is zero
@example(lo=5e-324, hi=3.5e-323)  # the power of ten underflows to zero
@example(lo=1e300, hi=1e300)  # lo + 1 rounds back to lo
@example(lo=-1e308, hi=1e308)  # hi - lo overflows
@example(lo=0.0, hi=sys.float_info.max)  # the tick after the last overflows
@example(lo=7.823215723758565, hi=7.823215723758566)  # ceil(lo / step) * step < lo
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False))
def test_ticks_bounded_and_finite(lo, hi):
    lo, hi = sorted((lo, hi))
    ticks = _tick_values(lo, hi)
    assert 1 <= len(ticks) <= 14
    assert all(math.isfinite(t) for t in ticks)
    assert ticks == sorted(set(ticks))
    if lo < hi:
        assert lo <= ticks[0] and ticks[-1] <= hi


def test_chart_coordinates_finite_at_the_double_range():
    top = sys.float_info.max
    chart = _chart([Series(label="s", x=(-top, 0.0, top), y=(top, 1.0, -top),
                           color="#000000")],
                   band=Band(x=(-top, top), lower=(-top, -top), upper=(top, top)))
    numbers = re.findall(r'="([-0-9., e+]+)"', chart)
    coords = [float(v) for text in numbers for v in re.split(r"[ ,]", text)]
    assert coords and all(math.isfinite(v) for v in coords)
    assert "inf" not in chart and "nan" not in chart
