import xml.etree.ElementTree as ET

import pytest

from modxl.svgchart import ChartSeries, render_line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def simple_series(label="snr"):
    return ChartSeries(label, (1.0, 2.0, 3.0), (10.0, 12.0, 11.0))


def render(*series, **kwargs):
    kwargs.setdefault("x_label", "x")
    kwargs.setdefault("y_label", "y")
    return render_line_chart(list(series), **kwargs)


class TestChartSeries:
    def test_coerces_to_float_tuples(self):
        s = ChartSeries("a", [1, 2], [3, 4])
        assert s.x == (1.0, 2.0)
        assert s.y == (3.0, 4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ChartSeries("a", (1.0, 2.0), (1.0,))

    def test_too_short(self):
        with pytest.raises(ValueError):
            ChartSeries("a", (1.0,), (1.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError):
            ChartSeries("a", (1.0, 2.0), (1.0, bad))


class TestRenderLineChart:
    def test_output_parses_as_xml(self):
        doc = render(simple_series(), title="demo")
        root = ET.fromstring(doc)
        assert root.tag == f"{SVG_NS}svg"

    def test_one_polyline_per_series(self):
        doc = render(simple_series("a"), simple_series("b"), simple_series("c"))
        root = ET.fromstring(doc)
        assert len(root.findall(f"{SVG_NS}polyline")) == 3

    def test_labels_are_escaped(self):
        doc = render(simple_series("a<&b"), title="t<&t")
        root = ET.fromstring(doc)
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "a<&b" in texts
        assert "t<&t" in texts

    def test_markup_characters_escaped_quotes_kept(self):
        doc = render(
            simple_series("s & <\"q\"> 'a'"),
            title="t & <\"q\"> 'a'",
            x_label="x & <\"q\"> 'a'",
            y_label="y & <\"q\"> 'a'",
        )
        for stem in ("s", "t", "x", "y"):
            assert f">{stem} &amp; &lt;\"q\"&gt; 'a'</text>" in doc

    def test_requires_series(self):
        with pytest.raises(ValueError):
            render_line_chart([], x_label="x", y_label="y")

    def test_log_axis_rejects_non_positive_x(self):
        series = ChartSeries("a", (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            render(series, log_x=True)

    def test_log_axis_decade_ticks(self):
        series = ChartSeries("a", (1.0, 10.0, 100.0, 1000.0), (1.0,) * 4)
        doc = render(series, log_x=True)
        root = ET.fromstring(doc)
        texts = {t.text for t in root.iter(f"{SVG_NS}text")}
        assert {"1", "10", "100", "1000"} <= texts
        # No decade lies within [2, 8]: the axis falls back to its ends.
        doc = render(ChartSeries("b", (2.0, 8.0), (1.0, 1.0)), log_x=True)
        texts = {t.text for t in ET.fromstring(doc).iter(f"{SVG_NS}text")}
        assert {"2", "8"} <= texts

    def test_deterministic(self):
        assert render(simple_series()) == render(simple_series())

    def test_flat_series_still_renders(self):
        series = ChartSeries("flat", (0.0, 1.0), (5.0, 5.0))
        root = ET.fromstring(render(series))
        assert root.findall(f"{SVG_NS}polyline")

    @pytest.mark.parametrize(
        "x,y",
        [
            # The tick step underflowed to 0: "math domain error".
            ((0.0, 5e-324), (1.0, 2.0)),
            # The pixel scale overflowed: every coordinate read inf or nan.
            ((1e-310, 1.5e-310), (1.0, 2.0)),
            ((1.0, 2.0), (1e-310, 1.5e-310)),
        ],
    )
    def test_too_narrow_extent_renders_as_flat(self, x, y):
        doc = render(ChartSeries("narrow", x, y))
        assert "inf" not in doc and "nan" not in doc
        for poly in ET.fromstring(doc).findall(f"{SVG_NS}polyline"):
            for pair in poly.attrib["points"].split():
                x_px, y_px = map(float, pair.split(","))
                assert 0.0 <= x_px <= 720.0
                assert 0.0 <= y_px <= 480.0

    def test_log_axis_of_equal_x_draws_one_tick(self):
        doc = render(ChartSeries("a", (5.0, 5.0), (1.0, 2.0)), log_x=True)
        texts = [t.text for t in ET.fromstring(doc).iter(f"{SVG_NS}text")]
        assert texts.count("5") == 1

    def test_coordinates_inside_viewbox(self):
        doc = render(simple_series())
        root = ET.fromstring(doc)
        for poly in root.findall(f"{SVG_NS}polyline"):
            for pair in poly.attrib["points"].split():
                x, y = map(float, pair.split(","))
                assert 0.0 <= x <= 720.0
                assert 0.0 <= y <= 480.0
