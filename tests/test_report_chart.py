"""Tests for table and chart rendering."""

from repro.bench.harness import ExperimentResult
from repro.bench.report import render, render_all, render_chart


def _result():
    r = ExperimentResult("figX", "demo figure", columns=["1", "16"],
                         unit="s", notes="demo")
    r.add("EPT", [1.0, 2.0])
    r.add("SPT-EPT", [10.0, 100.0])
    r.add("crashy", [5.0, float("nan")])
    return r


class TestRender:
    def test_table_has_all_rows(self):
        text = render(_result())
        for token in ("figX", "EPT", "SPT-EPT", "crashy", "crash", "demo"):
            assert token in text

    def test_render_all_joins(self):
        text = render_all([_result(), _result()])
        assert text.count("figX") == 2


class TestChart:
    def test_bars_scale_to_peak(self):
        text = render_chart(_result(), width=10)
        lines = text.splitlines()
        # The peak value gets the full width.
        peak_line = next(l for l in lines if l.endswith(" 100.0"))
        assert "#" * 10 in peak_line
        # Small values still get one glyph.
        small_line = next(l for l in lines if l.endswith(" 1.00"))
        assert "|#" in small_line

    def test_crash_marked(self):
        text = render_chart(_result())
        assert "x (crash)" in text

    def test_column_groups_present(self):
        text = render_chart(_result())
        assert "-- 1" in text and "-- 16" in text

    def test_all_zero_does_not_divide_by_zero(self):
        r = ExperimentResult("z", "zeros", columns=["a"])
        r.add("row", [0.0])
        assert "row" in render_chart(r)
