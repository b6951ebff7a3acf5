"""Reporting table / series / comparison tests."""

from dataclasses import fields

import pytest

from repro.errors import ReproError
from repro.experiments.evalcache import CacheStats
from repro.parallel.retry import RetryStats
from repro.parallel.service import ServiceStats
from repro.reporting import ComparisonRow, PaperComparison, Series, Table
from repro.reporting.tables import render_figure
from repro.serving.batcher import EndpointStats


class TestTable:
    def test_add_row_and_render(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "| a" in text
        assert "2.5" in text
        assert "### t" in text

    def test_row_length_validated(self):
        table = Table(title="t", columns=["a"])
        with pytest.raises(ReproError):
            table.add_row(1, 2)

    def test_column_access(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 10)
        table.add_row(2, 20)
        assert table.column("b") == [10, 20]

    def test_column_unknown(self):
        with pytest.raises(ReproError):
            Table(title="t", columns=["a"]).column("z")

    def test_none_renders_as_dashes(self):
        table = Table(title="t", columns=["a"])
        table.add_row(None)
        assert "--" in table.render()

    def test_notes_rendered(self):
        table = Table(title="t", columns=["a"])
        table.add_row(1)
        table.add_note("caveat")
        assert "caveat" in table.render()

    def test_float_formatting(self):
        table = Table(title="t", columns=["a"])
        table.add_row(1234567.0)
        table.add_row(0.000123)
        text = table.render()
        assert "1.23e+06" in text
        assert "0.000123" in text


class TestSeries:
    def test_points_and_render(self):
        series = Series("s", "x", "y")
        series.add_point("lw", 1.5)
        series.add_point("perf2", 0.7)
        text = series.render()
        assert "lw" in text and "perf2" in text

    def test_as_table(self):
        series = Series("s", "config", "energy")
        series.add_point("a", 1.0)
        table = series.as_table()
        assert table.columns == ["config", "energy"]

    def test_render_figure(self):
        s1 = Series("one", "x", "y")
        s1.add_point(1, 1.0)
        text = render_figure("Figure 9", [s1])
        assert "## Figure 9" in text


class TestComparison:
    def test_ratio(self):
        row = ComparisonRow("m", paper_value=2.0, measured_value=3.0)
        assert row.ratio == 1.5

    def test_ratio_none_paper(self):
        assert ComparisonRow("m", None, 3.0).ratio is None
        assert ComparisonRow("m", 0.0, 3.0).ratio is None

    def test_direction_matches(self):
        a = ComparisonRow("a", paper_value=10.0, measured_value=5.0)
        b = ComparisonRow("b", paper_value=2.0, measured_value=1.0)
        assert a.direction_matches(b)  # a > b in both worlds

    def test_direction_mismatch(self):
        a = ComparisonRow("a", paper_value=10.0, measured_value=1.0)
        b = ComparisonRow("b", paper_value=2.0, measured_value=5.0)
        assert not a.direction_matches(b)

    def test_paper_comparison_table(self):
        comparison = PaperComparison(name="test")
        comparison.add("metric", 2.0, 4.0, unit="x")
        comparison.verdict = "holds"
        text = comparison.render()
        assert "metric [x]" in text
        assert "holds" in text


@pytest.mark.parametrize(
    "stats_cls", [ServiceStats, RetryStats, CacheStats, EndpointStats]
)
def test_stats_as_dict_follows_fields(stats_cls):
    """Counter dicts (read by benches and reports) are the dataclass
    fields, in declaration order, with their current values."""
    names = [f.name for f in fields(stats_cls)]
    stats = stats_cls(**{name: index + 1 for index, name in enumerate(names)})
    assert list(stats.as_dict()) == names
    assert list(stats.as_dict().values()) == list(range(1, len(names) + 1))
