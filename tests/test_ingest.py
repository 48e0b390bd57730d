from __future__ import annotations

from pathlib import Path

import pytest

from graphhom.errors import ValidationError
from graphhom.ingest import (
    QuoteSeriesSpec,
    StationFilter,
    load_quote_series,
    load_station_series,
    month_index,
)
from graphhom.io import read_series_csv, write_series_csv

BOX = StationFilter((42.7, 45.0), (-80.0, -75.0))


class TestStations:
    def test_filter_keeps_in_box_stations(self, data_dir):
        table, warnings = load_station_series([data_dir / "stations_small.csv"], BOX)
        assert table.names == ["S1", "S2", "S3", "S4"]
        assert warnings.malformed_rows == 1

    def test_duplicate_last_wins(self, data_dir):
        table, warnings = load_station_series([data_dir / "stations_small.csv"], BOX)
        assert warnings.duplicate_keys == 1
        s1 = table.values[table.names.index("S1")]
        assert s1.tolist() == [1.0, 2.5]

    def test_month_indexing(self):
        assert month_index("2001-02") - month_index("2001-01") == 1
        assert month_index("2001-01") - month_index("2000-12") == 1
        with pytest.raises(ValueError):
            month_index("2001")

    def test_coordinates_retained(self, data_dir):
        table, _ = load_station_series([data_dir / "stations_small.csv"], BOX)
        assert table.coords[table.names.index("S1")] == (-78.0, 43.0)

    def test_empty_result_is_error(self, data_dir):
        far = StationFilter((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValidationError):
            load_station_series([data_dir / "stations_small.csv"], far)

    def test_round_trip_through_series_csv(self, data_dir, tmp_path):
        table, _ = load_station_series([data_dir / "stations_small.csv"], BOX)
        path = tmp_path / "series.csv"
        write_series_csv(table, path)
        back = read_series_csv(path)
        assert back.names == table.names
        for k in range(len(table.names)):
            assert back.times[k].tolist() == table.times[k].tolist()
            assert back.values[k].tolist() == table.values[k].tolist()

    def test_non_finite_value_is_malformed(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text(
            "STATION,DATE,LATITUDE,LONGITUDE,TAVG\n"
            "S1,2001-01,43.0,-78.0,1.0\n"
            "S1,2001-02,43.0,-78.0,nan\n"
            "S1,2001-03,43.0,-78.0,inf\n"
            "S1,2001-04,43.0,-78.0,3.0\n"
        )
        table, warnings = load_station_series([path], BOX)
        assert warnings.malformed_rows == 2
        assert table.values[0].tolist() == [1.0, 3.0]

    def test_order_independent_across_files(self, data_dir, tmp_path):
        src = (data_dir / "stations_small.csv").read_text().splitlines()
        header, rows = src[0], src[1:]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join([header] + rows[:4]) + "\n")
        b.write_text("\n".join([header] + rows[4:]) + "\n")
        t1, _ = load_station_series([a, b], BOX)
        t2, _ = load_station_series([b, a], BOX)
        assert t1.names == t2.names
        for k in range(len(t1.names)):
            assert t1.values[k].tolist() == t2.values[k].tolist()


class TestQuotes:
    def quote_files(self, data_dir) -> list[Path]:
        return sorted((data_dir / "quotes").glob("*.csv"))

    def test_relative_changes(self, tmp_path):
        path = tmp_path / "XYZ.csv"
        path.write_text("Date,Close\n2020-01-01,100\n2020-01-02,110\n2020-01-03,99\n")
        table, _ = load_quote_series([path], QuoteSeriesSpec(("XYZ",)))
        changes = table.values[0]
        assert changes.tolist() == pytest.approx([0.10, -0.10])

    def test_single_row_ticker_dropped(self, data_dir):
        spec = QuoteSeriesSpec(("AAA", "FFF"))
        table, warnings = load_quote_series(self.quote_files(data_dir), spec)
        assert table.names == ["AAA"]
        assert warnings.dropped_series == 1

    def test_nonpositive_close_rejected(self, data_dir):
        spec = QuoteSeriesSpec(("CCC",))
        _, warnings = load_quote_series(self.quote_files(data_dir), spec)
        assert warnings.rejected_rows == 1

    def test_non_finite_close_rejected(self, tmp_path):
        path = tmp_path / "XYZ.csv"
        path.write_text(
            "Date,Close\n2020-01-01,100\n2020-01-02,nan\n2020-01-03,inf\n2020-01-04,110\n"
        )
        table, warnings = load_quote_series([path], QuoteSeriesSpec(("XYZ",)))
        assert warnings.rejected_rows == 2
        assert table.values[0].tolist() == pytest.approx([0.10])

    def test_duplicate_date_last_wins(self, tmp_path):
        path = tmp_path / "XYZ.csv"
        path.write_text(
            "Date,Close\n2020-01-01,100\n2020-01-02,50\n2020-01-03,121\n2020-01-02,110\n"
        )
        table, warnings = load_quote_series([path], QuoteSeriesSpec(("XYZ",)))
        assert warnings.duplicate_keys == 1
        assert table.values[0].tolist() == pytest.approx([0.10, 0.10])

    def test_unknown_tickers_ignored(self, data_dir):
        spec = QuoteSeriesSpec(("AAA", "ZZZ"))
        table, _ = load_quote_series(self.quote_files(data_dir), spec)
        assert table.names == ["AAA"]

    def test_no_usable_tickers_is_error(self, data_dir):
        with pytest.raises(ValidationError):
            load_quote_series(self.quote_files(data_dir), QuoteSeriesSpec(("ZZZ",)))

    def test_disjoint_dates_weight_one_downstream(self, data_dir):
        from graphhom.builders import correlation_graph

        spec = QuoteSeriesSpec(("AAA", "GGG"))
        table, _ = load_quote_series(self.quote_files(data_dir), spec)
        g = correlation_graph(table)
        assert g.weights == (1.0,)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValidationError):
            QuoteSeriesSpec(())
