"""File-based ingestion of monthly station summaries and daily stock quotes.

Input shapes follow the public archives these data usually come from: one
CSV of station-month rows with coordinates and a value column, and one CSV
per ticker with date and close columns.  No network access; files only.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .io import open_input
from .series import SeriesTable

STATION_COLUMNS = {
    "station": "STATION",
    "date": "DATE",
    "latitude": "LATITUDE",
    "longitude": "LONGITUDE",
}


@dataclass(frozen=True)
class StationFilter:
    lat_range: tuple[float, float]
    lon_range: tuple[float, float]
    field_name: str = "TAVG"

    def __post_init__(self) -> None:
        if self.lat_range[0] > self.lat_range[1] or self.lon_range[0] > self.lon_range[1]:
            raise ValidationError("filter ranges must be (low, high)")

    def contains(self, lat: float, lon: float) -> bool:
        return (
            self.lat_range[0] <= lat <= self.lat_range[1]
            and self.lon_range[0] <= lon <= self.lon_range[1]
        )


@dataclass(frozen=True)
class QuoteSeriesSpec:
    tickers: tuple[str, ...]
    price_column: str = "Close"

    def __post_init__(self) -> None:
        if not self.tickers:
            raise ValidationError("ticker list must be non-empty")


@dataclass
class IngestWarnings:
    malformed_rows: int = 0
    duplicate_keys: int = 0
    rejected_rows: int = 0
    dropped_series: int = 0

    def as_dict(self) -> dict:
        return {
            "malformed_rows": self.malformed_rows,
            "duplicate_keys": self.duplicate_keys,
            "rejected_rows": self.rejected_rows,
            "dropped_series": self.dropped_series,
        }


def month_index(cell: str) -> int:
    """YYYY-MM (or a full date) -> months since year 0."""
    parts = cell.strip().split("-")
    if len(parts) < 2:
        raise ValueError(f"not a year-month: {cell!r}")
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range: {cell!r}")
    return year * 12 + (month - 1)


def load_station_series(
    files, station_filter: StationFilter
) -> tuple[SeriesTable, IngestWarnings]:
    """One month-indexed series per station inside the filter box.

    Malformed rows (a non-finite value is malformed) are skipped and counted;
    duplicate (station, month) keys keep the last value seen after sorting
    files.  An empty result is an error.  Station coordinates ride along as
    (longitude, latitude).
    """
    warnings = IngestWarnings()
    data: dict[str, dict[int, float]] = {}
    coords: dict[str, tuple[float, float]] = {}
    for path in sorted(str(f) for f in files):
        with open_input(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    station = row[STATION_COLUMNS["station"]].strip()
                    lat = float(row[STATION_COLUMNS["latitude"]])
                    lon = float(row[STATION_COLUMNS["longitude"]])
                    month = month_index(row[STATION_COLUMNS["date"]])
                    raw = row.get(station_filter.field_name, "")
                    if raw is None or not raw.strip():
                        raise ValueError("missing value")
                    value = float(raw)
                    if not math.isfinite(value):
                        raise ValueError("non-finite value")
                except (KeyError, TypeError, ValueError, AttributeError):
                    warnings.malformed_rows += 1
                    continue
                if not station_filter.contains(lat, lon):
                    continue
                series = data.setdefault(station, {})
                if month in series:
                    warnings.duplicate_keys += 1
                series[month] = value
                coords[station] = (lon, lat)
    if not data:
        raise ValidationError("no station rows matched the filter")
    names = sorted(data)
    times = []
    values = []
    for name in names:
        months = sorted(data[name])
        times.append(np.asarray(months, dtype=np.int64))
        values.append(np.asarray([data[name][m] for m in months], dtype=float))
    table = SeriesTable(names, times, values, coords=[coords[n] for n in names])
    return table, warnings


def load_quote_series(
    files, spec: QuoteSeriesSpec
) -> tuple[SeriesTable, IngestWarnings]:
    """Daily relative price changes per ticker, indexed by ordinal date.

    The ticker is the file stem.  Rows whose close is not a positive finite
    number are rejected (counted); a repeated date keeps the last close seen
    and is counted in duplicate_keys, as for stations; tickers with fewer than
    2 usable rows are dropped (counted).  The change on day t is
    (close_t - close_prev) / close_prev between consecutive surviving rows.
    """
    warnings = IngestWarnings()
    wanted = set(spec.tickers)
    names = []
    times = []
    values = []
    for path in sorted(str(f) for f in files):
        ticker = Path(path).stem
        if ticker not in wanted:
            continue
        closes_by_day: dict[int, float] = {}
        with open_input(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "Date" not in reader.fieldnames:
                raise ValidationError(f"{path}: expected a Date column")
            for row in reader:
                try:
                    day = datetime.date.fromisoformat(row["Date"].strip()).toordinal()
                    close = float(row[spec.price_column])
                except (KeyError, TypeError, ValueError, AttributeError):
                    warnings.malformed_rows += 1
                    continue
                if not 0 < close < math.inf:
                    warnings.rejected_rows += 1
                    continue
                if day in closes_by_day:
                    warnings.duplicate_keys += 1
                closes_by_day[day] = close
        rows = sorted(closes_by_day.items())
        if len(rows) < 2:
            warnings.dropped_series += 1
            continue
        days = [day for day, _ in rows]
        closes = np.asarray([c for _, c in rows])
        changes = (closes[1:] - closes[:-1]) / closes[:-1]
        names.append(ticker)
        times.append(np.asarray(days[1:], dtype=np.int64))
        values.append(changes)
    if not names:
        raise ValidationError("no usable tickers")
    order = sorted(range(len(names)), key=lambda k: names[k])
    table = SeriesTable(
        [names[k] for k in order],
        [times[k] for k in order],
        [values[k] for k in order],
    )
    return table, warnings
