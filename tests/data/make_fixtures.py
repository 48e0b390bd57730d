"""Regenerate the bundled synthetic fixtures.  Run from the repo root:

    python tests/data/make_fixtures.py

Deterministic; the committed CSVs are this script's output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent


def example33() -> None:
    edges = [
        (0, 1, 0.0), (2, 3, 0.0),
        (1, 2, 0.2), (0, 4, 0.2),
        (3, 4, 0.5),
        (1, 3, 0.8), (2, 4, 0.8), (0, 2, 0.8),
    ]
    with open(HERE / "example33.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "weight"])
        writer.writerows(edges)


def greene() -> None:
    edges = [(0, 1), (0, 2), (0, 3), (0, 4),
             (1, 5), (1, 6), (2, 5), (2, 7), (3, 6), (3, 8), (4, 7), (4, 8),
             (5, 9), (6, 9), (7, 9), (8, 9)]
    with open(HERE / "greene.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v"])
        writer.writerows(edges)


def noisy_circle() -> None:
    rng = np.random.default_rng(424242)
    n = 40
    angles = 2 * math.pi * np.arange(n) / n
    pts = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    pts += 0.35 * rng.standard_normal((n, 2))
    with open(HERE / "noisy_circle40.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "weight"])
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
                writer.writerow([i, j, format(d, ".17g")])


def stations_small() -> None:
    # 6 stations, 2 outside the lat 42.7..45 / lon -80..-75 box; one duplicate
    # month for S1 (last wins) and one malformed row
    rows = [
        ("S1", "2001-01", 43.0, -78.0, 1.0),
        ("S1", "2001-02", 43.0, -78.0, 2.0),
        ("S1", "2001-02", 43.0, -78.0, 2.5),  # duplicate key, last wins
        ("S2", "2001-01", 44.0, -76.0, 3.0),
        ("S2", "2001-02", 44.0, -76.0, 4.0),
        ("S3", "2001-01", 43.5, -79.0, 5.0),
        ("S4", "2001-01", 44.5, -75.5, 6.0),
        ("S5", "2001-01", 41.0, -78.0, 7.0),  # latitude outside
        ("S6", "2001-01", 43.0, -70.0, 8.0),  # longitude outside
    ]
    with open(HERE / "stations_small.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["STATION", "DATE", "LATITUDE", "LONGITUDE", "TAVG"])
        for station, date, lat, lon, value in rows:
            writer.writerow([station, date, lat, lon, value])
        writer.writerow(["S1", "not-a-date", 43.0, -78.0, 9.0])  # malformed


def stations_ring() -> None:
    # eight ring stations whose series share latent factors with their ring
    # neighbors, one independent in-box station, two out-of-box stations
    rng = np.random.default_rng(7321)
    months = [f"{2000 + m // 12}-{m % 12 + 1:02d}" for m in range(120)]
    latent = rng.standard_normal((8, 120))
    ring_values = [latent[k] + latent[(k + 1) % 8] for k in range(8)]
    center_lat, center_lon, radius = 43.8, -77.5, 0.5
    ring_coords = [
        (
            center_lat + radius * math.sin(2 * math.pi * k / 8),
            center_lon + radius * math.cos(2 * math.pi * k / 8),
        )
        for k in range(8)
    ]
    stations = [(f"R{k}", ring_coords[k][0], ring_coords[k][1], ring_values[k]) for k in range(8)]
    stations.append(("S9", 44.6, -75.8, 2.0 * rng.standard_normal(120)))
    stations.append(("X1", 40.0, -77.0, rng.standard_normal(120)))
    stations.append(("X2", 43.5, -70.0, rng.standard_normal(120)))
    with open(HERE / "stations_ring.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["STATION", "DATE", "LATITUDE", "LONGITUDE", "TAVG"])
        for name, lat, lon, values in stations:
            for month, value in zip(months, values):
                writer.writerow([name, month, lat, lon, format(value, ".6g")])


def quotes() -> None:
    rng = np.random.default_rng(99)
    directory = HERE / "quotes"
    directory.mkdir(exist_ok=True)
    days = [f"2020-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 29)]

    def walk(seed_scale=0.02):
        closes = [100.0]
        for _ in range(len(days) - 1):
            closes.append(closes[-1] * (1.0 + seed_scale * rng.standard_normal()))
        # round to the CSV precision so derived tickers stay exactly proportional
        return [float(format(c, ".17g")) for c in closes]

    aaa = walk()
    tickers = {
        "AAA": list(zip(days, aaa)),
        "AAB": list(zip(days, [2.0 * c for c in aaa])),  # identical relative changes
        "CCC": list(zip(days, walk())),
        "DDD": list(zip(days, walk())),
        "EEE": list(zip(days, walk())),
        "FFF": [(days[0], 50.0)],  # single row: dropped
        "GGG": [
            (f"2021-{m:02d}-{d:02d}", c)
            for (m, d), c in zip(((m, d) for m in (1, 2) for d in range(1, 29)), walk())
        ],  # disjoint dates from the 2020 tickers
    }
    # plant one nonpositive close inside CCC (row rejected, not fatal)
    tickers["CCC"][10] = (tickers["CCC"][10][0], -1.0)
    for ticker, rows in tickers.items():
        with open(directory / f"{ticker}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Date", "Open", "Close"])
            for date, close in rows:
                writer.writerow([date, format(close, ".17g"), format(close, ".17g")])


def diagrams() -> None:
    # two small degree-1 diagrams for the bottleneck command; dyadic values
    # so the distance is exact in binary
    pairs = {
        "diagram_a.json": [(0.25, 1.5), (0.5, 0.75), (0.125, "inf")],
        "diagram_b.json": [(0.375, 1.25), (0.0, "inf")],
    }
    for name, points in pairs.items():
        payload = {"dimension": 1, "pairs": [{"birth": b, "death": d} for b, d in points]}
        (HERE / name).write_text(json.dumps(payload) + "\n")


if __name__ == "__main__":
    example33()
    greene()
    noisy_circle()
    stations_small()
    stations_ring()
    quotes()
    diagrams()
    print("fixtures written to", HERE)
