"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 7 and 9 encode literature targets that this implementation
reproduces only partially; they are implemented as stated and left to fail
honestly when the measured values miss the gate (analysis in the project
notes, outside the package).
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import numpy as np
import pytest
from scipy import stats

from graphhom.bottleneck import bottleneck
from graphhom.cli import main as cli_main
from graphhom.cubical import betti_numbers, chain_complex
from graphhom.diagrams import PersistenceDiagram, PersistencePair
from graphhom.engine import weighted_graph_persistence
from graphhom.experiments.circle import CircleConfig, run_circle
from graphhom.experiments.multifit import MultiFitConfig, run_multifit
from graphhom.experiments.weather import WeatherConfig, accuracy_sweep
from graphhom.graphs import WeightedGraph, cycle_graph, greene_sphere
from graphhom.persistence import assign_filtration, reduce

from conftest import random_graph
from oracles import (
    betti_at,
    bottleneck_bruteforce,
    count_alive_at,
    flag_persistence,
    mul_column,
    persistence_diagrams,
)


def check(number: int, label: str, conditions: dict[str, bool], details: str = "") -> None:
    ok = all(conditions.values())
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if details:
        line += f"  [{details}]"
    print("\n" + line)
    failed = [name for name, value in conditions.items() if not value]
    assert ok, f"{line} failed clauses: {failed}"


def test_criterion_01_known_homology_table():
    start = time.time()
    table = {n: betti_numbers(cycle_graph(n), 1) for n in range(3, 10)}
    greene = betti_numbers(greene_sphere(), 2)
    elapsed = time.time() - start
    expected = {3: [1, 0], 4: [1, 0], 5: [1, 1], 6: [1, 1], 7: [1, 1], 8: [1, 1], 9: [1, 1]}
    check(
        1,
        "known-homology-table",
        {
            "cycles": table == expected,
            "greene": greene == [1, 0, 1],
            "runtime": elapsed < 10.0,
        },
        f"{elapsed:.2f}s",
    )


def test_criterion_02_chain_complex_law():
    start = time.time()
    rng = random.Random(20240202)
    violations = 0
    for _ in range(200):
        g = random_graph(rng, max_vertices=8, weighted=False)
        cx = chain_complex(g, 1)
        for col in cx.boundary[2]:
            if mul_column(cx.boundary[1], col) != 0:
                violations += 1
    elapsed = time.time() - start
    check(
        2,
        "chain-complex-law",
        {"boundary_squared_zero": violations == 0, "runtime": elapsed < 60.0},
        f"{elapsed:.1f}s over 200 graphs",
    )


def test_criterion_03_persistence_oracle_equivalence():
    start = time.time()
    rng = random.Random(3033)
    mismatches = 0
    for _ in range(100):
        pool = tuple(round(rng.random(), 2) for _ in range(10))
        g = random_graph(rng, max_vertices=8, weight_pool=pool)
        fc = assign_filtration(g, 1)
        diagrams = [reduce(fc, 0), reduce(fc, 1)]
        for r in sorted({0.0, *g.weights}):
            for d in (0, 1):
                if count_alive_at(diagrams[d], r) != betti_at(fc, r, d):
                    mismatches += 1
    elapsed = time.time() - start
    check(
        3,
        "persistence-oracle-equivalence",
        {"stagewise_equal": mismatches == 0, "runtime": elapsed < 300.0},
        f"{elapsed:.1f}s over 100 graphs",
    )


def test_criterion_04_example_filtration():
    g = WeightedGraph(
        5,
        ((0, 1), (2, 3), (1, 2), (0, 4), (3, 4), (1, 3), (2, 4), (0, 2)),
        (0.0, 0.0, 0.2, 0.2, 0.5, 0.8, 0.8, 0.8),
    )
    d0, d1 = persistence_diagrams(g, 1)
    check(
        4,
        "five-vertex-filtration",
        {
            "h0": sorted((p.birth, p.death) for p in d0.pairs)
            == [(0.0, 0.2), (0.0, 0.2), (0.0, math.inf)],
            "h1": [(p.birth, p.death) for p in d1.pairs] == [(0.5, 0.8)],
        },
    )


def test_criterion_05_four_cycle_contrast():
    c4 = cycle_graph(4).with_uniform_weights(0.3)
    c5 = cycle_graph(5).with_uniform_weights(0.3)
    flag_c4 = flag_persistence(c4, 1)[1]
    cubical_c4 = persistence_diagrams(c4, 1)[1]
    flag_c5 = flag_persistence(c5, 1)[1]
    cubical_c5 = persistence_diagrams(c5, 1)[1]
    check(
        5,
        "four-cycle-contrast",
        {
            "flag_c4_one_bar": len(flag_c4) == 1,
            "cubical_c4_empty": len(cubical_c4) == 0,
            "flag_c5_one_bar": len(flag_c5) == 1,
            "cubical_c5_one_bar": len(cubical_c5) == 1,
        },
    )


def test_criterion_06_bottleneck_exactness():
    rng = random.Random(606)

    def random_diagram():
        pts = []
        for _ in range(rng.randint(0, 4)):
            b = round(rng.uniform(0, 2), 4)
            pts.append(PersistencePair(b, b + round(rng.uniform(0, 2), 4)))
        return PersistenceDiagram(1, pts)

    worst_exact = 0.0
    for _ in range(200):
        p, q = random_diagram(), random_diagram()
        worst_exact = max(worst_exact, abs(bottleneck(p, q) - bottleneck_bruteforce(p, q)))
    worst_symmetry = 0.0
    worst_triangle = 0.0
    for _ in range(100):
        a, b, c = random_diagram(), random_diagram(), random_diagram()
        ab, ba = bottleneck(a, b), bottleneck(b, a)
        worst_symmetry = max(worst_symmetry, abs(ab - ba))
        worst_triangle = max(
            worst_triangle, bottleneck(a, c) - (ab + bottleneck(b, c))
        )
    check(
        6,
        "bottleneck-exactness",
        {
            "oracle": worst_exact <= 1e-12,
            "symmetry": worst_symmetry <= 1e-9,
            "triangle": worst_triangle <= 1e-9,
        },
        f"max|exact-brute|={worst_exact:.2e}",
    )


def test_criterion_07_circle_comparison():
    start = time.time()
    cfg = CircleConfig(point_count=30, radius=2.0, noise_sigma=0.5, iterations=200, seed=70)
    out = run_circle(cfg, threads=1)
    elapsed = time.time() - start
    summary = out["summary"]
    ties = sum(1 for t in out["trials"] if t["d_cubical"] == t["d_flag"])
    losses = sum(1 for t in out["trials"] if t["d_cubical"] > t["d_flag"])
    details = (
        f"wins={summary['cubical_wins']}/200 ties={ties} losses={losses} "
        f"mean_c={summary['mean_cubical']:.3f} mean_f={summary['mean_flag']:.3f} {elapsed:.0f}s"
    )
    check(
        7,
        "circle-comparison",
        {
            "strict_wins_at_least_80pct": summary["cubical_wins"] >= 160,
            "mean_cubical_below_mean_flag": summary["mean_cubical"] < summary["mean_flag"],
            "runtime": elapsed < 900.0,
        },
        details,
    )


@pytest.mark.skipif(
    os.environ.get("GRAPHHOM_NIGHTLY") != "1",
    reason="1000-iteration target; set GRAPHHOM_NIGHTLY=1 to run",
)
def test_nightly_circle_targets():
    cfg = CircleConfig(point_count=30, radius=2.0, noise_sigma=0.5, iterations=1000, seed=7000)
    summary = run_circle(cfg, threads=1)["summary"]
    details = (
        f"mean_c={summary['mean_cubical']:.3f} mean_f={summary['mean_flag']:.3f} "
        f"wins={summary['cubical_wins']}/1000"
    )
    check(
        7,
        "circle-nightly-targets",
        {
            "mean_cubical_near_paper": abs(summary["mean_cubical"] - 1.00) <= 0.15,
            "mean_flag_near_paper": abs(summary["mean_flag"] - 1.10) <= 0.15,
            "win_fraction": summary["cubical_win_fraction"] >= 0.90,
        },
        details,
    )


def test_criterion_08_multivariate_fit():
    start = time.time()
    cfg = MultiFitConfig(list_count=5, list_length=10, iterations=20_000, seed=80)
    out = run_multifit(cfg, threads=1)
    elapsed = time.time() - start
    summary = out["summary"]
    details = (
        f"r={summary['pearson_r']:.4f} p={summary['p_value']:.2e} "
        f"mean+={summary['mean_increase_h1_positive']:.4f} "
        f"mean0={summary['mean_increase_h1_zero']:.4f} "
        f"h1>0 in {summary['h1_positive_count']} trials, {elapsed:.0f}s"
    )
    check(
        8,
        "multivariate-fit",
        {
            "positive_correlation": summary["pearson_r"] > 0,
            "significant": summary["p_value"] < 0.01,
            "mean_increase_higher_with_h1": summary["mean_increase_h1_positive"]
            > summary["mean_increase_h1_zero"],
            "runtime": elapsed < 1200.0,
        },
        details,
    )


def test_criterion_09_weather_sweep_trend():
    start = time.time()
    cfg = WeatherConfig(rows=8, cols=8, p=2.0, readings=50, iterations=200, seed=90)
    out = accuracy_sweep(cfg, [1.0, 4.0, 8.0, 12.0], threads=1)
    elapsed = time.time() - start
    acc = {(row["w"], row["model"]): row["accuracy"] for row in out["accuracy"]}
    lo_count, hi_count = stats.binom.interval(0.99, 200, 1.0 / 36.0)
    chance_lo, chance_hi = lo_count / 200.0, hi_count / 200.0
    models = ("expected_actual", "cubical", "flag")
    details = "; ".join(
        f"w={w:g}: " + " ".join(f"{m.split('_')[0]}={acc[(w, m)]:.2f}" for m in models)
        for w in (1.0, 4.0, 8.0, 12.0)
    )
    check(
        9,
        "weather-sweep-trend",
        {
            "chance_at_w1": all(chance_lo <= acc[(1.0, m)] <= chance_hi for m in models),
            "all_models_strong_at_w12": all(acc[(12.0, m)] >= 0.85 for m in models),
            "homology_at_least_residual_w4": acc[(4.0, "cubical")]
            >= acc[(4.0, "expected_actual")],
            "homology_at_least_residual_w8": acc[(8.0, "cubical")]
            >= acc[(8.0, "expected_actual")],
            "runtime": elapsed < 2700.0,
        },
        f"{details}; chance CI [{chance_lo:.3f},{chance_hi:.3f}]; {elapsed:.0f}s",
    )


def test_criterion_10_flag_cubical_h0_agreement():
    rng = random.Random(1010)
    disagreements = 0
    for _ in range(100):
        g = random_graph(rng, max_vertices=8)
        if flag_persistence(g, 0)[0] != weighted_graph_persistence(g, "cubical").h0:
            disagreements += 1
    check(10, "flag-cubical-h0-agreement", {"identical_diagrams": disagreements == 0})


def test_criterion_11_cli_determinism(tmp_path, capsys, data_dir):
    commands = [
        ["homology", str(data_dir / "greene.csv"), "--max-dim", "1"],
        ["persist", str(data_dir / "example33.csv"), "--dim", "1"],
        [
            "experiment",
            "circle",
            "--iterations",
            "5",
            "--seed",
            "4",
            "--threads",
            "1",
        ],
    ]
    identical = True
    for k, argv in enumerate(commands):
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        assert cli_main(argv + ["--out-dir", str(out_a)]) == 0
        assert cli_main(argv + ["--out-dir", str(out_b)]) == 0
        files_a = sorted(p for p in out_a.rglob("*") if p.is_file() and p.name != "manifest.json")
        files_b = sorted(p for p in out_b.rglob("*") if p.is_file() and p.name != "manifest.json")
        if [p.name for p in files_a] != [p.name for p in files_b]:
            identical = False
            continue
        for file_a, file_b in zip(files_a, files_b):
            if file_a.read_bytes() != file_b.read_bytes():
                identical = False
    capsys.readouterr()
    check(11, "cli-determinism", {"byte_identical_outputs": identical})


def test_criterion_12_real_data_pipeline(tmp_path, capsys, data_dir):
    out_dir = tmp_path / "runs"
    code_stations = cli_main(
        [
            "ingest",
            "stations",
            str(data_dir / "stations_ring.csv"),
            "--lat-range=42.7:45",
            "--lon-range=-80:-75",
            "--out-dir",
            str(out_dir),
        ]
    )
    station_run = next(p for p in out_dir.iterdir() if p.name.startswith("ingest-stations-"))
    code_report = cli_main(
        ["report-cycle", str(station_run / "series.csv"), "--out-dir", str(out_dir)]
    )
    report_run = next(p for p in out_dir.iterdir() if p.name.startswith("report-cycle-"))
    report = json.loads((report_run / "report.json").read_text())
    quote_files = sorted(str(p) for p in (data_dir / "quotes").glob("*.csv"))
    code_quotes = cli_main(
        [
            "ingest",
            "quotes",
            *quote_files,
            "--tickers",
            "AAA,AAB,CCC,DDD,EEE,GGG",
            "--out-dir",
            str(out_dir),
        ]
    )
    capsys.readouterr()
    ring = [["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"]]
    check(
        12,
        "real-data-pipeline",
        {
            "stations_ingest": code_stations == 0,
            "report_cycle": code_report == 0,
            "quotes_ingest": code_quotes == 0,
            "planted_ring_named_exactly": report.get("h1_longest", {}).get("cycles") == ring,
        },
    )
