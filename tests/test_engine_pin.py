"""A pin on the engine's full output: H0/H1 pairs, H1 representatives, merges.

PersistenceDiagram equality and the oracle tests compare (birth, death)
multisets only, so a change to the sweep that alters a representative cycle
passes them; the weather detector reads that cycle.  This test fixes the
engine's output, both methods, on tied random graphs and on clean and noisy
circles up to n = 240.

Every input is built from integers stored in tests/data/engine_pin.json
(tied weight levels; integer points weighted by squared distance), so the
weights are exact and the digests depend only on the pure-Python engine, not
on libm or BLAS.  A change that alters the digests changes output bytes and
says so; regenerate with ``python tests/test_engine_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from graphhom.engine import weighted_graph_persistence
from graphhom.graphs import WeightedGraph

from conftest import DATA

PIN = DATA / "engine_pin.json"
METHODS = ("cubical", "flag")


def tied_graph(n: int, cells: str) -> WeightedGraph:
    """cells: the upper triangle row by row; "." no edge, a digit its weight."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(uv, int(c)) for uv, c in zip(pairs, cells, strict=True) if c != "."]
    return WeightedGraph(n, tuple(uv for uv, _ in edges), tuple(float(w) for _, w in edges))


def point_graph(coords: list[int]) -> WeightedGraph:
    """Complete graph on integer points, each edge weighted by squared distance."""
    pts = list(zip(coords[::2], coords[1::2]))
    edges = [(u, v) for u in range(len(pts)) for v in range(u + 1, len(pts))]
    weights = [
        float((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2) for u, v in edges
    ]
    return WeightedGraph(len(pts), tuple(edges), tuple(weights))


def case_graph(case: dict) -> WeightedGraph:
    if "points" in case:
        return point_graph(case["points"])
    return tied_graph(case["n"], case["cells"])


def fingerprint(g: WeightedGraph, method: str) -> str:
    result = weighted_graph_persistence(g, method)
    text = repr(
        (
            [(p.birth, p.death) for p in result.h0.pairs],
            sorted((p.birth, p.death, p.representative) for p in result.h1.pairs),
            result.merges,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def make_cases() -> dict:
    rng = random.Random(20260)
    cases = {}
    for k in range(48):
        n = rng.randint(4, 40)
        levels = rng.choice((2, 3, 5))
        p = rng.uniform(0.3, 0.9)
        cells = "".join(
            str(rng.randrange(levels)) if rng.random() < p else "."
            for _ in range(n * (n - 1) // 2)
        )
        cases[f"tied-{k:02d}"] = {"n": n, "cells": cells}
    radius = 1000
    for n in (30, 60, 120, 240):
        for name, sigma in (("clean", 0.0), ("noisy", 100.0)):
            coords = []
            for k in range(n):
                angle = 2 * math.pi * k / n
                coords.append(round(radius * math.cos(angle) + rng.gauss(0.0, sigma)))
                coords.append(round(radius * math.sin(angle) + rng.gauss(0.0, sigma)))
            cases[f"circle-{name}-{n}"] = {"points": coords}
    return cases


CASES = json.loads(PIN.read_text())["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_pinned(name):
    case = CASES[name]
    g = case_graph(case)
    assert {method: fingerprint(g, method) for method in METHODS} == case["digests"]


if __name__ == "__main__":
    cases = make_cases()
    for case in cases.values():
        g = case_graph(case)
        case["digests"] = {method: fingerprint(g, method) for method in METHODS}
    PIN.write_text(json.dumps({"cases": cases}, sort_keys=True) + "\n")
