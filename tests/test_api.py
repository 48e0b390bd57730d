"""The package's public surface: what graphhom re-exports, and what it no longer holds."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import graphhom

INIT = Path(graphhom.__file__)

#: (module, name) pairs that live with the tests, not in the package
MOVED = [
    ("graphhom.persistence", "betti_at"),
    ("graphhom.persistence", "persistence_diagrams"),
    ("graphhom.bottleneck", "bottleneck_bruteforce"),
    ("graphhom.bottleneck", "matching_cost"),
    ("graphhom.graphs", "GraphMap"),
    ("graphhom.graphs", "is_graph_map"),
    ("graphhom.graphs", "eccentricity"),
    ("graphhom.graphs", "connected_components"),
    ("graphhom.cubical", "cube_is_valid"),
    ("graphhom.cubical", "SingularCube"),
    ("graphhom.gf2", "ColumnReducer"),
    ("graphhom.gf2", "in_span"),
    ("graphhom.gf2", "column_from_rows"),
    ("graphhom.gf2", "GF2Matrix"),
    ("graphhom.series", "FitConfig"),
    ("graphhom.builders", "multivariate_r2_info"),
    ("graphhom.experiments.weather", "weather_step"),
    ("graphhom.io", "write_edge_csv"),
]
MOVED_METHODS = [
    ("graphhom.graphs", "WeightedGraph", "threshold_subgraph"),
    ("graphhom.diagrams", "PersistenceDiagram", "count_alive_at"),
]


def reexports() -> list[tuple[str, str]]:
    tree = ast.parse(INIT.read_text())
    return [
        ("graphhom." + node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_reexport_resolves():
    pairs = reexports()
    assert len(pairs) > 20
    for module, name in pairs:
        assert getattr(graphhom, name) is getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", MOVED)
def test_moved_name_not_in_package(module, name):
    assert not hasattr(graphhom, name)
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, cls, name", MOVED_METHODS)
def test_moved_method_not_in_package(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(module), cls), name)
