from __future__ import annotations

import pytest

from graphhom.diagrams import (
    INF,
    PersistenceDiagram,
    PersistencePair,
    cycle_vertices,
    longest_bar,
    nontrivial_length,
    project_chain,
)
from graphhom.errors import ValidationError

from oracles import count_alive_at


def diagram(points, **kwargs):
    return PersistenceDiagram(1, [PersistencePair(b, d) for b, d in points], **kwargs)


class TestNontrivialLength:
    def test_empty(self):
        assert nontrivial_length(diagram([]), (0.0, 1.0)) == 0.0

    def test_single_interval(self):
        assert nontrivial_length(diagram([(0.5, 0.8)]), (0.0, 1.0)) == pytest.approx(30.0)

    def test_overlapping_union(self):
        d = diagram([(0.2, 0.5), (0.4, 0.6)])
        assert nontrivial_length(d, (0.0, 1.0)) == pytest.approx(40.0)

    def test_infinite_clipped_to_span(self):
        d = diagram([(0.9, INF)])
        assert nontrivial_length(d, (0.0, 1.0)) == pytest.approx(10.0)

    def test_matches_discretized_oracle(self):
        d = diagram([(0.1, 0.35), (0.3, 0.42), (0.7, 0.9), (0.85, 0.97)])
        steps = 2_000_000
        covered = sum(
            1
            for k in range(steps)
            if any(p.birth <= (k + 0.5) / steps < p.death for p in d.pairs)
        )
        oracle = 100.0 * covered / steps
        assert nontrivial_length(d, (0.0, 1.0)) == pytest.approx(oracle, abs=0.01)

    def test_bad_span(self):
        with pytest.raises(ValidationError):
            nontrivial_length(diagram([]), (1.0, 0.0))


class TestLongestBar:
    def test_plain_longest(self):
        d = diagram([(0.1, 0.9), (0.3, 0.5)])
        assert longest_bar(d).birth == 0.1

    def test_tie_breaks_to_earlier_birth(self):
        d = diagram([(0.2, 0.6), (0.5, 0.9)])
        bar = longest_bar(d)
        assert (bar.birth, bar.death) == (0.2, 0.6)

    def test_infinite_uses_span_end(self):
        d = diagram([(0.0, 0.5), (0.8, INF)], span=(0.0, 1.0))
        assert longest_bar(d).birth == 0.0
        d2 = diagram([(0.0, 0.5), (0.2, INF)], span=(0.0, 1.0))
        assert longest_bar(d2).birth == 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            longest_bar(diagram([]))

    def test_infinite_without_span_rejected(self):
        with pytest.raises(ValidationError):
            longest_bar(diagram([(0.0, INF)]))


class TestCycleVertices:
    def test_pentagon(self):
        chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        assert cycle_vertices(chain) == [[0, 1, 2, 3, 4]]

    def test_opposite_orientations_cancel(self):
        chain = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]
        assert cycle_vertices(chain) == [[1, 2, 3]]

    def test_two_disjoint_pentagons(self):
        chain = [(k, (k + 1) % 5) for k in range(5)]
        chain += [(5 + k, 5 + (k + 1) % 5) for k in range(5)]
        assert cycle_vertices(chain) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_figure_eight(self):
        chain = [(0, 2), (2, 3), (3, 0), (1, 2), (2, 4), (4, 1)]
        cycles = cycle_vertices(chain)
        assert sorted(len(c) for c in cycles) == [3, 3]
        assert {frozenset(c) for c in cycles} == {frozenset({0, 2, 3}), frozenset({1, 2, 4})}

    def test_odd_degree_rejected(self):
        with pytest.raises(ValidationError):
            cycle_vertices([(0, 1), (1, 2)])

    def test_direction_canonical(self):
        forward = cycle_vertices([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        backward = cycle_vertices([(0, 4), (4, 3), (3, 2), (2, 1), (1, 0)])
        assert forward == backward


def test_project_chain_mod2():
    assert project_chain([(1, 2), (2, 1), (0, 3)]) == {(0, 3)}


def test_diagram_multiset_equality():
    a = diagram([(0.0, 1.0), (0.0, 1.0)])
    b = diagram([(0.0, 1.0)])
    assert a != b
    c = PersistenceDiagram(
        1, [PersistencePair(0.0, 1.0, ((0, 1),)), PersistencePair(0.0, 1.0)]
    )
    assert a == c  # representatives excluded from equality


def test_alive_count():
    d = diagram([(0.0, 0.5), (0.2, INF)])
    assert count_alive_at(d, 0.1) == 1
    assert count_alive_at(d, 0.3) == 2
    assert count_alive_at(d, 0.7) == 1
