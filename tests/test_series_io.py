from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from graphhom.diagrams import INF, PersistenceDiagram, PersistencePair
from graphhom.errors import ValidationError
from graphhom.graphs import cycle_graph, greene_sphere
from graphhom.io import (
    barcode_svg,
    dump_json,
    parse_time_index,
    read_diagram_json,
    read_edge_csv,
    read_series_csv,
    read_vertex_csv,
    write_diagram_json,
    write_series_csv,
)
from graphhom.series import SeriesTable, aligned_table


def write_edge_csv(g, path) -> None:
    """The edge-list CSV that read_edge_csv reads, for the round trips."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if g.weights is None:
            writer.writerow(["u", "v"])
            writer.writerows(g.edges)
        else:
            writer.writerow(["u", "v", "weight"])
            for (u, v), w in zip(g.edges, g.weights):
                writer.writerow([u, v, format(w, ".17g")])


class TestSeriesTable:
    def test_requires_increasing_times(self):
        with pytest.raises(ValidationError):
            SeriesTable(["a"], [np.asarray([2, 1])], [np.asarray([1.0, 2.0])])

    def test_requires_unique_names(self):
        t = np.arange(3)
        with pytest.raises(ValidationError):
            SeriesTable(["a", "a"], [t, t], [np.ones(3), np.ones(3)])

    def test_overlap(self):
        table = SeriesTable(
            ["a", "b"],
            [np.asarray([1, 2, 3]), np.asarray([2, 3, 4])],
            [np.asarray([10.0, 20.0, 30.0]), np.asarray([5.0, 6.0, 7.0])],
        )
        xa, xb = table.overlap(0, 1)
        assert xa.tolist() == [20.0, 30.0]
        assert xb.tolist() == [5.0, 6.0]

    def test_alignment_detection(self):
        aligned = aligned_table(["a", "b"], [[1, 2], [3, 4]])
        assert aligned.is_aligned()
        ragged = SeriesTable(
            ["a", "b"],
            [np.asarray([0, 1]), np.asarray([0, 2])],
            [np.zeros(2), np.zeros(2)],
        )
        assert not ragged.is_aligned()


class TestGraphCsv:
    def test_round_trip_weighted(self, tmp_path):
        g = cycle_graph(5).with_weights([0.1, 0.2, 0.3, 0.4, 0.5])
        path = tmp_path / "g.csv"
        write_edge_csv(g, path)
        back = read_edge_csv(path)
        assert back.edges == g.edges
        assert back.weights == g.weights

    def test_round_trip_unweighted(self, tmp_path):
        g = greene_sphere()
        path = tmp_path / "g.csv"
        write_edge_csv(g, path)
        back = read_edge_csv(path)
        assert back.edges == g.edges
        assert back.weights is None

    def test_vertex_count_override(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("u,v\n0,1\n")
        assert read_edge_csv(path, vertex_count=5).vertex_count == 5

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValidationError):
            read_edge_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u,v,weight\n0,1,0.5\n# note\n1,2,abc\n", r"g\.csv:4: weight 'abc' is not a number"),
            ("u,v\n0,x\n", r"g\.csv:2: malformed edge row"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_edge_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.csv: cannot open"):
            read_edge_csv(tmp_path / "nope.csv")

    def test_vertex_metadata(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,label,x,y\n0,alpha,0.5,1.5\n1,beta,2.0,3.0\n")
        count, labels, coords = read_vertex_csv(path)
        assert count == 2
        assert labels == ("alpha", "beta")
        assert coords == ((0.5, 1.5), (2.0, 3.0))


class TestSeriesCsv:
    def test_exact_round_trip(self, tmp_path):
        table = SeriesTable(
            ["a", "b"],
            [np.asarray([1, 2, 5]), np.asarray([2, 5])],
            [np.asarray([0.1, 1 / 3, 2.5]), np.asarray([math.pi, -1.25])],
        )
        path = tmp_path / "s.csv"
        write_series_csv(table, path)
        back = read_series_csv(path)
        assert back.names == table.names
        for k in range(2):
            assert back.times[k].tolist() == table.times[k].tolist()
            assert back.values[k].tolist() == table.values[k].tolist()

    def test_missing_cells(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a,b\n0,1.5,\n1,,2.5\n2,3.0,4.0\n")
        table = read_series_csv(path)
        assert table.times[0].tolist() == [0, 2]
        assert table.times[1].tolist() == [1, 2]

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n# note\n0,x\n")
        with pytest.raises(ValidationError, match=r"s\.csv:3: value 'x' is not a number"):
            read_series_csv(path)

    def test_iso_dates(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n2020-01-01,1.0\n2020-01-03,2.0\n")
        table = read_series_csv(path)
        assert table.times[0][1] - table.times[0][0] == 2

    def test_parse_time_index(self):
        assert parse_time_index("42") == 42
        assert parse_time_index("2020-01-02") - parse_time_index("2020-01-01") == 1
        with pytest.raises(ValidationError):
            parse_time_index("yesterday")


class TestDiagramJson:
    def test_round_trip_with_infinity_and_cycle(self, tmp_path):
        diag = PersistenceDiagram(
            1,
            [
                PersistencePair(0.25, INF, ((0, 1), (1, 2), (2, 0))),
                PersistencePair(0.5, 0.875),
            ],
            span=(0.0, 1.0),
            method="cubical",
        )
        path = tmp_path / "d.json"
        write_diagram_json(diag, path)
        back = read_diagram_json(path)
        assert back == diag
        assert back.method == "cubical"
        assert back.span == (0.0, 1.0)
        infinite = [p for p in back.pairs if math.isinf(p.death)]
        assert infinite[0].representative == ((0, 1), (1, 2), (2, 0))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dimension": 1,\n "pairs": [}', r"d\.json:2: invalid JSON"),
            ('{"dimension": 1, "pairs": [{"birth": 0.5}]}', "malformed diagram JSON"),
            ("[1, 2]", "not a diagram JSON file"),
        ],
    )
    def test_bad_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_diagram_json(path)

    def test_seventeen_digit_floats(self, tmp_path):
        diag = PersistenceDiagram(0, [PersistencePair(1 / 3, 2 / 3)])
        path = tmp_path / "d.json"
        write_diagram_json(diag, path)
        text = path.read_text()
        assert "0.33333333333333331" in text
        assert '"inf"' not in text

    def test_infinity_sentinel(self, tmp_path):
        diag = PersistenceDiagram(0, [PersistencePair(0.0, INF)])
        path = tmp_path / "d.json"
        write_diagram_json(diag, path)
        assert '"inf"' in path.read_text()


def test_dump_json_deterministic():
    payload = {"b": [1.0, INF], "a": {"nested": 1 / 7}}
    assert dump_json(payload) == dump_json(payload)
    assert dump_json(payload).endswith("\n")


def test_barcode_svg_layout():
    diag = PersistenceDiagram(
        1,
        [PersistencePair(0.5, 0.8), PersistencePair(0.1, INF), PersistencePair(0.1, 0.2)],
        span=(0.0, 1.0),
    )
    svg = barcode_svg(diag, version="test")
    assert svg.startswith("<!-- graphhom test barcode -->")
    assert svg.count("<rect") == 3
    assert barcode_svg(diag, version="test") == svg
