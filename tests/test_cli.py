from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from graphhom.cli import build_parser, config_schema, main
from graphhom.experiments.circle import CircleConfig
from graphhom.experiments.multifit import MultiFitConfig
from graphhom.experiments.weather import WeatherConfig

from conftest import DATA


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def only_run_dir(out_dir: Path, prefix: str) -> Path:
    matches = [p for p in out_dir.iterdir() if p.name.startswith(prefix)]
    assert len(matches) == 1, matches
    return matches[0]


class TestHomology:
    def test_pentagon(self, capsys, data_dir, tmp_path):
        graph = tmp_path / "c5.csv"
        graph.write_text("u,v\n0,1\n1,2\n2,3\n3,4\n0,4\n")
        code, out = run_cli(
            capsys, "homology", str(graph), "--max-dim", "1", "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        assert json.loads(out) == [1, 1]

    def test_isolated_vertices(self, capsys, tmp_path):
        graph = tmp_path / "empty.csv"
        graph.write_text("u,v\n")
        code, out = run_cli(
            capsys,
            "homology",
            str(graph),
            "--vertex-count",
            "3",
            "--out-dir",
            str(tmp_path / "runs"),
        )
        assert code == 0
        assert json.loads(out) == [3, 0]

    def test_greene_fixture(self, capsys, data_dir, tmp_path):
        code, out = run_cli(
            capsys,
            "homology",
            str(data_dir / "greene.csv"),
            "--max-dim",
            "2",
            "--out-dir",
            str(tmp_path / "runs"),
        )
        assert code == 0
        assert json.loads(out) == [1, 0, 1]

    def test_validation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _ = run_cli(capsys, "homology", str(bad), "--out-dir", str(tmp_path / "runs"))
        assert code == 2

    def test_resource_cap_exit_code(self, capsys, tmp_path):
        graph = tmp_path / "c9.csv"
        graph.write_text("u,v\n" + "\n".join(f"{i},{(i + 1) % 9}" for i in range(9)) + "\n")
        code, _ = run_cli(
            capsys,
            "homology",
            str(graph),
            "--cap",
            "10",
            "--out-dir",
            str(tmp_path / "runs"),
        )
        assert code == 3


class TestPersist:
    def test_example33_fixture(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "runs"
        code, _ = run_cli(
            capsys,
            "persist",
            str(data_dir / "example33.csv"),
            "--dim",
            "1",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        run_dir = only_run_dir(out_dir, "persist-")
        diagram = json.loads((run_dir / "diagram_dim1.json").read_text())
        assert [[p["birth"], p["death"]] for p in diagram["pairs"]] == [[0.5, 0.8]]
        assert (run_dir / "barcode_dim1.svg").exists()

    def test_identical_series_h0_merge_at_zero(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("t,a,b\n0,1,2\n1,2,4\n2,3,6\n3,5,10\n")
        out_dir = tmp_path / "runs"
        code, _ = run_cli(
            capsys, "persist", str(series), "--dim", "0", "--out-dir", str(out_dir)
        )
        assert code == 0
        run_dir = only_run_dir(out_dir, "persist-")
        diagram = json.loads((run_dir / "diagram_dim0.json").read_text())
        # a single infinite bar: the weight-0 merge is a dropped zero bar
        assert [[p["birth"], p["death"]] for p in diagram["pairs"]] == [[0.0, "inf"]]

    def test_noisy_circle_flag_has_more_bars(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "runs"
        counts = {}
        for method in ("cubical", "flag"):
            code, _ = run_cli(
                capsys,
                "persist",
                str(data_dir / "noisy_circle40.csv"),
                "--method",
                method,
                "--out-dir",
                str(out_dir),
            )
            assert code == 0
            run_dir = only_run_dir(out_dir, "persist-")
            diagram = json.loads((run_dir / "diagram_dim1.json").read_text())
            counts[method] = len(diagram["pairs"])
            assert diagram["method"] == method
            shutil.rmtree(run_dir)
        assert counts["flag"] > counts["cubical"]

    def test_unweighted_graph_rejected(self, capsys, data_dir, tmp_path):
        code, _ = run_cli(
            capsys,
            "persist",
            str(data_dir / "greene.csv"),
            "--out-dir",
            str(tmp_path / "runs"),
        )
        assert code == 2

    def test_missing_file_exit_code(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code = main(["persist", str(missing), "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert f"{missing}: cannot open" in capsys.readouterr().err

    def test_non_numeric_weight_exit_code(self, capsys, tmp_path):
        graph = tmp_path / "g.csv"
        graph.write_text("u,v,weight\n0,1,0.5\n1,2,abc\n")
        code = main(["persist", str(graph), "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert f"{graph}:3: weight 'abc' is not a number" in capsys.readouterr().err


class TestBottleneck:
    def write_diagram(self, path: Path, pairs) -> None:
        payload = {"dimension": 1, "pairs": [{"birth": b, "death": d} for b, d in pairs]}
        path.write_text(json.dumps(payload))

    def test_examples(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.write_diagram(a, [(1.0, 3.0)])
        self.write_diagram(b, [])
        code, out = run_cli(
            capsys, "bottleneck", str(a), str(b), "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        assert float(out.strip()) == 1.0

    def test_identity_zero(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self.write_diagram(a, [(0.0, 2.0), (0.0, 1.0)])
        code, out = run_cli(
            capsys, "bottleneck", str(a), str(a), "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_brute_force_case(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.write_diagram(a, [(0.0, 2.0), (0.0, 1.0)])
        self.write_diagram(b, [(0.0, 2.0)])
        code, out = run_cli(
            capsys, "bottleneck", str(a), str(b), "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        assert float(out.strip()) == 0.5

    def test_invalid_json_exit_code(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"dimension": 1,\n "pairs": [}\n')
        code = main(["bottleneck", str(a), str(a), "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert f"{a}:2: invalid JSON" in capsys.readouterr().err


class TestExperimentCommand:
    def test_zero_iterations_exit_code(self, capsys, tmp_path):
        code = main(
            ["experiment", "circle", "--iterations", "0", "--out-dir", str(tmp_path / "runs")]
        )
        assert code == 2
        assert "iterations must be >= 1" in capsys.readouterr().err

    def test_circle_sigma_zero(self, capsys, tmp_path):
        config = tmp_path / "circle.cfg"
        config.write_text("noise_sigma = 0.0\npoint_count = 12\n")
        out_dir = tmp_path / "runs"
        code, out = run_cli(
            capsys,
            "experiment",
            "circle",
            "--config",
            str(config),
            "--iterations",
            "3",
            "--seed",
            "5",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["mean_cubical"] == 0.0
        assert summary["mean_flag"] == 0.0
        run_dir = only_run_dir(out_dir, "experiment-circle-")
        assert (run_dir / "trials.csv").exists()
        assert (run_dir / "summary.json").exists()

    def test_multifit_summary_has_correlation(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, out = run_cli(
            capsys,
            "experiment",
            "multifit",
            "--iterations",
            "200",
            "--seed",
            "2",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        summary = json.loads(out)
        assert "pearson_r" in summary and "p_value" in summary

    def test_weather_writes_accuracy_table(self, capsys, tmp_path):
        config = tmp_path / "weather.cfg"
        config.write_text("rows = 4\ncols = 4\nreadings = 8\nw_values = 1\n")
        out_dir = tmp_path / "runs"
        code, _ = run_cli(
            capsys,
            "experiment",
            "weather",
            "--config",
            str(config),
            "--iterations",
            "2",
            "--seed",
            "1",
            "--threads",
            "1",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        run_dir = only_run_dir(out_dir, "experiment-weather-")
        lines = (run_dir / "accuracy.csv").read_text().splitlines()
        assert lines[1] == "w,model,accuracy"
        assert len(lines) == 5  # one w, three models


class TestDeterminism:
    def rerun_and_compare(self, capsys, tmp_path, *argv):
        out_a = tmp_path / "runs-a"
        out_b = tmp_path / "runs-b"
        assert main(list(argv) + ["--out-dir", str(out_a)]) == 0
        assert main(list(argv) + ["--out-dir", str(out_b)]) == 0
        capsys.readouterr()
        dirs_a = sorted(p for p in out_a.rglob("*") if p.is_file())
        dirs_b = sorted(p for p in out_b.rglob("*") if p.is_file())
        assert [p.name for p in dirs_a] == [p.name for p in dirs_b]
        for file_a, file_b in zip(dirs_a, dirs_b):
            if file_a.name == "manifest.json":
                a = json.loads(file_a.read_text())
                b = json.loads(file_b.read_text())
                a.pop("timestamps")
                b.pop("timestamps")
                assert a == b
            else:
                assert file_a.read_bytes() == file_b.read_bytes(), file_a.name

    def test_persist_byte_identical(self, capsys, data_dir, tmp_path):
        self.rerun_and_compare(
            capsys, tmp_path, "persist", str(data_dir / "example33.csv")
        )

    def test_experiment_byte_identical(self, capsys, tmp_path):
        self.rerun_and_compare(
            capsys,
            tmp_path,
            "experiment",
            "multifit",
            "--iterations",
            "50",
            "--seed",
            "9",
            "--threads",
            "1",
        )


class TestIngestAndReport:
    def test_stations_pipeline(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "runs"
        code, out = run_cli(
            capsys,
            "ingest",
            "stations",
            str(data_dir / "stations_small.csv"),
            "--lat-range=42.7:45",
            "--lon-range=-80:-75",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        assert "4 series" in out

    def test_quotes_pipeline(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "runs"
        files = sorted(str(p) for p in (data_dir / "quotes").glob("*.csv"))
        code, out = run_cli(
            capsys,
            "ingest",
            "quotes",
            *files,
            "--tickers",
            "AAA,AAB,CCC,DDD,EEE,FFF,GGG",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        assert "6 series" in out

    def test_report_cycle_planted_ring(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "runs"
        code, _ = run_cli(
            capsys,
            "ingest",
            "stations",
            str(data_dir / "stations_ring.csv"),
            "--lat-range=42.7:45",
            "--lon-range=-80:-75",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        series_csv = only_run_dir(out_dir, "ingest-stations-") / "series.csv"
        code, out = run_cli(
            capsys, "report-cycle", str(series_csv), "--out-dir", str(out_dir)
        )
        assert code == 0
        run_dir = only_run_dir(out_dir, "report-cycle-")
        report = json.loads((run_dir / "report.json").read_text())
        assert report["h1_longest"]["cycles"] == [
            ["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"]
        ]

    def test_report_cycle_few_series(self, capsys, tmp_path):
        series = tmp_path / "few.csv"
        series.write_text("t,a,b\n0,1,2\n1,2,3\n2,4,5\n")
        code, out = run_cli(
            capsys, "report-cycle", str(series), "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        assert "fewer than 5 series" in out

    def test_report_cycle_correlated_tickers_adjacent_at_zero(
        self, capsys, data_dir, tmp_path
    ):
        out_dir = tmp_path / "runs"
        files = sorted(str(p) for p in (data_dir / "quotes").glob("*.csv"))
        code, _ = run_cli(
            capsys,
            "ingest",
            "quotes",
            *files,
            "--tickers",
            "AAA,AAB,CCC,DDD,EEE,GGG",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        series_csv = only_run_dir(out_dir, "ingest-quotes-") / "series.csv"
        code, _ = run_cli(
            capsys, "report-cycle", str(series_csv), "--out-dir", str(out_dir)
        )
        assert code == 0
        run_dir = only_run_dir(out_dir, "report-cycle-")
        report = json.loads((run_dir / "report.json").read_text())
        zero_merges = [m for m in report["h0_merges"] if m["value"] == 0.0]
        assert {"AAA", "AAB"} in [set(m["series"]) for m in zero_merges]


def _vertex_id_not_integer(tmp_path, data_dir):
    edges = tmp_path / "e.csv"
    edges.write_text("u,v,weight\n0,1,0.5\n")
    vertices = tmp_path / "v.csv"
    vertices.write_text("# labels\nid,label\n0,a\nzz,b\n")
    return ["persist", str(edges), "--vertices", str(vertices)], f"{vertices}:4: vertex id 'zz'"


def _input_not_utf8(tmp_path, data_dir):
    edges = tmp_path / "e.csv"
    edges.write_bytes(b"u,v,weight\n0,1,0.5\n1,2,0.\xff\n")
    return ["persist", str(edges)], f"{edges}:3: not UTF-8 text"


def _lat_range_not_numbers(tmp_path, data_dir):
    argv = ["ingest", "stations", str(data_dir / "stations_small.csv")]
    return argv + ["--lat-range=abc", "--lon-range=-80:-75"], "--lat-range 'abc' is not low:high"


def _config_value_not_integer(tmp_path, data_dir):
    config = tmp_path / "weather.cfg"
    config.write_text("# grid\nrows = x\n")
    return ["experiment", "weather", "--config", str(config)], f"{config}:2: bad value for rows"


def _negative_persist_dim(tmp_path, data_dir):
    return ["persist", str(data_dir / "example33.csv"), "--dim", "-1"], "--dim must be >= 0"


def _negative_homology_dim(tmp_path, data_dir):
    return ["homology", str(data_dir / "greene.csv"), "--max-dim", "-1"], "max_dim must be >= 0"


def _negative_multifit_iterations(tmp_path, data_dir):
    argv = ["experiment", "multifit", "--iterations", "-3", "--threads", "1"]
    return argv, "iterations must be >= 1"


def _series_value_nan(tmp_path, data_dir):
    series = tmp_path / "s.csv"
    series.write_text("t,a,b,c\n0,nan,1,1\n1,1,2,3\n2,1,3,5\n")
    return ["persist", str(series)], f"{series}:2: value 'nan' is not finite"


def _edge_weight_inf(tmp_path, data_dir):
    edges = tmp_path / "e.csv"
    edges.write_text("u,v,weight\n0,1,0.5\n1,2,inf\n")
    return ["persist", str(edges)], f"{edges}:3: weight 'inf' is not finite"


def _vertex_coordinate_nan(tmp_path, data_dir):
    edges = tmp_path / "e.csv"
    edges.write_text("u,v,weight\n0,1,0.5\n")
    vertices = tmp_path / "v.csv"
    vertices.write_text("id,label,x,y\n0,a,nan,0\n1,b,1,1\n")
    return ["persist", str(edges), "--vertices", str(vertices)], f"{vertices}:2: x 'nan' is not finite"


def _diagram_birth_nan(tmp_path, data_dir):
    diagram = tmp_path / "d.json"
    diagram.write_text('{"dimension": 1, "pairs": [{"birth": "nan", "death": 1.0}]}')
    return ["bottleneck", str(diagram), str(diagram)], f"{diagram}: pair ('nan', 1.0) is not finite"


def _diagram_death_infinity_literal(tmp_path, data_dir):
    diagram = tmp_path / "d.json"
    diagram.write_text('{"dimension": 1, "pairs": [{"birth": 0.5, "death": Infinity}]}')
    return ["bottleneck", str(diagram), str(diagram)], "(0.5, inf) is not finite"


def _weather_p_nan(tmp_path, data_dir):
    config = tmp_path / "weather.cfg"
    config.write_text("p = nan\n")
    argv = ["experiment", "weather", "--config", str(config), "--iterations", "1", "--threads", "1"]
    return argv, "p must be positive"


def _weather_w_value_nan(tmp_path, data_dir):
    config = tmp_path / "weather.cfg"
    config.write_text("rows = 3\ncols = 3\nw_values = nan\n")
    argv = ["experiment", "weather", "--config", str(config), "--iterations", "1", "--threads", "1"]
    return argv, "disturbance weight must be >= 1"


def _circle_sigma_nan(tmp_path, data_dir):
    config = tmp_path / "circle.cfg"
    config.write_text("noise_sigma = nan\n")
    argv = ["experiment", "circle", "--config", str(config), "--iterations", "1", "--threads", "1"]
    return argv, "noise_sigma must be >= 0"


def _config_sets_seed(tmp_path, data_dir):
    config = tmp_path / "multifit.cfg"
    config.write_text("seed = 3\n")
    argv = ["experiment", "multifit", "--config", str(config), "--iterations", "1", "--threads", "1"]
    return argv, "unknown config keys: ['seed']"


def _out_dir_is_a_file(tmp_path, data_dir):
    out_dir = tmp_path / "runs"
    out_dir.write_text("")
    diagram = str(data_dir / "diagram_a.json")
    return ["bottleneck", diagram, diagram], f"--out-dir {out_dir}: Not a directory"


@pytest.mark.parametrize(
    "case",
    [
        _vertex_id_not_integer,
        _input_not_utf8,
        _lat_range_not_numbers,
        _config_value_not_integer,
        _negative_persist_dim,
        _negative_homology_dim,
        _negative_multifit_iterations,
        _series_value_nan,
        _edge_weight_inf,
        _vertex_coordinate_nan,
        _diagram_birth_nan,
        _diagram_death_infinity_literal,
        _weather_p_nan,
        _weather_w_value_nan,
        _circle_sigma_nan,
        _config_sets_seed,
        _out_dir_is_a_file,
    ],
)
def test_bad_input_exit_code(case, capsys, data_dir, tmp_path):
    argv, message = case(tmp_path, data_dir)
    out_dir = tmp_path / "runs"
    code = main(argv + ["--out-dir", str(out_dir)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.is_dir()  # a failed command makes no run directory


COMMON_OPTIONS = {"--out-dir"}
OPTIONS = {
    "homology": {"--max-dim", "--vertices", "--vertex-count", "--cap"},
    "persist": {"--method", "--dim", "--vertices"},
    "bottleneck": set(),
    "experiment": {"--config", "--iterations", "--seed", "--threads"},
    "ingest": {"--lat-range", "--lon-range", "--value-column", "--tickers", "--price-column"},
    "report-cycle": set(),
}


def test_subcommand_option_sets():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == {name: options | COMMON_OPTIONS for name, options in OPTIONS.items()}


@pytest.mark.parametrize("option", ["--seed", "--threads"])
def test_seed_and_threads_only_on_experiment(option, capsys, data_dir, tmp_path):
    argv = ["persist", str(data_dir / "example33.csv"), option, "1", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


CONFIG_KEYS = {
    "circle": {"point_count", "radius", "noise_sigma", "iterations"},
    "multifit": {"list_count", "list_length", "iterations"},
    "weather": {"rows", "cols", "p", "readings", "iterations", "w_values"},
}


@pytest.mark.parametrize(
    "name, cls", [("circle", CircleConfig), ("multifit", MultiFitConfig), ("weather", WeatherConfig)]
)
def test_config_keys_are_dataclass_fields(name, cls):
    fields = {f.name for f in dataclasses.fields(cls)} - {"seed"}
    if name == "weather":
        fields = fields - {"disturbance_weight"} | {"w_values"}
    assert set(config_schema(name)) == fields == CONFIG_KEYS[name]


def test_default_iterations():
    # the iteration counts an experiment runs when neither --iterations nor
    # its config file sets one
    assert CircleConfig().iterations == 100
    assert MultiFitConfig().iterations == 1000
    assert WeatherConfig().iterations == 100


GOLDEN = DATA / "cli_golden.json"
#: commands whose result bytes pass through no BLAS or libm kernel, run from
#: tests/data with relative paths so digests do not depend on the checkout
GOLDEN_ARGV = {
    "homology-greene-dim2": ["homology", "greene.csv", "--max-dim", "2"],
    "homology-greene": ["homology", "greene.csv"],
    "persist-example33-dim1": ["persist", "example33.csv", "--dim", "1"],
    "persist-example33-dim2": ["persist", "example33.csv", "--dim", "2"],
    "persist-example33-flag": ["persist", "example33.csv", "--method", "flag"],
    "bottleneck": ["bottleneck", "diagram_a.json", "diagram_b.json"],
    "ingest-stations": [
        "ingest", "stations", "stations_small.csv", "--lat-range=42.7:45", "--lon-range=-80:-75"
    ],
    "ingest-quotes": [
        "ingest", "quotes", *(f"quotes/{t}.csv" for t in "AAA AAB CCC DDD EEE FFF GGG".split()),
        "--tickers", "AAA,AAB,CCC,DDD,EEE,FFF,GGG",
    ],
}


def cli_record(argv, out_dir: Path) -> dict:
    """Run argv in the current directory: run-dir name, stdout, sha256 per file.

    The manifest is hashed without its timestamps.  Asserts that the run left
    exactly one entry, its run directory, in out_dir.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
    (run_dir,) = out_dir.iterdir()
    files = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timestamps")
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = hashlib.sha256(data).hexdigest()
    stdout = sink.getvalue().replace(str(out_dir), "<out-dir>")
    return {"run_dir": run_dir.name, "stdout": stdout, "files": files}


@pytest.mark.parametrize("key", sorted(GOLDEN_ARGV))
def test_golden_output(key, monkeypatch, tmp_path):
    monkeypatch.chdir(DATA)
    expected = json.loads(GOLDEN.read_text())[key]
    assert cli_record(GOLDEN_ARGV[key], tmp_path / "runs") == expected


if __name__ == "__main__":
    # rewrite the golden file: python tests/test_cli.py OUT_DIR (OUT_DIR must not exist)
    scratch = Path(sys.argv[1]).resolve()
    os.chdir(DATA)
    golden = {key: cli_record(argv, scratch / key) for key, argv in GOLDEN_ARGV.items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
