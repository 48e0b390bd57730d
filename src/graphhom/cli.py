"""Command-line interface: homology, persist, bottleneck, experiment, ingest,
report-cycle.

Each command reads and checks its inputs and computes its results; only
then does one driver create <out-dir>/<command>-<digest>/, write the result
files and manifest.json into it, and print.  So a failed command leaves no
run directory, and an --out-dir that cannot be written is bad input.  Reruns
with identical inputs and seed produce byte-identical result files.  Exit
codes: 0 success, 2 input validation or unusable --out-dir, 3 resource cap,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
import typing

from . import __version__
from .bottleneck import bottleneck
from .builders import CORRELATION_SPAN, correlation_graph
from .diagrams import cycle_vertices, longest_bar
from .engine import flag_persistence, weighted_graph_persistence
from .errors import GraphhomError, ResourceCapError, ValidationError
from .experiments import RNG_CONTRACT, default_threads
from .experiments.circle import CircleConfig, run_circle
from .experiments.multifit import MultiFitConfig, run_multifit
from .experiments.weather import W_VALUES, WeatherConfig, accuracy_sweep
from .ingest import QuoteSeriesSpec, StationFilter, load_quote_series, load_station_series
from .io import (
    barcode_svg,
    dump_json,
    format_float,
    open_input,
    read_diagram_json,
    read_edge_csv,
    read_series_csv,
    read_vertex_csv,
    write_diagram_json,
    write_series_csv,
)
from .manifest import RunManifest
from .persistence import assign_filtration
from .persistence import reduce as reduce_filtration
from graphhom import cubical


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        _run(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except GraphhomError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphhom", description=__doc__)
    parser.add_argument("--version", action="version", version=f"graphhom {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out-dir", default="runs")

    p = sub.add_parser("homology", help="Betti numbers of a graph CSV")
    p.add_argument("graph")
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--vertices", help="vertex metadata CSV (id,label,x,y)")
    p.add_argument("--vertex-count", type=int)
    p.add_argument("--cap", type=int, default=cubical.DEFAULT_CUBE_CAP)
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("persist", help="persistence diagram of a weighted graph or series CSV")
    p.add_argument("input")
    p.add_argument("--method", choices=["cubical", "flag"], default="cubical")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--vertices")
    common(p)
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser("bottleneck", help="bottleneck distance between two diagram JSONs")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    common(p)
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=list(EXPERIMENTS))
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("ingest", help="parse raw station/quote CSVs into a series table")
    p.add_argument("kind", choices=["stations", "quotes"])
    p.add_argument("files", nargs="+")
    p.add_argument("--lat-range", help="low:high latitude filter")
    p.add_argument("--lon-range", help="low:high longitude filter")
    p.add_argument("--value-column", default="TAVG")
    p.add_argument("--tickers", help="comma-separated ticker list")
    p.add_argument("--price-column", default="Close")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("report-cycle", help="longest degree-1 bar of a series CSV, with names")
    p.add_argument("series")
    common(p)
    p.set_defaults(func=cmd_report_cycle)
    return parser


def _run(args) -> None:
    """Run one command, then write its run directory and print its text.

    A command returns (manifest, text, files) and writes nothing; files maps
    a file name to its text or to a writer called with the file's path.
    """
    manifest, text, files = args.func(args)
    run_dir = manifest.run_dir(args.out_dir)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if isinstance(content, str):
                (run_dir / name).write_text(content, newline="")
            else:
                content(run_dir / name)
        manifest.finish()
        manifest.write(args.out_dir)
    except OSError as exc:
        raise ValidationError(f"--out-dir {args.out_dir}: {exc.strerror or exc}") from None
    print(text, end="")


def _manifest(args, command: str, inputs=()) -> RunManifest:
    return RunManifest.create(
        command,
        {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "command", "out_dir", "threads") and v is not None
        },
        getattr(args, "seed", None),
        inputs,
    )


def _csv_text(manifest_digest: str, header, rows) -> str:
    """A result CSV: a "# manifest:" line, the header, floats to 17 digits."""
    out = io.StringIO()
    out.write(f"# manifest: {manifest_digest}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else x for x in row])
    return out.getvalue()


def _load_graph(args, path):
    vertex_count = getattr(args, "vertex_count", None)
    labels = coords = None
    if getattr(args, "vertices", None):
        vertex_count, labels, coords = read_vertex_csv(args.vertices)
    g = read_edge_csv(path, vertex_count=vertex_count)
    if labels is not None:
        g = type(g)(g.vertex_count, g.edges, g.weights, labels, coords)
    return g


def cmd_homology(args):
    inputs = [args.graph] + ([args.vertices] if args.vertices else [])
    manifest = _manifest(args, "homology", inputs)
    g = _load_graph(args, args.graph)
    betti = cubical.betti_numbers(g, args.max_dim, cap=args.cap)
    return manifest, dump_json(betti), {
        "betti.json": dump_json({"betti": betti, "manifest": manifest.digest})
    }


def _sniff_series(path) -> bool:
    with open_input(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            return line.split(",")[0].strip().lower() == "t"
    return False


def cmd_persist(args):
    if args.dim < 0:
        raise ValidationError("--dim must be >= 0")
    inputs = [args.input] + ([args.vertices] if args.vertices else [])
    manifest = _manifest(args, "persist", inputs)
    if _sniff_series(args.input):
        table = read_series_csv(args.input)
        g = correlation_graph(table)
    else:
        g = _load_graph(args, args.input)
        if g.weights is None:
            raise ValidationError("persistence needs a weighted graph (u,v,weight)")
    if args.method == "flag":
        if args.dim > 1:
            raise ValidationError("flag persistence is limited to dimension <= 1")
        diag = flag_persistence(g, max_dim=args.dim)[args.dim]
    elif args.dim <= 1:
        result = weighted_graph_persistence(g, "cubical")
        diag = result.h1 if args.dim == 1 else result.h0
    else:
        fc = assign_filtration(g, args.dim)
        diag = reduce_filtration(fc, args.dim)
    diagram = f"diagram_dim{args.dim}.json"
    return manifest, f"{manifest.run_dir(args.out_dir)}/{diagram}\n", {
        diagram: lambda path: write_diagram_json(diag, path, manifest.digest),
        f"barcode_dim{args.dim}.svg": barcode_svg(diag, version=__version__),
    }


def cmd_bottleneck(args):
    manifest = _manifest(args, "bottleneck", [args.diagram_a, args.diagram_b])
    a = read_diagram_json(args.diagram_a)
    b = read_diagram_json(args.diagram_b)
    distance = bottleneck(a, b)
    return manifest, format_float(distance).strip('"') + "\n", {
        "distance.json": dump_json({"distance": distance, "manifest": manifest.digest})
    }


def parse_config(path) -> dict[str, tuple[str, int]]:
    """key = value (or key: value) lines, as key -> (value, line number)."""
    values: dict[str, tuple[str, int]] = {}
    with open_input(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            elif ":" in line:
                key, _, value = line.partition(":")
            else:
                raise ValidationError(f"{path}:{number}: config line not key=value: {line!r}")
            values[key.strip()] = (value.strip(), number)
    return values


def _coerce(raw: dict, fields: dict, path) -> dict:
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (value, number) in raw.items():
        try:
            out[key] = fields[key](value)
        except ValueError:
            raise ValidationError(f"{path}:{number}: bad value for {key}: {value!r}") from None
    return out


EXPERIMENTS = {"circle": CircleConfig, "multifit": MultiFitConfig, "weather": WeatherConfig}


def config_schema(name: str) -> dict:
    """Config-file keys of an experiment, each with the parser of its value.

    The keys are the fields of the experiment's config dataclass minus seed,
    which --seed sets.  Weather sweeps its disturbance_weight, so w_values, a
    comma-separated list, replaces it.
    """
    cls = EXPERIMENTS[name]
    types = typing.get_type_hints(cls)
    schema = {f.name: types[f.name] for f in dataclasses.fields(cls) if f.name != "seed"}
    if name == "weather":
        del schema["disturbance_weight"]
        schema["w_values"] = lambda s: [float(x) for x in s.split(",")]
    return schema


def cmd_experiment(args):
    cfg_args = {}
    if args.config:
        cfg_args = _coerce(parse_config(args.config), config_schema(args.name), args.config)
    if args.iterations is not None:
        cfg_args["iterations"] = args.iterations
    w_values = cfg_args.pop("w_values", W_VALUES)
    cfg = EXPERIMENTS[args.name](seed=args.seed, **cfg_args)
    threads = args.threads if args.threads is not None else default_threads()
    manifest = _manifest(args, f"experiment-{args.name}", [args.config] if args.config else [])
    files = {}
    if args.name == "circle":
        out = run_circle(cfg, threads=threads)
        rows = [
            (t["trial"], key, t[key])
            for t in out["trials"]
            for key in ("d_cubical", "d_flag")
        ]
    elif args.name == "multifit":
        out = run_multifit(cfg, threads=threads)
        rows = []
        for t in out["trials"]:
            for key in ("h1_length_pct", "r2_avg", "r2_mult", "relative_increase"):
                if t[key] is not None:
                    rows.append((t["trial"], key, t[key]))
    else:
        out = accuracy_sweep(cfg, w_values, threads=threads)
        rows = []
        for t in out["trials"]:
            for model, detected in t["detected"].items():
                rows.append(
                    (
                        t["trial"],
                        f"w={format(t['w'], 'g')}/model={model}/correct",
                        int(detected == t["planted"]),
                    )
                )
        files["accuracy.csv"] = _csv_text(
            manifest.digest,
            ["w", "model", "accuracy"],
            [(format(e["w"], "g"), e["model"], e["accuracy"]) for e in out["accuracy"]],
        )
        out["summary"] = {"accuracy": out["accuracy"]}
    files["trials.csv"] = _csv_text(manifest.digest, ["trial", "quantity", "value"], rows)
    summary = dict(out["summary"])
    summary["manifest"] = manifest.digest
    summary["rng"] = RNG_CONTRACT
    files["summary.json"] = dump_json(summary)
    return manifest, files["summary.json"], files


def _parse_range(option: str, text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise ValidationError(f"{option} {text!r} is not low:high") from None


def cmd_ingest(args):
    manifest = _manifest(args, f"ingest-{args.kind}", sorted(args.files))
    if args.kind == "stations":
        if not args.lat_range or not args.lon_range:
            raise ValidationError("stations ingest needs --lat-range and --lon-range")
        station_filter = StationFilter(
            _parse_range("--lat-range", args.lat_range),
            _parse_range("--lon-range", args.lon_range),
            field_name=args.value_column,
        )
        table, warnings = load_station_series(args.files, station_filter)
    else:
        if not args.tickers:
            raise ValidationError("quotes ingest needs --tickers")
        spec = QuoteSeriesSpec(tuple(args.tickers.split(",")), price_column=args.price_column)
        table, warnings = load_quote_series(args.files, spec)
    for key, count in warnings.as_dict().items():
        if count:
            print(f"warning: {key} = {count}", file=sys.stderr)
    text = f"{manifest.run_dir(args.out_dir)}/series.csv ({table.series_count} series)\n"
    return manifest, text, {
        "series.csv": lambda path: write_series_csv(table, path),
        "ingest.json": dump_json(
            {"series": table.names, "warnings": warnings.as_dict(), "manifest": manifest.digest}
        ),
    }


def cmd_report_cycle(args):
    manifest = _manifest(args, "report-cycle", [args.series])
    table = read_series_csv(args.series)
    report: dict = {"manifest": manifest.digest}
    if table.series_count < 5:
        report["notice"] = (
            "fewer than 5 series: degree-1 homology of the correlation filtration "
            "is necessarily trivial"
        )
        return manifest, report["notice"] + "\n", {"report.json": dump_json(report)}
    g = correlation_graph(table)
    result = weighted_graph_persistence(g, "cubical")
    report["h0_merges"] = [
        {"value": w, "series": [table.names[u], table.names[v]]}
        for w, u, v in result.merges
    ]
    if result.h1.pairs:
        bar = longest_bar(result.h1, span=CORRELATION_SPAN)
        cycles = cycle_vertices(bar.representative)
        report["h1_longest"] = {
            "birth": bar.birth,
            "death": bar.death,
            "cycles": [[table.names[v] for v in cycle] for cycle in cycles],
        }
        lines = [" -- ".join(cycle + cycle[:1]) for cycle in report["h1_longest"]["cycles"]]
        born = f"born {format_float(bar.birth)} died {format_float(bar.death)}"
        lines.append(born.replace('"', ""))
    else:
        report["notice"] = "no degree-1 bars in the correlation filtration"
        lines = [report["notice"]]
    return manifest, "".join(line + "\n" for line in lines), {"report.json": dump_json(report)}


if __name__ == "__main__":
    sys.exit(main())
