"""The four benchmark workloads: inputs made from a seed, one op, and its record.

A workload object is built once per set-up, after graphhom has been imported
from the checkout; a run sets up ``setups`` times (three for circle, whose
warm-up builds the clean diagrams, seven for the cheap ones).  ``op(i)`` runs
op ``i`` of a fixed cyclic sequence (the pool) on inputs generated in set-up;
the library never sees the benchmark seed.  ``seedless`` lists the pool
entries whose inputs do not depend on the seed, and ``replay`` the ones
replayed for the default seed when the run's own seed has no stored outputs.
``record(i, raw)`` turns what an op returned into a plain JSON record, outside
the timed loop.  ``RULES`` says how each record field is compared with a
stored expectation:

* ``exact``: a correct change cannot alter it (birth/death multisets,
  bottleneck distances, Betti numbers, ``h1_length_pct``, picks made without
  homology, ingested bytes);
* ``rel``: R^2 values, equal to a relative 1e-9, so a closed-form fit that
  moves the last digits still passes;
* ``soft``: representative cycles and what depends on them; a different valid
  cycle may change these, so differences are counted but are not failures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

DATA = "tests/data"
QUOTE_TICKERS = "AAA,AAB,CCC,DDD,EEE,FFF,GGG"
REL_TOL = 1e-9

CLI_COMMANDS = (
    "ingest-stations",
    "ingest-quotes",
    "report-cycle",
    "persist-cubical",
    "persist-flag",
    "bottleneck",
    "homology",
    "persist-dim2",
    "experiment-multifit",
)
#: CLI commands whose inputs do not depend on the seed
CLI_SEEDLESS = {"ingest-stations", "ingest-quotes", "report-cycle", "homology", "persist-dim2"}


def plain(record: dict) -> dict:
    """JSON round trip, so records compare equal to stored ones."""
    return json.loads(json.dumps(record))


def compare(expected: dict, actual: dict, rules: dict) -> tuple[list[str], list[str]]:
    """(hard, soft) lists of fields where actual differs from expected."""
    hard, soft = [], []
    for key, rule in rules.items():
        e, a = expected.get(key), actual.get(key)
        if rule == "rel":
            same = _close(e, a)
        else:
            same = e == a
        if not same:
            (soft if rule == "soft" else hard).append(key)
    return hard, soft


def _close(e, a) -> bool:
    if isinstance(e, list) and isinstance(a, list):
        return len(e) == len(a) and all(_close(x, y) for x, y in zip(e, a))
    if isinstance(e, float) and isinstance(a, float):
        return math.isclose(e, a, rel_tol=REL_TOL, abs_tol=1e-15)
    return e == a


def _rng(seed: int, tag: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, j])


class Weather:
    """Weather trials on the default 8x8 grid; the weight cycles 1, 4, 8, 12.

    A run holds at least 300 ops, so its figures are medians over three
    windows.
    """

    name = "weather"
    block = 4
    min_ops = 300
    setups = 7
    pool_size = 512
    seedless = ()
    replay = range(8)
    RULES = {"planted": "exact", "residual": "exact", "cubical": "soft", "flag": "soft"}
    W_VALUES = (1.0, 4.0, 8.0, 12.0)

    def __init__(self, seed: int, work_dir: Path) -> None:
        from graphhom.experiments import weather

        self.mod = weather
        base = weather.WeatherConfig()
        self.cfgs = [replace(base, disturbance_weight=w) for w in self.W_VALUES]
        self.interior = weather.interior_vertices(base)
        picker = _rng(seed, 1, 0)
        self.planted = [self.interior[int(k)] for k in picker.integers(len(self.interior), size=self.pool_size)]
        self.noise_seeds = [[seed, 1, j + 1] for j in range(self.pool_size)]

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        j = i % self.pool_size
        cfg = self.cfgs[j % len(self.cfgs)]
        series = self.mod.run_disturbed_series(cfg, self.planted[j], np.random.default_rng(self.noise_seeds[j]))
        return [self.mod.detect(series, cfg, model) for model in self.mod.MODELS]

    def record(self, i: int, raw) -> dict:
        residual, cubical, flag = raw
        return {"planted": self.planted[i % self.pool_size], "residual": residual, "cubical": cubical, "flag": flag}

    def invariants(self, rec: dict) -> bool:
        return all(rec[k] in self.interior for k in self.RULES)


class Circle:
    """Noisy-circle trials (r = 2, sigma = 0.5) along a fixed, shuffled size ladder.

    Every 25 ops hold 16 trials at n = 30, 6 at 60, 2 at 120 and 1 at 240,
    so p50 is an n = 30 trial, p90 falls among the n = 120 trials and
    throughput is set mostly by n = 240.  A run ends on a whole ladder of
    100 ops, so every run has the same mix, and holds at least two ladders,
    so that its figures are medians over two windows.
    """

    name = "circle"
    block = 100
    min_ops = 200
    setups = 3
    SUB_BLOCK = 25
    pool_size = 400
    seedless = ()
    replay = range(8)
    RULES = {"d_cubical": "exact", "d_flag": "exact"}
    SIZES = (30, 60, 120, 240)
    BLOCK_MIX = (16, 6, 2, 1)
    LADDER_SEED = 2017

    def __init__(self, seed: int, work_dir: Path) -> None:
        from graphhom.experiments import circle

        self.mod = circle
        self.cfgs = {n: circle.CircleConfig(point_count=n, radius=2.0, noise_sigma=0.5) for n in self.SIZES}
        shuffler = np.random.default_rng(self.LADDER_SEED)
        sub_block = np.repeat(self.SIZES, self.BLOCK_MIX)
        self.ladder = [int(n) for _ in range(self.pool_size // self.SUB_BLOCK) for n in shuffler.permutation(sub_block)]
        self.noise_seeds = [[seed, 2, j] for j in range(self.pool_size)]

    def warm_up(self) -> None:
        for cfg in self.cfgs.values():
            self.mod._clean_diagrams(cfg.point_count, cfg.radius)
        self.op(0)

    def op(self, i: int):
        j = i % self.pool_size
        return self.mod.noisy_circle_trial(self.cfgs[self.ladder[j]], np.random.default_rng(self.noise_seeds[j]))

    def record(self, i: int, raw) -> dict:
        return {"d_cubical": float(raw[0]), "d_flag": float(raw[1])}

    def invariants(self, rec: dict) -> bool:
        return all(0.0 <= rec[k] < math.inf for k in self.RULES)


class Multifit:
    """Multifit trials on 5 uniform lists of 10; the engine sees 5-vertex graphs."""

    name = "multifit"
    block = 1
    min_ops = 100
    setups = 7
    pool_size = 256
    seedless = ()
    replay = range(32)
    RULES = {"h1_length_pct": "exact", "r2_avg": "rel", "r2_mult": "rel", "relative_increase": "rel"}

    def __init__(self, seed: int, work_dir: Path) -> None:
        from graphhom.experiments import multifit

        self.mod = multifit
        self.lists = _rng(seed, 3, 0).random((self.pool_size, 5, 10))

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        return self.mod.evaluate_lists(self.lists[i % self.pool_size])

    def record(self, i: int, raw) -> dict:
        return {
            "h1_length_pct": raw.h1_length_pct,
            "r2_avg": raw.r2_avg,
            "r2_mult": raw.r2_mult,
            "relative_increase": raw.relative_increase,
        }

    def invariants(self, rec: dict) -> bool:
        return 0.0 <= rec["h1_length_pct"] <= 100.0 and all(0.0 <= rec[k] <= 1.0 for k in ("r2_avg", "r2_mult"))


class Cli:
    """In-process ``graphhom.cli.main`` over a fixed pass of nine commands.

    Each op writes into a fresh out-dir: rewriting an existing result file
    can stall on disk writeback, which would time the disk, not graphhom.
    """

    name = "cli"
    COMMANDS = CLI_COMMANDS
    block = len(COMMANDS)
    min_ops = 100
    setups = 7
    pool_size = len(COMMANDS)
    seedless = tuple(k for k, c in enumerate(CLI_COMMANDS) if c in CLI_SEEDLESS)
    replay = tuple(k for k, c in enumerate(CLI_COMMANDS) if c not in CLI_SEEDLESS)
    RULES = {
        "exit": "exact",
        "series_sha256": "exact",
        "h0_merge_values": "exact",
        "h0_merges": "soft",
        "h1_longest": "exact",
        "h1_cycles": "soft",
        "pairs": "exact",
        "cycles": "soft",
        "distance": "exact",
        "betti": "exact",
        "h1_length_pct": "exact",
        "r2_avg": "rel",
        "r2_mult": "rel",
        "relative_increase": "rel",
        "h1_positive_count": "exact",
        "excluded": "exact",
    }
    SERIES = 64
    READINGS = 50
    DIAGRAM_POINTS = 40

    def __init__(self, seed: int, work_dir: Path) -> None:
        from graphhom import cli

        self.cli = cli
        self.work = work_dir
        setup_dir = work_dir / "setup"
        setup_dir.mkdir(parents=True)
        rng = _rng(seed, 4, 0)
        table = setup_dir / "table.csv"
        _write_ring_table(table, rng, self.SERIES, self.READINGS)
        diagrams = [setup_dir / "a.json", setup_dir / "b.json"]
        for path in diagrams:
            _write_diagram(path, rng, self.DIAGRAM_POINTS)
        stations = ["ingest", "stations", f"{DATA}/stations_ring.csv", "--lat-range=42.7:45", "--lon-range=-80:-75"]
        self._main(stations + ["--out-dir", str(setup_dir)])
        (station_series,) = setup_dir.glob("ingest-stations-*/series.csv")
        quotes = sorted(str(p) for p in Path(DATA, "quotes").glob("*.csv"))
        self.argv = [
            stations,
            ["ingest", "quotes", *quotes, "--tickers", QUOTE_TICKERS],
            ["report-cycle", str(station_series)],
            ["persist", str(table), "--method", "cubical"],
            ["persist", str(table), "--method", "flag"],
            ["bottleneck", *map(str, diagrams)],
            ["homology", f"{DATA}/greene.csv", "--max-dim", "2"],
            ["persist", f"{DATA}/example33.csv", "--dim", "2"],
            ["experiment", "multifit", "--iterations", "200", "--threads", "1", "--seed", str(int(rng.integers(2**31)))],
        ]

    def _main(self, argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(argv)

    def warm_up(self) -> None:
        self.op(-1)

    def op(self, i: int):
        return self._main(self.argv[i % self.block] + ["--out-dir", str(self.work / f"op{i}")])

    def command(self, i: int) -> str:
        return self.COMMANDS[i % self.block]

    def record(self, i: int, raw) -> dict:
        rec: dict = {"exit": raw}
        if raw != 0:
            return rec
        (run_dir,) = (self.work / f"op{i}").iterdir()
        command = self.command(i)
        if command.startswith("ingest"):
            rec["series_sha256"] = hashlib.sha256((run_dir / "series.csv").read_bytes()).hexdigest()
        elif command == "report-cycle":
            report = _load(run_dir / "report.json")
            rec["h0_merge_values"] = sorted(m["value"] for m in report["h0_merges"])
            rec["h0_merges"] = [m["series"] for m in report["h0_merges"]]
            longest = report["h1_longest"]
            rec["h1_longest"] = [longest["birth"], longest["death"]]
            rec["h1_cycles"] = longest["cycles"]
        elif command.startswith("persist"):
            (path,) = run_dir.glob("diagram_dim*.json")
            pairs = _load(path)["pairs"]
            rec["pairs"] = sorted([p["birth"], p["death"]] for p in pairs)
            rec["cycles"] = [p.get("cycle") for p in pairs]
        elif command == "bottleneck":
            rec["distance"] = _load(run_dir / "distance.json")["distance"]
        elif command == "homology":
            rec["betti"] = _load(run_dir / "betti.json")["betti"]
        else:
            rec.update(_multifit_trials(run_dir / "trials.csv"))
            summary = _load(run_dir / "summary.json")
            rec["h1_positive_count"] = summary["h1_positive_count"]
            rec["excluded"] = summary["excluded"]
        return rec

    def invariants(self, rec: dict) -> bool:
        return rec["exit"] == 0


WORKLOADS = {w.name: w for w in (Weather, Circle, Multifit, Cli)}


def _load(path: Path) -> dict:
    """Result JSON with the "inf" sentinel read back as a float."""
    with open(path) as fh:
        return json.load(fh, parse_constant=float, object_hook=_unsentinel)


def _unsentinel(obj: dict) -> dict:
    return {k: (math.inf if v == "inf" else v) for k, v in obj.items()}


def _multifit_trials(path: Path) -> dict:
    out: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        next(rows)
        for trial, quantity, value in rows:
            out.setdefault(quantity, {})[int(trial)] = float(value)
    trials = max(out["h1_length_pct"]) + 1
    return {q: [out.get(q, {}).get(t) for t in range(trials)] for q in ("h1_length_pct", "r2_avg", "r2_mult", "relative_increase")}


def _write_ring_table(path: Path, rng: np.random.Generator, series: int, readings: int) -> None:
    """Series on a latent circle: neighbours correlate, so H1 has a long bar."""
    angles = 2.0 * math.pi * np.arange(series) / series
    factors = rng.standard_normal((2, readings))
    values = np.cos(angles)[:, None] * factors[0] + np.sin(angles)[:, None] * factors[1]
    values += 0.3 * rng.standard_normal((series, readings))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"s{k}" for k in range(series)])
        for t in range(readings):
            writer.writerow([t] + [format(v, ".17g") for v in values[:, t]])


def _write_diagram(path: Path, rng: np.random.Generator, points: int) -> None:
    births = rng.random(points)
    deaths = births + rng.exponential(0.2, points)
    pairs = [{"birth": float(b), "death": float(d)} for b, d in zip(births, deaths)]
    pairs.append({"birth": float(rng.random() * 0.1), "death": "inf"})
    with open(path, "w") as fh:
        json.dump({"dimension": 1, "pairs": pairs}, fh)
