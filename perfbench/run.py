"""graphhom benchmark: four single-process, closed-loop workloads.

One client runs one op at a time, with no thread or process pool, through the
public functions of graphhom built from ``src/`` of this checkout.

  python3 perfbench/run.py --workload weather --seed 0 --seconds 10 --trace 0
      one workload in this process; the last line of stdout is the result
      JSON.  --trace 0 gives the end-to-end metrics of BENCHMARK.json;
      --trace 1 runs untraced, then traced over the first ops again for
      half the time, and gives the per-layer metrics.
  python3 perfbench/run.py [--seed 0] [--seconds 10] [--out FILE]
      every workload, each in its own process, untraced and then traced; a
      table of every metric, and optionally the whole record as JSON.
  python3 perfbench/run.py --smoke
      a tiny run of every workload that checks the result JSON names every
      metric of BENCHMARK.json with its unit.
  python3 perfbench/run.py --write-expected
      regenerates perfbench/expected.json from the code as it stands.

Every op's output is checked: against the stored outputs when the seed is
the default or the held-out one, else against invariants and against itself
when an input repeats; the first ops of the default seed are then replayed
and compared, untimed.
"""

from __future__ import annotations

import os

# BLAS and OpenMP stay single-threaded in this process and its children;
# this must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, compare, plain

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = BENCH_DIR / "expected.json"
SCRATCH = ROOT / ".perfbench"
STORED_SEEDS = (0, 1)  # default seed, held-out seed
WINDOW_OPS = 100  # ten latency samples beyond p90 in every window
CHILD_TIMEOUT_S = 600


class Checker:
    """Counts attempted, failed and soft-changed ops against stored outputs.

    expected holds the stored output of each pool entry, or None where none
    is stored for this seed.
    """

    def __init__(self, workload, expected: list) -> None:
        self.wl = workload
        self.expected = expected
        self.first: dict[int, dict] = {}
        self.attempted = self.failed = self.soft_changed = 0
        self.problems: list[str] = []

    def check(self, i: int, raw) -> None:
        self.attempted += 1
        j = i % self.wl.pool_size
        try:
            if isinstance(raw, Exception):
                raise raw
            rec = plain(self.wl.record(i, raw))
            problem = None if self.wl.invariants(rec) else "invariant"
            if j in self.first and rec != self.first[j]:
                problem = "differs from an earlier run of the same input"
            self.first.setdefault(j, rec)
            exp = self.expected[j]
            if exp is not None:
                hard, soft = compare(exp, rec, self.wl.RULES)
                self.soft_changed += bool(soft)
                if hard:
                    problem = f"differs from stored output in {hard}"
        except Exception as exc:  # a failed op is counted, never fatal
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {i}: {problem}")


def timed_loop(wl, call, seconds: float, min_ops: int, max_ops: float = math.inf):
    """Closed loop: next op only after the previous returns; ends on a block boundary."""
    wall, cpu, ends, raws = [], [], [], []
    start = perf_counter()
    i = 0
    while True:
        c0 = process_time()
        t0 = perf_counter()
        try:
            out = call(i)
        except Exception as exc:  # counted as a failed op by the checker
            out = exc
        t1 = perf_counter()
        cpu.append(process_time() - c0)
        wall.append(t1 - t0)
        ends.append(t1)
        raws.append(out)
        i += 1
        if i >= max_ops or (i >= min_ops and i % wl.block == 0 and t1 - start >= seconds):
            break
    return wall, cpu, ends, raws, start


def window_ops(wl) -> int:
    return -(-WINDOW_OPS // wl.block) * wl.block


def windowed(wl, wall: list[float], ends: list[float], start: float) -> dict:
    """Throughput, p50 and p90 of op latency, each a median over windows.

    A window is a run of consecutive ops, at least WINDOW_OPS of them in
    whole blocks; ops left over join the last window.  The median over
    windows keeps a burst of load from other processes on the machine from
    moving the figures.
    """
    size = window_ops(wl)
    count = max(1, len(wall) // size)
    edges = [k * size for k in range(count)] + [len(wall)]
    rates, p50, p90 = [], [], []
    for a, b in zip(edges, edges[1:]):
        rates.append((b - a) / (ends[b - 1] - (ends[a - 1] if a else start)))
        p50.append(float(np.percentile(wall[a:b], 50)) * 1e3)
        p90.append(float(np.percentile(wall[a:b], 90)) * 1e3)
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms.p50": (statistics.median(p50), "ms"),
        "op_ms.p90": (statistics.median(p90), "ms"),
        "windows": count,
    }


def import_graphhom():
    for name in [m for m in sys.modules if m == "graphhom" or m.startswith("graphhom.")]:
        del sys.modules[name]
    graphhom = importlib.import_module("graphhom")
    if not Path(graphhom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"graphhom imported from {graphhom.__file__}, not from this checkout")
    return graphhom


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.exists():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops: int | None, setups: int | None) -> dict:
    """Set up, run the timed loop (and the traced one), and check every output.

    min_ops and setups default to the workload's own; min_ops is at least
    WINDOW_OPS, so that at least ten latency samples lie beyond p90.
    """
    cls = WORKLOADS[name]
    min_ops = cls.min_ops if min_ops is None else min_ops
    setups = cls.setups if setups is None else setups
    load_before = os.getloadavg()[0]
    work_root = SCRATCH / f"{name}-{os.getpid()}"
    expected = load_expected()
    try:
        setup_s = []
        for k in range(setups):
            t0 = perf_counter()
            import_graphhom()
            wl = cls(seed, work_root / f"setup{k}")
            wl.warm_up()
            setup_s.append(perf_counter() - t0)

        default = expected[str(STORED_SEEDS[0])][name]
        seed_stored = str(seed) in expected
        if seed_stored:
            known = expected[str(seed)][name]
        else:
            known = [default[j] if j in cls.seedless else None for j in range(cls.pool_size)]
        checker = Checker(wl, known)
        wall, cpu, ends, raws, start = timed_loop(wl, wl.op, seconds, min_ops)
        for i, raw in enumerate(raws):
            checker.check(i, raw)
        ops = len(raws)
        metrics = windowed(wl, wall, ends, start)
        windows = metrics.pop("windows")
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

        layers = {}
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            wl.work = work_root / "traced"
            traced_op = tracer.span(tracing.OP_SPAN, wl.op)

            def call(i):
                tracer.current_op = i
                return traced_op(i)

            try:
                _, _, traced_ends, traced_raws, traced_start = timed_loop(
                    wl, call, seconds / 2, min(ops, window_ops(wl)), max_ops=ops
                )
            finally:
                tracer.restore()
            for i, raw in enumerate(traced_raws):
                checker.check(i, raw)
            traced = len(traced_raws)
            layers = tracing.layer_stats(tracer, traced)
            commands = [wl.command(i) for i in range(ops)] if name == "cli" else []
            layers.update(cli_stats(commands, wall, cpu))
            # the same first ops, untraced and traced
            untraced_s, traced_s = ends[traced - 1] - start, traced_ends[-1] - traced_start
            layers["trace.overhead_frac"] = (1.0 - untraced_s / traced_s, "frac")

        replayed = 0
        if not seed_stored:
            # outputs of this seed are not stored: replay some of the default seed's
            wl0 = cls(STORED_SEEDS[0], work_root / "replay")
            replay_checker = Checker(wl0, default)
            for i in wl.replay:
                try:
                    raw = wl0.op(i)
                except Exception as exc:
                    raw = exc
                replay_checker.check(i, raw)
            replayed = replay_checker.attempted
            checker.attempted += replay_checker.attempted
            checker.failed += replay_checker.failed
            checker.soft_changed += replay_checker.soft_changed
            checker.problems += replay_checker.problems
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": ops,
        "latency_samples": len(wall),
        "windows": windows,
        "setup_samples": len(setup_s),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "ops_failed_frac": checker.failed / checker.attempted,
        "soft_changed": checker.soft_changed,
        "replayed_default_seed_ops": replayed,
        "problems": checker.problems,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }
    if trace:
        SCRATCH.mkdir(exist_ok=True)
        np.savez_compressed(
            SCRATCH / f"spans-{name}-seed{seed}.npz", record=json.dumps(record), **tracer.arrays()
        )
    return {"record": record, "end_to_end": metrics, "per_layer": layers}


def cli_stats(commands: list[str], wall_s: list[float], cpu_s: list[float]) -> dict:
    """cli.<command>.ms and .wait_ms (wall minus process CPU), mean per call.

    Taken from the untraced loop; both are 0 on workloads that run no CLI.
    """
    out = {}
    for command in WORKLOADS["cli"].COMMANDS:
        idx = [k for k, c in enumerate(commands) if c == command]
        wall = [wall_s[k] * 1e3 for k in idx]
        wait = [(wall_s[k] - cpu_s[k]) * 1e3 for k in idx]
        out[f"cli.{command}.ms"] = (math.fsum(wall) / len(idx) if idx else 0.0, "ms")
        out[f"cli.{command}.wait_ms"] = (math.fsum(wait) / len(idx) if idx else 0.0, "ms")
    return out


def select(computed: dict, names: list[str]) -> dict:
    return {n: {"value": computed[n][0], "unit": computed[n][1]} for n in names}


def worker_main(args, spec: dict) -> int:
    if not (ROOT / "src" / "graphhom").is_dir():
        print(f"error: no graphhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # on SIGTERM, unwind so that the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.min_ops, args.setups)
    record = result["record"]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = select(result[section], [m["name"] for m in spec[section]])
    print(
        f"workload {record['workload']} seed {record['seed']}: {record['ops']} ops timed, "
        f"{record['attempted']} checked, {record['failed']} failed, "
        f"{record['soft_changed']} with a changed representative cycle"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        note = f"  (n={record['latency_samples']}, median of {record['windows']} windows)" if name.startswith("op") else ""
        note = f"  (median of {record['setup_samples']})" if name == "setup_s" else note
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{note}")
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int, extra=()) -> tuple[list[str], dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return lines, None
    return lines, json.loads(lines[-1])


def all_main(args, spec: dict) -> int:
    runs = []
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            lines, result = run_child(workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            record = next((json.loads(l[7:]) for l in lines if l.startswith("record ")), None)
            ok = ok and result is not None and result["correct"]
            runs.append({"workload": workload, "trace": trace, "record": record, "result": result})
    print("\nend-to-end (untraced)")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"  {'workload':10s}" + "".join(f"{n:>14s}" for n in names) + f"{'ops_failed':>12s}{'samples':>9s}")
    for run in runs:
        if run["trace"] or run["result"] is None:
            continue
        m = run["result"]["metrics"]
        rec = run["record"]
        print(f"  {run['workload']:10s}" + "".join(f"{m[n]['value']:14.5g}" for n in names)
              + f"{rec['ops_failed_frac']:12.3g}{rec['latency_samples']:9d}")
    print("  units: " + ", ".join(f"{m['name']} {m['unit']}" for m in spec["end_to_end"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seed": args.seed, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


def smoke_main(spec: dict) -> int:
    """Tiny runs; the result JSON must name every metric of BENCHMARK.json with its unit."""
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_child(workload, 5, 0, trace, ["--min-ops", "1", "--setups", "1"])
            where = f"{workload} --trace {trace}"
            if result is None:
                errors.append(f"{where}: no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                errors.append(f"{where}: non-finite values {bad}")
            print(f"smoke {where}: {len(got)} metrics, {result['attempted']} ops checked")
    for e in errors:
        print(f"smoke error: {e}")
    print("smoke ok" if not errors else "smoke FAILED")
    return 0 if not errors else 1


def write_expected() -> int:
    """Store every pool op's output for the default and the held-out seed."""
    os.chdir(ROOT)
    import_graphhom()
    out: dict = {}
    work_root = SCRATCH / f"expected-{os.getpid()}"
    try:
        for seed in STORED_SEEDS:
            out[str(seed)] = {}
            for name, cls in WORKLOADS.items():
                wl = cls(seed, work_root / f"{name}-{seed}")
                out[str(seed)][name] = [plain(wl.record(j, wl.op(j))) for j in range(wl.pool_size)]
                print(f"seed {seed} {name}: {wl.pool_size} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(EXPECTED, "w") as fh:
        fh.write("{\n")
        for s, (seed, by_workload) in enumerate(out.items()):
            fh.write(f' "{seed}": {{\n')
            for w, (name, recs) in enumerate(by_workload.items()):
                fh.write(f'  "{name}": [\n')
                fh.write(",\n".join("   " + json.dumps(r) for r in recs))
                fh.write("\n  ]" + ("," if w < len(by_workload) - 1 else "") + "\n")
            fh.write(" }" + ("," if s < len(out) - 1 else "") + "\n")
        fh.write("}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=STORED_SEEDS[0])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--min-ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write every run's record and result to this JSON file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return smoke_main(spec)
    if args.write_expected:
        return write_expected()
    if args.workload:
        return worker_main(args, spec)
    return all_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
