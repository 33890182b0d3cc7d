"""refsde benchmark: run one workload through the CLI and print its metrics.

Usage:
    python3 bench/run.py --workload {table,density,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a source checkout; the program is imported from the
checkout's own `src/`.  Workloads, tolerances and what is deliberately left
out are in `bench/spec.json`; metric names and units in `BENCHMARK.json`.

--trace 0 (end-to-end, tracing off)
    Spawns fresh `refsde` CLI processes (through bench/entry.py) for about
    --seconds seconds: whole iterations of the workload's commands, each
    command stamping when its set-up ends.  Every output CSV is checked against the
    stored reference for its seed, and density output also against an
    independent scipy.integrate.quad evaluation of pi.  Prints the median,
    quartiles and sample count of each end-to-end metric.

--trace 1 (per layer)
    Runs the workload once untraced and serial (and once more at its own
    --threads if that is above 1), then twice as a traced serial run
    (bench/traced.py).  Checks that every CSV is byte-identical across the
    runs and that the traced counts repeat exactly, then prints the
    per-layer metrics.  Spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every check
passed; 2 means the benchmark could not run at all (for example, no
`src/refsde` next to `bench/`).  `--workload all` runs every workload with
tracing off and then on, and prefixes each metric with its workload name.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TRACED_PASSES = 2       # traced counts must repeat exactly between these
CHILD_TIMEOUT_S = 150.0
FAILED_CELL = re.compile(r"^refsde experiment: cell .* failed: ", re.M)

# Drifts of the built-in cases, written out here from their definitions so
# the quadrature spot check shares no code with the program.
DRIFTS = {
    1: lambda x: math.sin(2.0 * math.pi * x) + 1.5 * x,
    2: lambda x: math.sqrt(1.0 + x * x),
    3: lambda x: 2.0 * math.sqrt(x),
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- child processes --------------------------------------------------------

def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], log: Path) -> dict:
    """Run cmd to completion in its own process group.

    Returns the exit code, the wall time, the spawn time on CLOCK_MONOTONIC
    and, from wait4, the CPU time of the whole process tree and the peak RSS
    of its largest process (worker pools are joined before the CLI exits, so
    their usage is folded into the child's).  The child gets the caller's
    environment, BLAS threading included, with only `src/` put on PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=err,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        t1 = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": t1 - t0, "t0": t0,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss,
            "log": log.read_text(errors="replace")}


def read_stamp(path: Path):
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return None


# --- workload definition ----------------------------------------------------

def flag(args: list[str], name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args else default


def with_threads(args: list[str], threads: int) -> list[str]:
    if "--threads" not in args:
        return list(args)
    out = list(args)
    out[out.index("--threads") + 1] = str(threads)
    return out


class Workload:
    def __init__(self, name: str, spec: dict, smoke: bool, seed: int,
                 n_ref: int):
        entry = spec["workloads"][name]
        self.name = name
        self.unit = entry["unit"]
        self.commands = entry["smoke" if smoke else "commands"]
        self.threads = int(flag(self.commands[0], "--threads", "1"))
        self.size = "smoke" if smoke else "full"
        # The program sees only a seed from the stored-reference pool.
        self.run_seed = seed % n_ref
        self.ref_key = str(self.run_seed) if entry["seeded"] else "any"

    def argv(self, index: int, out: Path, threads: int | None = None):
        args = self.commands[index]
        if threads is not None:
            args = with_threads(args, threads)
        return list(args) + ["--seed", str(self.run_seed), "--out", str(out)]


# --- correctness ------------------------------------------------------------

def _field_ok(new: str, ref: str, rel: float, abs_: float) -> bool:
    if new == ref:
        return True
    try:
        int(ref)
        return False
    except ValueError:
        pass
    try:
        a, b = float(new), float(ref)
    except ValueError:
        return False
    return abs(a - b) <= rel * abs(b) + abs_


class Checker:
    """Checks output CSVs against bench/reference.json and quadrature."""

    def __init__(self, spec: dict, reference: dict, wl: Workload):
        self.tol = spec["tolerances"]
        self.wl = wl
        self.ref = reference.get(wl.size, {}).get(wl.name, {}).get(wl.ref_key)
        self._quad_cache: dict = {}
        self.quad_dev = 0.0   # largest |pi - quad| seen so far

    def check(self, index: int, text: str, log: str) -> tuple[int, int, list]:
        """Return (cells attempted, cells failed, problems) for one output.

        An experiment command counts each reference row as a cell; any
        problem fails the command itself.
        """
        try:
            return self._check(index, text, log)
        except (IndexError, ValueError) as exc:
            return 0, 0, [f"malformed output: {exc!r}"]

    def _check(self, index: int, text: str, log: str):
        problems: list[str] = []
        if self.ref is None:
            return 0, 0, [f"no stored reference for {self.wl.name}"
                          f" {self.wl.size} seed key {self.wl.ref_key}"]
        ref_lines = self.ref[index]
        density = self.wl.commands[index][0] == "density"
        lines = text.splitlines()
        if not lines or lines[0] != f"# seed={self.wl.run_seed}":
            problems.append("missing or wrong '# seed=' line")
        lines = lines[1:]
        if not lines or lines[0] != ref_lines[0]:
            problems.append("CSV header differs from the reference")
            cells = 0 if density else len(ref_lines) - 1
            return cells, cells, problems
        rows, ref_rows = lines[1:], ref_lines[1:]
        if len(rows) != len(ref_rows):
            problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
        if density:
            problems += self._check_density(index, rows, ref_rows)
            return 0, 0, problems
        failed_cells = len(FAILED_CELL.findall(log))
        for row_no, ref_row in enumerate(ref_rows):
            row = rows[row_no] if row_no < len(rows) else ""
            new_f, ref_f = row.split(","), ref_row.split(",")
            ok = len(new_f) == len(ref_f) and all(
                _field_ok(a, b, self.tol["table_rel"], self.tol["table_abs"])
                for a, b in zip(new_f, ref_f))
            if not ok:
                failed_cells += 1
                problems.append(f"row {row_no + 1} outside tolerance:"
                                f" {row!r} vs {ref_row!r}")
        return len(ref_rows), min(failed_cells, len(ref_rows)), problems

    def _check_density(self, index, rows, ref_rows) -> list[str]:
        tol = self.tol["density"]
        args = self.wl.commands[index]
        sigma = float(flag(args, "--sigma", "0.2"))
        problems = []
        parsed = []
        for row_no, (row, ref_row) in enumerate(zip(rows, ref_rows), 1):
            new_f, ref_f = row.split(","), ref_row.split(",")
            if len(new_f) != 4 or len(ref_f) != 4:
                problems.append(f"row {row_no}: expected 4 fields")
                continue
            x, pi, f = (float(v) for v in new_f[:3])
            for a, b, name in zip(new_f[:3], ref_f[:3], ("x", "pi", "f")):
                if abs(float(a) - float(b)) > tol * max(1.0, abs(float(b))):
                    problems.append(f"row {row_no}: {name}={a} vs reference {b}")
            if (new_f[3] == "") != (ref_f[3] == ""):
                problems.append(f"row {row_no}: sigma_asym defined differently")
            elif new_f[3]:
                want = sigma * sigma / f
                if abs(float(new_f[3]) - want) > \
                        self.tol["sigma_consistency_rel"] * want:
                    problems.append(f"row {row_no}: sigma_asym != sigma^2/f")
            parsed.append((x, pi))
        problems += self._quad_spot(args, parsed, sigma)
        return problems

    def _quad_spot(self, args, parsed, sigma) -> list[str]:
        """pi at the first three grid points against nested quad."""
        if not parsed:
            return ["no density rows"]
        spots = tuple(parsed[:3])
        key = (tuple(args), spots)
        if key not in self._quad_cache:
            self._quad_cache[key] = self._quad_pi(args, spots, sigma)
        tol = self.tol["quad_spot"]
        problems = []
        for (x, pi), want in zip(spots, self._quad_cache[key]):
            dev = abs(pi - want)
            self.quad_dev = max(self.quad_dev, dev)
            if dev > tol * max(1.0, want):
                problems.append(f"pi({x:g}) = {pi!r}, quad gives {want!r}")
        return problems

    @staticmethod
    def _quad_pi(args, spots, sigma) -> list[float]:
        from scipy.integrate import quad
        b = DRIFTS[int(flag(args, "--case", "0"))]
        lower = float(flag(args, "--lower", "0"))
        upper = float(flag(args, "--upper", "3"))
        hi = upper if flag(args, "--mode", "two-sided") == "two-sided" \
            else math.inf
        c = 2.0 / (sigma * sigma)

        def integral(x):
            return quad(b, lower, x, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

        z = quad(lambda y: math.exp(-c * integral(y)), lower, hi,
                 epsabs=0.0, epsrel=1e-12, limit=400)[0]
        return [math.exp(-c * integral(x)) / z for x, _ in spots]


# --- untraced iterations ----------------------------------------------------

def run_iteration(wl: Workload, checker: Checker, tmp: Path, tag: str,
                  threads: int | None = None) -> dict:
    """Run every command of the workload once, each in a fresh process."""
    it = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "compute": 0.0, "work": 0,
          "setups": [], "attempted": 0, "failed": 0, "problems": [],
          "outputs": []}
    for i in range(len(wl.commands)):
        out = tmp / f"{tag}-{i}.csv"
        stamp = tmp / f"{tag}-{i}.stamp"
        for p in (out, stamp):
            p.unlink(missing_ok=True)
        res = spawn([sys.executable, str(BENCH / "entry.py"), str(stamp), "--",
                     *wl.argv(i, out, threads)],
                    tmp / f"{tag}-{i}.log")
        setup = read_stamp(stamp)
        text = out.read_text() if out.exists() else ""
        it["outputs"].append(text)
        it["wall"] += res["wall"]
        it["cpu"] += res["cpu"]
        it["rss_kb"] = max(it["rss_kb"], res["rss_kb"])
        cells, bad_cells, problems = checker.check(i, text, res["log"])
        if res["rc"] != 0 or setup is None:
            problems.insert(0, f"exit code {res['rc']}: {res['log'][-400:]}")
        it["attempted"] += 1 + cells
        it["failed"] += (1 if problems else 0) + bad_cells
        it["problems"] += [f"{wl.commands[i][0]} #{i}: {p}" for p in problems]
        if setup is not None:
            it["setups"].append(setup - res["t0"])
            it["compute"] += res["wall"] - (setup - res["t0"])
        it["work"] += _work_done(wl, text)
    return it


def _work_done(wl: Workload, text: str) -> int:
    rows = [r for r in text.splitlines()[2:] if r]
    if wl.unit == "points":
        return len(rows)
    try:
        return sum(int(r.rsplit(",", 1)[1]) for r in rows)
    except (IndexError, ValueError):
        return 0   # malformed output; the checker reports it


def summarize(values: list[float]) -> dict:
    v = sorted(values)
    if len(v) >= 2:
        q1, _, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = q3 = v[0]
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


def measure_untraced(wl: Workload, checker: Checker, seconds: int,
                     tmp: Path) -> dict:
    deadline = clock() + seconds
    attempted = failed = 0
    problems: list[str] = []
    setups: list[float] = []
    iters, durations = [], []
    while True:
        t0 = clock()
        it = run_iteration(wl, checker, tmp, f"it{len(iters)}")
        durations.append(clock() - t0)
        iters.append(it)
        attempted += it["attempted"]
        failed += it["failed"]
        problems += it["problems"]
        setups += it["setups"]
        if clock() + statistics.median(durations) > deadline:
            break
    series = {
        "wall_s": [it["wall"] for it in iters],
        "setup_s": setups or [0.0],
        "work_per_s": [it["work"] / it["compute"] if it["compute"] > 0
                       else 0.0 for it in iters],
        "cpu_s": [it["cpu"] for it in iters],
        "peak_rss_mb": [it["rss_kb"] / 1024.0 for it in iters],
    }
    return {"series": series, "attempted": attempted, "failed": failed,
            "problems": problems}


# --- traced run -------------------------------------------------------------

def _dur(s: dict) -> float:
    # The tracer's own counting time inside the span is not the span's work.
    return s["end"] - s["start"] - s.get("overhead", 0.0)


def _sum(spans, key=None) -> float:
    return sum(_dur(s) if key is None else s.get(key, 0) for s in spans)


def layer_metrics(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer timings and counts of one traced pass (all its commands)."""
    spans = [s for t in traces for s in t["spans"]]

    def named(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    sim, est = named("simulate."), named("estimate.")
    table = named("experiment.run_table")
    f_ev, sig_ev = named("density.f_eval"), named("density.sigma_eval")
    counts = {
        "simulate.calls": len(sim), "simulate.steps": _sum(sim, "steps"),
        "simulate.recorded": _sum(sim, "recorded"),
        "simulate.reflected": _sum(sim, "reflected"),
        "estimate.calls": len(est), "estimate.pairs": _sum(est, "pairs"),
        "estimate.window": _sum(est, "window"),
        "estimate.points": _sum(est, "points"),
        "estimate.undefined": _sum(est, "undefined"),
        "density.drift_nodes": _sum(named("density."), "drift_nodes"),
        "density.f_eval_nodes": _sum(f_ev, "drift_nodes"),
        "density.f_eval_calls": len(f_ev),
        "experiment.cells": _sum(table, "cells"),
        "experiment.reps": _sum(table, "reps"),
        "experiment.failed_cells": _sum(table, "failed_cells"),
        "cli.bytes_out": _sum(named("cli.write"), "bytes"),
    }
    sim_busy, est_busy = _sum(sim), _sum(est)
    table_busy = _sum(table)
    times = {
        "simulate.busy_s": sim_busy,
        "estimate.busy_s": est_busy,
        "density.invariant_s": _sum(named("density.invariant_density")),
        "density.pi_eval_s": _sum(named("density.pi_eval")),
        "density.f_eval_s": _sum(f_ev) / len(f_ev) if f_ev else 0.0,
        "density.sigma_eval_s": _sum(sig_ev) / len(sig_ev) if sig_ev else 0.0,
        "experiment.busy_s": table_busy,
        # Time in run_table not covered by the simulate and estimate layers.
        "experiment.self_s": table_busy - sim_busy - est_busy if table else 0.0,
        "cli.import_s": _sum(named("cli.import")),
        "cli.parse_s": _sum(named("cli.parse")),
        "cli.write_s": _sum(named("cli.write")),
        "trace.compute_s": _sum(named("cli.main")),
    }
    return times, counts


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def measure_traced(wl: Workload, checker: Checker, tmp: Path,
                   seed: int) -> dict:
    attempted = failed = 0
    problems: list[str] = []

    def tally(it):
        nonlocal attempted, failed
        attempted += it["attempted"]
        failed += it["failed"]
        problems.extend(it["problems"])

    serial = run_iteration(wl, checker, tmp, "serial", threads=1)
    tally(serial)
    fanout_base = serial
    untraced = [("untraced --threads 1", serial)]
    if wl.threads > 1:
        fanout_base = run_iteration(wl, checker, tmp, "par")
        tally(fanout_base)
        untraced.append((f"untraced --threads {wl.threads}", fanout_base))

    passes = []
    for p in range(TRACED_PASSES):
        traces, outputs, wall = [], [], 0.0
        for i in range(len(wl.commands)):
            out = tmp / f"traced{p}-{i}.csv"
            trace = tmp / f"traced{p}-{i}.json"
            for f in (out, trace):
                f.unlink(missing_ok=True)
            res = spawn([sys.executable, str(BENCH / "traced.py"), str(trace),
                         "--", *wl.argv(i, out, threads=1)],
                        tmp / f"traced{p}-{i}.log")
            wall += res["wall"]
            text = out.read_text() if out.exists() else ""
            cells, bad_cells, probs = checker.check(i, text, res["log"])
            if res["rc"] != 0 or not trace.exists():
                probs.insert(0, f"traced exit code {res['rc']}:"
                                f" {res['log'][-400:]}")
            else:
                traces.append(json.loads(trace.read_text()))
            attempted += 1 + cells
            failed += (1 if probs else 0) + bad_cells
            problems.extend(f"traced pass {p} #{i}: {q}" for q in probs)
            outputs.append(text)
        passes.append({"traces": traces, "outputs": outputs, "wall": wall})

    # Byte identity: every untraced run against the first traced pass.
    for label, it in untraced:
        for i, (a, b) in enumerate(zip(it["outputs"], passes[0]["outputs"])):
            attempted += 1
            if a != b or not a:
                failed += 1
                problems.append(f"{label} CSV #{i} differs from the traced"
                                " serial CSV")

    layer = [layer_metrics(p["traces"]) for p in passes]
    attempted += 1
    if any(c != layer[0][1] for _, c in layer[1:]):
        failed += 1
        problems.append("traced counts differ between passes: "
                        + json.dumps([c for _, c in layer]))

    times = {k: statistics.median(t[k] for t, _ in layer) for k in layer[0][0]}
    counts = layer[0][1]
    compute = times["trace.compute_s"]
    metrics = {
        "simulate.calls": counts["simulate.calls"],
        "simulate.steps": counts["simulate.steps"],
        "simulate.busy_s": times["simulate.busy_s"],
        "simulate.ns_per_step": 1e9 * _ratio(times["simulate.busy_s"],
                                             counts["simulate.steps"]),
        "simulate.reflect_frac": _ratio(counts["simulate.reflected"],
                                        counts["simulate.recorded"]),
        "estimate.calls": counts["estimate.calls"],
        "estimate.pairs": counts["estimate.pairs"],
        "estimate.busy_s": times["estimate.busy_s"],
        "estimate.ns_per_pair": 1e9 * _ratio(times["estimate.busy_s"],
                                             counts["estimate.pairs"]),
        "estimate.window_frac": _ratio(counts["estimate.window"],
                                       counts["estimate.pairs"]),
        "estimate.undefined_frac": _ratio(counts["estimate.undefined"],
                                          counts["estimate.points"]),
        "density.invariant_s": times["density.invariant_s"],
        "density.pi_eval_s": times["density.pi_eval_s"],
        "density.f_eval_s": times["density.f_eval_s"],
        "density.sigma_eval_s": times["density.sigma_eval_s"],
        "density.drift_nodes": counts["density.drift_nodes"],
        "density.drift_nodes_per_f_eval": _ratio(
            counts["density.f_eval_nodes"], counts["density.f_eval_calls"]),
        "experiment.cells": counts["experiment.cells"],
        "experiment.reps": counts["experiment.reps"],
        "experiment.busy_s": times["experiment.busy_s"],
        "experiment.self_s": times["experiment.self_s"],
        "experiment.failed_cells": counts["experiment.failed_cells"],
        "experiment.fanout_efficiency": _ratio(
            serial["compute"], wl.threads * fanout_base["compute"]),
        "cli.import_s": times["cli.import_s"],
        "cli.parse_s": times["cli.parse_s"],
        "cli.write_s": times["cli.write_s"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "trace.compute_s": compute,
        "trace.overhead_s": statistics.median(p["wall"] for p in passes)
        - serial["wall"],
    }
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{wl.name}-{wl.size}-seed{seed}.json"
    spans_file.write_text(json.dumps([p["traces"] for p in passes]))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems,
            "spans_file": str(spans_file.relative_to(ROOT))}


def baseline_facts(name: str, m: dict) -> list[str]:
    """Baseline facts the per-layer metrics were chosen to expose."""
    facts = []
    if name == "table":
        facts.append(("estimate.window_frac < 0.2",
                      m["estimate.window_frac"] < 0.2))
        facts.append(("experiment.fanout_efficiency < 0.6",
                      m["experiment.fanout_efficiency"] < 0.6))
    elif name == "density":
        facts.append(("density.drift_nodes_per_f_eval > 1e6",
                      m["density.drift_nodes_per_f_eval"] > 1e6))
    return [f"#   {'holds' if ok else 'DOES NOT HOLD'}: {text}"
            for text, ok in facts]


# --- environment and reporting ----------------------------------------------

def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(wl: Workload, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "refsde").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "workload_seed": seed, "program_seed": wl.run_seed}


def load_metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


E2E_LABEL = {"work_per_s": {"reps": "reps_per_s", "points": "points_per_s"}}


def run_workload(name: str, args, spec: dict, reference: dict,
                 units: dict) -> tuple[dict, list[str]]:
    wl = Workload(name, spec, args.smoke, args.seed, spec["reference_seeds"])
    checker = Checker(spec, reference, wl)
    env = environment(wl, args.seed)
    lines = [f"# refsde benchmark: workload={name} size={wl.size}"
             f" seed={args.seed} seconds={args.seconds} trace={args.trace}",
             "# env: " + json.dumps(env)]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if args.trace:
            res = measure_traced(wl, checker, tmp, args.seed)
            metrics = {k: {"value": v, "unit": units["layer"][k]}
                       for k, v in res["metrics"].items()}
            lines.append(f"# {'metric':<32} {'unit':>6} {'value':>14}"
                         "   (traced serial run, median of"
                         f" {TRACED_PASSES} passes)")
            for k, m in metrics.items():
                lines.append(f"# {k:<32} {m['unit']:>6} {m['value']:>14.6g}")
            lines.append(f"# spans: {res['spans_file']}")
            lines += baseline_facts(name, res["metrics"])
        else:
            res = measure_untraced(wl, checker, args.seconds, tmp)
            metrics = {}
            lines.append(f"# {'metric':<14} {'unit':>6} {'median':>12}"
                         f" {'q1':>12} {'q3':>12} {'n':>4}")
            for k, series in res["series"].items():
                s = summarize(series)
                metrics[k] = {"value": s["median"], "unit": units["e2e"][k]}
                label = E2E_LABEL.get(k, {}).get(wl.unit, k)
                lines.append(f"# {label:<14} {units['e2e'][k]:>6}"
                             f" {s['median']:>12.6g} {s['q1']:>12.6g}"
                             f" {s['q3']:>12.6g} {s['n']:>4}")
        if checker.quad_dev:
            lines.append(f"# quad spot check: max |pi - quad| ="
                         f" {checker.quad_dev:.3g}")
        lines.append(f"# error_rate = {res['failed']}/{res['attempted']}")
        lines += [f"# FAILED CHECK: {p}" for p in res["problems"]]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {"correct": res["failed"] == 0 and not res["problems"],
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    (OUT / f"result-{name}-{wl.size}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"environment": env, "result": result,
                                "problems": res["problems"],
                                "series": res.get("series")}, indent=1))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "refsde" / "cli.py").is_file():
        print(f"bench: no refsde sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    spec = json.loads((BENCH / "spec.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    units = load_metric_units()
    names = list(spec["workloads"]) if args.workload == "all" \
        else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        result, lines = run_workload(names[0], args, spec, reference, units)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        lines = []
        for name in names:
            for trace in (0, 1):
                args.trace = trace
                res, more = run_workload(name, args, spec, reference, units)
                lines += more
                result["correct"] &= res["correct"]
                result["attempted"] += res["attempted"]
                result["failed"] += res["failed"]
                result["metrics"].update(
                    {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
