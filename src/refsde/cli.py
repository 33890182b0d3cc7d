"""Command-line entry point: `refsde <subcommand> [flags]`.

Subcommands: simulate, density, estimate, experiment, normality.  Every run
writes one CSV whose first line is a `# seed=...` comment, making each output
traceable to its RNG stream; reruns with identical flags produce byte-identical
files, independently of `--threads`.

`--config FILE` preloads flags from a text file with one `key = value` per
line and `#` comments; flags given on the command line take precedence.
Unknown config keys are usage errors.  Exit codes: 0 success, 1 runtime
failure (partially written outputs are removed), 2 usage error.  `parse`
checks only the command shape (flags, keys, types, required flags, mode
names, `--threads >= 1`).  Every other value is checked once, by the library
object or function that uses it; the runners build these before the
simulation or quadrature starts, and `main` reports their ValueError as a
usage error too.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from .density import (UndefinedVarianceError, f_eval, invariant_density,
                      pi_eval, sigma_eval)
from .estimate import (delta_of_n, nw_continuous, nw_discrete,
                       write_estimate_csv)
from .experiment import (ExperimentPlan, estimation_grid, normality_check,
                         run_table, write_normality_csv, write_summary_csv)
from .model import BarrierConfig, builtin_drift, epanechnikov
from .simulate import (SimConfig, format_seed, read_path_csv, simulate_fine,
                       write_csv, write_path_csv)

__all__ = ["RunConfig", "main", "parse"]

_MODE_NAMES = {"two-sided": "two_sided", "one-sided": "one_sided_lower",
               "both": "both"}


@dataclass(frozen=True)
class RunConfig:
    """A fully merged invocation: subcommand plus parameter map.

    Values are typed but not range-checked; the runner's library objects do
    that when `main` runs it.
    """

    subcommand: str
    params: dict
    out: str | None
    seed: int | None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return value


# dest -> (converter, flag, help text).  Defaults live in _DEFAULTS so that
# config files can fill any gap the command line leaves; None defaults mean
# "derived later" or "optional".
_COMMON = {
    "case": (int, "--case", "drift case id: 1, 2 or 3"),
    "sigma": (float, "--sigma", "diffusion coefficient (state units; default 0.2)"),
    "lower": (float, "--lower", "lower barrier position (default 0)"),
    "upper": (float, "--upper", "upper barrier / grid upper edge (default 3)"),
    "seed": (int, "--seed", "RNG stream seed (default 0)"),
    "out": (str, "--out", "output CSV path"),
    "config": (str, "--config", "key = value file preloading any flag"),
}

_SPECS: dict[str, dict] = {
    "simulate": {
        "flags": ["case", "n", "delta", "sigma", "mode", "lower", "upper",
                  "x0", "burn_in", "refine", "seed", "out", "config"],
        "required": ["case", "n", "out"],
        "defaults": {"sigma": 0.2, "mode": "two_sided", "lower": 0.0,
                     "upper": 3.0, "x0": None, "burn_in": 0, "refine": 1,
                     "seed": 0, "delta": None},
        "modes": ("two-sided", "one-sided"),
    },
    "density": {
        "flags": ["case", "sigma", "mode", "lower", "upper", "grid", "h",
                  "quad_panels", "seed", "out", "config"],
        "required": ["case", "out"],
        "defaults": {"sigma": 0.2, "mode": "two_sided", "lower": 0.0,
                     "upper": 3.0, "grid": 300, "h": 0.1,
                     "quad_panels": 1024, "seed": 0},
        "modes": ("two-sided", "one-sided"),
    },
    "estimate": {
        "flags": ["in_path", "sigma", "mode", "lower", "upper", "h", "kernel",
                  "type", "grid_min", "grid_max", "grid_count", "out",
                  "config"],
        "required": ["in_path", "out"],
        "defaults": {"sigma": 0.2, "mode": "two_sided", "lower": 0.0,
                     "upper": 3.0, "h": 0.1, "kernel": "epanechnikov",
                     "type": "discrete", "grid_min": None, "grid_max": None,
                     "grid_count": 300},
        "modes": ("two-sided", "one-sided"),
    },
    "experiment": {
        "flags": ["case", "mode", "sigma", "n_list", "beta_list", "reps",
                  "grid", "type", "refine", "lower", "upper", "x0", "burn_in",
                  "seed", "threads", "out", "config"],
        "required": ["case", "out"],
        "defaults": {"mode": "both", "sigma": 0.2,
                     "n_list": (400, 900, 1600), "beta_list": (0.3, 0.2, 0.15),
                     "reps": 1000, "grid": 300, "type": "discrete",
                     "refine": 10, "lower": 0.0, "upper": 3.0, "x0": None,
                     "burn_in": 0, "seed": 0, "threads": None},
        "modes": ("two-sided", "one-sided", "both"),
    },
    "normality": {
        "flags": ["case", "x0", "n", "beta", "reps", "sigma", "mode", "type",
                  "refine", "lower", "upper", "burn_in", "epsilon",
                  "quad_panels", "seed", "threads", "out", "config"],
        "required": ["case", "x0", "n", "beta"],
        "defaults": {"reps": 500, "sigma": 0.2, "mode": "two_sided",
                     "type": "discrete", "refine": 10, "lower": 0.0,
                     "upper": 3.0, "burn_in": 0, "epsilon": 0.01,
                     "quad_panels": 1024, "seed": 0, "threads": None,
                     "out": None},
        "modes": ("two-sided", "one-sided"),
    },
}

_EXTRA = {
    "n": (int, "--n", "number of recorded steps (path length n+1)"),
    "delta": (float, "--delta", "time step (default n^(-2/3))"),
    "mode": (str, "--mode", "barrier mode (default per subcommand)"),
    "x0": (float, "--x0", "start state / evaluation point (default: midpoint,"
                          " or lower+1 one-sided)"),
    "burn_in": (int, "--burn-in", "discarded initial steps (default 0)"),
    "refine": (int, "--refine", "fine-grid subdivision per step"),
    "grid": (int, "--grid", "number of evaluation points (default 300)"),
    "h": (float, "--h", "kernel bandwidth (state units, default 0.1)"),
    "quad_panels": (int, "--quad-panels", "Simpson panels per integral"
                                          " (default 1024)"),
    "in_path": (str, "--in", "input path CSV (t,x,l_reg,r_reg)"),
    "kernel": (str, "--kernel", "kernel name (epanechnikov)"),
    "type": (str, "--type", "estimator type: discrete or continuous"),
    "grid_min": (float, "--grid-min", "grid lower edge (default: lower)"),
    "grid_max": (float, "--grid-max", "grid upper edge (default: upper)"),
    "grid_count": (int, "--grid-count", "number of grid points (default 300)"),
    "n_list": (_int_list, "--n-list", "comma list of n values"
                                      " (default 400,900,1600)"),
    "beta_list": (_float_list, "--beta-list", "comma list of bandwidth"
                                              " exponents (default 0.3,0.2,0.15)"),
    "reps": (int, "--reps", "Monte Carlo replications"),
    "beta": (float, "--beta", "bandwidth exponent, h = n^(-beta)"),
    "threads": (_threads, "--threads", "worker process cap (default: cpu"
                                       " count); never changes results"),
    "epsilon": (float, "--epsilon", "rate-condition epsilon in (0, 1/2)"
                                    " (default 0.01)"),
}


def _flag_spec(dest: str):
    return _COMMON.get(dest) or _EXTRA[dest]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refsde",
        description="Reflected-diffusion simulation and drift estimation.")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, spec in _SPECS.items():
        sp = subs.add_parser(name, help=f"{name} runner",
                             description=_help_line(name, spec))
        for dest in spec["flags"]:
            conv, flag, help_text = _flag_spec(dest)
            kwargs = {"dest": dest, "type": conv, "default": None,
                      "help": help_text}
            if dest == "mode":
                kwargs["choices"] = spec["modes"]
                kwargs["type"] = str
            sp.add_argument(flag, **kwargs)
    return parser


def _help_line(name: str, spec: dict) -> str:
    req = ", ".join("--" + d.replace("_", "-").replace("in-path", "in")
                    for d in spec["required"])
    return f"{name} subcommand; required: {req} (or via --config)"


def _read_config_file(path: str, known: set[str], error) -> dict:
    values = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            error(f"{path}:{lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "in":
            key = "in_path"
        if key not in known or key == "config":
            error(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        values[key] = val.strip()
    return values


def _merge(ns: argparse.Namespace, spec: dict, error) -> dict:
    params = {}
    known = set(spec["flags"])
    file_values = {}
    if getattr(ns, "config", None):
        file_values = _read_config_file(ns.config, known, error)
    for dest in spec["flags"]:
        if dest == "config":
            continue
        value = getattr(ns, dest, None)
        if value is None and dest in file_values:
            conv, flag, _ = _flag_spec(dest)
            try:
                value = conv(file_values[dest]) if dest != "mode" \
                    else file_values[dest]
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                error(f"config key {dest!r}: bad value {file_values[dest]!r}")
        if value is None:
            value = spec["defaults"].get(dest)
        params[dest] = value
    for dest in spec["required"]:
        if params.get(dest) is None:
            _, flag, _ = _flag_spec(dest)
            error(f"missing required flag {flag}")
    if "mode" in params:
        mode = _MODE_NAMES.get(params["mode"], params["mode"])
        if mode not in {_MODE_NAMES[m] for m in spec["modes"]}:
            error(f"mode {params['mode']!r} not allowed for this subcommand")
        params["mode"] = mode
    if "threads" in params and params["threads"] is None:
        params["threads"] = os.cpu_count() or 1
    return params


def _barrier(params: dict) -> BarrierConfig:
    if params["mode"] == "one_sided_lower":
        return BarrierConfig.one_sided(params["lower"])
    return BarrierConfig.two_sided(params["lower"], params["upper"])


def parse(argv=None) -> RunConfig:
    """Parse an argv list into a RunConfig.

    Usage problems (unknown flags or keys, missing required flags, values
    that do not convert to the flag's type) exit with code 2 via argparse.
    No value is range-checked here: `main` turns the ValueError of the
    library object that rejects it into exit code 2.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("a subcommand is required")
    spec = _SPECS[ns.subcommand]
    params = _merge(ns, spec, parser.error)
    return RunConfig(subcommand=ns.subcommand, params=params,
                     out=params.get("out"), seed=params.get("seed"))


def _write_guard(out_path, write_fn):
    """Run write_fn(out_path); on any failure remove the partial file."""
    try:
        write_fn(out_path)
    except BaseException:
        if isinstance(out_path, str) and os.path.exists(out_path):
            os.remove(out_path)
        raise


def _run_simulate(params: dict):
    delta = params["delta"]
    if delta is None:
        delta = delta_of_n(params["n"])
    cfg = SimConfig(drift=builtin_drift(params["case"]), sigma=params["sigma"],
                    barrier=_barrier(params), n_steps=params["n"],
                    delta=delta, x0=params["x0"], seed=params["seed"],
                    burn_in=params["burn_in"])
    path = simulate_fine(cfg, params["refine"])
    _write_guard(params["out"], lambda p: write_path_csv(path, p))
    return 1, format_seed(params["seed"])


def _run_density(params: dict):
    # kernel and grid first: a bad --h or --grid fails before the quadrature
    kern = epanechnikov(params["h"])
    grid = estimation_grid(params["lower"], params["upper"], params["grid"])
    dens = invariant_density(builtin_drift(params["case"]), params["sigma"],
                             _barrier(params),
                             quad_panels=params["quad_panels"])
    pi_vals = pi_eval(dens, grid)
    rows = []
    for x, pv in zip(grid, pi_vals):
        fv = f_eval(dens, kern, float(x))
        try:
            sv = sigma_eval(dens, kern, float(x))
        except UndefinedVarianceError:
            sv = None
        rows.append((float(x), float(pv), fv, sv))
    _write_guard(params["out"], lambda p: write_csv(
        p, params["seed"], "x,pi,f,sigma_asym", rows))
    return 1, format_seed(params["seed"])


def _run_estimate(params: dict):
    if params["kernel"] != "epanechnikov":
        raise ValueError(f"unknown kernel {params['kernel']!r}")
    if params["type"] not in ("discrete", "continuous"):
        raise ValueError(f"unknown estimator type {params['type']!r}")
    barrier = _barrier(params)
    lo = params["grid_min"] if params["grid_min"] is not None \
        else params["lower"]
    hi = params["grid_max"] if params["grid_max"] is not None \
        else params["upper"]
    grid = estimation_grid(lo, hi, params["grid_count"])
    kern = epanechnikov(params["h"])
    path = read_path_csv(params["in_path"], sigma=params["sigma"],
                         barrier=barrier)
    estimator = nw_continuous if params["type"] == "continuous" \
        else nw_discrete
    result = estimator(path, kern, grid)
    _write_guard(params["out"],
                 lambda p: write_estimate_csv(result, p, path.seed))
    return 1, format_seed(path.seed)


def _run_experiment(params: dict):
    plan = ExperimentPlan(case_id=params["case"], barrier_mode=params["mode"],
                          sigma=params["sigma"], n_list=params["n_list"],
                          beta_list=params["beta_list"],
                          n_replications=params["reps"],
                          grid_count=params["grid"],
                          estimator_type=params["type"],
                          base_seed=params["seed"], refine=params["refine"],
                          lower=params["lower"], upper=params["upper"],
                          x0=params["x0"], burn_in=params["burn_in"])
    summaries, failures = run_table(plan, threads=params["threads"])
    for fail in failures:
        print(f"refsde experiment: cell (case={fail.case_id} mode={fail.mode}"
              f" n={fail.n} beta={fail.beta}) failed: {fail.message}",
              file=sys.stderr)
    if not summaries:
        raise RuntimeError("every cell failed; no table to write")
    _write_guard(params["out"],
                 lambda p: write_summary_csv(summaries, p, plan.base_seed))
    return len(summaries), str(int(plan.base_seed))


def _run_normality(params: dict):
    report = normality_check(params["case"], params["x0"], params["n"],
                             params["beta"], params["reps"], params["seed"],
                             sigma=params["sigma"], mode=params["mode"],
                             estimator_type=params["type"],
                             refine=params["refine"], lower=params["lower"],
                             upper=params["upper"], burn_in=params["burn_in"],
                             epsilon=params["epsilon"],
                             quad_panels=params["quad_panels"],
                             threads=params["threads"])
    if params["out"] is None:
        write_normality_csv(report, sys.stdout, params["seed"])
    else:
        _write_guard(params["out"],
                     lambda p: write_normality_csv(report, p, params["seed"]))
    return 1, str(int(params["seed"]))


_DISPATCH = {
    "simulate": _run_simulate,
    "density": _run_density,
    "estimate": _run_estimate,
    "experiment": _run_experiment,
    "normality": _run_normality,
}


def main(args=None) -> int:
    """Entry point; accepts an argv list or an already parsed RunConfig.

    A ValueError from the runner is a rejected value: exit 2.  Any other
    exception is a runtime failure: exit 1.  Either way the message goes to
    stderr and no output file is left behind.
    """
    if isinstance(args, RunConfig):
        cfg = args
    else:
        try:
            cfg = parse(args)
        except SystemExit as exc:  # argparse signals usage errors/help this way
            return int(exc.code or 0)
    started = time.time()
    try:
        cells, seed_str = _DISPATCH[cfg.subcommand](cfg.params)
    except Exception as exc:
        print(f"refsde {cfg.subcommand}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    wall = time.time() - started
    print(f"refsde {cfg.subcommand}: cells={cells} wall={wall:.2f}s"
          f" seed={seed_str}", file=sys.stderr)
    return 0
