"""Command-line entry point: `refsde <subcommand> [flags]`.

Subcommands: simulate, density, estimate, experiment, normality.  Every run
writes one CSV whose first line is a `# seed=...` comment, making each output
traceable to its RNG stream; reruns with identical flags produce byte-identical
files, independently of `--threads`.

`--config FILE` reads a text file with one `key = value` per line and `#`
comments; each line is read as the flag `--key=value` placed before the
command line's flags, so the command line wins and argparse converts and
checks both alike.  Unknown config keys are usage errors.  Exit codes: 0
success, 1 runtime failure (partially written outputs are removed), 2 usage
error.  `parse` checks only the command shape (flags, keys, types, required
flags, the mode names, `--threads >= 1`).
Every other value is checked once, by the library object or function that
uses it; the runners build these before the simulation or quadrature starts,
and `main` reports their ValueError as a usage error too.

BLAS runs serially: if numpy has not loaded yet, this module sets
OPENBLAS_NUM_THREADS=1 for its process and the pool workers it forks,
overriding the caller's value.  `--threads` is the only parallelism, and the
quadrature's gemv sums do not depend on the host's CPU count.  `refsde`
loads its submodules lazily, so every route into the CLI reaches this line
first.  Once numpy has loaded, the variable no longer changes this
process's BLAS, so the module leaves it as it is: a library caller, and
every process it starts later, keeps their own BLAS setting.
"""
from __future__ import annotations

import os
import sys

if "numpy" not in sys.modules:  # before numpy loads; see above
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import time
from dataclasses import dataclass

from .density import (UndefinedVarianceError, f_eval, invariant_density,
                      pi_eval, sigma_eval)
from .estimate import delta_of_n, nw_discrete, write_estimate_csv
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


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return value


# dest -> (converter, help text).  The flag is --dest with dashes, except
# --in for in_path.
_FLAGS = {
    "case": (int, "drift case id: 1, 2 or 3"),
    "in_path": (str, "input path CSV (t,x,l_reg,r_reg)"),
    "n": (int, "number of recorded steps (path length n+1)"),
    "x0": (float, "start state / evaluation point (default: midpoint,"
                  " or lower+1 one-sided)"),
    "beta": (float, "bandwidth exponent, h = n^(-beta)"),
    "delta": (float, "time step (default: n^(-2/3))"),
    "sigma": (float, "diffusion coefficient (state units)"),
    "mode": (str, "barrier mode"),
    "lower": (float, "lower barrier position"),
    "upper": (float, "upper barrier / grid upper edge"),
    "burn_in": (int, "discarded initial steps"),
    "refine": (int, "fine-grid subdivision per step"),
    "grid": (int, "number of evaluation points"),
    "h": (float, "kernel bandwidth (state units)"),
    "quad_panels": (int, "Simpson panels per integral"),
    "type": (str, "estimator type: discrete or continuous"),
    "grid_min": (float, "grid lower edge (default: lower)"),
    "grid_max": (float, "grid upper edge (default: upper)"),
    "grid_count": (int, "number of grid points"),
    "n_list": (_int_list, "comma list of n values"),
    "beta_list": (_float_list, "comma list of bandwidth exponents"),
    "reps": (int, "Monte Carlo replications"),
    "epsilon": (float, "rate-condition epsilon in (0, 1/2)"),
    "seed": (int, "RNG stream seed"),
    "threads": (_threads, "worker process cap, the CPU count by default;"
                          " never changes results"),
    "out": (str, "output CSV path"),
}

_REQUIRED = object()
_TWO_MODES = ("two-sided", "one-sided")
_DOMAIN = {"mode": _TWO_MODES, "lower": 0.0, "upper": 3.0}
_MODEL = {"sigma": 0.2, **_DOMAIN}

# subcommand -> {dest: default, _REQUIRED, or a tuple of choices whose first is
# the default}.  None means "derived later" or "optional"; a string default
# goes through the flag's converter like a command-line value.
_SPECS: dict[str, dict] = {
    "simulate": {"case": _REQUIRED, "n": _REQUIRED, "delta": None, **_MODEL,
                 "x0": None, "burn_in": 0, "refine": 1, "seed": 0,
                 "out": _REQUIRED},
    "density": {"case": _REQUIRED, **_MODEL, "grid": 300, "h": 0.1,
                "quad_panels": 1024, "seed": 0, "out": _REQUIRED},
    "estimate": {"in_path": _REQUIRED, **_DOMAIN, "h": 0.1, "grid_min": None,
                 "grid_max": None, "grid_count": 300, "out": _REQUIRED},
    "experiment": {"case": _REQUIRED, **_MODEL,
                   "mode": ("both",) + _TWO_MODES, "n_list": "400,900,1600",
                   "beta_list": "0.3,0.2,0.15", "reps": 1000, "grid": 300,
                   "type": "discrete", "refine": 10, "x0": None, "burn_in": 0,
                   "seed": 0, "threads": os.cpu_count() or 1,
                   "out": _REQUIRED},
    "normality": {"case": _REQUIRED, "x0": _REQUIRED, "n": _REQUIRED,
                  "beta": _REQUIRED, "reps": 500, **_MODEL,
                  "type": "discrete", "refine": 10, "burn_in": 0,
                  "epsilon": 0.01, "quad_panels": 1024, "seed": 0,
                  "threads": os.cpu_count() or 1, "out": None},
}


def _flag(dest: str) -> str:
    return "--in" if dest == "in_path" else "--" + dest.replace("_", "-")


def _build_parser():
    """The parser and its subcommand parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="refsde",
        description="Reflected-diffusion simulation and drift estimation.")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand",
                                 required=True)
    by_name = {}
    for name, spec in _SPECS.items():
        sp = by_name[name] = subs.add_parser(name, help=f"{name} runner")
        for dest, default in spec.items():
            conv, help_text = _FLAGS[dest]
            kwargs = {"dest": dest, "type": conv, "help": help_text}
            if default is _REQUIRED:
                kwargs["required"], default = True, None
            elif isinstance(default, tuple):
                kwargs["choices"], default = default, default[0]
            if default is not None:
                kwargs["help"] += " (default: %(default)s)"
            sp.add_argument(_flag(dest), default=default, **kwargs)
        sp.add_argument("--config", help="key = value file read as flags"
                        " placed before the command line's")
    return parser, by_name


def _config_tokens(path: str, known: set[str], error) -> list[str]:
    """The `--key=value` tokens of a config file, in file order."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        error(f"cannot read config file: {exc}")
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            error(f"{path}:{lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in known:
            error(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        tokens.append(f"{flag}={val.strip()}")
    return tokens


def _barrier(params: dict) -> BarrierConfig:
    if params["mode"] == "one_sided_lower":
        return BarrierConfig.one_sided(params["lower"])
    return BarrierConfig.two_sided(params["lower"], params["upper"])


def parse(argv=None) -> RunConfig:
    """Parse an argv list into a RunConfig.

    Usage problems (unknown flags or keys, missing required flags, values
    that do not convert to the flag's type, names outside a flag's choices)
    exit with code 2 via argparse.  No value is range-checked here:
    `main` turns the ValueError of the library object that rejects it into
    exit code 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _build_parser()
    pre = argparse.ArgumentParser(prog="refsde", add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    # the subcommand comes first: the top-level parser takes no values
    if config is not None and argv and argv[0] in subs:
        known = {_flag(dest) for dest in _SPECS[argv[0]]}
        argv[1:1] = _config_tokens(config, known, subs[argv[0]].error)
    ns = parser.parse_args(argv)
    params = {dest: getattr(ns, dest) for dest in _SPECS[ns.subcommand]}
    params["mode"] = _MODE_NAMES[params["mode"]]
    return RunConfig(subcommand=ns.subcommand, params=params)


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
            sv = sigma_eval(dens, fv)
        except UndefinedVarianceError:
            sv = None
        rows.append((float(x), float(pv), fv, sv))
    _write_guard(params["out"], lambda p: write_csv(
        p, params["seed"], "x,pi,f,sigma_asym", rows))
    return 1, format_seed(params["seed"])


def _run_estimate(params: dict):
    barrier = _barrier(params)
    lo = params["grid_min"] if params["grid_min"] is not None \
        else params["lower"]
    hi = params["grid_max"] if params["grid_max"] is not None \
        else params["upper"]
    grid = estimation_grid(lo, hi, params["grid_count"])
    kern = epanechnikov(params["h"])
    path = read_path_csv(params["in_path"], barrier=barrier)
    result = nw_discrete(path, kern, grid)
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

    Once the command is parsed, and before it runs, `main` calls
    `gc.freeze()`: every object alive at that moment (numpy's and refsde's
    imported module graph, mostly) moves to the collector's permanent
    generation.  The collections at interpreter exit then skip that graph,
    and forked pool workers inherit a frozen heap.  For in-process callers,
    such as tests, this means that cyclic garbage that exists before a
    `main` call is no longer collected after it; it is freed when the
    process ends.  The collector stays enabled, and everything allocated
    after the freeze is collected as before.
    """
    if isinstance(args, RunConfig):
        cfg = args
    else:
        try:
            cfg = parse(args)
        except SystemExit as exc:  # argparse signals usage errors/help this way
            return int(exc.code or 0)
    gc.freeze()
    started = time.perf_counter()
    try:
        cells, seed_str = _DISPATCH[cfg.subcommand](cfg.params)
    except Exception as exc:
        print(f"refsde {cfg.subcommand}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    wall = time.perf_counter() - started
    print(f"refsde {cfg.subcommand}: cells={cells} wall={wall:.2f}s"
          f" seed={seed_str}", file=sys.stderr)
    return 0
