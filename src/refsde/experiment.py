"""Monte Carlo harness: RASE replication cells, tables, curves, and a
normality self-check for the drift estimators.

A cell is one (case, barrier mode, n, beta) combination.  Every replication
draws from its own counter-based RNG stream keyed by

    (base_seed, case, mode index, n, round(beta*1e6), r),   r = 1..N,

so results are bit-identical no matter how replications are ordered or how
many worker processes execute them.  Slot r=0 is reserved for single-path
curves and never collides with a replication.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .density import f_eval, invariant_density, sigma_eval
from .estimate import (EstimateResult, bandwidth, delta_of_n, nw_continuous,
                       nw_discrete)
from .model import (BarrierConfig, DriftSpec, Schedule, builtin_drift,
                    epanechnikov, validate_schedule)
from .simulate import SimConfig, simulate_fine, simulate_path, write_csv

__all__ = [
    "CellFailure",
    "ExperimentPlan",
    "McSummary",
    "NoDataError",
    "NormalityReport",
    "ReplicationError",
    "curve",
    "estimation_grid",
    "normality_check",
    "rase",
    "replication_seed",
    "run_cell",
    "run_table",
    "write_curve_csv",
    "write_normality_csv",
    "write_summary_csv",
]

_MODE_INDEX = {"two_sided": 0, "one_sided_lower": 1}


class NoDataError(RuntimeError):
    """Every grid point of an estimate was undefined (no kernel mass)."""


class ReplicationError(RuntimeError):
    """A simulation or estimation failure inside one replication of a cell."""


def _beta_key(beta: float) -> int:
    return int(round(beta * 1e6))


def replication_seed(base_seed: int, case_id: int, mode: str, n: int,
                     beta: float, r: int) -> tuple[int, ...]:
    """Stream key for replication r of a cell (r=0 is the curve slot)."""
    return (int(base_seed), int(case_id), _MODE_INDEX[mode], int(n),
            _beta_key(beta), int(r))


@dataclass(frozen=True)
class ExperimentPlan:
    """Configuration shared by all cells of a table run.

    ``barrier_mode`` is a concrete mode or "both", which run_table expands
    into two_sided plus one_sided_lower.  ``estimator_type`` selects the
    observation-grid estimator ("discrete") or the fine-grid one
    ("continuous", step delta/refine).  ``x0 = None`` picks the simulator
    default start; a given x0 must lie in the domain of every mode run.
    One-sided cells still estimate on [lower, upper].
    """

    case_id: int
    barrier_mode: str = "both"
    sigma: float = 0.2
    n_list: tuple[int, ...] = (400, 900, 1600)
    beta_list: tuple[float, ...] = (0.3, 0.2, 0.15)
    n_replications: int = 1000
    grid_count: int = 300
    estimator_type: str = "discrete"
    base_seed: int = 0
    refine: int = 10
    lower: float = 0.0
    upper: float = 3.0
    x0: float | None = None
    burn_in: int = 0

    def __post_init__(self) -> None:
        builtin_drift(self.case_id)  # rejects unknown cases
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "beta_list",
                           tuple(float(b) for b in self.beta_list))
        if self.barrier_mode not in ("two_sided", "one_sided_lower", "both"):
            raise ValueError(f"unknown barrier_mode {self.barrier_mode!r}")
        if self.estimator_type not in ("discrete", "continuous"):
            raise ValueError(f"unknown estimator_type {self.estimator_type!r}")
        if self.n_replications <= 0 or self.grid_count <= 0 or self.refine < 1:
            raise ValueError("n_replications, grid_count and refine must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if not self.n_list or min(self.n_list) < 2:
            raise ValueError("n_list entries must be >= 2")
        if not self.beta_list or not all(0.0 < b < 1.0 for b in self.beta_list):
            raise ValueError("beta_list entries must lie in (0, 1)")
        if not 0.0 <= self.lower < self.upper:
            raise ValueError("need 0 <= lower < upper")
        if self.x0 is not None:
            modes = _MODE_INDEX if self.barrier_mode == "both" \
                else (self.barrier_mode,)
            if not all(self.barrier_for(m).contains(self.x0) for m in modes):
                raise ValueError("x0 must lie in the barrier domain")

    def barrier_for(self, mode: str) -> BarrierConfig:
        if mode == "two_sided":
            return BarrierConfig.two_sided(self.lower, self.upper)
        if mode == "one_sided_lower":
            return BarrierConfig.one_sided(self.lower)
        raise ValueError(f"not a concrete barrier mode: {mode!r}")


@dataclass(frozen=True)
class McSummary:
    """Replication statistics of one cell's RASE sample."""

    case_id: int
    mode: str
    n: int
    beta: float
    h: float
    delta: float
    rase_mean: float
    rase_std: float
    rase_median: float
    excluded_points_mean: float
    n_replications: int

    def __post_init__(self) -> None:
        ok = (self.rase_mean >= 0.0 and self.rase_std >= 0.0
              and self.rase_median >= 0.0 and self.excluded_points_mean >= 0.0)
        if not ok:
            raise ValueError("RASE statistics must be nonnegative")
        if self.n_replications <= 0:
            raise ValueError("n_replications must be positive")

    @property
    def rase_stderr(self) -> float:
        """Standard error of rase_mean: sample std over sqrt(N)."""
        return self.rase_std / math.sqrt(self.n_replications)


@dataclass(frozen=True)
class CellFailure:
    """Record of a cell that raised; run_table collects these and moves on."""

    case_id: int
    mode: str
    n: int
    beta: float
    message: str


@dataclass(frozen=True)
class NormalityReport:
    """Moments and KS distance of the standardized point-estimate sample."""

    case_id: int
    x0: float
    n: int
    beta: float
    mean_z: float
    var_z: float
    ks_stat: float
    dropped: int
    n_replications: int


def estimation_grid(lower: float, upper: float, count: int) -> np.ndarray:
    """count midpoints of the uniform partition of [lower, upper]."""
    if count <= 0:
        raise ValueError("count must be positive")
    if not upper > lower:
        raise ValueError("need lower < upper")
    return lower + (np.arange(count) + 0.5) * (upper - lower) / count


def rase(est: EstimateResult, truth: DriftSpec) -> float:
    """Root average squared error over the defined grid points.

    The average divides by the defined-point count, not the grid size, so
    excluded points neither zero terms nor dilute the error.
    """
    defined = ~est.undefined_mask
    if not defined.any():
        raise NoDataError("estimate undefined at every grid point")
    err = est.values[defined] - truth(est.grid[defined])
    return math.sqrt(float(np.mean(err * err)))


def _one_estimate(plan: ExperimentPlan, mode: str, n: int, beta: float,
                  seed, grid) -> EstimateResult:
    drift = builtin_drift(plan.case_id)
    cfg = SimConfig(drift=drift, sigma=plan.sigma,
                    barrier=plan.barrier_for(mode), n_steps=n,
                    delta=delta_of_n(n), x0=plan.x0, seed=seed,
                    burn_in=plan.burn_in)
    k = epanechnikov(bandwidth(n, beta))
    if plan.estimator_type == "continuous":
        return nw_continuous(simulate_fine(cfg, plan.refine), k, grid)
    return nw_discrete(simulate_path(cfg), k, grid)


def _cell_worker(task):
    plan, mode, n, beta, r = task
    grid = estimation_grid(plan.lower, plan.upper, plan.grid_count)
    seed = replication_seed(plan.base_seed, plan.case_id, mode, n, beta, r)
    est = _one_estimate(plan, mode, n, beta, seed, grid)
    return rase(est, builtin_drift(plan.case_id)), int(est.undefined_mask.sum())


def _point_worker(task):
    plan, mode, n, beta, x0, r = task
    seed = replication_seed(plan.base_seed, plan.case_id, mode, n, beta, r)
    est = _one_estimate(plan, mode, n, beta, seed, np.array([float(x0)]))
    return float(est.values[0])


def _run_task(worker, task):
    try:
        return worker(task)
    except Exception as exc:
        return exc


def _map_replications(worker, tasks, threads):
    """Evaluate tasks in submission order, serially or in one worker pool.

    Tasks hold only picklable primitives (plans, numbers, strings), and each
    carries its own stream key, so the partition into workers cannot change
    any result.  A task that raises does not stop the others: its slot holds
    the exception in place of a result (see _checked).  One call builds at
    most one pool, so a command sends all its replications through one call;
    a worker process that dies raises BrokenProcessPool and ends the call.
    """
    call = partial(_run_task, worker)
    if threads is None or threads <= 1 or len(tasks) <= 1:
        return list(map(call, tasks))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(call, tasks,
                             chunksize=max(1, len(tasks) // (4 * threads))))


def _checked(results):
    """results, or ReplicationError for the first slot that holds a failure."""
    for r, res in enumerate(results, 1):
        if isinstance(res, Exception):
            raise ReplicationError(
                f"replication {r}: {type(res).__name__}: {res}") from res
    return results


def _summary(plan: ExperimentPlan, mode: str, n: int, beta: float,
             results) -> McSummary:
    """One cell's McSummary from its (rase, excluded) replication results."""
    results = _checked(results)
    rases = np.array([v for v, _ in results])
    excluded = np.array([e for _, e in results], dtype=float)
    std = float(np.std(rases, ddof=1)) if rases.size > 1 else 0.0
    return McSummary(case_id=plan.case_id, mode=mode, n=int(n),
                     beta=float(beta), h=bandwidth(n, beta),
                     delta=delta_of_n(n), rase_mean=float(rases.mean()),
                     rase_std=std, rase_median=float(np.median(rases)),
                     excluded_points_mean=float(excluded.mean()),
                     n_replications=plan.n_replications)


def _cell_tasks(plan: ExperimentPlan, mode: str, n: int, beta: float):
    return [(plan, mode, int(n), float(beta), r)
            for r in range(1, plan.n_replications + 1)]


def run_cell(plan: ExperimentPlan, n: int, beta: float, *,
             mode: str | None = None, threads: int | None = None) -> McSummary:
    """Simulate and estimate N replications of one cell; summarize the RASEs.

    Delta follows the n^(-2/3) schedule and h = n^(-beta).  ``mode=None``
    uses plan.barrier_mode, which must then be concrete.  The summary is a
    symmetric function of the replications, so it is invariant under any
    reordering; determinism is inherited from the per-replication streams.
    """
    cell_mode = plan.barrier_mode if mode is None else mode
    if cell_mode not in _MODE_INDEX:
        raise ValueError(f"run_cell needs a concrete barrier mode, got {cell_mode!r}")
    bandwidth(n, beta)  # rejects a bad n or beta before any replication runs
    tasks = _cell_tasks(plan, cell_mode, n, beta)
    return _summary(plan, cell_mode, n, beta,
                    _map_replications(_cell_worker, tasks, threads))


def run_table(plan: ExperimentPlan, *, threads: int | None = None):
    """Every cell of the plan: n_list x beta_list x barrier modes.

    Returns (summaries, failures).  Every replication of every cell goes
    through one _map_replications call, so the worker pool is built once per
    table.  A cell whose replications hold a failure, or whose summary
    raises, becomes a CellFailure entry; the other cells are still reported.
    """
    if plan.barrier_mode == "both":
        modes = ("two_sided", "one_sided_lower")
    else:
        modes = (plan.barrier_mode,)
    cells = [(n, beta, m) for n in plan.n_list for beta in plan.beta_list
             for m in modes]
    tasks = [t for n, beta, m in cells for t in _cell_tasks(plan, m, n, beta)]
    results = _map_replications(_cell_worker, tasks, threads)
    reps = plan.n_replications
    summaries: list[McSummary] = []
    failures: list[CellFailure] = []
    for i, (n, beta, cell_mode) in enumerate(cells):
        try:
            summaries.append(_summary(plan, cell_mode, n, beta,
                                      results[i * reps:(i + 1) * reps]))
        except Exception as exc:
            failures.append(CellFailure(plan.case_id, cell_mode, int(n),
                                        float(beta),
                                        f"{type(exc).__name__}: {exc}"))
    return summaries, failures


def curve(plan: ExperimentPlan, n: int, beta: float, seed: int):
    """One replication's estimate next to the truth on the full grid.

    Returns rows (x, estimate-or-None, truth).  Draws come from the r=0
    stream slot under the given seed, so a curve never shares its driver
    with any run_cell replication.
    """
    cell_mode = plan.barrier_mode
    if cell_mode not in _MODE_INDEX:
        raise ValueError(f"curve needs a concrete barrier mode, got {cell_mode!r}")
    grid = estimation_grid(plan.lower, plan.upper, plan.grid_count)
    key = replication_seed(seed, plan.case_id, cell_mode, n, beta, 0)
    est = _one_estimate(plan, cell_mode, int(n), float(beta), key, grid)
    truth = builtin_drift(plan.case_id)(grid)
    return [(float(x), None if bad else float(v), float(t))
            for x, v, t, bad in zip(grid, est.values, truth, est.undefined_mask)]


def normality_check(case_id: int, x0: float, n: int, beta: float,
                    n_replications: int, base_seed: int, *,
                    sigma: float = 0.2, mode: str = "two_sided",
                    estimator_type: str = "discrete", refine: int = 10,
                    lower: float = 0.0, upper: float = 3.0, burn_in: int = 0,
                    epsilon: float = 0.01, quad_panels: int = 1024,
                    threads: int | None = None) -> NormalityReport:
    """Standardize N point estimates at x0 and compare them with N(0, 1).

    z_r = sqrt(n h Delta) * (b_hat_r(x0) - b(x0)) / sqrt(Sigma(x0)), with
    Sigma = sigma^2 / F taken from the closed-form invariant density.  For
    the continuous-type estimator the sqrt(T h) scaling with T = n*Delta is
    the same number, so one formula covers both.  Replications whose
    estimate is undefined at x0 are dropped and counted.  Raises ValueError
    when x0 sits within one bandwidth of a barrier or the (n, Delta, h)
    schedule fails a required rate direction.
    """
    h = bandwidth(n, beta)
    delta = delta_of_n(n)
    if mode not in _MODE_INDEX:
        raise ValueError(f"unknown barrier mode {mode!r}")
    interior = (x0 - lower) > h and (mode != "two_sided" or (upper - x0) > h)
    if not interior:
        raise ValueError("x0 must be more than one bandwidth away from each barrier")
    sched = Schedule(n=int(n), delta=delta, h=h, epsilon=epsilon, mode="normality")
    warnings = validate_schedule(sched, "discrete_normality")
    if warnings:
        raise ValueError("schedule fails rate conditions: " + "; ".join(warnings))
    plan = ExperimentPlan(case_id=case_id, barrier_mode=mode, sigma=sigma,
                          n_replications=n_replications,
                          estimator_type=estimator_type, base_seed=base_seed,
                          refine=refine, lower=lower, upper=upper,
                          burn_in=burn_in)
    drift = builtin_drift(case_id)
    dens = invariant_density(drift, sigma, plan.barrier_for(mode),
                             quad_panels=quad_panels)
    sig2 = sigma_eval(dens, f_eval(dens, epanechnikov(h), float(x0)))
    scale = math.sqrt(n * h * delta) / math.sqrt(sig2)
    tasks = [(plan, mode, int(n), float(beta), float(x0), r)
             for r in range(1, n_replications + 1)]
    estimates = np.array(_checked(
        _map_replications(_point_worker, tasks, threads)))
    kept = estimates[np.isfinite(estimates)]
    dropped = int(estimates.size - kept.size)
    if kept.size == 0:
        raise NoDataError("estimate undefined at x0 in every replication")
    z = scale * (kept - float(drift(x0)))
    var_z = float(np.var(z, ddof=1)) if kept.size > 1 else 0.0
    # imported here: scipy.stats costs every other command about 1 s and 70 MB
    from scipy import stats as sps
    ks = float(sps.kstest(z, "norm").statistic)
    return NormalityReport(case_id=int(case_id), x0=float(x0), n=int(n),
                           beta=float(beta), mean_z=float(z.mean()),
                           var_z=var_z, ks_stat=ks, dropped=dropped,
                           n_replications=int(n_replications))


def write_summary_csv(summaries: Sequence[McSummary], out_path,
                      base_seed: int) -> None:
    """Table CSV, one row per cell, preceded by a `# seed=` comment."""
    write_csv(out_path, int(base_seed),
              "case,mode,n,beta,h,delta,rase_mean,rase_std,rase_median,"
              "excluded_mean,n_reps",
              ((s.case_id, s.mode, s.n, s.beta, s.h, s.delta, s.rase_mean,
                s.rase_std, s.rase_median, s.excluded_points_mean,
                s.n_replications) for s in summaries))


def write_normality_csv(report: NormalityReport, out_path,
                        base_seed: int) -> None:
    """Normality report CSV (single data row); out_path may be a stream."""
    r = report
    write_csv(out_path, int(base_seed),
              "case,x0,n,beta,mean_z,var_z,ks_stat,dropped",
              [(r.case_id, r.x0, r.n, r.beta, r.mean_z, r.var_z, r.ks_stat,
                r.dropped)])


def write_curve_csv(rows, out_path, seed: int) -> None:
    """Estimator-vs-truth CSV `x,estimate,truth`; undefined estimates empty."""
    write_csv(out_path, int(seed), "x,estimate,truth", rows)
