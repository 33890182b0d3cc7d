"""Monte Carlo harness: RASE replication cells, tables, and a normality
self-check for the drift estimators.

A cell is one (case, barrier mode, n, beta) combination.  Every replication
draws from its own counter-based RNG stream keyed by

    (base_seed, case, mode index, n, round(beta*1e6), r),   r = 1..N,

so results are bit-identical no matter how replications are ordered,
batched or split across worker processes.  Slot r=0 is reserved: no
replication draws from it.

Every path of one (barrier mode, n) group shares one path config
(`_path_config`), so a batch of replications is that config and its
replications' stream keys: the simulator steps one path of the config per
key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .density import f_eval, invariant_density, sigma_eval
from .estimate import (EstimateResult, _check_estimate, _check_inputs,
                       _check_rates, _nw_records, bandwidth, delta_of_n)
from .model import (BarrierConfig, DriftSpec, _check_path, builtin_drift,
                    epanechnikov)
from .simulate import (_RECORD_BUDGET, SimConfig, _simulate, fine_config,
                       write_csv)
# unused here; bench/traced.py wraps these four names on this module
from .estimate import nw_continuous, nw_discrete  # noqa: F401
from .simulate import simulate_fine, simulate_path  # noqa: F401

__all__ = [
    "CellFailure",
    "ExperimentPlan",
    "McSummary",
    "NoDataError",
    "NormalityReport",
    "ReplicationError",
    "estimation_grid",
    "normality_check",
    "rase",
    "replication_seed",
    "run_cell",
    "run_table",
    "write_normality_csv",
    "write_summary_csv",
]

_MODE_INDEX = {"two_sided": 0, "one_sided_lower": 1}


class NoDataError(RuntimeError):
    """Every grid point of an estimate was undefined (no kernel mass)."""


class ReplicationError(RuntimeError):
    """A simulation or estimation failure inside one replication of a cell."""


def replication_seed(base_seed: int, case_id: int, mode: str, n: int,
                     beta: float, r: int) -> tuple[int, ...]:
    """Stream key for replication r = 1..N of a cell (r=0 is reserved).

    Raises ValueError for a mode that is not concrete ("both" included) and
    for a beta whose key round(beta * 1e6) is not a finite number.
    """
    if mode not in _MODE_INDEX:
        raise ValueError(f"not a concrete barrier mode: {mode!r}")
    beta_key = beta * 1e6
    if not math.isfinite(beta_key):
        raise ValueError(f"stream key needs a finite beta * 1e6: {beta!r}")
    return (int(base_seed), int(case_id), _MODE_INDEX[mode], int(n),
            int(round(beta_key)), int(r))


@dataclass(frozen=True)
class ExperimentPlan:
    """Configuration shared by all cells of a table run.

    ``barrier_mode`` is a concrete mode or "both", which ``modes`` expands
    into two_sided plus one_sided_lower.  ``estimator_type`` selects the
    observation-grid estimator ("discrete") or the fine-grid one
    ("continuous", step delta/refine).  ``x0 = None`` picks the simulator
    default start; a given x0 must lie in the domain of every mode run.
    One-sided cells still estimate on [lower, upper].  Building a plan
    builds the estimation grid and each cell's path config and bandwidth,
    so a value those reject fails before any replication runs.
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
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "beta_list",
                           tuple(float(b) for b in self.beta_list))
        if self.estimator_type not in ("discrete", "continuous"):
            raise ValueError(f"unknown estimator_type {self.estimator_type!r}")
        if self.n_replications <= 0:
            raise ValueError("n_replications must be positive")
        if not self.n_list or not self.beta_list:
            raise ValueError("n_list and beta_list must be nonempty")
        # every other value is checked by the objects a replication builds
        estimation_grid(self.lower, self.upper, self.grid_count)
        for mode in self.modes:
            for n in self.n_list:
                for beta in self.beta_list:
                    _check_cell(self, mode, n, beta)

    @property
    def modes(self) -> tuple[str, ...]:
        """The barrier modes the plan runs: "both" is two_sided and
        one_sided_lower."""
        if self.barrier_mode == "both":
            return tuple(_MODE_INDEX)
        return (self.barrier_mode,)

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
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("grid edges must be finite")
    if not upper > lower:
        raise ValueError("need lower < upper")
    with np.errstate(over="ignore"):
        grid = lower + (np.arange(count) + 0.5) * (upper - lower) / count
    if not np.isfinite(grid).all():
        raise ValueError("grid points must be finite: the partition of "
                         f"[{lower!r}, {upper!r}] into {count} cells overflows")
    return grid


def rase(est: EstimateResult, truth: DriftSpec) -> float:
    """Root average squared error over the defined grid points.

    The average divides by the defined-point count, not the grid size, so
    excluded points neither zero terms nor dilute the error.
    """
    return _rase(est.values, ~est.undefined_mask, truth(est.grid))


def _rase(values, defined, truth) -> float:
    """rase of the estimate values at the defined points, against the
    truth values on the same grid."""
    if not defined.any():
        raise NoDataError("estimate undefined at every grid point")
    err = values[defined] - truth[defined]
    return math.sqrt(float(np.mean(err * err)))


def _path_config(plan: ExperimentPlan, mode: str, n: int) -> SimConfig:
    """The config of every path of a (mode, n) group, seed aside: the
    observation grid's, or the fine grid's for the continuous estimator.
    The fine config is built for either estimator, so plan.refine is
    checked for both."""
    cfg = SimConfig(drift=builtin_drift(plan.case_id), sigma=plan.sigma,
                    barrier=plan.barrier_for(mode), n_steps=n,
                    delta=delta_of_n(n), x0=plan.x0, burn_in=plan.burn_in)
    fine = fine_config(cfg, plan.refine)
    return fine if plan.estimator_type == "continuous" else cfg


def _check_cell(plan: ExperimentPlan, mode: str, n: int, beta: float) -> None:
    """Build the objects a replication of the cell uses, so that a value
    they reject fails here, before any replication runs: the bandwidth,
    the group's path config at the plan's refinement, and that config
    under the first replication's stream key, which holds the base seed."""
    bandwidth(n, beta)
    key = replication_seed(plan.base_seed, plan.case_id, mode, n, beta, 1)
    replace(_path_config(plan, mode, n), seed=key)


# A replication task is (plan, mode, n, beta, r).  _batch_worker estimates
# each task's path on the grid of its _map_replications call; these two
# hooks turn the estimate values there, and the truth there, into the
# replication's result.

def _cell_score(values, truth):
    """(rase, excluded grid points) of one cell replication."""
    defined = np.isfinite(values)
    return (_rase(values, defined, truth),
            int(values.size - np.count_nonzero(defined)))


def _point_score(values, truth):
    """The estimate at x0 of one normality replication (NaN if undefined)."""
    return float(values[0])


def _batches(tasks) -> list:
    """The units of work of _map_replications: (path config, indices of
    tasks) pairs.

    Tasks of the same plan, mode and n form a group, taken in task order,
    whose paths all have the group's `_path_config`.  A group is cut into
    the fewest equal batches that each hold at most the simulator's
    `_RECORD_BUDGET` path-steps, which also lets a group of long paths
    reach the width at which `_simulate` steps it with the vector kernel.
    """
    groups: dict = {}
    for i, task in enumerate(tasks):
        groups.setdefault(task[:3], []).append(i)
    batches = []
    for (plan, mode, n), members in groups.items():
        cfg = _path_config(plan, mode, n)
        per = max(1, _RECORD_BUDGET // (cfg.burn_in + cfg.n_steps))
        count = -(-len(members) // per)
        batches.extend((cfg, members[b * len(members) // count:
                                     (b + 1) * len(members) // count])
                       for b in range(count))
    return batches


def _batch_worker(job):
    """Simulate one batch of replications and score each on its column of
    the batch's arrays, never wrapped in a SamplePath or an EstimateResult.

    A job is (score, grid, cfg, tasks): the batch's path config and its
    tasks, whose stream keys `replication_seed` builds, one column each.
    Once per batch: the grid's checks, the truth on the grid and one kernel
    per beta.  Per column: the regulator increments, SamplePath's checks on
    them (`_check_path`), the one NW route (`_nw_records`), EstimateResult's
    check (`_check_estimate`), and score(values, truth).  Returns one
    result per task, or the exception that task raised: the same as
    estimating the task's path from simulate_path (or simulate_fine) with
    nw_discrete (or nw_continuous) and scoring that.
    """
    score, grid, cfg, tasks = job
    try:
        x, l_reg, r_reg, errors = _simulate(cfg, [
            replication_seed(p.base_seed, p.case_id, mode, n, beta, r)
            for p, mode, n, beta, r in tasks])
    except Exception as exc:
        return [exc] * len(tasks)
    n = tasks[0][2]
    try:
        grid = _check_inputs(x.shape[0], cfg.barrier, grid)
        truth = cfg.drift(grid)
        kernels = {b: epanechnikov(bandwidth(n, b))
                   for b in {t[3] for t in tasks}}
    except Exception as exc:
        return [errors.get(j, exc) for j in range(len(tasks))]
    return [errors[j] if j in errors else
            _run_task(_score_column, score, kernels[task[3]], cfg, grid, truth,
                      x[:, j], l_reg[:, j], r_reg[:, j])
            for j, task in enumerate(tasks)]


def _score_column(score, k, cfg, grid, truth, x, l_reg, r_reg):
    """score of one task's estimate from its column of the batch arrays."""
    # one copy of the strided column, read by every pass below
    x = np.ascontiguousarray(x)
    dl, dr = np.diff(l_reg), np.diff(r_reg)
    _check_path(x, dl, dr, cfg.barrier)
    values, f_hat = _nw_records(x, dl, dr, cfg.barrier, cfg.delta, k, grid)
    _check_estimate(f_hat)
    return score(values, truth)


def _run_task(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _process_pool(workers):
    """A process pool of ``workers`` worker processes.

    concurrent.futures is imported here rather than with this module, so a
    command that builds no pool does not load it, nor the multiprocessing,
    socket and logging modules it pulls in (about 8 ms per process on a
    2-vCPU VM).
    """
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _map_replications(score, tasks, grid, threads):
    """Results of the replication tasks, in task order, each computed by
    score(values, truth) from the estimate values of the task's simulated
    path on ``grid`` and the truth there (see _batch_worker).

    The unit of work is a batch (see _batches): one path config and the
    stream keys of its tasks, stepped together by one `_simulate` call.
    Batches go largest first to the workers, serially or in one pool, one
    batch at a time: a batch already holds up to `_RECORD_BUDGET`
    path-steps, and chunks of several batches only leave one worker a
    longer tail (criterion 5's continuous half, 63 batches of 2**17
    path-steps on 2 workers, took 6.4 s in chunks of seven against 6.0 s
    one at a time; medians of five runs on a 2-vCPU VM).  A job holds only
    picklable values (the path config, plans, numbers, strings), each task
    names its own stream key, and a column's estimate reads only its own
    column, so neither the batching nor the partition into workers can
    change any result.  A task that raises does
    not stop the others: its slot holds the exception in place of a result
    (see _checked).  One call builds at most one pool, so a command sends
    all its replications through one call; a worker process that dies
    raises BrokenProcessPool and ends the call.  The pool has no more
    workers than there are batches: under the fork start method every
    worker is forked at the first submit, and a spare one would only sit
    idle.
    """
    batches = sorted(_batches(tasks), key=lambda b: -len(b[1]) * (
        b[0].burn_in + b[0].n_steps))
    jobs = [(score, grid, cfg, [tasks[i] for i in b]) for cfg, b in batches]
    if threads is None or threads <= 1 or len(jobs) <= 1:
        done = list(map(_batch_worker, jobs))
    else:
        with _process_pool(min(threads, len(jobs))) as pool:
            done = list(pool.map(_batch_worker, jobs))
    results = [None] * len(tasks)
    for (_, batch), values in zip(batches, done):
        for i, value in zip(batch, values):
            results[i] = value
    return results


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
                     rase_std=std, rase_median=_median(rases.tolist()),
                     excluded_points_mean=float(excluded.mean()),
                     n_replications=plan.n_replications)


def _median(values) -> float:
    """np.median of a nonempty list of floats, bit for bit: the middle
    value, or (a + b) / 2.0 of the two middle ones.  np.median's first call
    imports numpy.ma, which costs more than the sort."""
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


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
    _check_cell(plan, cell_mode, n, beta)
    tasks = _cell_tasks(plan, cell_mode, n, beta)
    grid = estimation_grid(plan.lower, plan.upper, plan.grid_count)
    return _summary(plan, cell_mode, n, beta,
                    _map_replications(_cell_score, tasks, grid, threads))


def run_table(plan: ExperimentPlan, *, threads: int | None = None):
    """Every cell of the plan: n_list x beta_list x barrier modes.

    Returns (summaries, failures).  Every replication of every cell goes
    through one _map_replications call, so the worker pool is built once per
    table.  A cell whose replications hold a failure, or whose summary
    raises, becomes a CellFailure entry; the other cells are still reported.
    """
    cells = [(n, beta, m) for n in plan.n_list for beta in plan.beta_list
             for m in plan.modes]
    tasks = [t for n, beta, m in cells for t in _cell_tasks(plan, m, n, beta)]
    grid = estimation_grid(plan.lower, plan.upper, plan.grid_count)
    results = _map_replications(_cell_score, tasks, grid, threads)
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
    estimate is undefined at x0 are dropped and counted.

    The schedule Delta = n^(-2/3), h = n^(-beta) meets the rate conditions
    of the discrete estimator's limit exactly on the window
    1/9 < beta < 1/3 - 2 epsilon/3, 0 < epsilon < 1/2 (see `_check_rates`).
    The continuous estimator is checked against the same window, which is
    enough for it: with T = n Delta = n^(1/3), the window gives T h -> inf
    (beta < 1/3) and T h^5 -> 0 (beta > 1/15), the continuous-record
    conditions with undersmoothing (Bandi & Phillips, Econometrica 2003).

    Raises ValueError when x0 sits within one bandwidth of a barrier or
    outside the domain, or beta or epsilon lies outside the window, before
    any density or replication work.
    """
    h = bandwidth(n, beta)
    delta = delta_of_n(n)
    interior = (x0 - lower) > h and (mode != "two_sided" or (upper - x0) > h)
    if not interior:
        raise ValueError("x0 must be more than one bandwidth away from each barrier")
    _check_rates(beta, epsilon)
    plan = ExperimentPlan(case_id=case_id, barrier_mode=mode, sigma=sigma,
                          n_list=(n,), beta_list=(beta,),
                          n_replications=n_replications,
                          estimator_type=estimator_type, base_seed=base_seed,
                          refine=refine, lower=lower, upper=upper,
                          burn_in=burn_in)
    barrier = plan.barrier_for(mode)
    if not barrier.contains(x0):   # one-sided +inf passes the interior test
        raise ValueError("x0 must lie in the barrier domain")
    drift = builtin_drift(case_id)
    dens = invariant_density(drift, sigma, barrier, quad_panels=quad_panels)
    sig2 = sigma_eval(dens, f_eval(dens, epanechnikov(h), float(x0)))
    scale = math.sqrt(n * h * delta) / math.sqrt(sig2)
    estimates = np.array(_checked(_map_replications(
        _point_score, _cell_tasks(plan, mode, n, beta),
        np.array([float(x0)]), threads)))
    kept = estimates[np.isfinite(estimates)]
    dropped = int(estimates.size - kept.size)
    if kept.size == 0:
        raise NoDataError("estimate undefined at x0 in every replication")
    z = scale * (kept - float(drift(x0)))
    var_z = float(np.var(z, ddof=1)) if kept.size > 1 else 0.0
    return NormalityReport(case_id=int(case_id), x0=float(x0), n=int(n),
                           beta=float(beta), mean_z=float(z.mean()),
                           var_z=var_z, ks_stat=_ks_normal(z),
                           dropped=dropped, n_replications=int(n_replications))


def _ks_normal(z) -> float:
    """One-sample Kolmogorov-Smirnov distance of the sample z from N(0, 1):
    max over the sorted z_(i) of i/N - Phi(z_(i)) and Phi(z_(i)) - (i-1)/N,
    with Phi = 0.5 erfc(-z / sqrt 2), in scipy.stats.kstest's order."""
    z = np.sort(z)
    root2 = math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-v / root2) for v in z.tolist()])
    n = z.size
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


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
