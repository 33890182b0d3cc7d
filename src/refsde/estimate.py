"""Kernel ratio estimators of the drift from reflected-path observations.

The discrete-type estimator at a point x is

    sum_k K_h(X_{t_k} - x) (dX_k - dL_k + dR_k)  /  (Delta * sum_k K_h(X_{t_k} - x))

with forward increments over [t_k, t_{k+1}) and K_h(y) = K(y/h)/h.  Removing
the regulator increments from dX leaves drift plus martingale noise, which the
kernel window averages.  The continuous-type variant is the same ratio read as
left-endpoint Riemann-Stieltjes sums on a finer grid, with denominator
sum_j K_h(X_{s_j} - x) * ds.  Both share one core, so the continuous estimator
on a refine=1 grid is bit-identical to the discrete one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BarrierConfig, KernelSpec, SamplePath
from .simulate import write_csv

__all__ = [
    "EstimateResult",
    "bandwidth",
    "delta_of_n",
    "kernel_eval",
    "nw_continuous",
    "nw_discrete",
    "write_estimate_csv",
]

@dataclass(frozen=True)
class EstimateResult:
    """Per-grid-point estimates plus diagnostics.

    values hold NaN exactly where undefined_mask is set (empty kernel window).
    denominators carry the occupation diagnostic F(x) = mean of K_h(X - x)
    over observations, identical between the two estimator types on shared
    grids.  Both are sums over the observations in the window [x - h, x + h]
    only, exact because the kernel vanishes outside [-1, 1]; computing them
    takes O(n) memory for any grid size.  boundary_mask flags grid points
    within one bandwidth of a barrier, where kernel mass is truncated.  meta
    records (n, delta, h, kernel, estimator type).
    """

    grid: np.ndarray
    values: np.ndarray
    denominators: np.ndarray
    undefined_mask: np.ndarray
    boundary_mask: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        for name in ("grid", "values", "denominators", "undefined_mask",
                     "boundary_mask"):
            getattr(self, name).setflags(write=False)
        _check_estimate(self.values, self.undefined_mask, self.denominators)


def _check_estimate(values, undefined, denominators) -> None:
    """The checks of an estimate's values, undefined mask and denominators:
    EstimateResult's, and the replication harness's on each column of a
    batch, whose estimates it never wraps in an EstimateResult."""
    if np.any(np.isfinite(values) == undefined):
        raise ValueError("values must be finite exactly off the undefined mask")
    if np.any(denominators < 0.0):
        raise ValueError("denominators must be nonnegative")


def kernel_eval(k: KernelSpec, t):
    """Evaluate the base kernel; k.fn is already 0 outside [-1,1]."""
    out = np.asarray(k.fn(np.asarray(t, dtype=float)))
    return float(out) if out.ndim == 0 else out


def bandwidth(n: int, beta: float) -> float:
    """Bandwidth schedule h = n^(-beta)."""
    if n < 2:
        raise ValueError("bandwidth schedule needs n >= 2")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return float(n) ** -beta


def delta_of_n(n: int) -> float:
    """Companion step-size rule Delta = n^(-2/3)."""
    if n < 2:
        raise ValueError("step-size schedule needs n >= 2")
    return float(n) ** (-2.0 / 3.0)


# In-window pairs one group of windows may hold: enough to spread numpy's
# per-call cost over many small windows, few enough to stay in cache.
_GROUP_PAIRS = 2 ** 14


def _nw_core(obs: np.ndarray, incr: np.ndarray, dt: float, k: KernelSpec,
             grid: np.ndarray):
    """Shared ratio core: returns (values, f_hat) for the given increments.

    dt is the time weight per observation (Delta, or the fine step ds).
    f_hat = (1/n) sum K_h(X - x), the denominator diagnostic; the estimate is
    numerator / (dt * n * f_hat).

    The observations are sorted once, and each grid point sums only over its
    window [x - h, x + h], found by binary search.  That drops no weight
    because KernelSpec.fn is 0 outside [-1, 1]: an observation outside the
    window has |X - x| / h >= 1 in floating point too.

    Nonempty windows are taken in grid order and put into groups of at most
    _GROUP_PAIRS in-window pairs; a larger window is a group of its own.  A
    group takes one pass: its pairs are gathered into flat arrays, the
    kernel is called once, and np.add.reduceat sums each window.  Every
    window is summed that way, a window alone in its group too, so a
    point's value does not depend on the other grid points (a lone window's
    w.sum() and w @ ds would add in another order).  Empty windows stay out
    of the groups, because reduceat returns the element at an empty
    segment's offset, not 0; their sums are 0 already.  The working set is
    O(n) whatever the grid size.
    """
    h = k.bandwidth
    n = obs.shape[0]
    order = np.argsort(obs, kind="stable")
    xs, ds = obs[order], incr[order]
    lo = np.searchsorted(xs, grid - h, side="left")
    count = np.searchsorted(xs, grid + h, side="right") - lo
    full = np.flatnonzero(count)
    ends = np.cumsum(count[full])
    sw = np.zeros(grid.shape)
    num = np.zeros(grid.shape)
    start = 0
    while start < full.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _GROUP_PAIRS,
                                                  side="right")))
        g = full[start:stop]
        c = count[g]
        first = np.cumsum(c) - c
        idx = np.arange(ends[stop - 1] - done) + np.repeat(lo[g] - first, c)
        w = kernel_eval(k, (xs[idx] - np.repeat(grid[g], c)) / h) / h
        sw[g] = np.add.reduceat(w, first)
        num[g] = np.add.reduceat(w * ds[idx], first)
        start = stop
    values = np.full(grid.shape, np.nan)
    defined = sw > 0.0
    values[defined] = num[defined] / (dt * sw[defined])
    return values, sw / n


def _nw_records(x, dl, dr, barrier: BarrierConfig, delta: float,
               k: KernelSpec, grid: np.ndarray):
    """(values, f_hat) of one path from its contiguous states x and its
    regulator increments dl, dr: the increments dX - dL + dR (dR two-sided
    only) of the observations x[:-1], through `_nw_core`.  Both estimators
    and the replication harness's batch columns take this one route."""
    incr = np.diff(x) - dl
    if barrier.mode == "two_sided":
        incr += dr
    return _nw_core(x[:-1], incr, delta, k, grid)


def _boundary_mask(path: SamplePath, grid: np.ndarray, h: float) -> np.ndarray:
    b = path.barrier
    mask = (grid - b.lower) < h
    if b.mode == "two_sided":
        mask |= (b.upper - grid) < h
    return mask


def _check_inputs(points: int, barrier: BarrierConfig, grid) -> np.ndarray:
    """The estimation grid as a 1-d float array, for a path of ``points``
    points in ``barrier``'s domain."""
    if points < 2:
        raise ValueError("estimation needs a path with at least 2 points")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not barrier.contains(grid):
        raise ValueError("grid points must lie in the barrier domain")
    return grid


def _estimate(path: SamplePath, k: KernelSpec, grid, estimator: str) -> EstimateResult:
    grid = _check_inputs(path.x.shape[0], path.barrier, grid)
    # one copy of a batched path's strided column, read by every pass below
    x = np.ascontiguousarray(path.x)
    values, f_hat = _nw_records(x, np.diff(path.l_reg), np.diff(path.r_reg),
                                path.barrier, path.delta, k, grid)
    undefined = ~np.isfinite(values)
    meta = {"n": int(x.shape[0] - 1), "delta": path.delta, "h": k.bandwidth,
            "kernel": k.name, "estimator": estimator}
    return EstimateResult(grid=grid, values=values, denominators=f_hat,
                          undefined_mask=undefined,
                          boundary_mask=_boundary_mask(path, grid, k.bandwidth),
                          meta=meta)


def nw_discrete(path: SamplePath, k: KernelSpec, grid) -> EstimateResult:
    """Discrete-type estimator from grid observations (X, L, R).

    Regulator increments come from the simulated channels; in one-sided mode
    the (identically zero) R channel is omitted from the numerator.
    """
    return _estimate(path, k, grid, "discrete")


def nw_continuous(fine_path: SamplePath, k: KernelSpec, grid) -> EstimateResult:
    """Continuous-type estimator: Riemann-Stieltjes sums on the fine grid.

    With refine=1 (fine grid = observation grid) this coincides term-by-term
    with nw_discrete.
    """
    return _estimate(fine_path, k, grid, "continuous")


def write_estimate_csv(result: EstimateResult, out_path: str, seed) -> None:
    """CSV `x,estimate,denominator,undefined,boundary`, `# seed=` first.

    Undefined estimates are written as empty fields; the two masks as 0/1.
    """
    write_csv(out_path, seed, "x,estimate,denominator,undefined,boundary",
              ((x, None if bad else v, den, int(bad), int(bnd))
               for x, v, den, bad, bnd in zip(
                   result.grid, result.values, result.denominators,
                   result.undefined_mask, result.boundary_mask)))
