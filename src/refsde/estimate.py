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
    "nw_continuous",
    "nw_discrete",
    "write_estimate_csv",
]

@dataclass(frozen=True)
class EstimateResult:
    """Per-grid-point estimates plus diagnostics.

    values hold NaN where a grid point's kernel window is empty, and
    undefined_mask, derived from values, flags those points.  denominators
    carry the occupation diagnostic F(x) = mean of K_h(X - x)
    over observations, identical between the two estimator types on shared
    grids.  Both are sums over the observations in the window [x - h, x + h]
    only, exact because the kernel vanishes outside [-1, 1]; computing them
    takes O(n) memory for any grid size.  boundary_mask flags grid points
    within one bandwidth of a barrier, where kernel mass is truncated.
    """

    grid: np.ndarray
    values: np.ndarray
    denominators: np.ndarray
    boundary_mask: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "values", "denominators", "boundary_mask"):
            getattr(self, name).setflags(write=False)
        if np.any(self.denominators < 0.0):
            raise ValueError("denominators must be nonnegative")

    @property
    def undefined_mask(self) -> np.ndarray:
        """The grid points where the estimate is not a finite number."""
        return ~np.isfinite(self.values)


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


def _check_rates(beta: float, epsilon: float) -> None:
    """Refuse a bandwidth exponent outside the normality window.

    On the schedule Delta = n^(-2/3), h = n^(-beta), each rate product of
    the estimators' central limit theorem is a power of n, so it tends to 0
    or to infinity by its exponent's sign alone, whatever n is:

        nΔ = n^(1/3)                 -> inf always,
        Δ^(1/2−ε)h^(−1) = n^(q)      -> 0 iff q < 0,
        nhΔ = n^(1/3 - beta)         -> inf iff beta < 1/3,
        nh³Δ = n^(1/3 - 3 beta)      -> 0 iff beta > 1/9,
        nh^(−1)Δ^(2−ε) = n^(q)       -> 0 iff q < 0,

    with q = beta - (1 - 2 epsilon)/3.  So the five conditions hold exactly
    on the window 1/9 < beta < 1/3 - 2 epsilon/3, with 0 < epsilon < 1/2.
    Raises ValueError for an epsilon outside (0, 1/2), or one that names,
    in the order above, each product that tends the wrong way.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not epsilon < 0.5:
        raise ValueError("epsilon must be < 1/2")
    top = 1.0 / 3.0 - 2.0 * epsilon / 3.0
    failed = [label for label, holds in (
        ("Δ^(1/2−ε)h^(−1) not →0", beta < top),
        ("nhΔ not →∞", beta < 1.0 / 3.0),
        ("nh³Δ not →0", beta > 1.0 / 9.0),
        ("nh^(−1)Δ^(2−ε) not →0", beta < top)) if not holds]
    if failed:
        raise ValueError("schedule fails rate conditions: "
                         + "; ".join(failed))


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
        w = k.fn((xs[idx] - np.repeat(grid[g], c)) / h) / h
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


def nw_discrete(path: SamplePath, k: KernelSpec, grid) -> EstimateResult:
    """Discrete-type estimator from grid observations (X, L, R).

    Regulator increments come from the simulated channels; in one-sided mode
    the (identically zero) R channel is omitted from the numerator.
    """
    if path.x.shape[0] < 2:
        raise ValueError("estimation needs a path with at least 2 points")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not path.barrier.contains(grid):
        raise ValueError("grid points must lie in the barrier domain")
    # one contiguous copy of a strided column (read_path_csv's paths are
    # columns of one row-major table), read by every pass below
    x = np.ascontiguousarray(path.x)
    values, f_hat = _nw_records(x, np.diff(path.l_reg), np.diff(path.r_reg),
                                path.barrier, path.delta, k, grid)
    return EstimateResult(grid=grid, values=values, denominators=f_hat,
                          boundary_mask=_boundary_mask(path, grid,
                                                       k.bandwidth))


def nw_continuous(fine_path: SamplePath, k: KernelSpec, grid) -> EstimateResult:
    """Continuous-type estimator: Riemann-Stieltjes sums on the fine grid.

    The sums are the discrete estimator's on the fine path, with the fine
    step ds as the time weight, so this is nw_discrete on the fine path;
    with refine=1 (fine grid = observation grid) the two coincide.
    """
    return nw_discrete(fine_path, k, grid)


def write_estimate_csv(result: EstimateResult, out_path: str, seed) -> None:
    """CSV `x,estimate,denominator,undefined,boundary`, `# seed=` first.

    Undefined estimates are written as empty fields; the two masks as 0/1.
    """
    write_csv(out_path, seed, "x,estimate,denominator,undefined,boundary",
              ((x, None if bad else v, den, int(bad), int(bnd))
               for x, v, den, bad, bnd in zip(
                   result.grid, result.values, result.denominators,
                   result.undefined_mask, result.boundary_mask)))
