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

from .model import KernelSpec, SamplePath
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

# cap on the kernel-weight working set: block_size * n_obs floats
_BLOCK_FLOATS = 4_000_000


@dataclass(frozen=True)
class EstimateResult:
    """Per-grid-point estimates plus diagnostics.

    values hold NaN exactly where undefined_mask is set (empty kernel window).
    denominators carry the occupation diagnostic F(x) = mean of K_h(X - x)
    over observations, identical between the two estimator types on shared
    grids.  boundary_mask flags grid points within one bandwidth of a barrier,
    where kernel mass is truncated.  meta records (n, delta, h, kernel,
    estimator type).
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
        if np.any(np.isfinite(self.values) == self.undefined_mask):
            raise ValueError("values must be finite exactly off the undefined mask")
        if np.any(self.denominators < 0.0):
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


def _nw_core(obs: np.ndarray, incr: np.ndarray, dt: float, k: KernelSpec,
             grid: np.ndarray):
    """Shared ratio core: returns (values, f_hat) for the given increments.

    dt is the time weight per observation (Delta, or the fine step ds).
    f_hat = (1/n) sum K_h(X - x), the denominator diagnostic; the estimate is
    numerator / (dt * n * f_hat).
    """
    h = k.bandwidth
    n = obs.shape[0]
    values = np.full(grid.shape, np.nan)
    f_hat = np.empty(grid.shape)
    block = max(1, _BLOCK_FLOATS // max(n, 1))
    for i0 in range(0, grid.size, block):
        sl = slice(i0, min(i0 + block, grid.size))
        u = (obs[None, :] - grid[sl, None]) / h
        w = kernel_eval(k, u) / h
        sw = w.sum(axis=1)
        f_hat[sl] = sw / n
        num = w @ incr
        defined = sw > 0.0
        chunk = np.full(sw.shape, np.nan)
        chunk[defined] = num[defined] / (dt * sw[defined])
        values[sl] = chunk
    return values, f_hat


def _boundary_mask(path: SamplePath, grid: np.ndarray, h: float) -> np.ndarray:
    b = path.barrier
    mask = (grid - b.lower) < h
    if b.mode == "two_sided":
        mask |= (b.upper - grid) < h
    return mask


def _check_inputs(path: SamplePath, grid: np.ndarray) -> np.ndarray:
    if path.x.shape[0] < 2:
        raise ValueError("estimation needs a path with at least 2 points")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not path.barrier.contains(grid):
        raise ValueError("grid points must lie in the barrier domain")
    return grid


def _estimate(path: SamplePath, k: KernelSpec, grid, estimator: str) -> EstimateResult:
    grid = _check_inputs(path, grid)
    obs = path.x[:-1]
    incr = np.diff(path.x) - np.diff(path.l_reg)
    if path.barrier.mode == "two_sided":
        incr = incr + np.diff(path.r_reg)
    values, f_hat = _nw_core(obs, incr, path.delta, k, grid)
    undefined = ~np.isfinite(values)
    meta = {"n": int(obs.shape[0]), "delta": path.delta, "h": k.bandwidth,
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
