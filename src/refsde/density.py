"""Quadrature evaluation of the model's closed-form invariant density.

The density is pi(x) = exp(-(2/sigma^2) * I(x)) / Z with I(x) = int_l^x b, the
normalizer Z integrating the same expression over the domain.  It is the
stationary law of the reflected SDE with drift -b,
dX = -b(X) dt + sigma dW + dL - dR: it solves (sigma^2/2) pi'' + (b pi)' = 0
with zero flux at the barriers.  The process `simulate` samples has drift +b,
and its stationary law is proportional to exp(+(2/sigma^2) * I(x)); README
"Known failing checks" records this mismatch.

On top of pi sit the kernel-smoothed density F(x) = int K_h(y-x) pi(y) dy and
Sigma(x) = sigma^2 / F(x), the scale `normality_check` standardizes by.  The
asymptotic variance of sqrt(n h Delta) (b_hat - b) is int K^2 times Sigma, so
the standardized estimate has variance int K^2 (0.6 for Epanechnikov), not 1;
with zero drift, where both signs give the uniform law, simulated paths give
0.5-0.7.

All integrals are composite Simpson.  pi_eval and the normalizer share the
same inner-integral rule (quad_panels panels on [l, x]), so the normalization
error cancels and int pi = 1 holds to quadrature accuracy even when the inner
rule itself carries discretization error.  The inner rule runs over blocks of
targets that hold at most _NODE_BUDGET nodes, so its working set does not grow
with the number of targets or with quad_panels.  The normalizer's outer rule
runs on s in [0, 1] under the graded map y = l + W (3s^2 - 2s^3), which puts
its nodes densest at both barriers, where a boundary layer or a sqrt-like
drift's endpoint singularity sits; see invariant_density.  Its panels double
until two levels agree, and the doublings share nodes: every level's nodes
are bit-for-bit the even nodes of the next, so each doubling evaluates only
the new odd nodes, and the result is bitwise the final level's fresh rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BarrierConfig, DriftSpec, KernelSpec

__all__ = [
    "InvariantDensity",
    "ModelNotErgodicError",
    "UndefinedVarianceError",
    "f_eval",
    "inner_integral",
    "invariant_density",
    "pi_eval",
    "sigma_eval",
]

_TAIL_TOL = 1e-10     # one-sided tail truncation threshold
_MAX_TAIL_DOUBLINGS = 40
_NORM_RTOL = 1e-10    # outer-panel doubling stop for the normalizer
_MAX_PANEL_DOUBLINGS = 16
# Nodes per block of the inner rule (one target's nodes when they alone are
# more): 2**16 float64 nodes are 0.5 MB per temporary, which stays in cache.
_NODE_BUDGET = 2 ** 16


class ModelNotErgodicError(RuntimeError):
    """One-sided normalizer failed to converge under tail-truncation doubling."""


class UndefinedVarianceError(RuntimeError):
    """Sigma(x) requested where the smoothed density F vanishes."""


def _simpson_nodes_weights(n_panels: int):
    # 2*n_panels+1 equally spaced nodes on [0,1]; weights (1,4,2,...,4,1)/6/n.
    m = 2 * n_panels + 1
    offsets = np.linspace(0.0, 1.0, m)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w /= 6.0 * n_panels
    return offsets, w


def _integral_from(fn, lower: float, x, n_panels: int):
    """Composite Simpson of fn on [lower, x_i] for each target x_i.

    Targets go in blocks of at most _NODE_BUDGET nodes, one target per
    block when fewer than four fit.  A block holds a multiple of four
    targets because OpenBLAS's gemv sums four rows at a time and a row left
    over at a block's end takes a kernel with another summation order; so
    every full block's rows take the kernel they take in one product over
    all targets, and the values do not depend on the block size.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs1 = np.atleast_1d(xs)
    offsets, w = _simpson_nodes_weights(n_panels)
    out = np.empty(xs1.shape)
    widths = xs1 - lower
    block = max(1, _NODE_BUDGET // offsets.size // 4 * 4)
    for i0 in range(0, xs1.size, block):
        sl = slice(i0, i0 + block)
        nodes = lower + widths[sl, None] * offsets[None, :]
        out[sl] = (np.asarray(fn(nodes)) @ w) * widths[sl]
    return float(out[0]) if scalar else out


def _fixed_simpson(fn, a: float, b: float, n_panels: int) -> float:
    offsets, w = _simpson_nodes_weights(n_panels)
    nodes = a + (b - a) * offsets
    return float(np.asarray(fn(nodes)) @ w) * (b - a)


@dataclass(frozen=True)
class InvariantDensity:
    """Closed-form invariant density, normalized over its support.

    ``support_hi`` is the upper barrier in two-sided mode, or the truncation
    point l + T_tail at which the one-sided tail was verified negligible.
    Build instances through :func:`invariant_density`.
    """

    drift: DriftSpec
    sigma: float
    barrier: BarrierConfig
    normalizer: float
    quad_panels: int
    support_hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.normalizer) and self.normalizer > 0):
            raise ValueError("normalizer must be finite and positive")


def inner_integral(d: InvariantDensity, x):
    """int_l^x b(y) dy by composite Simpson with d.quad_panels panels.

    Accepts scalars or arrays of targets; exact per panel for cubic b.
    """
    return _integral_from(d.drift.fn, d.barrier.lower, x, d.quad_panels)


def _unnormalized(drift: DriftSpec, sigma: float, lower: float, x, n_panels: int):
    c = 2.0 / (sigma * sigma)
    return np.exp(-c * _integral_from(drift.fn, lower, x, n_panels))


def invariant_density(drift: DriftSpec, sigma: float, barrier: BarrierConfig,
                      quad_panels: int = 1024) -> InvariantDensity:
    """Compute the normalizer and return the ready-to-evaluate density.

    Z integrates the unnormalized density g over [l, support_hi]: the upper
    barrier two-sided, and one-sided the horizon l + T_tail, where T_tail
    doubles until the last tail slab [l + T/2, l + T] contributes < 1e-10;
    failure to stabilize within 40 doublings means the density is not
    integrable (model not ergodic).

    In both modes Z is taken on s in [0, 1] under the graded map
    y = l + W (3s^2 - 2s^3), dy = 6 W s (1 - s) ds, W = support_hi - l, with
    the panels doubling from quad_panels until two levels agree.  The map's
    slope vanishes at both ends, so uniform steps in s put nodes densest at
    the barriers, where the mass of a strong drift piles up in a boundary
    layer (about 0.05 wide for case 3 at sigma 0.2) and where a drift that
    vanishes like sqrt(x - l) gives g a (y - l)^{3/2} term that slows a
    uniform Simpson rule to O(h^{5/2}).  Grading turns that term into a
    smooth one: case 3 at sigma 0.2 stops at 2048 panels, where a uniform
    rule needs 131072.  A map that grades only the lower end (y = l + W s^2)
    would thin the nodes at the upper barrier, where b = -1 piles the mass:
    it needs 32768 panels there, against 4096 for this map.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if quad_panels < 1:
        raise ValueError("quad_panels must be positive")
    lower = barrier.lower

    def g(x):
        return _unnormalized(drift, sigma, lower, x, quad_panels)

    if barrier.mode == "two_sided":
        support_hi = barrier.upper
    else:
        t_tail = 1.0
        for _ in range(_MAX_TAIL_DOUBLINGS):
            tail = _fixed_simpson(g, lower + t_tail, lower + 2.0 * t_tail,
                                  quad_panels)
            t_tail *= 2.0
            if tail < _TAIL_TOL:
                break
        else:
            raise ModelNotErgodicError(
                "one-sided invariant density tail did not vanish under "
                f"truncation doubling (last slab {tail:g})")
        support_hi = lower + t_tail
    width = support_hi - lower

    def graded(s):
        # y = l + W (3s^2 - 2s^3), dy = 6 W s (1 - s) ds on s in [0, 1]
        return (g(lower + width * (s * s * (3.0 - 2.0 * s)))
                * (6.0 * width * s * (1.0 - s)))

    z = _converged_simpson(graded, 0.0, 1.0, quad_panels)
    if not (math.isfinite(z) and z > 0):
        raise ModelNotErgodicError(f"normalizer not positive-finite (Z={z:g})")
    return InvariantDensity(drift=drift, sigma=sigma, barrier=barrier,
                            normalizer=z, quad_panels=quad_panels,
                            support_hi=support_hi)


def _converged_simpson(fn, a: float, b: float, start_panels: int) -> float:
    """Simpson of fn on [a, b], doubling the panels until two levels agree.

    Two levels agree when they differ by at most _NORM_RTOL * |Z|, relative
    whatever the size of Z: the built-in cases' normalizers lie at 0.02-0.06
    at sigma 0.2, and b = 6's at 1/300, where an absolute 1e-10 would leave
    1.7e-9 relative error.  Cases 1 and 3 at sigma 0.2 stop at 2048 panels,
    case 2 at 4096.

    The levels share nodes: level P's nodes are bit-for-bit the even nodes
    of level 2P, so each doubling keeps the old values and calls fn only at
    the new odd nodes.  The result is bitwise the final level's fresh rule,
    _fixed_simpson(fn, a, b, P_final), for fn evaluated pointwise.
    """
    panels = start_panels
    offsets, w = _simpson_nodes_weights(panels)
    vals = np.asarray(fn(a + (b - a) * offsets))
    prev = float(vals @ w) * (b - a)
    for _ in range(_MAX_PANEL_DOUBLINGS):
        panels *= 2
        offsets, w = _simpson_nodes_weights(panels)
        old, vals = vals, np.empty(offsets.size)
        vals[0::2] = old
        vals[1::2] = fn(a + (b - a) * offsets[1::2])
        cur = float(vals @ w) * (b - a)
        if abs(cur - prev) <= _NORM_RTOL * abs(cur):
            return cur
        prev = cur
    raise RuntimeError("normalizer quadrature failed to stabilize")


def pi_eval(d: InvariantDensity, x):
    """Density value(s) at x: exp(-(2/sigma^2) inner_integral(x)) / Z."""
    return _unnormalized(d.drift, d.sigma, d.barrier.lower, x,
                         d.quad_panels) / d.normalizer


def f_eval(d: InvariantDensity, k: KernelSpec, x: float) -> float:
    """Kernel-smoothed density F(x) = int K(r) pi(x + r h) dr.

    pi is extended by zero outside the domain, so the r-range is clipped to
    the part of [-1,1] that stays inside [l, u] (or [l, inf) one-sided).
    """
    h = k.bandwidth
    r_lo = max(-1.0, (d.barrier.lower - x) / h)
    r_hi = 1.0
    if d.barrier.mode == "two_sided":
        r_hi = min(1.0, (d.barrier.upper - x) / h)
    if r_lo >= r_hi:
        return 0.0

    def integrand(r):
        return np.asarray(k.fn(r)) * pi_eval(d, x + r * h)

    val = _fixed_simpson(integrand, r_lo, r_hi, d.quad_panels)
    return max(val, 0.0)


def sigma_eval(d: InvariantDensity, f: float) -> float:
    """Sigma(x) = sigma^2 / F(x), for F = f_eval(d, k, x) of the drift -b law.

    The caller passes F, so each point's F quadrature runs once.  The
    asymptotic variance of sqrt(n h Delta) (b_hat(x) - b(x)) is
    int K^2 * Sigma(x); this function leaves the kernel factor int K^2 out.
    """
    if f <= 0.0:
        raise UndefinedVarianceError(
            f"smoothed density F = {f:g} is not positive; variance undefined")
    return d.sigma * d.sigma / f
