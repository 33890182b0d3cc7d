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

All integrals are composite Simpson.  The inner integral I_P (quad_panels
panels on [l, y]) is evaluated only at the nodes of the density's tables,
and every reader of pi (the normalizer, the one-sided tail test, pi_eval and
f_eval) takes it from them, so the normalization error cancels and
int pi = 1 holds to quadrature accuracy even when the inner rule itself
carries discretization error.  The inner rule runs over blocks of targets
that hold at most _NODE_BUDGET nodes, so its working set does not grow with
the number of targets or with quad_panels.  The normalizer's outer rule
runs on s in [0, 1] under the graded map
y = l + W (3s^2 - 2s^3), which puts its nodes densest at both barriers, where
a boundary layer or a sqrt-like drift's endpoint singularity sits; see
invariant_density.  Its panels double until two levels agree, and the
doublings share nodes: every level's nodes are bit-for-bit the even nodes of
the next, so each doubling evaluates only the new odd nodes, and Z is bitwise
the final level's fresh rule.

The density keeps the inner integrals I_P at the normalizer's final-level
nodes as a table in s.  pi_eval and f_eval read pi from it through the
closed-form inverse of the map and a local quintic Lagrange interpolant.
The doubling stops only when the table also checks itself: the quintic
through the even nodes must give the fresh odd nodes to c |dI| <= 1e-10
(c = 2/sigma^2), which is pi to 1e-10 relative.  One-sided, y past
support_hi reads slab j, I_P on uniform nodes of [l + 2^j, l + 2^(j+1)],
built under the same check; the tail test builds the slabs up to the first
one past support_hi, and a reader builds any later one when a target first
falls in it.  All are kept with the density.  The tables reproduce I_P, not
the exact integral, so pi moves from a per-point inner rule by at most about
1e-10 relative (5e-13 measured on the built-in cases).

The two kernels that dominate a density's cost run on flat arrays and give
bit for bit what their two-dimensional forms give: the inner rule builds a
block's nodes from the tiled offsets times the repeated widths, not as a
broadcast (targets, nodes) product (see _integral_from), and the quintic
reader forms its six basis weights and terms as columns of the points'
length, summed in the order einsum sums a (points, 6) product (see
_quintic).  Simpson nodes and weights, and the inner rule's tiled offsets,
are cached per panel count.

A sigma whose sigma^2 or c = 2/sigma^2 is not a positive finite float is
refused before any quadrature.  The normalizer's doubling stops at the first
level with a NaN node, where the drift overflows and pi is undefined
(ValueError), or whose Z is not finite (ModelNotErgodicError).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
_TABLE_TOL = 1e-10    # c |dI| stop for the inner-integral tables
_MAX_PANEL_DOUBLINGS = 16
_SLAB_PANELS = 16     # first level of a slab: I_P is smooth past support_hi
# Lagrange denominators prod_{k != m} (m - k) of the nodes 0, 1, ..., 5
_QUINTIC_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])
# Nodes per block of the inner rule (one target's nodes when they alone are
# more): 2**16 float64 nodes are 0.5 MB per temporary, which stays in cache.
_NODE_BUDGET = 2 ** 16


class ModelNotErgodicError(RuntimeError):
    """One-sided normalizer failed to converge under tail-truncation doubling."""


class UndefinedVarianceError(RuntimeError):
    """Sigma(x) requested where the smoothed density F vanishes."""


@functools.lru_cache(maxsize=4)
def _simpson_nodes_weights(n_panels: int):
    # 2*n_panels+1 equally spaced nodes on [0,1]; weights (1,4,2,...,4,1)/6/n.
    # Cached per panel count, read-only: f_eval and the doublings reuse them.
    m = 2 * n_panels + 1
    offsets = np.linspace(0.0, 1.0, m)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w /= 6.0 * n_panels
    offsets.flags.writeable = w.flags.writeable = False
    return offsets, w


@functools.lru_cache(maxsize=4)
def _inner_blocks(n_panels: int):
    """Targets per block of the inner rule at n_panels, and the Simpson
    offsets tiled that many times (read-only, cached like the offsets)."""
    offsets, _ = _simpson_nodes_weights(n_panels)
    block = max(1, _NODE_BUDGET // offsets.size // 4 * 4)
    tiled = np.tile(offsets, block)
    tiled.flags.writeable = False
    return block, tiled


def _integral_from(fn, lower: float, x, n_panels: int):
    """Composite Simpson of fn on [lower, x_i] for each target x_i.

    Targets go in blocks of at most _NODE_BUDGET nodes, one target per
    block when fewer than four fit.  A block holds a multiple of four
    targets because OpenBLAS's gemv sums four rows at a time and a row left
    over at a block's end takes a kernel with another summation order; so
    every full block's rows take the kernel they take in one product over
    all targets, and the values do not depend on the block size.  A
    threaded gemv splits the sums by thread, so the CLI runs these gemv
    calls serially (see refsde.cli).

    A block's nodes lower + width_i * offset_k are built flat: each width
    repeated 2P + 1 times, times the offsets tiled over a full block, plus
    lower.  That gives the bits of the broadcast (targets, 1) * (1, 2P + 1)
    product at about half its cost, and fn sees them as that
    (targets, 2P + 1) array.  The tiled offsets are cached per panel count:
    built on each call, they cost a one-block call more than they save.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs1 = np.atleast_1d(xs)
    offsets, w = _simpson_nodes_weights(n_panels)
    block, tiled = _inner_blocks(n_panels)
    out = np.empty(xs1.shape)
    widths = xs1 - lower
    for i0 in range(0, xs1.size, block):
        sl = slice(i0, i0 + block)
        nodes = np.repeat(widths[sl], offsets.size)
        nodes *= tiled[:nodes.size]
        nodes += lower
        nodes = nodes.reshape(-1, offsets.size)
        out[sl] = (np.asarray(fn(nodes)) @ w) * widths[sl]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class InvariantDensity:
    """Closed-form invariant density, normalized over its support.

    ``support_hi`` is the upper barrier in two-sided mode, or the truncation
    point l + 2^m at which the one-sided tail was verified negligible.
    ``inner_table`` holds I_P at the normalizer's graded nodes and ``slabs``
    the one-sided slabs built so far, slab j on [l + 2^j, l + 2^(j+1)];
    pi_eval and f_eval read both.  Build instances through
    :func:`invariant_density`.
    """

    drift: DriftSpec
    sigma: float
    barrier: BarrierConfig
    normalizer: float
    quad_panels: int
    support_hi: float
    inner_table: np.ndarray = field(repr=False, compare=False)
    slabs: dict[int, np.ndarray] = field(default_factory=dict, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.normalizer) and self.normalizer > 0):
            raise ValueError("normalizer must be finite and positive")


def inner_integral(d: InvariantDensity, x):
    """int_l^x b(y) dy by composite Simpson with d.quad_panels panels.

    Accepts scalars or arrays of targets; exact per panel for cubic b.
    """
    return _integral_from(d.drift.fn, d.barrier.lower, x, d.quad_panels)


def invariant_density(drift: DriftSpec, sigma: float, barrier: BarrierConfig,
                      quad_panels: int = 1024) -> InvariantDensity:
    """Compute the normalizer and the inner-integral table of the density.

    Z integrates the unnormalized density g = exp(-c I_P) over
    [l, support_hi]: the upper barrier two-sided, and one-sided l + 2^(j+1)
    for the first slab j >= 0 (slab j is [l + 2^j, l + 2^(j+1)]) whose mass
    and the next slab's are both < 1e-10; the next slab rules out a g that
    dips below 1e-10 on slab j and grows past it, as b = 1.5 - x's does at
    sigma 0.2.  A slab's mass is Simpson of g on the slab's own settled
    nodes, times its width 2^j.  Failure to stop within 40 slabs means the
    density is not integrable (model not ergodic).

    In both modes Z is taken on s in [0, 1] under the graded map
    y = l + W (3s^2 - 2s^3), dy = 6 W s (1 - s) ds, W = support_hi - l, with
    the panels doubling from quad_panels.  The map's slope vanishes at both
    ends, so uniform steps in s put nodes densest at the barriers, where the
    mass of a strong drift piles up in a boundary layer (about 0.05 wide for
    case 3 at sigma 0.2) and where a drift that vanishes like sqrt(x - l)
    gives g a (y - l)^{3/2} term that slows a uniform Simpson rule to
    O(h^{5/2}).  Grading turns that term into a smooth one: case 3 at sigma
    0.2 stops at 2048 panels, where a uniform rule needs 131072.  A map that
    grades only the lower end (y = l + W s^2) would thin the nodes at the
    upper barrier, where b = -1 piles the mass: it needs 32768 panels there,
    against 4096 for this map.

    The inner integrals I_P at the final level's nodes s_i = i / (2P) are
    kept as ``inner_table``.  The doubling stops when two levels' Z agree
    to _NORM_RTOL relative (criterion 6's 1e-8 with room; the built-in
    cases' Z lie at 0.02-0.06 at sigma 0.2 and b = 6's at 1/300, so the test
    is relative) and the quintic through the even nodes gives the fresh odd
    ones to c |dI| <= _TABLE_TOL (see _settled).  For cases 1-3, b = -1,
    b = 6 and b = 1.5 - x at sigma 0.2 and 1, in each mode where they are
    ergodic, the table check holds by the level where Z agrees, so it adds
    no level there.

    Raises ValueError, before any quadrature, for a sigma whose sigma^2 or
    c is not positive and finite, or for a two-sided W whose 6 W is not
    finite (one-sided W is at most 2^40); and, at the first level that
    meets one, for a node whose I_P is NaN (the drift overflows there, so
    pi is undefined).  A level whose Z is not finite raises
    ModelNotErgodicError.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    s2 = sigma * sigma
    if not (0 < s2 < math.inf and 2.0 / s2 < math.inf):
        raise ValueError(f"sigma = {sigma!r} is out of range: sigma^2 and "
                         "c = 2/sigma^2 must be positive and finite")
    if quad_panels < 1:
        raise ValueError("quad_panels must be positive")
    lower = barrier.lower
    c = 2.0 / s2

    def integral(y):
        return _integral_from(drift.fn, lower, y, quad_panels)

    slabs: dict[int, np.ndarray] = {}

    def mass(j):
        return math.ldexp(_g_simpson(_slab(slabs, j, lower, integral, c),
                                     c, lambda s: 1.0), j)

    if barrier.mode == "two_sided":
        support_hi = barrier.upper
    else:
        for j in range(_MAX_TAIL_DOUBLINGS):
            tail = mass(j)
            if tail < _TAIL_TOL and mass(j + 1) < _TAIL_TOL:
                break
        else:
            raise ModelNotErgodicError(
                "one-sided invariant density tail did not vanish under "
                f"truncation doubling (last slab {tail:g})")
        support_hi = lower + math.ldexp(1.0, j + 1)
    width = support_hi - lower
    if not math.isfinite(6.0 * width):
        # the graded map's slope 6 W s (1 - s) would overflow
        raise ValueError(f"domain width {width!r} is out of range: "
                         "6 * width must be finite")

    def inner(s):
        y = lower + width * (s * s * (3.0 - 2.0 * s))
        out = integral(y)
        nan = np.isnan(out)
        if nan.any():
            raise _undefined_pi(y[nan][0])
        return out

    def z_of(table):
        # Simpson of g(y(s)) dy/ds over the table's level
        return _g_simpson(table, c, lambda s: 6.0 * width * s * (1.0 - s))

    def settled(coarse, fine):
        z = z_of(fine)
        if not math.isfinite(z):
            raise ModelNotErgodicError(f"normalizer not finite (Z={z:g})")
        return (abs(z - z_of(coarse)) <= _NORM_RTOL * abs(z)
                and _settled(coarse, fine, c))

    # where the drift overflows, I_P is inf or NaN: the doubling stops at the
    # first level with a NaN node or a Z that is not finite, and no
    # floating-point warning shows
    with np.errstate(over="ignore", invalid="ignore"):
        table = _doubled_table(inner, quad_panels, settled)
    z = z_of(table)
    if not (math.isfinite(z) and z > 0):
        raise ModelNotErgodicError(f"normalizer not positive-finite (Z={z:g})")
    return InvariantDensity(drift=drift, sigma=sigma, barrier=barrier,
                            normalizer=z, quad_panels=quad_panels,
                            support_hi=support_hi, inner_table=table,
                            slabs=slabs)


def _g_simpson(table: np.ndarray, c: float, jacobian) -> float:
    """Simpson on [0, 1] of exp(-c I) jacobian(s) at a table's nodes."""
    s, w = _simpson_nodes_weights((table.size - 1) // 2)
    return float((np.exp(-c * table) * jacobian(s)) @ w)


def _doubled_table(fn, start_panels: int, settled) -> np.ndarray:
    """fn at the nodes s_i = i / (2P) of [0, 1], P doubling from start_panels
    until settled(coarse, fine) holds for two successive levels.

    The levels share nodes: level P's nodes are bit-for-bit the even nodes
    of level 2P, so each doubling keeps the old values and calls fn only at
    the new odd nodes.
    """
    panels = start_panels
    table = np.asarray(fn(np.linspace(0.0, 1.0, 2 * panels + 1)), dtype=float)
    for _ in range(_MAX_PANEL_DOUBLINGS):
        panels *= 2
        s = np.linspace(0.0, 1.0, 2 * panels + 1)
        coarse, table = table, np.empty(s.size)
        table[0::2] = coarse
        table[1::2] = fn(s[1::2])
        if settled(coarse, table):
            return table
    raise RuntimeError("density quadrature failed to stabilize")


def _quintic(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Interpolate table (samples at indices 0, 1, ..., n - 1, n >= 6) at the
    fractional indices p, each from the six nodes around it, shifted inward
    at the ends.  A stencil that holds +inf (an inner integral that
    overflowed, where pi is 0) gives +inf.

    The kernel works on columns of p's length.  With d_k = p - j0 - k, node
    m's basis weight is (d_0 ... d_{m-1}) (d_5 ... d_{m+1}) / _QUINTIC_DENOM[m],
    each product taken left to right, and the six terms are summed as
    ((t0 + t2) + t4) + ((t1 + t3) + t5), the order in which numpy's einsum
    sums the same weights times an (n, 6) array of stencil values, so the
    two forms agree bit for bit.  An inf - inf or 0 * inf in those sums
    gives NaN without a floating-point warning, as einsum does; the stencils
    that hold +inf, found from one prefix sum over the table, then read +inf.
    """
    j0 = p.astype(np.intp)
    j0 -= 2
    np.maximum(j0, 0, out=j0)
    np.minimum(j0, table.size - 6, out=j0)
    d0 = p - j0
    d1, d2, d3, d4, d5 = d0 - 1.0, d0 - 2.0, d0 - 3.0, d0 - 4.0, d0 - 5.0
    l2 = d0 * d1
    l3 = l2 * d2
    l4 = l3 * d3
    r3 = d5 * d4
    r2 = r3 * d3
    r1 = r2 * d2
    terms = (r1 * d1, d0 * r1, l2 * r2, l3 * r3, l4 * d5, l4 * d4)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, t in enumerate(terms):
            t /= _QUINTIC_DENOM[m]
            t *= table[m:].take(j0)
        t0, t1, t2, t3, t4, t5 = terms
        t0 += t2
        t0 += t4
        t1 += t3
        t1 += t5
        t0 += t1
    posinf = table == np.inf
    if posinf.any():
        count = np.concatenate(([0], np.cumsum(posinf)))
        t0[count[j0 + 6] > count[j0]] = np.inf
    return t0


def _settled(coarse: np.ndarray, fine: np.ndarray, c: float) -> bool:
    """True when the quintic through coarse (fine's even nodes) gives fine's
    odd nodes to c |dI| <= _TABLE_TOL, pi's relative error, wherever
    exp(-c I) neither underflows to 0 (where pi is 0 either way) nor
    overflows (where the mass is infinite either way).  A level with fewer
    than six nodes has no stencil and is not settled."""
    if coarse.size < 6:
        return False
    fresh = fine[1::2]
    guess = _quintic(coarse, np.arange(coarse.size - 1) + 0.5)
    seen = ((np.exp(-c * np.fmin(guess, fresh)) > 0.0)
            & (np.exp(-c * np.fmax(guess, fresh)) < np.inf))
    return bool(np.all(c * np.abs(guess - fresh)[seen] <= _TABLE_TOL))


def _slab(slabs: dict, j: int, lower: float, integral, c: float) -> np.ndarray:
    """I_P (integral(y)) on uniform nodes of [l + 2^j, l + 2^(j+1)], built
    under the _settled check on first need and kept in slabs.

    Far out, a node's I_P may overflow to +inf (pi is 0 there) or be NaN
    where the drift itself overflows (case 1's sin(2 pi y) past
    y = 2.9e307) or the node does (l + 2^1024); both are kept, without a
    floating-point warning, and `_table_integral` refuses a NaN it reads."""
    if j not in slabs:
        start = math.ldexp(1.0, j)
        with np.errstate(over="ignore", invalid="ignore"):
            slabs[j] = _doubled_table(
                lambda t: integral(lower + start * (1.0 + t)),
                _SLAB_PANELS, lambda coarse, fine: _settled(coarse, fine, c))
    return slabs[j]


def _table_integral(d: InvariantDensity, y: np.ndarray) -> np.ndarray:
    """I_P(y) read from the density's tables.

    On [l, support_hi] the closed-form inverse of y = l + W (3s^2 - 2s^3),
    s = 1/2 - sin(arcsin(1 - 2u) / 3) with u = (y - l) / W, locates y in
    inner_table; one-sided, y past support_hi is y - l = 2^j (1 + t) in
    slab j.  Raises ValueError where a value read is NaN: the drift
    overflows there and pi is undefined (see _slab).
    """
    lower = d.barrier.lower
    u = np.maximum((y - lower) / (d.support_hi - lower), 0.0)
    if d.barrier.mode == "two_sided":
        u = np.minimum(u, 1.0)   # x + r h may pass the barrier by an ulp
    out = np.empty(u.shape)
    inside = u <= 1.0
    s = 0.5 - np.sin(np.arcsin(1.0 - 2.0 * u[inside]) / 3.0)
    out[inside] = _quintic(d.inner_table, s * (d.inner_table.size - 1))
    # y - l = mant 2^expo, mant in [1/2, 1): slab expo - 1
    mant, expo = np.frexp(y[~inside] - lower)
    past = out[~inside]
    c = 2.0 / (d.sigma * d.sigma)
    # a set, not np.unique, whose first call in a process costs about 10 ms
    for e in set(expo.tolist()):
        slab = _slab(d.slabs, e - 1, lower, lambda x: inner_integral(d, x), c)
        at = expo == e
        past[at] = _quintic(slab, (2.0 * mant[at] - 1.0) * (slab.size - 1))
    if np.isnan(past).any():
        raise _undefined_pi(y[~inside][np.isnan(past)][0])
    out[~inside] = past
    return out


def _undefined_pi(y) -> ValueError:
    return ValueError("pi is undefined where the drift overflows: I_P is "
                      f"NaN at y = {float(y)!r}")


def _pi(d: InvariantDensity, y: np.ndarray) -> np.ndarray:
    c = 2.0 / (d.sigma * d.sigma)
    return np.exp(-c * _table_integral(d, y)) / d.normalizer


def pi_eval(d: InvariantDensity, x):
    """Density value(s) at x: exp(-(2/sigma^2) I_P(x)) / Z, I_P read from
    the density's tables (see _table_integral).  Raises ValueError for an x
    that is not finite or lies outside the barrier domain, or where the
    drift overflows and I_P is NaN (one-sided case 1 at 1.7e308)."""
    xs = np.asarray(x, dtype=float)
    if not (np.isfinite(xs).all() and d.barrier.contains(xs)):
        raise ValueError("x must be finite and lie in the barrier domain")
    out = _pi(d, np.atleast_1d(xs))
    return float(out[0]) if xs.ndim == 0 else out


def f_eval(d: InvariantDensity, k: KernelSpec, x: float) -> float:
    """Kernel-smoothed density F(x) = int K(r) pi(x + r h) dr.

    pi is extended by zero outside the domain, so the r-range is clipped to
    the part of [-1,1] that stays inside [l, u] (or [l, inf) one-sided).
    The r-rule is the inner integral's composite Simpson rule
    (`_integral_from`) with d.quad_panels panels, and each node's pi
    is pi_eval's, read from the density's tables: no drift is evaluated
    unless a one-sided target reaches a slab past the first one beyond
    support_hi, which the tail test already built.  Raises pi_eval's
    ValueError where the drift overflows.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    h = k.bandwidth
    r_lo = max(-1.0, (d.barrier.lower - x) / h)
    r_hi = 1.0
    if d.barrier.mode == "two_sided":
        r_hi = min(1.0, (d.barrier.upper - x) / h)
    if r_lo >= r_hi:
        return 0.0

    def integrand(r):
        return np.asarray(k.fn(r)) * _pi(d, x + r * h)

    val = _integral_from(integrand, r_lo, r_hi, d.quad_panels)
    return max(val, 0.0)


def sigma_eval(d: InvariantDensity, f: float) -> float:
    """Sigma(x) = sigma^2 / F(x), for F = f_eval(d, k, x) of the drift -b law.

    The caller passes F, so each point's F quadrature runs once.  The
    asymptotic variance of sqrt(n h Delta) (b_hat(x) - b(x)) is
    int K^2 * Sigma(x); this function leaves the kernel factor int K^2 out.
    An F that is not positive, NaN included, raises UndefinedVarianceError.
    """
    if not f > 0.0:
        raise UndefinedVarianceError(
            f"smoothed density F = {f:g} is not positive; variance undefined")
    return d.sigma * d.sigma / f
