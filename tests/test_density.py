"""Tests for the closed-form invariant density and its functionals."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from refsde import (
    BarrierConfig,
    DriftSpec,
    InvariantDensity,
    ModelNotErgodicError,
    UndefinedVarianceError,
    builtin_drift,
    epanechnikov,
    f_eval,
    invariant_density,
    pi_eval,
    sigma_eval,
)
from refsde.density import (
    _NODE_BUDGET,
    _NORM_RTOL,
    _QUINTIC_DENOM,
    _TABLE_TOL,
    _doubled_table,
    _fixed_simpson,
    _inner_blocks,
    _integral_from,
    _quintic,
    _simpson_nodes_weights,
    _table_integral,
    inner_integral,
)

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)
SIGMA = 0.2


def _const_drift(c):
    return DriftSpec(f"const{c}",
                     lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))


def _raw(drift, panels, hi=3.0, barrier=TWO_SIDED):
    # unnormalized evaluator: enough for inner_integral, which reads neither
    # Z nor the tables
    return InvariantDensity(drift=drift, sigma=SIGMA, barrier=barrier,
                            normalizer=1.0, quad_panels=panels, support_hi=hi,
                            inner_table=np.zeros(0))


def _direct_g(drift, sigma, x, panels=1024):
    """exp(-c I_P(x)) with I_P by the direct inner rule, one per target:
    an oracle that reads none of the density's tables."""
    c = 2.0 / (sigma * sigma)
    return np.exp(-c * inner_integral(_raw(drift, panels), x))


def test_inner_integral_constant_drift():
    d = _raw(_const_drift(1.5), 64)
    assert inner_integral(d, 2.0) == pytest.approx(3.0, abs=1e-12)
    assert inner_integral(d, 0.0) == 0.0


def test_inner_integral_vectorized_closed_form():
    d = _raw(builtin_drift(2), 256)
    xs = np.array([0.0, 1.0, 2.5])
    vals = inner_integral(d, xs)
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    want = 0.5 * (xs * np.sqrt(1.0 + xs * xs) + np.arcsinh(xs))
    np.testing.assert_allclose(vals, want, atol=1e-10)


def test_inner_integral_sqrt_drift_high_resolution():
    # int_0^1 2 sqrt(y) dy = 4/3; the root kink at 0 needs heavy panel counts
    d = _raw(builtin_drift(3), 2 ** 20)
    assert abs(inner_integral(d, 1.0) - 4.0 / 3.0) < 1e-10


def test_invariant_density_validates_inputs():
    with pytest.raises(ValueError):
        invariant_density(_const_drift(0.0), 0.0, TWO_SIDED)
    with pytest.raises(ValueError):
        invariant_density(_const_drift(0.0), SIGMA, TWO_SIDED, quad_panels=0)
    # sigma^2 overflows, underflows to 0, or is subnormal with c = inf
    for sigma in (1e200, 1e-200, 1e-160):
        with pytest.raises(ValueError, match="out of range"):
            invariant_density(_const_drift(0.0), sigma, TWO_SIDED)
    with pytest.raises(ValueError):
        InvariantDensity(drift=_const_drift(0.0), sigma=SIGMA,
                         barrier=TWO_SIDED, normalizer=0.0, quad_panels=64,
                         support_hi=3.0, inner_table=np.zeros(0))


def test_pi_uniform_for_zero_drift():
    dens = invariant_density(_const_drift(0.0), SIGMA, TWO_SIDED)
    xs = np.linspace(0.0, 3.0, 13)
    np.testing.assert_allclose(pi_eval(dens, xs), 1.0 / 3.0, atol=1e-12)


def test_pi_exponential_for_constant_drift():
    # b = 0.02, sigma = 0.2: 2b/sigma^2 = 1, so pi(x) = kappa e^-x on [0,3]
    dens = invariant_density(_const_drift(0.02), SIGMA, TWO_SIDED)
    xs = np.linspace(0.0, 3.0, 21)
    kappa = 1.0 / (1.0 - math.exp(-3.0))
    np.testing.assert_allclose(pi_eval(dens, xs), kappa * np.exp(-xs),
                               atol=1e-8)


def test_pi_scalar_and_array_agree():
    dens = invariant_density(builtin_drift(1), SIGMA, TWO_SIDED)
    xs = np.array([0.3, 1.1, 2.7])
    arr = pi_eval(dens, xs)
    for x, v in zip(xs, arr):
        assert pi_eval(dens, float(x)) == pytest.approx(v, rel=1e-14)


def test_pi_integrates_to_one_all_cases_and_modes():
    for cid in (1, 2, 3):
        for barrier in (TWO_SIDED, BarrierConfig.one_sided(0.0)):
            dens = invariant_density(builtin_drift(cid), SIGMA, barrier)
            total, _ = quad(lambda x: pi_eval(dens, x), 0.0, dens.support_hi,
                            limit=200)
            assert abs(total - 1.0) < 1e-8


def test_one_sided_support_covers_the_mass():
    dens = invariant_density(builtin_drift(2), SIGMA,
                             BarrierConfig.one_sided(0.0))
    assert dens.support_hi >= 1.0
    assert pi_eval(dens, dens.support_hi) < 1e-8


def test_nonintegrable_tail_raises():
    # drift pulling away from the lone barrier has no stationary law; nor
    # has b = 1.5 - x, whose g = exp(-(2/sigma^2)(1.5 y - y^2/2)) falls
    # below 1e-10 on [1, 2] at sigma 0.2 and grows without bound past y = 3
    for drift, sigma in [(_const_drift(-1.0), SIGMA),
                         (_const_drift(-1.0), 1.0),
                         (_const_drift(-0.01), 1.0),
                         (_const_drift(0.0), 1.0),
                         (_MEAN_REVERTING, SIGMA),
                         (_MEAN_REVERTING, 1.0)]:
        with np.errstate(over="ignore"):
            with pytest.raises(ModelNotErgodicError, match="did not vanish"):
                invariant_density(drift, sigma, BarrierConfig.one_sided(0.0))


_SUPPORT = [(builtin_drift(1), 0.2, 2.0), (builtin_drift(1), 1.0, 8.0),
            (builtin_drift(2), 0.2, 2.0), (builtin_drift(2), 1.0, 16.0),
            (builtin_drift(3), 0.2, 2.0), (builtin_drift(3), 1.0, 8.0),
            (_const_drift(6.0), 0.2, 2.0), (_const_drift(6.0), 1.0, 4.0)]


@pytest.mark.parametrize("drift, sigma, hi", _SUPPORT,
                         ids=[f"{d.name}-{s}" for d, s, _ in _SUPPORT])
def test_one_sided_support_hi_is_pinned(drift, sigma, hi):
    # support_hi = l + 2^(j+1) for the first slab j whose mass and the next
    # slab's are below 1e-10; the slabs up to the first one past support_hi
    # are built by the tail test and kept
    dens = invariant_density(drift, sigma, BarrierConfig.one_sided(0.0))
    assert dens.support_hi == hi
    m = math.frexp(hi)[1] - 1
    assert sorted(dens.slabs) == list(range(m + 1))


def test_stationarity_residual_small():
    # central-difference residual of (sigma^2/2) pi'' + (b pi)'
    drifts = [_const_drift(0.02),
              DriftSpec("wavy",
                        lambda x: 0.02 * (1.0 + np.sin(np.asarray(x, float))))]
    dx = 1e-3
    for drift in drifts:
        dens = invariant_density(drift, SIGMA, TWO_SIDED, quad_panels=512)
        worst = 0.0
        for x in np.linspace(0.2, 2.8, 50):
            p_m, p_0, p_p = (pi_eval(dens, x - dx), pi_eval(dens, x),
                             pi_eval(dens, x + dx))
            second = (p_p - 2.0 * p_0 + p_m) / dx ** 2
            flux = (float(drift(x + dx)) * p_p
                    - float(drift(x - dx)) * p_m) / (2.0 * dx)
            worst = max(worst, abs(0.5 * SIGMA ** 2 * second + flux))
        assert worst < 1e-4


def test_f_eval_uniform_interior_and_boundary():
    dens = invariant_density(_const_drift(0.0), SIGMA, TWO_SIDED)
    k = epanechnikov(0.3)
    assert f_eval(dens, k, 1.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # at a barrier only half the kernel window is inside the domain
    assert f_eval(dens, k, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert f_eval(dens, k, 3.0) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_f_eval_tracks_pi_as_h_shrinks():
    dens = invariant_density(builtin_drift(2), SIGMA, TWO_SIDED)
    target = pi_eval(dens, 1.5)
    errs = [abs(f_eval(dens, epanechnikov(h), 1.5) - target)
            for h in (1e-2, 1e-3)]
    assert errs[1] < errs[0]


def test_sigma_eval_uniform_values():
    dens = invariant_density(_const_drift(0.0), SIGMA, TWO_SIDED)
    k = epanechnikov(0.3)
    f_mid, f_edge = f_eval(dens, k, 1.5), f_eval(dens, k, 0.0)
    assert sigma_eval(dens, f_mid) == pytest.approx(0.12, abs=1e-12)
    assert sigma_eval(dens, f_edge) == pytest.approx(0.24, abs=1e-12)


def test_sigma_eval_is_sigma_squared_over_f():
    dens = invariant_density(_const_drift(0.02), SIGMA, TWO_SIDED)
    k = epanechnikov(0.2)
    for x in (0.4, 1.1, 2.0):
        f = f_eval(dens, k, x)
        assert sigma_eval(dens, f) == pytest.approx(SIGMA ** 2 / f, rel=1e-12)


def test_sigma_eval_raises_where_mass_vanishes():
    # b = 6 piles the (pinned-form) density so hard against the lower barrier
    # that F underflows to exactly 0 near the opposite end
    dens = invariant_density(_const_drift(6.0), SIGMA, TWO_SIDED)
    with pytest.raises(UndefinedVarianceError):
        sigma_eval(dens, f_eval(dens, epanechnikov(0.005), 2.99))
    for f in (-1.0, math.nan):
        with pytest.raises(UndefinedVarianceError):
            sigma_eval(dens, f)


def _smooth(x):
    return np.exp(np.sin(3.0 * np.asarray(x, dtype=float)))


def _case3_two_sided_g(x):
    # the uniform normalizer's integrand for case 3, two-sided, with a
    # 128-panel inner rule: it takes the same seven outer doublings as at
    # the default 1024 panels, at an eighth of the cost
    return _direct_g(builtin_drift(3), SIGMA, x, 128)


def _level_simpson(vals, width):
    # Simpson on [0, width] of the values at one doubling level's nodes
    _, w = _simpson_nodes_weights((vals.size - 1) // 2)
    return float(vals @ w) * width


def _converged(fn, width, start):
    """Uniform Simpson of fn on [0, width], panels doubling from start until
    two levels agree to _NORM_RTOL relative, as the normalizer's Z test."""
    def agree(coarse, fine):
        z = _level_simpson(fine, width)
        return abs(z - _level_simpson(coarse, width)) <= _NORM_RTOL * abs(z)
    return _level_simpson(_doubled_table(lambda s: fn(width * s), start,
                                         agree), width)


@pytest.mark.parametrize("start", [1024, 1000])
@pytest.mark.parametrize("fn", [_smooth, _case3_two_sided_g],
                         ids=["smooth", "case3-g"])
def test_converged_simpson_evaluates_each_node_once(fn, start):
    seen = []

    def counting(x):
        seen.append(np.array(x, dtype=float))
        return fn(x)

    z = _converged(counting, 3.0, start)
    nodes = np.sort(np.concatenate(seen))
    p_final = (nodes.size - 1) // 2
    assert nodes.size == 2 * p_final + 1
    # the levels went start, 2 start, ..., p_final and stopped at the first
    # pair of fresh rules that agree
    levels = [start]
    while levels[-1] < p_final:
        levels.append(2 * levels[-1])
    assert levels[-1] == p_final and len(levels) >= 2
    fresh = [_fixed_simpson(fn, 0.0, 3.0, p) for p in levels]
    agree = [abs(c - p) <= _NORM_RTOL * abs(c)
             for p, c in zip(fresh, fresh[1:])]
    assert agree[-1] and not any(agree[:-1])
    # the evaluated nodes are exactly the final level's, each once
    np.testing.assert_array_equal(nodes, 3.0 * np.linspace(0.0, 1.0,
                                                           2 * p_final + 1))
    np.testing.assert_allclose(z, fresh[-1], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("panels, rtol", [(1024, 1e-14), (2 ** 15, 0.0)])
def test_inner_integral_blocks_match_single_targets(panels, rtol):
    # one target is a BLAS dot and a block a gemv, which sum the 2P + 1 terms
    # in different orders (up to 1.3e-15 apart with OpenBLAS); at 2**15
    # panels a block holds one target, so the two are the same call
    d = _raw(builtin_drift(2), panels)
    xs = np.linspace(0.0, 3.0, 97)
    one_by_one = np.array([inner_integral(d, x) for x in xs])
    np.testing.assert_allclose(inner_integral(d, xs), one_by_one,
                               rtol=rtol, atol=0.0)


def test_inner_integral_blocks_match_one_unblocked_product():
    # blocks of whole groups of four targets give what one Simpson product
    # over every target at once gives
    d = _raw(builtin_drift(2), 1024)
    xs = np.linspace(0.0, 3.0, 96)
    offsets, w = _simpson_nodes_weights(1024)
    want = (d.drift.fn(0.0 + xs[:, None] * offsets[None, :]) @ w) * xs
    np.testing.assert_allclose(inner_integral(d, xs), want,
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("panels", [7, 1024, 2 ** 15])
def test_inner_rule_blocks_stay_within_node_budget(panels):
    sizes = []
    base = builtin_drift(2)

    def recording(x):
        sizes.append(np.size(x))
        return base.fn(x)

    d = _raw(DriftSpec("recording", recording), panels)
    xs = np.linspace(0.0, 3.0, 61)
    inner_integral(d, xs)
    per_target = 2 * panels + 1
    assert sum(sizes) == xs.size * per_target
    if per_target > _NODE_BUDGET:
        assert set(sizes) == {per_target}
    else:
        assert max(sizes) <= _NODE_BUDGET


@pytest.mark.parametrize("barrier", [TWO_SIDED, BarrierConfig.one_sided(0.0)],
                         ids=["two-sided", "one-sided"])
def test_case3_normalizer_stops_at_first_doubling(monkeypatch, barrier):
    # the graded map takes case 3's boundary layer and sqrt endpoint at the
    # first doubling of the default 1024 panels: 2 * 2048 + 1 outer nodes
    # (a uniform rule needs 2 * 32768 + 1).  One-sided, the tail test's
    # slabs are built first; the graded table is the last one built.
    tables = []

    def counting(fn, start, settled):
        outer = []
        tables.append(outer)

        def fn_counted(s):
            outer.append(np.size(s))
            return fn(s)
        return _doubled_table(fn_counted, start, settled)

    monkeypatch.setattr("refsde.density._doubled_table", counting)
    dens = invariant_density(builtin_drift(3), SIGMA, barrier)
    assert sum(tables[-1]) == dens.inner_table.size == 2 * 2048 + 1


_ZS = [(builtin_drift(c), b) for c in (1, 2, 3)
       for b in (TWO_SIDED, BarrierConfig.one_sided(0.0))] + [
    (_const_drift(-1.0), TWO_SIDED),
    (DriftSpec("mean-reverting", lambda x: 1.5 - np.asarray(x, dtype=float)),
     TWO_SIDED),
]


@pytest.mark.parametrize("drift, barrier", _ZS,
                         ids=[f"{d.name}-{b.mode}" for d, b in _ZS])
def test_graded_normalizer_matches_uniform_rule(drift, barrier):
    # Both rules integrate the same g (same inner rule) and stop once two
    # levels differ by at most _NORM_RTOL * Z.  Simpson's error falls by at
    # least 2**2.5 per doubling even at a y**1.5 endpoint, so each rule's
    # error is at most 1e-10 * Z / (2**2.5 - 1), and the two differ by at
    # most 4.3e-11 relative.
    dens = invariant_density(drift, SIGMA, barrier)

    def g(x):
        return _direct_g(drift, SIGMA, x)

    uniform = _converged(g, dens.support_hi, 1024)
    assert dens.normalizer == pytest.approx(uniform, rel=1e-10, abs=0.0)


def test_small_normalizer_is_relatively_accurate():
    # b = 6 on [0, 3] at sigma 0.2: pi is proportional to exp(-300 x), so
    # Z = (1 - e**-900) / 300, a boundary layer 1/300 wide.  The inner rule
    # is exact for a constant drift, and the stop test at 1e-10 * Z leaves
    # at most 1e-10 / (2**2.5 - 1) relative error (see above); a test
    # absolute for Z < 1 stops at 1.7e-9.
    dens = invariant_density(_const_drift(6.0), SIGMA, TWO_SIDED)
    z = -math.expm1(-900.0) / 300.0
    assert dens.normalizer == pytest.approx(z, rel=2.2e-11, abs=0.0)


def _f_oracle(d, k, x):
    """F(x) by the 1024-panel Simpson r-rule over the direct inner rule's
    g / Z: one inner rule per node, reading none of the density's tables."""
    h = k.bandwidth
    r_lo = max(-1.0, (d.barrier.lower - x) / h)
    r_hi = 1.0
    if d.barrier.mode == "two_sided":
        r_hi = min(1.0, (d.barrier.upper - x) / h)
    if r_lo >= r_hi:
        return 0.0
    r = np.linspace(r_lo, r_hi, 2 * 1024 + 1)
    w = np.full(r.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    vals = (np.asarray(k.fn(r)) * _direct_g(d.drift, d.sigma, x + r * h)
            / d.normalizer)
    return max(float(vals @ w) / (6.0 * 1024) * (r_hi - r_lo), 0.0)


_MEAN_REVERTING = DriftSpec("mean-reverting",
                            lambda x: 1.5 - np.asarray(x, dtype=float))
# b = -1 and b = 1.5 - x have no stationary law on [0, inf): one-sided they
# enter with the built-in cases only
_ORACLE = [(d, s, TWO_SIDED)
           for d in [builtin_drift(1), builtin_drift(2), builtin_drift(3),
                     _const_drift(-1.0), _MEAN_REVERTING]
           for s in (0.2, 1.0)] + [
    (builtin_drift(c), s, BarrierConfig.one_sided(0.0))
    for c in (1, 2, 3) for s in (0.2, 1.0)]


@pytest.mark.parametrize("drift, sigma, barrier", _ORACLE,
                         ids=[f"{d.name}-{s}-{b.mode}" for d, s, b in _ORACLE])
def test_f_eval_matches_the_pi_eval_rule(drift, sigma, barrier):
    # The table stops when c |dI| <= 1e-10 at the coarser level's fresh
    # nodes, so each pi value read from it is within about 1e-10 relative of
    # the direct rule's, and F, a positive-weight sum of them, is too.
    k = epanechnikov(0.1)
    dens = invariant_density(drift, sigma, barrier)
    hi = dens.support_hi
    xs = [0.0, 0.04, 1.234]
    if barrier.mode == "two_sided":
        xs.append(2.97)
    else:   # windows that straddle support_hi, and one in the second slab
        xs += [hi - 0.05, hi + 0.05, 2.0 * hi + 0.3]
    for x in xs:
        want = _f_oracle(dens, k, x)
        assert f_eval(dens, k, x) == pytest.approx(want, rel=1e-10, abs=0.0)
    # Z is bitwise the final level's fresh graded Simpson rule, and pi_eval
    # is the direct rule's g over Z to the table's stop bound, on the
    # graded table and, one-sided, on the slabs past support_hi
    width = hi - 0.0

    def graded(s):
        return (_direct_g(drift, sigma, width * (s * s * (3.0 - 2.0 * s)))
                * (6.0 * width * s * (1.0 - s)))

    z = _fixed_simpson(graded, 0.0, 1.0, (dens.inner_table.size - 1) // 2)
    assert dens.normalizer == z
    ys = np.linspace(0.0, hi if barrier.mode == "two_sided" else 4.0 * hi, 41)
    np.testing.assert_allclose(pi_eval(dens, ys),
                               _direct_g(drift, sigma, ys) / z,
                               rtol=1e-10, atol=0.0)


_STOP = [(DriftSpec("sin20x", lambda x: np.sin(20.0 * np.asarray(x, float))),
          TWO_SIDED),
         (builtin_drift(1), BarrierConfig.one_sided(0.0)),
         (builtin_drift(3), BarrierConfig.one_sided(0.0))]


@pytest.mark.parametrize("drift, barrier", _STOP,
                         ids=[f"{d.name}-{b.mode}" for d, b in _STOP])
def test_table_meets_its_interpolation_bound_at_fresh_points(drift, barrier):
    # At 8 panels Z settles before the table does: without the table's own
    # stop test, sin(20 x)'s table stops at c |dI| = 6e-9 and the one-sided
    # slabs at their first doubling, case 1's at 4e-4.
    dens = invariant_density(drift, SIGMA, barrier, quad_panels=8)
    c = 2.0 / SIGMA ** 2
    hi = dens.support_hi
    rng = np.random.default_rng(7)
    ys = rng.uniform(0.0, hi, 2000)
    if barrier.mode != "two_sided":   # slabs 0 and 1
        ys = np.concatenate([ys, rng.uniform(hi, 4.0 * hi, 1000)])
    want = inner_integral(dens, ys)
    err = c * np.abs(_table_integral(dens, ys) - want)
    seen = np.exp(-c * want) > 0.0   # elsewhere pi is 0 either way
    assert err[seen].max() <= _TABLE_TOL


def test_f_eval_runs_no_inner_rule():
    # two-sided, F and pi read only the table; one-sided, the tail test
    # builds slabs 0 to m, the first past support_hi = 2^m, and a later slab
    # is built by the first target that reaches it and read after that
    calls = []
    base = builtin_drift(1)

    def counting(x):
        calls.append(np.size(x))
        return base.fn(x)

    k = epanechnikov(0.1)
    drift = DriftSpec("counting", counting)
    dens = invariant_density(drift, SIGMA, TWO_SIDED)
    calls.clear()
    for x in np.linspace(0.0, 3.0, 31):
        f_eval(dens, k, float(x))
    pi_eval(dens, np.linspace(0.0, 3.0, 31))
    pi_eval(dens, 1.5)
    assert calls == [] and dens.slabs == {}
    dens = invariant_density(drift, SIGMA, BarrierConfig.one_sided(0.0))
    hi = dens.support_hi
    m = math.frexp(hi)[1] - 1
    assert hi == 2.0 ** m and sorted(dens.slabs) == list(range(m + 1))
    calls.clear()
    for x in (1.0, hi - 0.05, hi + 0.05, 2.0 * hi - 0.2):
        f_eval(dens, k, x)
    pi_eval(dens, np.array([1.0, hi + 0.05, 2.0 * hi - 0.01]))
    assert calls == [] and sorted(dens.slabs) == list(range(m + 1))
    f_eval(dens, k, 2.0 * hi + 0.05)
    assert sorted(dens.slabs) == list(range(m + 2)) and calls
    calls.clear()
    f_eval(dens, k, 2.0 * hi + 0.5)
    pi_eval(dens, 2.0 * hi + 0.3)
    assert calls == []


def test_f_eval_rejects_non_finite_x():
    # pi_eval also rejects a point outside the barrier domain, alone or
    # inside an array
    k = epanechnikov(0.1)
    for barrier, outside in [(BarrierConfig.one_sided(0.0), [-0.1]),
                             (TWO_SIDED, [-0.1, 3.1])]:
        dens = invariant_density(builtin_drift(2), SIGMA, barrier)
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                f_eval(dens, k, x)
            with pytest.raises(ValueError, match="finite"):
                pi_eval(dens, x)
        for x in outside:
            for arg in (x, np.array([1.0, x])):
                with pytest.raises(ValueError, match="barrier domain"):
                    pi_eval(dens, arg)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_far_one_sided_points_read_zero_or_refuse(case):
    # at the largest floats I_P overflows to +inf, so pi and F are 0, unless
    # the drift itself overflows there (case 1's sin(2 pi x) past 2.9e307):
    # then pi is undefined and refused, never NaN, and no numpy warning shows
    k = epanechnikov(0.1)
    dens = invariant_density(builtin_drift(case), SIGMA,
                             BarrierConfig.one_sided(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pi_eval(dens, 1e307) == f_eval(dens, k, 1e307) == 0.0
        for x in (1.7e308, sys.float_info.max):
            if case == 1:
                with pytest.raises(ValueError, match="drift overflows"):
                    pi_eval(dens, x)
                with pytest.raises(ValueError, match="drift overflows"):
                    f_eval(dens, k, x)
            else:
                assert pi_eval(dens, x) == f_eval(dens, k, x) == 0.0


def _quintic_oracle(table, p):
    """_quintic point by point in Python floats, each operation in the
    kernel's stated order: the basis products left to right, the terms
    summed ((t0 + t2) + t4) + ((t1 + t3) + t5)."""
    out = []
    for x in p.tolist():
        j0 = min(max(int(x) - 2, 0), table.size - 6)
        d = [(x - j0) - k for k in range(6)]
        vals = table[j0:j0 + 6].tolist()
        t = []
        for m in range(6):
            left = right = 1.0
            for k in range(m):
                left *= d[k]
            for k in range(5, m, -1):
                right *= d[k]
            t.append(left * right / float(_QUINTIC_DENOM[m]) * vals[m])
        total = ((t[0] + t[2]) + t[4]) + ((t[1] + t[3]) + t[5])
        out.append(math.inf if math.inf in vals else total)
    return np.array(out)


def _quintic_einsum(table, p):
    # the (points, 6) form: cumulative basis products and one einsum
    j0 = np.clip(p.astype(np.intp) - 2, 0, table.size - 6)
    d = (p - j0)[:, None] - np.arange(6.0)
    ones = np.ones((p.size, 1))
    left = np.cumprod(np.hstack([ones, d[:, :5]]), axis=1)
    right = np.cumprod(np.hstack([ones, d[:, :0:-1]]), axis=1)[:, ::-1]
    vals = table[j0[:, None] + np.arange(6)]
    out = np.einsum("ij,ij->i", left * right / _QUINTIC_DENOM, vals)
    return np.where(np.isposinf(vals).any(axis=1), np.inf, out)


def _quintic_cases():
    rng = np.random.default_rng(7)
    smooth = np.cumsum(rng.standard_normal(513)) * 1e3
    ends = np.concatenate([rng.uniform(0.0, 3.0, 50),
                           rng.uniform(509.0, 512.0, 50)])
    odd = np.cumsum(rng.standard_normal(40))
    odd[12:15] = np.inf           # an overflowed inner integral
    odd[30] = np.nan              # a drift that overflowed
    odd[33] = -np.inf
    return [
        ("random", smooth, rng.uniform(0.0, 512.0, 2000)),
        ("end-stencils", smooth, ends),
        ("integer", smooth, np.arange(513.0)),
        ("inf-nan", odd, np.concatenate([rng.uniform(0.0, 39.0, 500),
                                         np.arange(40.0)])),
        ("six-nodes", smooth[:6], np.linspace(0.0, 5.0, 41)),
    ]


@pytest.mark.parametrize("table, p", [c[1:] for c in _quintic_cases()],
                         ids=[c[0] for c in _quintic_cases()])
def test_quintic_matches_explicit_order_and_einsum_form(table, p):
    # bit for bit the stated operation order; within 1e-15 of the einsum
    # form (bitwise on numpy 2.4, where einsum sums in that order); and no
    # floating-point warning where a stencil's sums meet inf - inf or 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _quintic(table, p)
        want = _quintic_einsum(table, p)
    np.testing.assert_array_equal(got, _quintic_oracle(table, p))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("panels, targets", [(7, 2 * 4368 + 5), (1024, 61)])
def test_integral_from_matches_broadcast_nodes(panels, targets):
    # nodes built flat give the bits of the broadcast (targets, nodes)
    # product, block by block, with a short last block
    drift = builtin_drift(1)
    offsets, w = _simpson_nodes_weights(panels)
    block = _NODE_BUDGET // offsets.size // 4 * 4
    assert targets // block >= 2 and targets % block not in (0, block)
    lower = 0.25
    xs = np.linspace(lower, 3.0, targets)
    widths = xs - lower
    want = np.concatenate([
        (drift.fn(lower + widths[i:i + block, None] * offsets[None, :]) @ w)
        * widths[i:i + block] for i in range(0, targets, block)])
    np.testing.assert_array_equal(_integral_from(drift.fn, lower, xs, panels),
                                  want)


def test_simpson_nodes_weights_are_cached_read_only():
    offsets, w = _simpson_nodes_weights(9)
    again = _simpson_nodes_weights(9)
    assert again[0] is offsets and again[1] is w
    block, tiled = _inner_blocks(9)
    assert _inner_blocks(9)[1] is tiled
    np.testing.assert_array_equal(tiled, np.tile(offsets, block))
    assert block == _NODE_BUDGET // offsets.size // 4 * 4
    assert not (offsets.flags.writeable or w.flags.writeable
                or tiled.flags.writeable)


@pytest.mark.parametrize("panels", [2, 1024])
def test_normalizer_refuses_a_nan_level_at_once(panels):
    # case 1's drift is NaN from about 2.86e307 (sin of an overflowed
    # 2 pi x): the first level holds NaN, so the doubling stops there,
    # without a warning.  The domain stays narrow enough that 6 W is
    # finite, which invariant_density checks before any quadrature.
    calls = []
    base = builtin_drift(1)

    def counting(x):
        calls.append(np.size(x))
        return base.fn(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="drift overflows"):
            invariant_density(DriftSpec("counting", counting), SIGMA,
                              BarrierConfig.two_sided(0.0, 2.9e307),
                              quad_panels=panels)
    assert sum(calls) == (2 * panels + 1) ** 2


def test_normalizer_refuses_a_level_whose_z_is_not_finite():
    # b = -1e300 on [0, 3]: exp(-c I_P) overflows to inf away from the lower
    # barrier, so Z is inf at the first doubling and no level follows it
    levels = []

    def counting(x):
        levels.append(np.size(x))
        return np.full(np.shape(x), -1e300)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelNotErgodicError, match="not finite"):
            invariant_density(DriftSpec("steep", counting), SIGMA, TWO_SIDED,
                              quad_panels=8)
    assert sum(levels) == (2 * 16 + 1) * 17
