"""Tests for the drift estimators, bandwidth schedules and estimate CSV."""

import math
import tracemalloc

import numpy as np
import pytest

from refsde import estimate
from refsde import (
    BarrierConfig,
    DriftSpec,
    EstimateResult,
    KernelSpec,
    SamplePath,
    SimConfig,
    bandwidth,
    builtin_drift,
    delta_of_n,
    epanechnikov,
    estimation_grid,
    nw_continuous,
    nw_discrete,
    simulate_fine,
    simulate_path,
    write_estimate_csv,
)

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)


def _const_drift(c):
    return DriftSpec(f"const{c}",
                     lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))


def _tiny_path(xs, delta=0.1, l_reg=None, r_reg=None, barrier=TWO_SIDED):
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    mk = lambda a: np.zeros(n) if a is None else np.asarray(a, dtype=float)
    return SamplePath(delta=delta, x=xs, l_reg=mk(l_reg), r_reg=mk(r_reg),
                      seed=0, barrier=barrier)


def test_kernel_eval_point_values():
    # the estimators evaluate the base kernel as k.fn, scalar or array
    fn = epanechnikov(0.5).fn
    assert fn(0.0) == pytest.approx(0.75)
    assert fn(1.0) == 0.0
    assert fn(-1.0) == 0.0
    assert fn(0.5) == pytest.approx(0.5625)


def test_kernel_eval_clips_outside_support():
    # the raw parabola is negative beyond [-1,1]; k.fn must return 0, since
    # the estimators sum it without clipping
    fn = epanechnikov(1.0).fn
    assert fn(1.5) == 0.0
    out = fn(np.array([-3.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out, [0.0, 0.75, 0.0])


def test_bandwidth_schedule_values():
    assert bandwidth(400, 0.3) == pytest.approx(0.16572270086699936, rel=1e-15)
    assert abs(bandwidth(400, 0.3) - 0.166) < 1e-3
    assert bandwidth(1600, 0.15) == pytest.approx(0.33066025977478425,
                                                  rel=1e-15)
    assert bandwidth(2, 0.5) == pytest.approx(1.0 / math.sqrt(2.0))


def test_bandwidth_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bandwidth(1, 0.3)
    with pytest.raises(ValueError):
        bandwidth(100, 0.0)
    with pytest.raises(ValueError):
        bandwidth(100, 1.0)


def test_delta_schedule():
    assert delta_of_n(400) == pytest.approx(0.018420157493201937, rel=1e-15)
    assert delta_of_n(1000) == pytest.approx(1000.0 ** (-2.0 / 3.0), rel=1e-15)
    with pytest.raises(ValueError):
        delta_of_n(1)


def test_single_window_term_cancels_the_kernel():
    # with one observation in the window the ratio reduces to incr/delta
    p = _tiny_path([1.5, 1.62])
    want = (1.62 - 1.5) / 0.1
    for h in (0.2, 0.37):
        est = nw_discrete(p, epanechnikov(h), np.array([1.45]))
        assert est.values[0] == pytest.approx(want, rel=1e-12)


def test_regulator_increments_enter_the_numerator():
    # lower push: dX = -0.2 came from a free increment of -0.5 plus dL = 0.3
    p = _tiny_path([0.2, 0.0], l_reg=[0.0, 0.3])
    est = nw_discrete(p, epanechnikov(0.3), np.array([0.25]))
    assert est.values[0] == pytest.approx(-5.0, rel=1e-12)
    # upper push: dX = +0.1 despite dR = 0.4 means the free increment was +0.5
    q = _tiny_path([2.9, 3.0], r_reg=[0.0, 0.4])
    est = nw_discrete(q, epanechnikov(0.3), np.array([2.85]))
    assert est.values[0] == pytest.approx(5.0, rel=1e-12)


def test_recovers_constant_drift_without_noise():
    cfg = SimConfig(drift=_const_drift(1.0), sigma=0.0, barrier=TWO_SIDED,
                    n_steps=50, delta=0.01, x0=0.5, seed=0)
    grid = np.linspace(0.55, 0.95, 9)
    est = nw_discrete(simulate_path(cfg), epanechnikov(0.1), grid)
    assert not est.undefined_mask.any()
    np.testing.assert_allclose(est.values, 1.0, atol=1e-12)
    est_c = nw_continuous(simulate_fine(cfg, 4), epanechnikov(0.1), grid)
    np.testing.assert_allclose(est_c.values, 1.0, atol=1e-12)


def test_empty_window_marks_undefined():
    p = _tiny_path([1.5, 1.6, 1.7])
    est = nw_discrete(p, epanechnikov(0.08), np.array([0.3, 1.55, 2.9]))
    assert est.undefined_mask.tolist() == [True, False, True]
    assert np.isnan(est.values[0]) and np.isnan(est.values[2])
    assert est.denominators[0] == 0.0
    assert np.isfinite(est.values[1])


def _brute_nw(path, k, grid):
    obs = path.x[:-1]
    incr = np.diff(path.x) - np.diff(path.l_reg) + np.diff(path.r_reg)
    h = k.bandwidth
    vals = np.full(grid.size, np.nan)
    dens = np.zeros(grid.size)
    for i, g in enumerate(grid):
        num = den = 0.0
        for o, dx in zip(obs, incr):
            u = (o - g) / h
            w = 0.75 * (1.0 - u * u) / h if abs(u) <= 1.0 else 0.0
            num += w * dx
            den += w
        dens[i] = den / obs.size
        if den > 0.0:
            vals[i] = num / (path.delta * den)
    return vals, dens


def _window_edge_case(h):
    # observations exactly at g +- h and one ulp to either side, duplicates,
    # two windows that meet near 0.9, an observation at the barrier, an empty
    # window at 2.7, and the grid in descending order
    g = np.array([2.7, 1.2, 0.9 - h, 0.3])
    edges = [v for e in (g[1] - h, g[1] + h, g[3] - h, g[3] + h)
             for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    xs = np.array(edges + [1.2, 1.2, 1.2, 1.3, 1.3, 0.0, 0.45, 0.45, 1.5])
    xs = xs[xs >= 0.0]  # drop the ulp below 0.3 - h = 0, outside the domain
    xs = xs[np.random.default_rng(4).permutation(xs.size)]
    return _tiny_path(np.append(xs, 1.0)), g


def _multi_group_case(h):
    # enough in-window pairs for several groups of windows; the shuffled grid
    # puts empty windows between nonempty ones, and the window at 1.5 holds
    # every observation
    rng = np.random.default_rng(6)
    p = _tiny_path(rng.uniform(1.21, 1.79, 2001))
    g = np.append(rng.permutation(estimation_grid(0.0, 3.0, 400)), 1.5)
    pairs = int((np.abs(p.x[:-1, None] - g) <= h).sum())
    assert pairs > 5 * estimate._GROUP_PAIRS
    return p, g


def _wide_window_case():
    # windows above one group's worth of pairs, each summed on its own, next
    # to an empty one
    n = estimate._GROUP_PAIRS + 2000
    p = _tiny_path(np.random.default_rng(7).uniform(1.21, 1.79, n + 1))
    return p, np.array([1.5, 0.2, 1.3, 1.55])


def test_nw_discrete_matches_brute_force():
    grid = np.linspace(0.1, 2.9, 25)
    k = epanechnikov(0.3)
    cases = [(simulate_path(SimConfig(drift=builtin_drift(1 + s), sigma=0.2,
                                      barrier=TWO_SIDED, n_steps=200,
                                      delta=0.02, seed=(55, s))), grid)
             for s in range(3)]
    cases.append(_window_edge_case(k.bandwidth))
    cases.append(_multi_group_case(k.bandwidth))
    cases.append(_wide_window_case())
    for p, g in cases:
        est = nw_discrete(p, k, g)
        vals, dens = _brute_nw(p, k, g)
        np.testing.assert_array_equal(np.isnan(vals), est.undefined_mask)
        mask = ~est.undefined_mask
        np.testing.assert_allclose(est.values[mask], vals[mask], atol=1e-12)
        np.testing.assert_allclose(est.denominators, dens, atol=1e-12)


def test_nw_working_set_is_linear_in_n():
    # a wide window over a long path: a grid x observation weight matrix (or
    # every in-window pair at once) would need tens of floats per observation
    n = 200_000
    p = _tiny_path(np.random.default_rng(5).uniform(0.0, 3.0, n + 1))
    grid = estimation_grid(0.0, 3.0, 300)
    k = epanechnikov(1.0)
    tracemalloc.start()
    try:
        nw_discrete(p, k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * 8, f"peak {peak / (n * 8):.1f} floats per observation"


def test_kernel_height_scaling_cancels():
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=300, delta=0.02, seed=77)
    p = simulate_path(cfg)
    grid = estimation_grid(0.0, 3.0, 40)
    k1 = epanechnikov(0.25)
    k5 = KernelSpec("scaled", lambda t: 5.0 * k1.fn(t), 0.25)
    a = nw_discrete(p, k1, grid)
    b = nw_discrete(p, k5, grid)
    np.testing.assert_array_equal(a.undefined_mask, b.undefined_mask)
    mask = ~a.undefined_mask
    np.testing.assert_allclose(a.values[mask], b.values[mask], rtol=1e-12)


def test_estimate_depends_only_on_window_observations():
    xs = np.array([1.5, 1.55, 1.45, 1.5, 2.4, 2.5, 1.5, 1.55])
    ys = xs.copy()
    ys[5] = 2.7  # perturb an observation far from the target point
    g = np.array([1.5])
    k = epanechnikov(0.2)
    a = nw_discrete(_tiny_path(xs), k, g)
    b = nw_discrete(_tiny_path(ys), k, g)
    assert a.values[0] == b.values[0]


@pytest.mark.parametrize("n, beta", [(400, 0.3), (400, 0.15), (1600, 0.3),
                                     (1600, 0.15)])
def test_single_point_estimate_is_bitwise_its_grid_value(n, beta):
    # every window is summed the same way, so a point's estimate and
    # denominator do not depend on the other points of its grid (a window
    # alone in its group was once summed by w.sum() and a BLAS dot)
    grid = estimation_grid(0.0, 3.0, 60)
    k = epanechnikov(bandwidth(n, beta))
    for seed in range(3):
        cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                        n_steps=n, delta=delta_of_n(n), seed=(seed, n))
        path = simulate_path(cfg)
        whole = nw_discrete(path, k, grid)
        assert not whole.undefined_mask.all()
        for i in range(grid.size):
            one = nw_discrete(path, k, grid[i:i + 1])
            assert one.values.tobytes() == whole.values[i:i + 1].tobytes()
            assert (one.denominators.tobytes()
                    == whole.denominators[i:i + 1].tobytes())


def test_continuous_at_refine_one_equals_discrete():
    cfg = SimConfig(drift=builtin_drift(3), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=250, delta=0.02, seed=(9, 9))
    p = simulate_fine(cfg, 1)
    grid = estimation_grid(0.0, 3.0, 50)
    k = epanechnikov(0.2)
    a, b = nw_discrete(p, k, grid), nw_continuous(p, k, grid)
    np.testing.assert_array_equal(a.undefined_mask, b.undefined_mask)
    mask = ~a.undefined_mask
    np.testing.assert_array_equal(a.values[mask], b.values[mask])
    np.testing.assert_array_equal(a.denominators, b.denominators)


def _coarsen(p, m):
    # keep every m-th observation of a fine path (regulators are cumulative,
    # so subsampling them is exact)
    return SamplePath(delta=p.delta * m, x=p.x[::m].copy(),
                      l_reg=p.l_reg[::m].copy(), r_reg=p.r_reg[::m].copy(),
                      seed=p.seed, barrier=p.barrier)


def _refinement_ladder(sigma, seed, x):
    n = 400
    cfg = SimConfig(drift=builtin_drift(2), sigma=sigma, barrier=TWO_SIDED,
                    n_steps=n, delta=delta_of_n(n), seed=seed)
    fine = simulate_fine(cfg, 8)
    k = epanechnikov(bandwidth(n, 0.3))
    grid = np.array([x])
    vals = {}
    for refine in (1, 2, 4, 8):
        path = fine if refine == 8 else _coarsen(fine, 8 // refine)
        vals[refine] = nw_continuous(path, k, grid).values[0]
    return [abs(vals[2] - vals[1]), abs(vals[4] - vals[2]),
            abs(vals[8] - vals[4])]


def test_refinement_differences_shrink_deterministic():
    d = _refinement_ladder(0.0, 0, 2.5)
    assert d[0] > d[1] > d[2]


def test_refinement_differences_shrink_stochastic():
    for x in (2.5, 2.8):
        d = _refinement_ladder(0.2, (77, 14), x)
        assert d[0] > d[1] > d[2]


def test_estimate_result_checks_mask_consistency():
    # the undefined mask is derived from the values, so it cannot disagree
    g = np.array([1.0, 2.0])
    est = EstimateResult(g, np.array([np.nan, 0.5]), np.array([0.0, 0.1]),
                         np.array([False, False]))
    assert est.undefined_mask.tolist() == [True, False]
    with pytest.raises(ValueError):
        EstimateResult(g, np.array([np.nan, 0.5]), np.array([0.0, -0.1]),
                       np.array([False, False]))


def test_estimator_input_validation():
    p = _tiny_path([1.5, 1.6])
    with pytest.raises(ValueError):
        nw_discrete(p, epanechnikov(0.2), np.array([3.5]))  # off-domain grid
    single = _tiny_path([1.5])
    with pytest.raises(ValueError):
        nw_discrete(single, epanechnikov(0.2), np.array([1.5]))


def test_boundary_mask_flags_points_near_barriers():
    p = _tiny_path([1.5, 1.6, 1.7])
    est = nw_discrete(p, epanechnikov(0.25), np.array([0.1, 1.5, 2.9]))
    assert est.boundary_mask.tolist() == [True, False, True]
    one = _tiny_path([1.5, 1.6], barrier=BarrierConfig.one_sided(0.0))
    est1 = nw_discrete(one, epanechnikov(0.25), np.array([0.1, 2.9]))
    assert est1.boundary_mask.tolist() == [True, False]


def test_estimate_csv_layout(tmp_path):
    p = _tiny_path([1.5, 1.6, 1.7])
    est = nw_discrete(p, epanechnikov(0.08), np.array([0.3, 1.55]))
    out = tmp_path / "est.csv"
    write_estimate_csv(est, str(out), seed=12)
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=12"
    assert lines[1] == "x,estimate,denominator,undefined,boundary"
    assert len(lines) == 4
    undef_row = lines[2].split(",")
    assert undef_row[1] == ""  # undefined estimate leaves the field blank
    assert undef_row[3] == "1"
    def_row = lines[3].split(",")
    assert def_row[3] == "0"
    assert float(def_row[1]) == pytest.approx(est.values[1])
