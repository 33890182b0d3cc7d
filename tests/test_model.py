"""Tests for the model layer: drifts, barriers, paths, kernels, schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from refsde import (
    BarrierConfig,
    DriftSpec,
    SamplePath,
    Schedule,
    builtin_drift,
    epanechnikov,
    validate_schedule,
)

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)


def test_builtin_drift_values():
    b1 = builtin_drift(1)
    assert b1(0.0) == pytest.approx(0.0, abs=1e-15)
    assert b1(0.25) == pytest.approx(1.0 + 1.5 * 0.25)
    b2 = builtin_drift(2)
    assert b2(0.0) == pytest.approx(1.0)
    assert b2(1.0) == pytest.approx(math.sqrt(2.0))
    b3 = builtin_drift(3)
    assert b3(1.0) == pytest.approx(2.0)
    assert b3(0.0) == 0.0


def test_builtin_drift_unknown_case():
    with pytest.raises(ValueError):
        builtin_drift(4)
    with pytest.raises(ValueError):
        builtin_drift(0)


def test_builtin_drift_accepts_arrays():
    xs = np.linspace(0.0, 3.0, 7)
    for cid in (1, 2, 3):
        out = builtin_drift(cid)(xs)
        assert np.asarray(out).shape == xs.shape


@pytest.mark.parametrize("size", [1, 7, 1000])
@pytest.mark.parametrize("top", [3.0, 1e-3, 4e7])
@pytest.mark.parametrize("cid", [1, 2, 3])
def test_builtin_drift_array_call_is_bitwise_the_scalar_call(cid, top, size):
    # simulate_paths evaluates the drift once per step on all paths' states,
    # simulate_path on one Python float at a time; both must give each path
    # the same bits.  [0, 4e7] reaches where one-sided case 1 paths run off.
    fn = builtin_drift(cid).fn
    xs = np.random.default_rng([cid, size]).uniform(0.0, top, size)
    xs[0] = 0.0
    batch = np.asarray(fn(xs), dtype=float)
    one_by_one = np.array([float(fn(x)) for x in xs.tolist()])
    assert np.array_equal(batch.view(np.int64), one_by_one.view(np.int64))


def test_drift_bounded_on_domain():
    # every benchmark drift stays within |b| <= 6 on [0, 3]
    xs = np.linspace(0.0, 3.0, 3001)
    for cid in (1, 2, 3):
        assert np.max(np.abs(builtin_drift(cid)(xs))) <= 6.0


def test_lipschitz_quotients_within_declared_bound():
    xs = np.linspace(0.0, 3.0, 1501)
    for cid in (1, 2):
        d = builtin_drift(cid)
        quot = np.abs(np.diff(d(xs))) / np.diff(xs)
        assert np.max(quot) <= d.lipschitz_bound + 1e-9
    # case 3 has unbounded slope at 0 and declares no bound
    assert builtin_drift(3).lipschitz_bound is None


def test_drift_spec_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        DriftSpec("bad", lambda x: x, lipschitz_bound=0.0)
    with pytest.raises(ValueError):
        DriftSpec("bad", lambda x: x, lipschitz_bound=-1.0)


def test_barrier_two_sided_contains():
    assert TWO_SIDED.contains(1.7)
    assert TWO_SIDED.contains(np.array([0.0, 3.0]))
    assert not TWO_SIDED.contains(3.0000001)
    assert not TWO_SIDED.contains(-0.1)
    assert not TWO_SIDED.contains(np.array([1.0, 3.1]))


def test_barrier_one_sided_contains():
    b = BarrierConfig.one_sided(0.5)
    assert b.upper is None
    assert b.mode == "one_sided_lower"
    assert b.contains(1e9)
    assert not b.contains(0.49)
    assert not b.contains(math.inf)


@pytest.mark.parametrize("kwargs", [
    dict(lower=-0.1, upper=3.0, mode="two_sided"),
    dict(lower=0.0, upper=None, mode="two_sided"),
    dict(lower=2.0, upper=1.0, mode="two_sided"),
    dict(lower=0.0, upper=3.0, mode="one_sided_lower"),
    dict(lower=0.0, upper=3.0, mode="reflecting"),
    dict(lower=math.inf, upper=None, mode="one_sided_lower"),
])
def test_barrier_rejects_bad_configs(kwargs):
    with pytest.raises(ValueError):
        BarrierConfig(**kwargs)


def test_kernel_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        epanechnikov(0.0)
    with pytest.raises(ValueError):
        epanechnikov(-0.2)
    with pytest.raises(ValueError):
        epanechnikov(math.inf)


def test_epanechnikov_point_values():
    k = epanechnikov(1.0)
    assert k.fn(0.0) == pytest.approx(0.75)
    assert k.fn(1.0) == 0.0
    assert k.fn(-1.0) == 0.0
    assert k.fn(2.0) == 0.0


def test_epanechnikov_integrates_to_one():
    total, _ = quad(epanechnikov(1.0).fn, -1.0, 1.0)
    assert abs(total - 1.0) < 1e-9


@settings(deadline=None, max_examples=200)
@given(st.floats(-2.0, 2.0, allow_nan=False))
def test_epanechnikov_symmetric_and_nonnegative(t):
    k = epanechnikov(1.0)
    assert k.fn(t) == k.fn(-t)
    assert k.fn(t) >= 0.0


def test_epanechnikov_is_bitwise_the_support_mask_form():
    # 0.75 (1 - t^2) clipped by fmax is, bit for bit, the parabola inside
    # |t| <= 1 and +0.0 outside (NaN included), the form it replaces
    rng = np.random.default_rng(0)
    t = np.concatenate([
        rng.uniform(-1.2, 1.2, 10**6),
        [1.0, -1.0, np.nextafter(1.0, np.inf), np.nextafter(1.0, -np.inf),
         np.nextafter(-1.0, np.inf), np.nextafter(-1.0, -np.inf), 0.0, -0.0,
         1e300, -1e300, np.inf, -np.inf, np.nan]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
        got = epanechnikov(1.0).fn(t)
        scalars = [epanechnikov(1.0).fn(v) for v in t[-13:].tolist()]
    assert got.tobytes() == want.tobytes()
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == want[-13:].tobytes()


def _path_arrays(n=4, delta=0.5):
    times = np.arange(n + 1) * delta
    x = np.linspace(1.0, 2.0, n + 1)
    return times, x


def test_sample_path_accepts_valid_data():
    times, x = _path_arrays()
    p = SamplePath(delta=0.5, sigma=0.2, times=times, x=x,
                   l_reg=np.zeros(5), r_reg=np.zeros(5), seed=7,
                   barrier=TWO_SIDED)
    assert p.n_steps == 4
    with pytest.raises(ValueError):
        p.x[0] = 9.0  # arrays are locked read-only on construction


def test_sample_path_rejects_wrong_time_grid():
    times, x = _path_arrays(delta=0.5)
    with pytest.raises(ValueError):
        SamplePath(delta=0.4, sigma=0.2, times=times, x=x,
                   l_reg=np.zeros(5), r_reg=np.zeros(5), seed=0,
                   barrier=TWO_SIDED)


def test_sample_path_rejects_bad_regulators():
    times, x = _path_arrays()
    dec = np.array([0.0, 0.1, 0.3, 0.2, 0.2])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, sigma=0.2, times=times, x=x, l_reg=dec,
                   r_reg=np.zeros(5), seed=0, barrier=TWO_SIDED)
    nonzero_start = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, sigma=0.2, times=times, x=x,
                   l_reg=np.zeros(5), r_reg=nonzero_start, seed=0,
                   barrier=TWO_SIDED)


def test_sample_path_rejects_states_outside_domain():
    times, _ = _path_arrays()
    x = np.array([1.0, 2.0, 3.5, 2.0, 1.0])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, sigma=0.2, times=times, x=x,
                   l_reg=np.zeros(5), r_reg=np.zeros(5), seed=0,
                   barrier=TWO_SIDED)


def test_one_sided_path_requires_zero_upper_regulator():
    times, x = _path_arrays()
    r = np.array([0.0, 0.0, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, sigma=0.2, times=times, x=x,
                   l_reg=np.zeros(5), r_reg=r, seed=0,
                   barrier=BarrierConfig.one_sided(0.0))


def test_schedule_field_validation():
    with pytest.raises(ValueError):
        Schedule(n=0, delta=0.1, h=0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        Schedule(n=100, delta=-0.1, h=0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        Schedule(n=100, delta=0.1, h=0.1, epsilon=0.5)


def _power_schedule(n, gamma, beta, eps=0.01):
    return Schedule(n=n, delta=float(n) ** -gamma, h=float(n) ** -beta,
                    epsilon=eps)


def test_validate_schedule_table_rates_are_clean():
    s = _power_schedule(900, 2.0 / 3.0, 0.3)
    assert validate_schedule(s, "discrete_normality") == []


def test_validate_schedule_flags_vanishing_time_horizon():
    s = _power_schedule(900, 2.0, 0.3)
    assert validate_schedule(s, "discrete_consistency") == ["nΔ not →∞"]


def test_validate_schedule_wide_bandwidth_consistency_ok():
    s = _power_schedule(900, 2.0 / 3.0, 0.15)
    assert validate_schedule(s, "discrete_consistency") == []


def test_validate_schedule_undetermined_at_n_one():
    s = Schedule(n=1, delta=0.5, h=0.5, epsilon=0.01)
    warnings = validate_schedule(s, "discrete_consistency")
    assert len(warnings) == 2
    assert all("undetermined" in w for w in warnings)


def test_validate_schedule_unknown_regime():
    s = _power_schedule(100, 2.0 / 3.0, 0.3)
    with pytest.raises(ValueError):
        validate_schedule(s, "weekly")
