"""Tests for the model layer: drifts, barriers, paths, kernels, schedules."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import refsde
from refsde import (
    BarrierConfig,
    DriftSpec,
    SamplePath,
    bandwidth,
    builtin_drift,
    delta_of_n,
    epanechnikov,
)
from refsde.estimate import _check_rates

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
    # the vector kernel evaluates the drift once per step on all paths'
    # states, the scalar kernel on one Python float at a time; both must give
    # each path the same bits.  [0, 4e7] reaches where one-sided case 1
    # paths run off.
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
    assert TWO_SIDED.mode == "two_sided"
    assert TWO_SIDED == BarrierConfig(0.0, 3.0)
    assert TWO_SIDED.contains(1.7)
    assert TWO_SIDED.contains(np.array([0.0, 3.0]))
    assert not TWO_SIDED.contains(3.0000001)
    assert not TWO_SIDED.contains(-0.1)
    assert not TWO_SIDED.contains(np.array([1.0, 3.1]))


def test_barrier_one_sided_contains():
    b = BarrierConfig.one_sided(0.5)
    assert b.upper is None
    assert b.mode == "one_sided_lower"
    # the mode is derived from upper: no upper barrier is one-sided
    assert BarrierConfig(0.0, None).mode == "one_sided_lower"
    assert BarrierConfig(0.0, None) == BarrierConfig.one_sided(0.0)
    assert b.contains(1e9)
    assert not b.contains(0.49)
    assert not b.contains(math.inf)


@pytest.mark.parametrize("kwargs", [
    dict(lower=-0.1, upper=3.0),
    dict(lower=2.0, upper=1.0),
    dict(lower=math.inf, upper=None),
    dict(lower=0.0, upper=math.inf),
    dict(lower=0.0, upper=math.nan),
    dict(lower=1.0, upper=1.0),
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


def _path_x(n=4):
    return np.linspace(1.0, 2.0, n + 1)


def test_sample_path_accepts_valid_data():
    p = SamplePath(delta=0.5, x=_path_x(), l_reg=np.zeros(5),
                   r_reg=np.zeros(5), seed=7, barrier=TWO_SIDED)
    assert p.n_steps == 4
    with pytest.raises(ValueError):
        p.x[0] = 9.0  # arrays are locked read-only on construction
    # the times follow from delta and are read-only too
    assert p.times.tobytes() == (np.arange(5) * 0.5).tobytes()
    with pytest.raises(ValueError):
        p.times[0] = 9.0


def test_sample_path_rejects_bad_regulators():
    x = _path_x()
    dec = np.array([0.0, 0.1, 0.3, 0.2, 0.2])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, x=x, l_reg=dec, r_reg=np.zeros(5), seed=0,
                   barrier=TWO_SIDED)
    nonzero_start = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, x=x, l_reg=np.zeros(5), r_reg=nonzero_start,
                   seed=0, barrier=TWO_SIDED)


def test_sample_path_rejects_states_outside_domain():
    x = np.array([1.0, 2.0, 3.5, 2.0, 1.0])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, x=x, l_reg=np.zeros(5), r_reg=np.zeros(5),
                   seed=0, barrier=TWO_SIDED)


def test_one_sided_path_requires_zero_upper_regulator():
    r = np.array([0.0, 0.0, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, x=_path_x(), l_reg=np.zeros(5), r_reg=r,
                   seed=0, barrier=BarrierConfig.one_sided(0.0))


def test_schedule_field_validation():
    # epsilon must lie in (0, 1/2) whatever beta is
    for eps in (0.0, -0.1, 0.5, 0.7, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            _check_rates(0.3, eps)


# The rate rule that the window replaces, kept as the oracle: each product of
# the normality conditions is n's power with an exponent in (gamma, beta,
# epsilon), where Delta = n^-gamma and h = n^-beta are read off the schedule
# point, and is evaluated at n and at 4n to see which way it tends.
_PRODUCTS = [
    ("nΔ", lambda g, b, e: 1.0 - g, True),
    ("Δ^(1/2−ε)h^(−1)", lambda g, b, e: -(0.5 - e) * g + b, False),
    ("nhΔ", lambda g, b, e: 1.0 - b - g, True),
    ("nh³Δ", lambda g, b, e: 1.0 - 3.0 * b - g, False),
    ("nh^(−1)Δ^(2−ε)", lambda g, b, e: 1.0 + b - (2.0 - e) * g, False),
]


def _oracle_failures(n, beta, eps):
    log_n = math.log(n)
    gamma = -math.log(delta_of_n(n)) / log_n
    b = -math.log(bandwidth(n, beta)) / log_n
    failed = []
    for label, expo, wants_growth in _PRODUCTS:
        p = expo(gamma, b, eps)
        at_n = math.exp(p * log_n)
        at_4n = math.exp(p * math.log(4 * n))
        if wants_growth and not at_4n > at_n:
            failed.append(f"{label} not →∞")
        if not wants_growth and not at_4n < at_n:
            failed.append(f"{label} not →0")
    return failed


def _window_failures(beta, eps):
    prefix = "schedule fails rate conditions: "
    try:
        _check_rates(beta, eps)
    except ValueError as exc:
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):].split("; ")
    return []


def test_validate_schedule_table_rates_are_clean():
    # the paper's table betas at the default epsilon, at n = 400 .. 1600
    for n in (400, 900, 1600):
        for beta in (0.3, 0.2, 0.15):
            assert _window_failures(beta, 0.01) == []
            assert _oracle_failures(n, beta, 0.01) == []


def test_rate_window_names_the_oracle_products():
    # a seeded sweep, n log-uniform in [10, 1e6]: the window names the same
    # products, in the same order, as the five-product rule at every point
    rng = np.random.default_rng(20260)
    lists = set()
    for _ in range(20_000):
        n = int(round(10.0 ** rng.uniform(1.0, 6.0)))
        eps = rng.uniform(0.0, 0.5)
        beta = rng.uniform(0.0, 1.0)
        want = _oracle_failures(n, beta, eps)
        assert _window_failures(beta, eps) == want, (n, beta, eps)
        lists.add(tuple(want))
    # the sweep meets the window, each edge of it, and each product
    assert () in lists
    assert {("nh³Δ not →0",),
            ("Δ^(1/2−ε)h^(−1) not →0", "nh^(−1)Δ^(2−ε) not →0"),
            ("Δ^(1/2−ε)h^(−1) not →0", "nhΔ not →∞",
             "nh^(−1)Δ^(2−ε) not →0")} <= lists


def _modules():
    yield refsde
    for info in pkgutil.iter_modules(refsde.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"refsde.{info.name}")


@pytest.mark.parametrize("module", list(_modules()),
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its object is gone breaks `import *`.
    # The package's names load lazily from the modules that define them
    # (test_cli.py::test_package_names_resolve_to_their_modules).
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(names) <= set(namespace)
