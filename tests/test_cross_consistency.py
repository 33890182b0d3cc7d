"""Cross-module checks tying long-run simulation to the density module and
to the estimators' consistency.

The first two compare a long path's time average and occupation histogram
with the closed-form density.  The regulator checks pin the law the
simulator samples through the regulators' long-run rates alone, and check
the same identity on the closed-form density.  The last two check that the
discrete-type and continuous-type estimators are consistent: their typical
error at a point the simulated path occupies falls as the sample grows along
the schedule.  They encode the stationarity and consistency properties the
estimation theory rests on, so they are kept together here rather than inside
the per-module suites.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from refsde import (
    BarrierConfig,
    DriftSpec,
    SimConfig,
    bandwidth,
    builtin_drift,
    delta_of_n,
    epanechnikov,
    invariant_density,
    nw_continuous,
    nw_discrete,
    pi_eval,
    replication_seed,
    simulate_fine,
    simulate_path,
)

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)


@pytest.fixture(scope="module")
def long_path():
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=1_000_000, delta=0.01, seed=2026)
    return simulate_path(cfg)


@pytest.fixture(scope="module")
def case2_density():
    return invariant_density(builtin_drift(2), 0.2, TWO_SIDED)


def test_time_average_matches_density_mean(long_path, case2_density):
    want, _ = quad(lambda x: x * pi_eval(case2_density, x), 0.0, 3.0,
                   limit=200)
    got = float(np.mean(long_path.x))
    assert abs(got - want) < 0.02


def test_occupation_histogram_matches_density(long_path, case2_density):
    edges = np.linspace(0.0, 3.0, 31)
    counts, _ = np.histogram(long_path.x, bins=edges)
    emp = counts / counts.sum()
    model = np.array([quad(lambda x: pi_eval(case2_density, x), a, b)[0]
                      for a, b in zip(edges[:-1], edges[1:])])
    tv = 0.5 * float(np.abs(emp - model).sum())
    assert tv < 0.05


# The regulators' long-run rates ell = L_T / T and r = R_T / T.  Ito's formula
# on f(x) = x, with the drift frozen over each step as the scheme freezes it,
# gives
#     (1/T) sum_k b(X_k) Delta = r - ell + (X_T - X_0) / T - sigma W_T / T,
# so a path's mean drift and r - ell differ by at most (u - l) / T plus an
# N(0, sigma^2 / T) term, taken here at z = 4.  For a stationary law pi,
# ell = (sigma^2 / 2) pi(l) and r = (sigma^2 / 2) pi(u) (the basic adjoint
# relationship; Harrison & Williams, Ann. Probab. 1987).
_T = 1e4
_RATE_BAND = 4.0 * 0.2 / math.sqrt(_T) + 3.0 / _T

# b = -1 as a float in, float out function: the scalar steps stay cheap
MINUS_ONE = DriftSpec("minus_one", lambda x: 0.0 * x - 1.0)


@pytest.fixture(scope="module")
def constant_drift_path():
    cfg = SimConfig(drift=MINUS_ONE, sigma=0.2, barrier=TWO_SIDED,
                    n_steps=1_000_000, delta=0.01, seed=2026)
    return simulate_path(cfg)


def _rates(path):
    t = path.times[-1]
    assert t == pytest.approx(_T)
    return float(path.l_reg[-1]) / t, float(path.r_reg[-1]) / t


def _plus_b_rates(drift, sigma, lower, upper):
    """(sigma^2 / 2) pi_+ at each barrier, where pi_+ is proportional to
    exp(+(2 / sigma^2) int_l^x b), the stationary law of the drift +b."""
    c = 2.0 / sigma ** 2

    def log_weight(x):  # log of pi_+ up to the normalizer
        return c * quad(drift, lower, x, epsabs=0.0, epsrel=1e-13)[0]

    # both drifts here are monotone, so the weight peaks at a barrier
    peak = max(log_weight(lower), log_weight(upper))
    z, _ = quad(lambda x: math.exp(log_weight(x) - peak), lower, upper,
                limit=200, epsabs=0.0, epsrel=1e-12,
                points=[lower + 1e-3, upper - 1e-3])
    half = 0.5 * sigma ** 2
    return tuple(half * math.exp(log_weight(x) - peak) / z
                 for x in (lower, upper))


_PATHS = [("long_path", builtin_drift(2)),
          ("constant_drift_path", MINUS_ONE)]


@pytest.mark.parametrize("fixture, drift", _PATHS, ids=["case2", "minus_one"])
def test_regulator_rates_match_the_mean_drift(request, fixture, drift):
    path = request.getfixturevalue(fixture)
    ell, r = _rates(path)
    mean_b = float(np.mean(drift(path.x[:-1])))
    assert abs((r - ell) - mean_b) < _RATE_BAND, (ell, r, mean_b)


@pytest.mark.parametrize("fixture, drift", _PATHS, ids=["case2", "minus_one"])
def test_regulator_rates_match_the_plus_b_law(request, fixture, drift):
    # For b = -1 the mean drift is exactly -1 = E_pi[b].  Case 2's +b law
    # holds its mass in a layer about sigma^2 / (2 b(u)) = 0.006 wide at u,
    # where b moves by less than 0.006, so b(X)'s time average over T is far
    # closer to E_pi[b] than sigma / sqrt(T).  Either way each rate meets
    # its barrier's (sigma^2 / 2) pi_+ within _RATE_BAND.
    path = request.getfixturevalue(fixture)
    ell, r = _rates(path)
    want_ell, want_r = _plus_b_rates(drift, 0.2, 0.0, 3.0)
    assert abs(ell - want_ell) < _RATE_BAND, (ell, want_ell)
    assert abs(r - want_r) < _RATE_BAND, (r, want_r)


# The density's stated accuracy: criterion 6's 1e-8 for the smooth drifts;
# for case 3, bench/spec.json's quad_spot 1e-5, since the 1024-panel inner
# rule is off by up to 4e-6 relative at sqrt(x)'s endpoint.
@pytest.mark.parametrize("case_id, rel", [(1, 1e-8), (2, 1e-8), (3, 1e-5)])
def test_density_satisfies_the_regulator_identity(case_id, rel):
    # invariant_density is the law of the drift -b, for which
    # E_pi[-b] = r - ell, i.e. int b pi = (sigma^2 / 2) (pi(l) - pi(u))
    drift = builtin_drift(case_id)
    dens = invariant_density(drift, 0.2, TWO_SIDED)
    lhs, _ = quad(lambda x: float(drift(x)) * float(pi_eval(dens, x)),
                  0.0, 3.0, limit=200, epsabs=0.0, epsrel=1e-13)
    rhs = 0.02 * (float(pi_eval(dens, 0.0)) - float(pi_eval(dens, 3.0)))
    assert lhs == pytest.approx(rhs, rel=rel, abs=0.0)


# Once the start transient from the default start 1.5 is over, case 2 at
# sigma = 0.2 stays within about 0.02 of u = 3 (96 % of a long path), so the
# pointwise checks sit at 2.99, inside that layer.
_X0 = 2.99


def _median_abs_error(case_id, n, estimator, reps=100, base_seed=13, x0=_X0):
    """Median |estimate - b(x0)| over reps, and the mean share of the
    estimator's observations within one bandwidth of x0."""
    drift = builtin_drift(case_id)
    h = bandwidth(n, 0.3)
    k = epanechnikov(h)
    grid = np.array([x0])
    truth = float(drift(x0))
    errs = []
    shares = []
    for r in range(1, reps + 1):
        seed = replication_seed(base_seed, case_id, "two_sided", n, 0.3, r)
        cfg = SimConfig(drift=drift, sigma=0.2, barrier=TWO_SIDED, n_steps=n,
                        delta=delta_of_n(n), seed=seed)
        if estimator == "continuous":
            path = simulate_fine(cfg, 10)
            est = nw_continuous(path, k, grid)
        else:
            path = simulate_path(cfg)
            est = nw_discrete(path, k, grid)
        shares.append(np.mean(np.abs(path.x[:-1] - x0) <= h))
        v = est.values[0]
        if np.isfinite(v):
            errs.append(abs(v - truth))
    assert errs, "estimate undefined in every replication"
    return float(np.median(errs)), float(np.mean(shares))


def _assert_error_shrinks(estimator):
    # consistency: the typical error at an occupied point should fall as the
    # sample grows along the n^(-2/3), h = n^(-0.3) schedule
    coarse, coarse_share = _median_abs_error(2, 400, estimator)
    fine, fine_share = _median_abs_error(2, 1600, estimator)
    # premise: the kernel window at x0 holds a share of the path that does
    # not shrink with h; otherwise only a transient is being estimated
    assert min(coarse_share, fine_share) >= 0.5, (
        f"mean share of observations within h of x0={_X0}: "
        f"{coarse_share:.3f} (n=400), {fine_share:.3f} (n=1600), below 0.5")
    assert fine < coarse, (
        f"median error {coarse:.4f} (n=400) -> {fine:.4f} (n=1600); window "
        f"shares {coarse_share:.3f}, {fine_share:.3f}")


def test_pointwise_error_shrinks_discrete():
    _assert_error_shrinks("discrete")


def test_pointwise_error_shrinks_continuous():
    _assert_error_shrinks("continuous")
