"""Tests for the reflected Euler scheme and path serialization."""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import refsde.simulate as sim_module

from refsde import (
    BarrierConfig,
    DriftSpec,
    SamplePath,
    SimConfig,
    SimulationDivergedError,
    builtin_drift,
    read_path_csv,
    simulate_fine,
    simulate_path,
    write_path_csv,
)
from refsde.simulate import stream_rng

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)


def _const_drift(c):
    return DriftSpec(f"const{c}",
                     lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))


# --- within-step supremum -----------------------------------------------------

def test_sample_sup_matches_brute_force_distribution():
    # running maxima of finely simulated ramps against the supremum that a
    # step samples: one step started at the upper barrier, whose upper
    # regulator r_reg[1] is the sampled supremum of the step's displacement
    # (the lower barrier lies out of reach), through both kernels
    rng = np.random.default_rng(20260813)
    n, m = 100_000, 2000
    mu, sigma, delta = 0.4, 0.7, 0.9
    dt = delta / m
    state = np.zeros(n)
    run_max = np.zeros(n)
    for _ in range(m):
        state += mu * dt + sigma * rng.normal(0.0, math.sqrt(dt), n)
        np.maximum(run_max, state, out=run_max)
    base = SimConfig(drift=_const_drift(mu), sigma=sigma,
                     barrier=BarrierConfig.two_sided(0.0, 10.0), n_steps=1,
                     delta=delta, x0=10.0)
    keys = [(20260813, r) for r in range(20_000)]
    for kernel in (sim_module._steps, sim_module._vector_steps):
        _, l_reg, r_reg, errors = sim_module._simulate(base, keys, kernel)
        assert errors == {} and not l_reg[1].any()
        stat = ks_2samp(run_max, r_reg[1]).statistic
        assert stat < 0.02


# --- single step -------------------------------------------------------------

def _cfg(**kw):
    base = dict(drift=_const_drift(1.0), sigma=0.0, barrier=TWO_SIDED,
                n_steps=1, delta=0.05, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_step_sigma_zero_interior():
    p = simulate_path(_cfg(x0=2.9))
    assert p.x[1] == pytest.approx(2.95)
    assert p.l_reg[1] == 0.0 and p.r_reg[1] == 0.0


def test_step_sigma_zero_upper_reflection():
    p = simulate_path(_cfg(x0=2.98))
    assert p.x[1] == pytest.approx(3.0)
    assert p.l_reg[1] == 0.0
    assert p.r_reg[1] == pytest.approx(0.03)


def test_step_sigma_zero_lower_reflection_one_sided():
    p = simulate_path(_cfg(drift=_const_drift(-1.0), x0=0.02,
                           barrier=BarrierConfig.one_sided(0.0)))
    assert p.x[1] == pytest.approx(0.0, abs=1e-15)
    assert p.x[1] >= 0.0
    assert p.l_reg[1] == pytest.approx(0.03)
    assert p.r_reg[1] == 0.0


def test_step_rejects_state_outside_domain():
    with pytest.raises(ValueError, match="x0 must lie in the barrier domain"):
        _cfg(x0=3.2)


# --- whole paths --------------------------------------------------------------

def test_simulate_path_zero_steps():
    p = simulate_path(_cfg(n_steps=0, sigma=0.2, seed=5))
    assert p.n_steps == 0
    assert p.x[0] == pytest.approx(1.5)  # two-sided default start: midpoint
    assert p.l_reg[0] == 0.0 and p.r_reg[0] == 0.0


def test_one_sided_default_start():
    cfg = _cfg(n_steps=0, barrier=BarrierConfig.one_sided(0.5))
    assert simulate_path(cfg).x[0] == pytest.approx(1.5)  # lower + 1


def test_simulate_path_deterministic_ramp_onto_upper_barrier():
    p = simulate_path(_cfg(n_steps=8, delta=0.5, x0=0.0))
    # drift 1, step 0.5: reaches the barrier at step 6, then sticks
    assert p.x[6] == 3.0
    assert np.all(p.x[6:] == 3.0)
    assert np.all(p.x[:6] == 0.5 * np.arange(6))
    assert p.r_reg[-1] == 1.0
    assert np.all(p.l_reg == 0.0)
    assert p.times[-1] == pytest.approx(4.0)


def test_simulate_path_reproducible():
    cfg = SimConfig(drift=builtin_drift(1), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=500, delta=0.01, seed=(3, 1, 4))
    a, b = simulate_path(cfg), simulate_path(cfg)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.l_reg, b.l_reg)
    np.testing.assert_array_equal(a.r_reg, b.r_reg)
    assert a.seed == (3, 1, 4)


def test_distinct_seeds_give_distinct_paths():
    cfg1 = _cfg(sigma=0.2, n_steps=50, seed=1)
    cfg2 = _cfg(sigma=0.2, n_steps=50, seed=2)
    assert not np.array_equal(simulate_path(cfg1).x, simulate_path(cfg2).x)


def test_burn_in_discards_prefix_but_keeps_grid():
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=50, delta=0.01, seed=9, burn_in=200)
    p = simulate_path(cfg)
    assert p.times[0] == 0.0
    assert p.n_steps == 50
    assert p.l_reg[0] == 0.0 and p.r_reg[0] == 0.0
    # the recorded start is the state after the burn-in, not x0
    plain = simulate_path(SimConfig(drift=builtin_drift(2), sigma=0.2,
                                    barrier=TWO_SIDED, n_steps=50, delta=0.01,
                                    seed=9))
    assert p.x[0] != plain.x[0]


def test_simulate_fine_refine_one_is_simulate_path():
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=200, delta=0.02, seed=11)
    a, b = simulate_path(cfg), simulate_fine(cfg, 1)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.l_reg, b.l_reg)
    np.testing.assert_array_equal(a.r_reg, b.r_reg)
    np.testing.assert_array_equal(a.times, b.times)


def test_simulate_fine_grid_geometry():
    cfg = SimConfig(drift=builtin_drift(1), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=100, delta=0.05, seed=2)
    p = simulate_fine(cfg, 10)
    assert p.x.shape == (1001,)
    assert p.delta == pytest.approx(0.005)
    assert p.times[-1] == pytest.approx(100 * 0.05, rel=1e-12)


def test_simulate_fine_sigma_zero_agrees_on_shared_times():
    # constant drift makes Euler exact, so refinement changes nothing
    cfg = _cfg(n_steps=8, delta=0.5, x0=0.0)
    coarse = simulate_path(cfg)
    fine = simulate_fine(cfg, 4)
    np.testing.assert_allclose(fine.x[::4], coarse.x, atol=1e-12)
    np.testing.assert_allclose(fine.l_reg[::4], coarse.l_reg, atol=1e-12)
    np.testing.assert_allclose(fine.r_reg[::4], coarse.r_reg, atol=1e-12)


@pytest.mark.parametrize("refine", [0, -3, 2.5])
def test_simulate_fine_rejects_bad_refine(refine):
    with pytest.raises(ValueError):
        simulate_fine(_cfg(), refine)


_SCALE_BASE = dict(drift=builtin_drift(1), sigma=0.2, barrier=TWO_SIDED,
                   n_steps=10, delta=0.01)


@pytest.mark.parametrize("kw", [
    pytest.param(dict(sigma=1e200), id="sigma-1e200"),
    pytest.param(dict(delta=1e300), id="delta-1e300"),
    # sigma sqrt(delta) is 1e50, but 2 sigma^2 delta overflows at 2 sigma^2
    pytest.param(dict(sigma=1e200, delta=1e-300), id="sigma-squared"),
    # case 1's sin(2 pi x) is NaN at the midpoint 1.35e308
    pytest.param(dict(barrier=BarrierConfig.two_sided(1e308, 1.7e308)),
                 id="start-1.35e308"),
    pytest.param(dict(drift=_const_drift(math.nan)), id="drift-nan"),
    pytest.param(dict(drift=_const_drift(2e154), delta=1.0), id="drift-step"),
])
def test_config_refuses_a_step_out_of_scale(kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step out of scale"):
            SimConfig(**dict(_SCALE_BASE, **kw))


def test_step_inside_the_scale_bound_stays_finite():
    # sigma sqrt(delta) at 0.99 of its bound, the drift at zero: step 0 of
    # every path stays finite, through the upward steps and the reflections
    # off the lower barrier alike
    z, ln_u = sim_module._Z_MAX, sim_module._LN_U_MAX
    bound = math.sqrt(sys.float_info.max / (z * z + 2.0 * ln_u))
    cfg = SimConfig(drift=_const_drift(0.0), sigma=0.99 * bound,
                    barrier=BarrierConfig.one_sided(0.0), n_steps=1,
                    delta=1.0)
    for kernel in _KERNELS:
        x, l_reg, _, errors = sim_module._simulate(cfg, list(range(2000)),
                                                   kernel)
        assert errors == {}
        assert np.isfinite(x).all() and np.isfinite(l_reg).all()
        assert x[1].max() > 1e152 and l_reg[1].max() > 1e152
    with pytest.raises(ValueError, match="step out of scale"):
        replace(cfg, sigma=1.01 * bound)


def test_divergence_reports_step_index():
    bad = DriftSpec("exploder",
                    lambda x: 1e100 * (np.asarray(x, dtype=float) + 1.0))
    cfg = SimConfig(drift=bad, sigma=0.0, barrier=BarrierConfig.one_sided(0.0),
                    n_steps=5, delta=0.1, x0=1.0, seed=0)
    with np.errstate(over="ignore"):
        with pytest.raises(SimulationDivergedError) as ei:
            simulate_path(cfg)
    assert ei.value.step_index == 1


# --- the pre-kernel stepping loop, kept as the byte-identity oracle ----------
# A copy of the per-step `_advance` / `_bridge_max` loop that the flat kernel
# replaced, with its radicand terms 2 sigma^2 delta ln U taken as
# c * np.log(U) over the stream's whole uniform array, as the records take
# them.  The kernel must reproduce it bit for bit.

def _oracle_bridge_max(y, q):
    return 0.5 * (y + math.sqrt(y * y - q))


def _oracle_advance(state, b_x, sigma, delta, lower, upper, w, q_lo, q_hi):
    d = b_x * delta + sigma * w
    y = state + d
    a_sup = _oracle_bridge_max(-d, q_lo)
    dl = a_sup - (state - lower)
    if dl > 0.0:
        dr = 0.0
        nxt = y + dl
    else:
        dl = 0.0
        dr = 0.0
        nxt = y
        if upper is not None:
            b_sup = _oracle_bridge_max(d, q_hi)
            dr = b_sup + (state - upper)
            if dr > 0.0:
                nxt = y - dr
            else:
                dr = 0.0
    if not math.isfinite(nxt):
        raise SimulationDivergedError("state became non-finite")
    if nxt < lower:
        if lower - nxt > 1e-12:
            raise SimulationDivergedError("state undershot the lower barrier")
        nxt = lower
    elif upper is not None and nxt > upper:
        if nxt - upper > 1e-12:
            raise SimulationDivergedError("state overshot the upper barrier")
        nxt = upper
    return nxt, dl, dr


def _oracle_path(cfg):
    """(x, l_reg, r_reg) of the pre-kernel `simulate_path`, its radicand
    terms from np.log."""
    total = cfg.burn_in + cfg.n_steps
    rng = stream_rng(cfg.seed)
    sqrt_delta = math.sqrt(cfg.delta)
    c = 2.0 * cfg.sigma * cfg.sigma * cfg.delta
    w = (rng.standard_normal(total) * sqrt_delta).tolist()
    q_lo = (c * np.log(1.0 - rng.random(total))).tolist()
    two_sided = cfg.barrier.mode == "two_sided"
    q_hi = ((c * np.log(1.0 - rng.random(total))).tolist() if two_sided
            else [0.0] * total)
    lower = cfg.barrier.lower
    upper = cfg.barrier.upper if two_sided else None
    x = np.empty(cfg.n_steps + 1)
    l_reg = np.empty(cfg.n_steps + 1)
    r_reg = np.empty(cfg.n_steps + 1)
    state = cfg.start
    k = -1
    try:
        for k in range(cfg.burn_in):
            state, _, _ = _oracle_advance(state, float(cfg.drift.fn(state)),
                                          cfg.sigma, cfg.delta, lower, upper,
                                          w[k], q_lo[k], q_hi[k])
        x[0] = state
        l_reg[0] = 0.0
        r_reg[0] = 0.0
        cum_l = 0.0
        cum_r = 0.0
        for i in range(cfg.n_steps):
            k = cfg.burn_in + i
            state, dl, dr = _oracle_advance(state, float(cfg.drift.fn(state)),
                                            cfg.sigma, cfg.delta, lower, upper,
                                            w[k], q_lo[k], q_hi[k])
            cum_l += dl
            cum_r += dr
            x[i + 1] = state
            l_reg[i + 1] = cum_l
            r_reg[i + 1] = cum_r
    except SimulationDivergedError as e:
        raise SimulationDivergedError(str(e), step_index=k) from None
    return x, l_reg, r_reg


def _assert_matches_oracle(cfg):
    p = simulate_path(cfg)
    x, l_reg, r_reg = _oracle_path(cfg)
    assert np.array_equal(p.x, x)
    assert np.array_equal(p.l_reg, l_reg)
    assert np.array_equal(p.r_reg, r_reg)
    return p


_BARRIERS = {"two_sided": TWO_SIDED, "one_sided": BarrierConfig.one_sided(0.0)}


@pytest.mark.parametrize("burn_in", [0, 37])
@pytest.mark.parametrize("mode", sorted(_BARRIERS))
@pytest.mark.parametrize("case", [1, 2, 3])
def test_simulate_path_is_bitwise_the_oracle(case, mode, burn_in):
    for seed in (0, 7, (4, 2)):
        _assert_matches_oracle(SimConfig(
            drift=builtin_drift(case), sigma=0.2, barrier=_BARRIERS[mode],
            n_steps=400, delta=0.01, seed=seed, burn_in=burn_in))


@pytest.mark.parametrize("mode", sorted(_BARRIERS))
def test_long_path_is_bitwise_the_oracle_across_blocks(mode):
    # several draw blocks, with the burn-in ending inside the second one
    block = sim_module._BLOCK
    _assert_matches_oracle(SimConfig(
        drift=builtin_drift(2), sigma=0.2, barrier=_BARRIERS[mode],
        n_steps=block + 500, delta=0.01, seed=11, burn_in=block + 77))


@pytest.mark.parametrize("drift, mode", [(-5.0, "one_sided"), (-5.0, "two_sided"),
                                         (5.0, "two_sided")])
def test_pinned_path_is_bitwise_the_oracle(drift, mode):
    # a drift into a barrier reflects on nearly every step, so each step's
    # regulator increment is a bridge-maximum draw.  A transform of the
    # uniforms that is off in the last bit (math.log, which differs from
    # np.log in the last bit on about 0.35 % of uniforms) moves about one
    # lower-barrier state in 10**4; at the upper barrier the state near 3 is
    # too coarse to keep those bits.
    cfg = SimConfig(drift=_const_drift(drift), sigma=0.2,
                    barrier=_BARRIERS[mode], n_steps=20_000, delta=0.01, seed=3)
    _assert_matches_oracle(cfg)


def test_radicand_terms_are_within_an_ulp_of_math_log():
    # sigma 1 and delta 1/2 make c = 2 sigma^2 delta exactly 1, so the records
    # hold np.log(U) itself; a two-sided batch of two paths of 2**18 + 5
    # steps holds 1 048 596 uniforms
    total = 2**18 + 5
    cfg = SimConfig(drift=builtin_drift(1), sigma=1.0, barrier=TWO_SIDED,
                    n_steps=total, delta=0.5)
    seeds = (5, (2, 9))
    x, g, qh = sim_module._records(cfg, seeds, total)
    for j, seed in enumerate(seeds):
        rng = stream_rng(seed)
        z = rng.standard_normal(total)
        assert np.array_equal(x[1:, j], 1.0 * (z * math.sqrt(0.5)))
        for terms in (g[1:, j], qh[:, j]):
            u = 1.0 - rng.random(total)
            exact = np.fromiter(map(math.log, u.tolist()), float, total)
            assert np.all(np.abs(terms - exact) <= np.spacing(np.abs(exact)))
            assert np.array_equal(terms, np.log(u))


@pytest.mark.parametrize("mode", sorted(_BARRIERS))
def test_step_is_bitwise_the_oracle_step(mode):
    # short paths from states across the domain, with noise large enough
    # that both barriers fire from the states near them; a path's first step
    # takes the same draws from its stream as a lone step would
    fired_l = fired_r = 0
    for seed, state in enumerate(np.linspace(0.0, 3.0, 61).tolist()):
        cfg = SimConfig(drift=builtin_drift(1), sigma=1.0,
                        barrier=_BARRIERS[mode], n_steps=5, delta=0.05,
                        x0=state, seed=seed)
        p = _assert_matches_oracle(cfg)
        fired_l += int(np.count_nonzero(np.diff(p.l_reg) > 0.0))
        fired_r += int(np.count_nonzero(np.diff(p.r_reg) > 0.0))
    assert fired_l > 0
    assert (fired_r > 0) == (mode == "two_sided")


def test_divergence_index_is_absolute_in_and_after_the_burn_in():
    # case 2's one-sided path runs off to infinity after the first draw block
    for burn_in, n_steps in ((100, 40_000), (40_000, 100)):
        cfg = SimConfig(drift=builtin_drift(2), sigma=0.2,
                        barrier=BarrierConfig.one_sided(0.0), n_steps=n_steps,
                        delta=0.01, seed=7, burn_in=burn_in)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergedError) as ei:
                simulate_path(cfg)
            with pytest.raises(SimulationDivergedError) as oracle:
                _oracle_path(cfg)
        assert ei.value.step_index == oracle.value.step_index == 35669
        assert str(ei.value) == str(oracle.value)
        assert str(ei.value) == "step 35669: state became non-finite"


def test_simulate_path_working_set_is_linear():
    # the path is records of width one: states, signed increments and upper
    # radicand terms (3 floats per step) while it steps, then states, both
    # regulators, the times and the integer range they come from (5), with
    # SamplePath's checks about 6.1 at the peak; separate draw arrays beside
    # the records would add 3, and a Python float for every draw of the path
    # at once about 4 per draw
    n = 2**17
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=n, delta=0.01, seed=7, burn_in=100)
    tracemalloc.start()
    try:
        simulate_path(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * n * 8, f"peak {peak / (n * 8):.1f} floats per step"


# --- batches: one config's paths under many keys, through either kernel ---

# _simulate picks one kernel by the batch's width; the batch tests run each
# width through both, so that neither goes untested at any width
_KERNELS = (sim_module._steps, sim_module._vector_steps)


def _batch(cfg, keys, kernel):
    """Each key's column of _simulate(cfg, keys), stepped by the given
    kernel, as a namespace of x, l_reg and r_reg, or the error that the
    kernel filed for it."""
    x, l_reg, r_reg, errors = sim_module._simulate(cfg, keys, kernel)
    return [errors[j] if j in errors else
            SimpleNamespace(x=x[:, j], l_reg=l_reg[:, j], r_reg=r_reg[:, j])
            for j in range(len(keys))]


@pytest.mark.parametrize("width, kernel", [
    (sim_module._MIN_BATCH, "_vector_steps"),
    (sim_module._MIN_BATCH - 1, "_steps"),
    (1, "_steps"),
])
def test_simulate_paths_picks_its_kernel_by_width(monkeypatch, width, kernel):
    used = []
    for name in ("_steps", "_vector_steps"):
        def spy(*args, name=name, real=getattr(sim_module, name)):
            used.append(name)
            return real(*args)
        monkeypatch.setattr(sim_module, name, spy)
    base = SimConfig(drift=builtin_drift(1), sigma=0.2, barrier=TWO_SIDED,
                     n_steps=20, delta=0.01)
    x, _, _, errors = sim_module._simulate(base, list(range(width)))
    assert used == [kernel]
    assert x.shape == (21, width) and errors == {}


def test_step_at_most_one_regulator_fires():
    # both kernels: no step moves both regulators, and each fires somewhere
    base = _cfg(sigma=0.4, delta=0.01, drift=builtin_drift(1), x0=0.05,
                n_steps=2000)
    for kernel in _KERNELS:
        paths = _batch(base, list(range(20)), kernel)
        dl = np.array([np.diff(p.l_reg) for p in paths])
        dr = np.array([np.diff(p.r_reg) for p in paths])
        assert not np.any((dl > 0.0) & (dr > 0.0))
        assert np.any(dl > 0.0) and np.any(dr > 0.0)


def _assert_batch_matches_oracle(cfg, keys):
    for kernel in _KERNELS:
        paths = _batch(cfg, keys, kernel)
        for key, p in zip(keys, paths, strict=True):
            x, l_reg, r_reg = _oracle_path(replace(cfg, seed=key))
            assert np.array_equal(p.x, x)
            assert np.array_equal(p.l_reg, l_reg)
            assert np.array_equal(p.r_reg, r_reg)


_BATCH_SEEDS = (0, 7, (4, 2), 11, (3, 1, 4))


@pytest.mark.parametrize("burn_in", [0, 37])
@pytest.mark.parametrize("mode", sorted(_BARRIERS))
@pytest.mark.parametrize("case", [1, 2, 3])
def test_simulate_paths_is_bitwise_the_oracle(case, mode, burn_in):
    base = SimConfig(drift=builtin_drift(case), sigma=0.2,
                     barrier=_BARRIERS[mode], n_steps=400, delta=0.01,
                     burn_in=burn_in)
    _assert_batch_matches_oracle(base, _BATCH_SEEDS)


@pytest.mark.parametrize("drift, mode", [(-5.0, "one_sided"), (-5.0, "two_sided"),
                                         (5.0, "two_sided")])
def test_pinned_batch_is_bitwise_the_oracle(drift, mode):
    # reflection on nearly every step, as in test_pinned_path_is_bitwise_the_oracle
    base = SimConfig(drift=_const_drift(drift), sigma=0.2,
                     barrier=_BARRIERS[mode], n_steps=20_000, delta=0.01)
    _assert_batch_matches_oracle(base, (3, 4, 5))


def _assert_batch_matches_alone(cfg, keys):
    """Each member of the batch, through either kernel, is simulate_path's
    path under its key, or its error; returns the failed members' errors."""
    alone = []
    with np.errstate(over="ignore", invalid="ignore"):
        for key in keys:
            try:
                alone.append(simulate_path(replace(cfg, seed=key)))
            except SimulationDivergedError as e:
                alone.append(e)
    for kernel in _KERNELS:
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _batch(cfg, keys, kernel)
        for want, got in zip(alone, batch, strict=True):
            assert (isinstance(got, SimulationDivergedError)
                    == isinstance(want, SimulationDivergedError))
            if isinstance(want, SimulationDivergedError):
                assert str(got) == str(want)
                assert got.step_index == want.step_index
                continue
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.l_reg, want.l_reg)
            assert np.array_equal(got.r_reg, want.r_reg)
    return [e for e in alone if isinstance(e, SimulationDivergedError)]


def _explodes_above(level):
    # zero drift below the level; above it a drift that overflows the state
    # to +inf one step later
    return DriftSpec("exploder", lambda x: np.where(
        np.asarray(x, dtype=float) > level, 1e300 * np.asarray(x, dtype=float),
        0.0))


@pytest.mark.parametrize("mode", sorted(_BARRIERS))
def test_failing_batch_members_fail_as_alone(mode):
    base = SimConfig(drift=_explodes_above(1.2), sigma=0.2,
                     barrier=_BARRIERS[mode], n_steps=300, delta=0.01, x0=1.0)
    errors = _assert_batch_matches_alone(base, list(range(12)))
    # members fail at different steps, and the others step on past them
    assert len({e.step_index for e in errors}) >= 3
    assert len(errors) <= 9


def test_narrow_domain_batch_matches_paths_alone():
    # noise wider than the domain, so that both bridge maxima sometimes
    # cross their barriers in one step (the lower one goes first) and some
    # paths leave the domain beyond the clamp guard
    base = SimConfig(drift=builtin_drift(1), sigma=1.0,
                     barrier=BarrierConfig.two_sided(0.0, 0.32),
                     n_steps=2000, delta=0.01)
    errors = _assert_batch_matches_alone(base, list(range(8)))
    assert 1 <= len(errors) <= 7
    assert all("shot the" in str(e) for e in errors)


def test_batch_at_the_budget_peaks_within_its_arrays():
    # _simulate keeps each step's scaled normal and lower radicand term in
    # the record slots (state and signed increment) that the step
    # overwrites, and only the upper radicand terms beside them: 3 floats
    # per path-step.  It frees those before the paths' regulators take
    # their place (states and two regulators, again 3), so the peak stays
    # below 4; separate draw arrays would reach 5.
    n = 1600
    width = sim_module._RECORD_BUDGET // n
    base = SimConfig(drift=builtin_drift(1), sigma=0.2, barrier=TWO_SIDED,
                     n_steps=n, delta=0.01)
    keys = [(2, r) for r in range(width)]
    sim_module._simulate(base, keys[:2])  # leave first-call imports out
    tracemalloc.start()
    try:
        x = sim_module._simulate(base, keys)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (n + 1, width)
    per = peak / (width * n * 8)
    assert per < 4.0, f"peak {per:.2f} floats per path-step"


@pytest.mark.parametrize("mode", sorted(_BARRIERS))
def test_batched_paths_are_read_only(mode):
    # a path's arrays are views of its batch's arrays, which a write
    # through the path would change
    cfg = SimConfig(drift=builtin_drift(1), sigma=0.2,
                    barrier=_BARRIERS[mode], n_steps=50, delta=0.01,
                    burn_in=5, seed=(4, 2))
    p = simulate_path(cfg)
    for arr in (p.times, p.x, p.l_reg, p.r_reg):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _reflection_gap_violations(p, thresh):
    # regulator increments should only fire with the state near the barrier
    dl = np.diff(p.l_reg)
    dr = np.diff(p.r_reg)
    lo_pair = np.minimum(p.x[:-1], p.x[1:])
    hi_pair = np.maximum(p.x[:-1], p.x[1:])
    bad = int(np.sum((dl > 1e-10) & (lo_pair > p.barrier.lower + thresh)))
    if p.barrier.mode == "two_sided":
        bad += int(np.sum((dr > 1e-10) & (hi_pair < p.barrier.upper - thresh)))
    return bad


def test_reflection_increments_localized_at_barriers():
    thresh = 4 * 0.2 * math.sqrt(0.01)
    up = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                   n_steps=20_000, delta=0.01, seed=101)
    p = simulate_path(up)
    assert p.r_reg[-1] > 0.0  # the upper barrier is actually exercised
    assert _reflection_gap_violations(p, thresh) == 0
    down = SimConfig(drift=_const_drift(-1.0), sigma=0.2,
                     barrier=BarrierConfig.one_sided(0.0), n_steps=20_000,
                     delta=0.01, x0=0.5, seed=102)
    q = simulate_path(down)
    assert q.l_reg[-1] > 0.0
    assert _reflection_gap_violations(q, thresh) == 0


# --- CSV round trips ----------------------------------------------------------

def test_path_csv_roundtrip(tmp_path):
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=300, delta=0.01, seed=(8, 2))
    p = simulate_path(cfg)
    out = tmp_path / "path.csv"
    write_path_csv(p, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=8,2"
    assert lines[1] == "t,x,l_reg,r_reg"
    assert len(lines) == 303
    q = read_path_csv(str(out), barrier=TWO_SIDED)
    np.testing.assert_array_equal(p.x, q.x)  # %.17g survives the round trip
    np.testing.assert_array_equal(p.l_reg, q.l_reg)
    np.testing.assert_array_equal(p.r_reg, q.r_reg)
    assert q.delta == p.delta  # inferred from the time column
    assert q.seed == (8, 2)


def test_path_csv_int_seed_and_delta_override(tmp_path):
    p = simulate_path(_cfg(n_steps=4, sigma=0.2, seed=7, delta=0.25))
    out = tmp_path / "p.csv"
    write_path_csv(p, str(out))
    q = read_path_csv(str(out), barrier=TWO_SIDED, delta=0.25)
    assert q.seed == 7
    assert q.delta == 0.25


def test_read_path_csv_rejects_empty(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# seed=0\nt,x,l_reg,r_reg\n")
    with pytest.raises(ValueError):
        read_path_csv(str(f), barrier=TWO_SIDED)


_CLEAN = "# seed=3\nt,x,l_reg,r_reg\n0,1.5,0,0\n0.5,1.25,0,0\n1,0,0.125,0\n"


@pytest.mark.parametrize("body, delta", [
    pytest.param(_CLEAN.replace("1.25", "1.2x"), None, id="non-numeric"),
    pytest.param(_CLEAN.replace("1.25,0,0", "1.25,0"), None, id="ragged"),
    pytest.param(_CLEAN.replace(",0\n", "\n").replace(",r_reg", ""), None,
                 id="three-columns"),
    pytest.param("# seed=3\nt,x,l_reg,r_reg\n0,1.5,0,0\n", None,
                 id="single-row"),
    # the path's times are k*delta: an uneven t column, or one whose step
    # is not the delta given
    pytest.param(_CLEAN.replace("\n1,0,", "\n1.25,0,"), None,
                 id="uneven-time-column"),
    pytest.param(_CLEAN, 0.4, id="time-step-off-delta"),
])
def test_read_path_csv_rejects_malformed(tmp_path, body, delta):
    f = tmp_path / "bad.csv"
    f.write_text(body)
    with pytest.raises(ValueError):
        read_path_csv(str(f), barrier=TWO_SIDED, delta=delta)


def test_read_path_csv_skips_comments_blank_lines_and_crlf(tmp_path):
    clean = tmp_path / "clean.csv"
    clean.write_text(_CLEAN)
    messy = tmp_path / "messy.csv"
    rows = _CLEAN.splitlines()
    rows[3:3] = ["# a comment between rows", ""]
    messy.write_bytes(("\r\n".join(rows) + "\r\n").encode())
    p = read_path_csv(str(clean), barrier=TWO_SIDED)
    q = read_path_csv(str(messy), barrier=TWO_SIDED)
    for name in ("times", "x", "l_reg", "r_reg"):
        np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
    assert p.x.shape == (3,)
    assert (p.seed, p.delta) == (q.seed, q.delta) == (3, 0.5)


def test_read_path_csv_working_set_is_linear(tmp_path):
    # the four float64 columns are the floor; a reader that holds one Python
    # list per row peaks at about 8 times that
    n = 200_000
    p = SamplePath(delta=0.01,
                   x=np.random.default_rng(3).uniform(0.0, 3.0, n),
                   l_reg=np.zeros(n), r_reg=np.zeros(n), seed=0,
                   barrier=TWO_SIDED)
    out = tmp_path / "long.csv"
    write_path_csv(p, str(out))
    tracemalloc.start()
    try:
        q = read_path_csv(str(out), barrier=TWO_SIDED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(q.x, p.x)
    columns = 4 * n * 8
    assert peak < 3 * columns, f"peak {peak / columns:.1f} x the columns"


def test_write_path_csv_holds_no_copy_of_the_path(tmp_path, monkeypatch):
    # the rows become Python floats one block at a time; the four columns
    # as Python float lists at once would take about 4 times the columns.
    # A small block keeps the traced run short.
    monkeypatch.setattr(sim_module, "_BLOCK", 2**10)
    n = 2**15
    p = SamplePath(delta=0.01,
                   x=np.random.default_rng(4).uniform(0.0, 3.0, n),
                   l_reg=np.zeros(n), r_reg=np.zeros(n), seed=0,
                   barrier=TWO_SIDED)
    tracemalloc.start()
    try:
        write_path_csv(p, str(tmp_path / "long.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = 4 * n * 8
    assert peak < 0.5 * columns, f"peak {peak / columns:.2f} x the columns"


def test_write_csv_float_rows_match_the_per_value_format():
    # rows of Python floats take one %-format call; every other row is
    # formatted value by value, and both must write the same bytes
    import io
    vals = [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, math.inf,
            -math.inf, math.nan, 3.0, 2.0 / 3.0]
    rows = [tuple(vals[i:i + 2]) for i in range(0, len(vals), 2)]
    fast, slow = io.StringIO(), io.StringIO()
    sim_module.write_csv(fast, 0, "a,b", rows)
    sim_module.write_csv(slow, 0, "a,b", [(np.float64(a), b) for a, b in rows])
    assert fast.getvalue() == slow.getvalue()
    assert fast.getvalue().splitlines()[2:] == [
        "0.10000000000000001,-0", "1e-300,4.9406564584124654e-324",
        "1.7976931348623157e+308,inf", "-inf,nan", "3,0.66666666666666663"]
