"""Acceptance checks, one test per numbered criterion.

Each test prints one `criterion NN: PASS/FAIL - detail` line (visible with
-s, or in the captured output of a failing test) and then asserts, so
`pytest -v` yields exactly one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from refsde import (
    BarrierConfig,
    DriftSpec,
    ExperimentPlan,
    SimConfig,
    builtin_drift,
    epanechnikov,
    invariant_density,
    normality_check,
    nw_continuous,
    nw_discrete,
    pi_eval,
    run_cell,
    simulate_fine,
    simulate_path,
)
from refsde.cli import main

TWO_SIDED = BarrierConfig.two_sided(0.0, 3.0)

_PLAN = ExperimentPlan(case_id=1, barrier_mode="two_sided",
                       n_replications=200, base_seed=0)
_CELLS = {}


def _cell(n, beta, mode="two_sided", case_id=1):
    key = (case_id, n, beta, mode)
    if key not in _CELLS:
        plan = _PLAN if case_id == 1 else ExperimentPlan(
            case_id=case_id, barrier_mode="two_sided", n_replications=200,
            base_seed=0)
        _CELLS[key] = run_cell(plan, n, beta, mode=mode)
    return _CELLS[key]


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_case1_rase_trend_vs_table():
    means = [_cell(n, 0.3).rase_mean for n in (400, 900, 1600)]
    targets = (0.190, 0.135, 0.105)
    decreasing = means[0] > means[1] > means[2]
    within = all(abs(m - t) <= 0.30 * t for m, t in zip(means, targets))
    _report(1, decreasing and within,
            "case 1 two-sided beta=0.3 rase_mean(n=400,900,1600)="
            + ",".join(f"{m:.3f}" for m in means)
            + " vs 0.190,0.135,0.105 (+-30%)")
    assert decreasing, f"rase_mean not strictly decreasing in n: {means}"
    assert within, f"rase_mean outside +-30% of table values: {means}"


def test_criterion_02_case1_bandwidth_ordering():
    means = {b: _cell(400, b).rase_mean for b in (0.3, 0.2, 0.15)}
    targets = {0.3: 0.190, 0.2: 0.438, 0.15: 0.619}
    ordered = means[0.3] < means[0.2] < means[0.15]
    within = all(abs(means[b] - t) <= 0.30 * t for b, t in targets.items())
    _report(2, ordered and within,
            "case 1 n=400 rase_mean(beta=0.3,0.2,0.15)="
            + ",".join(f"{means[b]:.3f}" for b in (0.3, 0.2, 0.15))
            + " vs 0.190,0.438,0.619 (+-30%)")
    assert ordered, f"rase_mean not increasing as beta falls: {means}"
    assert within, f"rase_mean outside +-30% of table values: {means}"


def test_criterion_03_one_sided_beats_two_sided():
    two = _cell(1600, 0.3).rase_mean
    one = _cell(1600, 0.3, mode="one_sided_lower").rase_mean
    ordered = one < two
    within = (abs(one - 0.064) <= 0.40 * 0.064
              and abs(two - 0.105) <= 0.40 * 0.105)
    _report(3, ordered and within,
            f"case 1 n=1600 beta=0.3: one-sided {one:.3f} vs two-sided "
            f"{two:.3f} (targets 0.064 < 0.105, +-40%)")
    assert ordered, f"one-sided {one} not below two-sided {two}"
    assert within, f"cells outside +-40% of 0.064/0.105: {one}, {two}"


def test_criterion_04_case2_case3_magnitudes():
    m2 = _cell(1600, 0.3, case_id=2).rase_mean
    m3 = _cell(1600, 0.3, case_id=3).rase_mean
    ok = m2 <= 0.03 and m3 <= 0.06
    _report(4, ok, f"n=1600 beta=0.3 two-sided: case 2 rase_mean={m2:.3f} "
                   f"(cap 0.03), case 3 rase_mean={m3:.3f} (cap 0.06)")
    assert m2 <= 0.03, f"case 2 rase_mean {m2} exceeds 0.03"
    assert m3 <= 0.06, f"case 3 rase_mean {m3} exceeds 0.06"


def test_criterion_05_normality_bands():
    # refine 1 is the discrete-type estimator, refine 10 the continuous-type
    # one on ten sub-steps per step
    reports = {}
    for etype, refine in (("discrete", 1), ("continuous", 10)):
        plan = ExperimentPlan(case_id=2, barrier_mode="two_sided",
                              n_list=(1600,), beta_list=(0.3,),
                              n_replications=500, base_seed=0, refine=refine)
        reports[etype] = normality_check(plan, 1.5)
    lines = []
    ok = True
    for etype, rep in reports.items():
        bands = (abs(rep.mean_z) < 0.15 and 0.75 <= rep.var_z <= 1.25
                 and rep.ks_stat < 0.073)
        ok = ok and bands
        lines.append(f"{etype}: mean_z={rep.mean_z:.3g} var_z={rep.var_z:.3g}"
                     f" ks={rep.ks_stat:.3g}")
    _report(5, ok, "x0=1.5 case 2 n=1600 beta=0.3 N=500; " + "; ".join(lines))
    for etype, rep in reports.items():
        assert abs(rep.mean_z) < 0.15, f"{etype} mean_z={rep.mean_z}"
        assert 0.75 <= rep.var_z <= 1.25, f"{etype} var_z={rep.var_z}"
        assert rep.ks_stat < 0.073, f"{etype} ks={rep.ks_stat}"


def test_criterion_06_invariant_density_oracle():
    const = DriftSpec("const0.02",
                      lambda x: np.full_like(np.asarray(x, dtype=float), 0.02))
    dens = invariant_density(const, 0.2, TWO_SIDED)
    xs = np.linspace(0.0, 3.0, 100)
    kappa = 1.0 / (1.0 - math.exp(-3.0))
    err_exp = float(np.max(np.abs(pi_eval(dens, xs) - kappa * np.exp(-xs))))
    norm_errs = []
    for cid in (1, 2, 3):
        for barrier in (TWO_SIDED, BarrierConfig.one_sided(0.0)):
            d = invariant_density(builtin_drift(cid), 0.2, barrier)
            total, _ = quad(lambda x: pi_eval(d, x), 0.0, d.support_hi,
                            limit=200)
            norm_errs.append(abs(total - 1.0))
    ok = err_exp < 1e-8 and max(norm_errs) < 1e-8
    _report(6, ok, f"max |pi - kappa e^-x| = {err_exp:.2e}; "
                   f"max |int pi - 1| = {max(norm_errs):.2e} (tol 1e-8)")
    assert err_exp < 1e-8
    assert max(norm_errs) < 1e-8


def test_criterion_07_ergodic_occupation_distance():
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=1_000_000, delta=0.01, seed=7)
    p = simulate_path(cfg)
    dens = invariant_density(builtin_drift(2), 0.2, TWO_SIDED)
    edges = np.linspace(0.0, 3.0, 31)
    counts, _ = np.histogram(p.x, bins=edges)
    emp = counts / counts.sum()
    model = np.array([quad(lambda x: pi_eval(dens, x), a, b)[0]
                      for a, b in zip(edges[:-1], edges[1:])])
    tv = 0.5 * float(np.abs(emp - model).sum())
    _report(7, tv < 0.05, f"case 2, 1e6 steps, 30 bins: TV = {tv:.3f} "
                          "(tol 0.05)")
    assert tv < 0.05, f"total-variation distance {tv} >= 0.05"


def _brute_nw(path, k, grid):
    obs = path.x[:-1]
    incr = np.diff(path.x) - np.diff(path.l_reg) + np.diff(path.r_reg)
    h = k.bandwidth
    vals = np.full(grid.size, np.nan)
    for i, g in enumerate(grid):
        num = den = 0.0
        for o, dx in zip(obs, incr):
            u = (o - g) / h
            w = 0.75 * (1.0 - u * u) / h if abs(u) <= 1.0 else 0.0
            num += w * dx
            den += w
        if den > 0.0:
            vals[i] = num / (path.delta * den)
    return vals


def test_criterion_08_estimator_oracle_equivalence():
    grid = np.linspace(0.1, 2.9, 25)
    k = epanechnikov(0.3)
    worst = 0.0
    for s in range(20):
        cfg = SimConfig(drift=builtin_drift(1 + s % 3), sigma=0.2,
                        barrier=TWO_SIDED, n_steps=200, delta=0.02,
                        seed=(101, s))
        p = simulate_path(cfg)
        est = nw_discrete(p, k, grid)
        ref = _brute_nw(p, k, grid)
        assert np.array_equal(np.isnan(ref), est.undefined_mask)
        mask = ~est.undefined_mask
        if mask.any():
            worst = max(worst,
                        float(np.max(np.abs(est.values[mask] - ref[mask]))))
    # continuous estimator at refine=1 must coincide exactly
    cfg = SimConfig(drift=builtin_drift(2), sigma=0.2, barrier=TWO_SIDED,
                    n_steps=200, delta=0.02, seed=(101, 99))
    p = simulate_fine(cfg, 1)
    a, b = nw_discrete(p, k, grid), nw_continuous(p, k, grid)
    exact = (np.array_equal(a.undefined_mask, b.undefined_mask)
             and np.array_equal(a.values[~a.undefined_mask],
                                b.values[~b.undefined_mask]))
    _report(8, worst <= 1e-12 and exact,
            f"max |nw_discrete - brute force| = {worst:.2e} over 20 paths "
            f"(tol 1e-12); refine=1 exact match: {exact}")
    assert worst <= 1e-12
    assert exact


def test_criterion_09_path_invariant_suite():
    n = 1_000_000
    delta = float(n) ** (-2.0 / 3.0)  # the estimation schedule's step size
    thresh = 4.0 * 0.2 * math.sqrt(delta)
    total = 0
    details = []
    for cid in (1, 2, 3):
        for barrier in (TWO_SIDED, BarrierConfig.one_sided(0.0)):
            cfg = SimConfig(drift=builtin_drift(cid), sigma=0.2,
                            barrier=barrier, n_steps=n, delta=delta,
                            seed=(90, cid, 0 if barrier.mode == "two_sided"
                                  else 1))
            p = simulate_path(cfg)
            conf = int(np.sum(p.x < barrier.lower))
            mono = int(np.sum(np.diff(p.l_reg) < 0.0))
            mono += int(np.sum(np.diff(p.r_reg) < 0.0))
            comp = 0
            dl = np.diff(p.l_reg)
            lo_pair = np.minimum(p.x[:-1], p.x[1:])
            comp += int(np.sum((dl > 1e-10)
                               & (lo_pair > barrier.lower + thresh)))
            if barrier.mode == "two_sided":
                conf += int(np.sum(p.x > barrier.upper))
                dr = np.diff(p.r_reg)
                hi_pair = np.maximum(p.x[:-1], p.x[1:])
                comp += int(np.sum((dr > 1e-10)
                                   & (hi_pair < barrier.upper - thresh)))
            total += conf + mono + comp
            details.append(f"case{cid}/{barrier.mode}:"
                           f"{conf}+{mono}+{comp}")
    _report(9, total == 0,
            "violations (confinement+monotonicity+complementarity) "
            + " ".join(details))
    assert total == 0


def _run_to_file(tmp_path, name, args):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_criterion_10_cli_byte_determinism(tmp_path):
    sim = ["simulate", "--case", "2", "--n", "100", "--seed", "3"]
    a = _run_to_file(tmp_path, "s1.csv", sim)
    b = _run_to_file(tmp_path, "s2.csv", sim)
    sim_ok = a == b

    den = ["density", "--case", "1", "--grid", "30", "--seed", "3"]
    den_ok = (_run_to_file(tmp_path, "d1.csv", den)
              == _run_to_file(tmp_path, "d2.csv", den))

    src = tmp_path / "s1.csv"
    est = ["estimate", "--in", str(src), "--h", "0.3", "--grid-count", "20"]
    est_ok = (_run_to_file(tmp_path, "e1.csv", est)
              == _run_to_file(tmp_path, "e2.csv", est))

    exp = ["experiment", "--case", "1", "--mode", "both", "--n-list", "60",
           "--beta-list", "0.3", "--reps", "3", "--grid", "20", "--seed", "5"]
    t1 = _run_to_file(tmp_path, "t1.csv", exp + ["--threads", "1"])
    t3 = _run_to_file(tmp_path, "t3.csv", exp + ["--threads", "3"])
    exp_ok = t1 == t3

    nrm = ["normality", "--case", "2", "--x0", "1.5", "--n", "60", "--beta",
           "0.3", "--reps", "5", "--seed", "11"]
    nrm_ok = (_run_to_file(tmp_path, "n1.csv", nrm)
              == _run_to_file(tmp_path, "n2.csv", nrm))

    ok = sim_ok and den_ok and est_ok and exp_ok and nrm_ok
    _report(10, ok, f"byte-identical reruns: simulate={sim_ok} "
                    f"density={den_ok} estimate={est_ok} "
                    f"experiment(threads 1 vs 3)={exp_ok} normality={nrm_ok}")
    assert ok
