"""Tests for the Monte Carlo harness: cells, tables, normality."""

import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import refsde.experiment as experiment
import refsde.simulate as sim_module
from refsde import (
    BarrierConfig,
    DriftSpec,
    EstimateResult,
    ExperimentPlan,
    McSummary,
    NoDataError,
    NormalityReport,
    ReplicationError,
    SimConfig,
    SimulationDivergedError,
    bandwidth,
    builtin_drift,
    delta_of_n,
    epanechnikov,
    estimation_grid,
    normality_check,
    nw_continuous,
    nw_discrete,
    rase,
    replication_seed,
    run_cell,
    run_table,
    simulate_fine,
    simulate_path,
    write_normality_csv,
    write_summary_csv,
)

ZERO = DriftSpec("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def _result(grid, values):
    values = np.asarray(values, dtype=float)
    und = ~np.isfinite(values)
    return EstimateResult(np.asarray(grid, dtype=float), values,
                          np.where(und, 0.0, 1.0), und,
                          np.zeros(values.size, dtype=bool))


def test_rase_hand_values():
    g = [0.5, 1.5]
    assert rase(_result(g, [0.0, 0.0]), ZERO) == 0.0
    assert rase(_result(g, [0.1, 0.1]), ZERO) == pytest.approx(0.1, rel=1e-15)
    assert rase(_result(g, [0.3, 0.4]), ZERO) == pytest.approx(
        0.3535533905932738, rel=1e-15)


def test_rase_averages_over_defined_points_only():
    got = rase(_result([0.5, 1.5, 2.5], [0.3, np.nan, 0.4]), ZERO)
    assert got == pytest.approx(0.3535533905932738, rel=1e-15)


def test_rase_all_undefined_raises():
    with pytest.raises(NoDataError):
        rase(_result([0.5], [np.nan]), ZERO)


def test_estimation_grid_midpoints():
    g = estimation_grid(0.0, 3.0, 300)
    assert g.shape == (300,)
    assert g[0] == pytest.approx(0.005)
    assert g[-1] == pytest.approx(2.995)
    np.testing.assert_allclose(np.diff(g), 0.01, rtol=1e-12)
    with pytest.raises(ValueError):
        estimation_grid(0.0, 3.0, 0)
    with pytest.raises(ValueError):
        estimation_grid(2.0, 1.0, 10)


def test_estimation_grid_refuses_points_that_overflow():
    # finite edges whose partition overflows: (i + 0.5) (upper - lower) is
    # inf for i >= 3 at 5e307, and -1e308 .. 1e308 has an infinite width
    np.testing.assert_array_equal(estimation_grid(0.0, 5e307, 3),
                                  [0.5 * 5e307 / 3, 1.5 * 5e307 / 3,
                                   2.5 * 5e307 / 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lower, upper, count in [(0.0, 5e307, 300), (-1e308, 1e308, 2)]:
            with pytest.raises(ValueError, match="grid points must be finite"):
                estimation_grid(lower, upper, count)


def test_replication_seed_layout():
    key = replication_seed(7, 2, "one_sided_lower", 400, 0.3, 5)
    assert key == (7, 2, 1, 400, 300000, 5)
    assert replication_seed(7, 2, "two_sided", 400, 0.3, 5)[2] == 0
    # r = 0 is reserved and distinct from every replication slot
    assert replication_seed(7, 2, "two_sided", 400, 0.3, 0)[-1] == 0


@pytest.mark.parametrize("mode, beta, named", [
    ("both", 0.3, "'both'"),
    ("mirrored", 0.3, "'mirrored'"),
    ("two_sided", math.inf, "inf"),
    ("two_sided", -math.inf, "-inf"),
    ("two_sided", math.nan, "nan"),
    # finite, but beta * 1e6 overflows
    ("one_sided_lower", 1e303, "1e+303"),
])
def test_replication_seed_names_a_bad_mode_or_beta(mode, beta, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        replication_seed(7, 2, mode, 400, beta, 1)


@pytest.mark.parametrize("kwargs", [
    dict(case_id=5),
    dict(case_id=1, barrier_mode="sideways"),
    dict(case_id=1, estimator_type="kernelized"),
    dict(case_id=1, beta_list=(1.2,)),
    dict(case_id=1, n_list=(1,)),
    dict(case_id=1, n_replications=0),
    dict(case_id=1, refine=0),
    dict(case_id=1, lower=2.0, upper=1.0),
    # values that only the objects a cell builds reject
    dict(case_id=1, sigma=-1.0),
    dict(case_id=1, burn_in=-1),
    dict(case_id=1, grid_count=0),
    dict(case_id=1, barrier_mode="both", x0=3.5),
    dict(case_id=1, estimator_type="continuous", refine=1.5),
    dict(case_id=1, barrier_mode="one_sided_lower", upper=math.inf),
])
def test_plan_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentPlan(**kwargs)


def test_plan_coerces_list_inputs():
    plan = ExperimentPlan(case_id=1, n_list=[40, 80], beta_list=[0.3])
    assert plan.n_list == (40, 80)
    assert plan.beta_list == (0.3,)


def test_run_cell_matches_hand_statistics():
    plan = ExperimentPlan(case_id=2, barrier_mode="two_sided",
                          n_replications=2, grid_count=40, base_seed=31)
    s = run_cell(plan, 120, 0.3)
    # redo both replications from public pieces only
    grid = estimation_grid(0.0, 3.0, 40)
    k = epanechnikov(bandwidth(120, 0.3))
    per = []
    for r in (1, 2):
        seed = replication_seed(31, 2, "two_sided", 120, 0.3, r)
        cfg = SimConfig(drift=builtin_drift(2), sigma=0.2,
                        barrier=BarrierConfig.two_sided(0.0, 3.0),
                        n_steps=120, delta=delta_of_n(120), seed=seed)
        per.append(rase(nw_discrete(simulate_path(cfg), k, grid),
                        builtin_drift(2)))
    assert per == pytest.approx([0.3101388755590312, 0.5531056483952004],
                                rel=1e-12)
    assert s.rase_mean == pytest.approx(float(np.mean(per)), rel=1e-15)
    assert s.rase_median == pytest.approx(float(np.median(per)), rel=1e-15)
    assert s.rase_std == pytest.approx(float(np.std(per, ddof=1)), rel=1e-15)
    assert (s.case_id, s.mode, s.n, s.beta) == (2, "two_sided", 120, 0.3)
    assert s.h == pytest.approx(bandwidth(120, 0.3))
    assert s.delta == pytest.approx(delta_of_n(120))
    assert s.n_replications == 2


@pytest.fixture
def built_pools(monkeypatch):
    """The worker count of every process pool built from here on."""
    built = []
    process_pool = experiment._process_pool

    def counting_pool(workers):
        built.append(workers)
        return process_pool(workers)

    monkeypatch.setattr(experiment, "_process_pool", counting_pool)
    return built


def test_run_cell_deterministic_and_thread_invariant(built_pools):
    # a burn-in that puts the group above the batch budget, so that its six
    # replications are more than one unit of work and threads=2 builds a pool
    plan = ExperimentPlan(case_id=1, barrier_mode="two_sided",
                          n_replications=6, grid_count=25, base_seed=5,
                          burn_in=40_000)
    a = run_cell(plan, 80, 0.3)
    b = run_cell(plan, 80, 0.3)
    assert built_pools == []
    c = run_cell(plan, 80, 0.3, threads=2)
    assert len(built_pools) == 1
    assert a == b
    assert a == c


@pytest.mark.parametrize("count", [1, 2, 5, 20, 21, 200])
def test_median_is_bitwise_np_median(count):
    rng = np.random.default_rng(count)
    for values in (rng.random(count), rng.lognormal(size=count),
                   np.full(count, 0.1) + rng.integers(0, 3, count) * 1e300):
        got = experiment._median(values.tolist())
        assert type(got) is float
        assert np.float64(got).tobytes() == np.median(values).tobytes()


def _public_replication(plan, mode, n, beta, r, x0=None):
    """Replication r of a cell through the public per-path pipeline: its
    (rase, excluded grid points), or with x0 its estimate there, or the
    exception that it raises."""
    seed = replication_seed(plan.base_seed, plan.case_id, mode, n, beta, r)
    cfg = SimConfig(drift=builtin_drift(plan.case_id), sigma=plan.sigma,
                    barrier=plan.barrier_for(mode), n_steps=n,
                    delta=delta_of_n(n), x0=plan.x0, seed=seed,
                    burn_in=plan.burn_in)
    k = epanechnikov(bandwidth(n, beta))
    grid = (estimation_grid(plan.lower, plan.upper, plan.grid_count)
            if x0 is None else [x0])
    try:
        if plan.estimator_type == "continuous":
            est = nw_continuous(simulate_fine(cfg, plan.refine), k, grid)
        else:
            est = nw_discrete(simulate_path(cfg), k, grid)
        if x0 is not None:
            return float(est.values[0])
        return (rase(est, builtin_drift(plan.case_id)),
                int(est.undefined_mask.sum()))
    except Exception as exc:
        return exc


def test_cell_summary_invariant_under_replication_order():
    plan = ExperimentPlan(case_id=2, barrier_mode="two_sided",
                          n_replications=5, grid_count=20, base_seed=8)
    s = run_cell(plan, 60, 0.3)
    per = [_public_replication(plan, "two_sided", 60, 0.3, r)[0]
           for r in range(5, 0, -1)]  # recompute in reverse order
    assert s.rase_mean == pytest.approx(float(np.mean(per)), rel=1e-12)
    assert s.rase_median == pytest.approx(float(np.median(per)), rel=1e-12)
    assert s.rase_std == pytest.approx(float(np.std(per, ddof=1)), rel=1e-12)


def test_run_cell_single_replication_std_zero():
    plan = ExperimentPlan(case_id=1, barrier_mode="two_sided",
                          n_replications=1, grid_count=10, base_seed=0)
    s = run_cell(plan, 40, 0.3)
    assert s.rase_std == 0.0
    assert s.rase_mean == s.rase_median


def test_run_cell_needs_concrete_mode():
    plan = ExperimentPlan(case_id=1, n_replications=1, grid_count=10)
    with pytest.raises(ValueError):
        run_cell(plan, 40, 0.3)  # plan says "both"
    s = run_cell(plan, 40, 0.3, mode="one_sided_lower")
    assert s.mode == "one_sided_lower"


@pytest.mark.parametrize("n, beta", [(1, 0.3), (40, 1.5)])
def test_run_cell_rejects_bad_schedule_before_work(monkeypatch, n, beta):
    monkeypatch.setattr(experiment, "_cell_score", None)  # must not run
    plan = ExperimentPlan(case_id=1, barrier_mode="two_sided",
                          n_replications=2, grid_count=10)
    with pytest.raises(ValueError):
        run_cell(plan, n, beta)


def test_continuous_refine_one_cell_equals_discrete_cell():
    base = dict(case_id=3, barrier_mode="two_sided", n_replications=3,
                grid_count=20, base_seed=11)
    d = run_cell(ExperimentPlan(estimator_type="discrete", **base), 60, 0.3)
    c = run_cell(ExperimentPlan(estimator_type="continuous", refine=1, **base),
                 60, 0.3)
    assert d == c


def test_mean_stabilizes_when_replications_double():
    base = dict(case_id=2, barrier_mode="two_sided", grid_count=25,
                base_seed=7)
    s30 = run_cell(ExperimentPlan(n_replications=30, **base), 400, 0.3)
    s60 = run_cell(ExperimentPlan(n_replications=60, **base), 400, 0.3)
    gap = abs(s60.rase_mean - s30.rase_mean)
    assert gap < 3.0 * s30.rase_std / math.sqrt(30.0)


def test_run_table_covers_all_cells():
    plan = ExperimentPlan(case_id=2, barrier_mode="both", n_list=(40, 60),
                          beta_list=(0.3,), n_replications=1, grid_count=10,
                          base_seed=3)
    summaries, failures = run_table(plan)
    assert failures == []
    combos = {(s.n, s.beta, s.mode) for s in summaries}
    assert combos == {
        (40, 0.3, "two_sided"), (40, 0.3, "one_sided_lower"),
        (60, 0.3, "two_sided"), (60, 0.3, "one_sided_lower")}
    assert all(s.rase_std == 0.0 for s in summaries)


def test_run_table_default_layout_is_eighteen_cells():
    plan = ExperimentPlan(case_id=2, n_replications=1, grid_count=5,
                          base_seed=1)
    assert plan.n_list == (400, 900, 1600)
    assert plan.beta_list == (0.3, 0.2, 0.15)
    summaries, failures = run_table(plan)
    assert len(summaries) + len(failures) == 18
    assert failures == []


@pytest.mark.parametrize("exc_type", [RuntimeError, StopIteration])
def test_replication_failure_reports_index(monkeypatch, exc_type):
    real = experiment._cell_score

    def boom(task, values, truth):
        if task[-1] == 2:
            raise exc_type("synthetic failure")
        return real(task, values, truth)

    monkeypatch.setattr(experiment, "_cell_score", boom)
    plan = ExperimentPlan(case_id=2, barrier_mode="two_sided",
                          n_replications=3, grid_count=10, base_seed=2)
    with pytest.raises(ReplicationError,
                       match=f"replication 2: {exc_type.__name__}"):
        run_cell(plan, 40, 0.3)
    # run_table files the same failure and keeps going
    tbl_plan = ExperimentPlan(case_id=2, barrier_mode="two_sided",
                              n_list=(40,), beta_list=(0.3,),
                              n_replications=3, grid_count=10, base_seed=2)
    summaries, failures = run_table(tbl_plan)
    assert summaries == []
    assert len(failures) == 1
    assert f"replication 2: {exc_type.__name__}" in failures[0].message


_FOUR_CELLS = ExperimentPlan(case_id=2, barrier_mode="both", n_list=(40, 60),
                             beta_list=(0.3,), n_replications=3,
                             grid_count=10, base_seed=2)
_REAL_CELL_SCORE = experiment._cell_score
_REAL_POINT_SCORE = experiment._point_score


# Module-level hooks, so that pool processes can unpickle them.
def _cell_score_failing_once(task, values, truth):
    if task[1:3] == ("two_sided", 60) and task[-1] == 2:
        raise RuntimeError("synthetic failure")
    return _REAL_CELL_SCORE(task, values, truth)


def _point_score_failing_once(task, values, truth):
    if task[-1] == 2:
        raise RuntimeError("synthetic failure")
    return _REAL_POINT_SCORE(task, values, truth)


def _table_tasks(plan):
    return [t for n in plan.n_list for beta in plan.beta_list
            for m in plan.modes
            for t in experiment._cell_tasks(plan, m, n, beta)]


def test_batches_cut_each_group_equally_under_the_budget():
    plan = ExperimentPlan(case_id=1, n_list=(400, 1600, 30_000),
                          n_replications=20)
    tasks = _table_tasks(plan)
    batches = experiment._batches(tasks)
    assert sorted(i for _, b in batches for i in b) == list(range(len(tasks)))
    sizes = {}
    for cfg, b in batches:
        assert len({tasks[i][1:3] for i in b}) == 1  # one (mode, n) group
        assert b == sorted(b)
        # the group's config, under no replication's key
        mode, n = tasks[b[0]][1:3]
        assert cfg == experiment._path_config(plan, mode, n)
        assert (cfg.barrier.mode, cfg.n_steps, cfg.seed) == (mode, n, 0)
        sizes.setdefault((mode, n), []).append(len(b))
    # 60 paths of 400 or of 1600 steps fit in one batch
    assert sizes[("two_sided", 400)] == [60]
    assert sizes[("one_sided_lower", 1600)] == [60]
    # five paths of 30 000 steps would pass the budget: batches of four
    assert sizes[("two_sided", 30_000)] == [4] * 15
    # a group narrower than the kernel crossover is still one batch
    few = ExperimentPlan(case_id=1, n_list=(400,), beta_list=(0.3,),
                         n_replications=sim_module._MIN_BATCH - 1)
    assert [len(b) for _, b in experiment._batches(_table_tasks(few))] == \
        [sim_module._MIN_BATCH - 1] * 2  # one batch per barrier mode


_BASE_PLAN = dict(case_id=1, n_list=(60,), beta_list=(0.3, 0.2),
                  n_replications=13, grid_count=30, base_seed=4, refine=3)
# (plan, x0 of a point estimate or None for a cell, the kinds of result
# that some replication must give)
_BATCH_CASES = {
    "discrete": (_BASE_PLAN, None, {tuple}),
    "continuous": (dict(_BASE_PLAN, estimator_type="continuous"), None,
                   {tuple}),
    # bandwidths of 0.038 and 0.025 at three grid points: some paths put
    # no observation in any window, and some none within h of x0
    "normality": (dict(_BASE_PLAN, beta_list=(0.8, 0.9), grid_count=3,
                       x0=1.0), 1.5, {float}),
    "no_data": (dict(_BASE_PLAN, beta_list=(0.8, 0.9), grid_count=3,
                     x0=1.0), None, {tuple, NoDataError}),
    # the narrow domain of test_narrow_domain_batch_matches_paths_alone:
    # some paths leave it beyond the clamp guard
    "diverging": (dict(_BASE_PLAN, barrier_mode="two_sided",
                       n_list=(500, 1000), sigma=1.0, upper=0.32), None,
                  {tuple, SimulationDivergedError}),
}


@pytest.mark.parametrize("kind", list(_BATCH_CASES))
def test_batched_replications_equal_replications_alone(kind):
    # each slot, a value or an exception, is the public pipeline's:
    # rase of nw_discrete on simulate_path's path (nw_continuous on
    # simulate_fine's), or the estimate at x0
    kwargs, x0, kinds = _BATCH_CASES[kind]
    plan = ExperimentPlan(**kwargs)
    tasks = _table_tasks(plan)
    assert max(len(b) for _, b in experiment._batches(tasks)) == 26  # 2 betas
    with np.errstate(all="ignore"):
        alone = [_public_replication(plan, *t[1:], x0=x0) for t in tasks]
    assert {type(a) for a in alone} == kinds
    if x0 is None:
        score, grid = experiment._cell_score, estimation_grid(
            plan.lower, plan.upper, plan.grid_count)
    else:
        score, grid = experiment._point_score, np.array([x0])
        assert any(math.isnan(a) for a in alone)
        assert not all(math.isnan(a) for a in alone)
    for threads in (None, 2):
        with np.errstate(all="ignore"):
            got = experiment._map_replications(score, tasks, grid, threads)
        for g, want in zip(got, alone, strict=True):
            assert type(g) is type(want)
            if isinstance(want, Exception):
                assert str(g) == str(want)
            elif x0 is None:
                assert g == want
            else:
                assert np.float64(g).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("mode, bound", [("two_sided", 4.05),
                                         ("one_sided_lower", 3.55)])
def test_scored_batch_working_set(mode, bound):
    # a batch of 60 paths of 1600 steps holds its states and both
    # regulators (3 floats per path-step; upper radicand terms before that
    # two-sided), and scores it column by column: one column's copies and
    # one group of the NW core's in-window pairs come on top.  The bounds
    # are the peaks of scoring through one SamplePath and EstimateResult
    # per path (4.048 and 3.544, rounded up); batch-wide copies of the
    # sorted observations and the increments would reach 6
    plan = ExperimentPlan(case_id=1, barrier_mode=mode, n_list=(1600,),
                          n_replications=20)
    tasks = _table_tasks(plan)
    grid = estimation_grid(plan.lower, plan.upper, plan.grid_count)
    cfg = experiment._path_config(plan, mode, 1600)
    experiment._batch_worker((experiment._cell_score, grid, cfg, tasks[:2]))
    tracemalloc.start()
    try:
        results = experiment._batch_worker((experiment._cell_score, grid,
                                            cfg, tasks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tasks) == 60
    assert all(type(r) is tuple for r in results)
    per = peak / (len(tasks) * 1600 * 8)
    assert per < bound, f"peak {per:.3f} floats per path-step"


def test_run_table_builds_one_pool(built_pools):
    pooled = run_table(_FOUR_CELLS, threads=2)
    assert len(built_pools) == 1
    assert len(pooled[0]) == 4
    assert pooled == run_table(_FOUR_CELLS, threads=1)
    assert len(built_pools) == 1


def test_pooled_failure_is_filed_like_serial(monkeypatch):
    clean, _ = run_table(_FOUR_CELLS)
    monkeypatch.setattr(experiment, "_cell_score", _cell_score_failing_once)
    serial = run_table(_FOUR_CELLS)
    summaries, failures = run_table(_FOUR_CELLS, threads=2)
    assert (summaries, failures) == serial
    assert [(f.mode, f.n, f.beta) for f in failures] == [("two_sided", 60, 0.3)]
    assert failures[0].message == ("ReplicationError: replication 2: "
                                   "RuntimeError: synthetic failure")
    assert summaries == [s for s in clean
                         if (s.mode, s.n) != ("two_sided", 60)]


@pytest.mark.parametrize("threads", [None, 2])
def test_normality_failure_reports_index(monkeypatch, built_pools, threads):
    # the burn-in puts the four replications in two batches of two, so that
    # threads=2 runs them in a pool
    monkeypatch.setattr(experiment, "_point_score", _point_score_failing_once)
    with pytest.raises(ReplicationError,
                       match="^replication 2: RuntimeError: synthetic failure$"):
        normality_check(2, 1.5, 400, 0.3, 4, 0, burn_in=40_000,
                        threads=threads)
    assert len(built_pools) == (threads == 2)


def test_pool_has_no_more_workers_than_batches(built_pools):
    # six replications in two batches of three: threads=4 builds a pool of
    # two workers, not four of which two would sit idle
    plan = ExperimentPlan(case_id=1, barrier_mode="two_sided",
                          n_replications=6, grid_count=25, base_seed=5,
                          burn_in=40_000)
    serial = run_cell(plan, 80, 0.3)
    assert built_pools == []
    assert run_cell(plan, 80, 0.3, threads=4) == serial
    assert built_pools == [2]


def test_ks_statistic_matches_scipy_kstest():
    # Phi = 0.5 erfc(-z / sqrt 2) and scipy's ndtr each give the normal cdf,
    # a value in [0, 1], to within a few units in the last place (2.2e-16
    # each at 1), and the statistic is one subtraction of such values from
    # i/N: the two statistics may differ by a few such units
    from scipy import stats
    rng = np.random.default_rng(16)
    for size in rng.integers(1, 1001, 300).tolist():
        z = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0), size)
        want = float(stats.kstest(z, "norm").statistic)
        assert experiment._ks_normal(z) == pytest.approx(want, rel=0.0,
                                                         abs=1e-15)


def test_normality_check_validates_location_and_schedule():
    with pytest.raises(ValueError):
        normality_check(2, 0.05, 400, 0.3, 5, 0)  # within h of lower barrier
    with pytest.raises(ValueError):
        normality_check(2, 2.9, 400, 0.3, 5, 0)   # within h of upper barrier
    with pytest.raises(ValueError, match="rate"):
        normality_check(2, 1.5, 400, 0.45, 5, 0)  # nhΔ shrinks at this beta


@pytest.mark.parametrize("mode", ["both", "sideways"])
def test_normality_check_needs_concrete_mode_before_work(monkeypatch, mode):
    calls = []
    monkeypatch.setattr(experiment, "_map_replications",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        normality_check(2, 1.5, 400, 0.3, 5, 0, mode=mode)
    assert calls == []


def test_normality_report_fields_and_dropped_counter(monkeypatch):
    real = experiment._point_score

    def patchy(task, values, truth):
        if task[-1] in (2, 5):
            return float("nan")
        return real(task, values, truth)

    monkeypatch.setattr(experiment, "_point_score", patchy)
    rep = normality_check(2, 1.5, 400, 0.3, 6, 123)
    assert isinstance(rep, NormalityReport)
    assert rep.dropped == 2
    assert rep.n_replications == 6
    assert (rep.case_id, rep.x0, rep.n, rep.beta) == (2, 1.5, 400, 0.3)
    assert math.isfinite(rep.mean_z)
    assert math.isfinite(rep.var_z)
    assert 0.0 <= rep.ks_stat <= 1.0


def test_normality_all_dropped_raises(monkeypatch):
    monkeypatch.setattr(experiment, "_point_score",
                        lambda task, values, truth: float("nan"))
    with pytest.raises(NoDataError):
        normality_check(2, 1.5, 400, 0.3, 3, 0)


def test_summary_csv_format(tmp_path):
    s = McSummary(case_id=2, mode="two_sided", n=400, beta=0.3, h=0.25,
                  delta=0.02, rase_mean=0.5, rase_std=0.1, rase_median=0.45,
                  excluded_points_mean=12.5, n_replications=30)
    out = tmp_path / "table.csv"
    write_summary_csv([s], str(out), base_seed=6)
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=6"
    assert lines[1] == ("case,mode,n,beta,h,delta,rase_mean,rase_std,"
                        "rase_median,excluded_mean,n_reps")
    cells = lines[2].split(",")
    assert len(cells) == 11
    assert cells[0] == "2"
    assert cells[1] == "two_sided"
    assert cells[2] == "400"
    assert cells[-1] == "30"


def test_normality_csv_accepts_stream():
    rep = NormalityReport(case_id=2, x0=1.5, n=400, beta=0.3, mean_z=0.01,
                          var_z=1.02, ks_stat=0.03, dropped=0,
                          n_replications=500)
    buf = io.StringIO()
    write_normality_csv(rep, buf, 9)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=9"
    assert lines[1] == "case,x0,n,beta,mean_z,var_z,ks_stat,dropped"
    assert lines[2].startswith("2,1.5,400,")
    assert lines[2].endswith(",0")
