"""Path simulation for reflected diffusions on a regular time grid.

Each Euler step draws the Brownian increment, then samples the running
supremum of the within-step displacement conditioned on its endpoint using the
Brownian-bridge maximum inverse transform

    M = (y + sqrt(y^2 - 2 sigma^2 delta ln U)) / 2,   U ~ Uniform(0,1],

where y is the endpoint displacement.  The lower regulator increment is
dL = max(0, A - (state - l)) with A the supremum of the negated displacement;
the upper one is dR = max(0, B + (state - u)) with B the supremum of the
positive displacement.  This yields the regulator increments the estimators
consume, at the usual Euler-Maruyama convergence rate.

The scalar kernel, `_steps`, takes every step of `step` and `simulate_path`.
The noise is drawn and transformed as arrays first (the scaled normal
sigma * sqrt(delta) * Z, then U = 1 - Uniform[0, 1)), and the kernel turns
it into Python floats one block at a time, together with the radicand term
2 sigma^2 delta ln U; a step is then the drift call plus inline float
arithmetic, with the bridge maxima written out.

The vector kernel, `_vector_steps`, steps many paths that differ only in
their seed, for `simulate_paths`: one drift call and one pass of array
arithmetic per time index across all the paths, the same float operations
as `_steps` in the same order, so each path is bitwise its scalar path.
Each step reads its draws from the record slots that it then overwrites,
so a batch holds three floats per path-step.  A vector step costs tens of
microseconds whatever the number of paths, so it pays only beyond about
twenty paths; single paths stay on `_steps`.
"""
from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .model import BarrierConfig, DriftSpec, SamplePath

__all__ = [
    "SimConfig",
    "SimulationDivergedError",
    "fine_config",
    "sample_sup_with_drift",
    "simulate_fine",
    "simulate_path",
    "simulate_paths",
    "step",
    "stream_rng",
    "write_csv",
    "write_path_csv",
    "read_path_csv",
]

# Pure floating-point guard: reflection algebra keeps the state inside the
# domain exactly, so any overshoot beyond this is a genuine failure.
_CLAMP = 1e-12

# Steps per kernel call in `simulate_path`.  The kernel holds one block's
# draws and records as Python floats (about 2 MB at 2**14 steps), so a long
# path's working set is its arrays.
_BLOCK = 2**14


class SimulationDivergedError(RuntimeError):
    """State became non-finite or left the domain beyond the clamp guard."""

    def __init__(self, message: str, step_index: int | None = None):
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)
        self.step_index = step_index


def stream_rng(seed) -> np.random.Generator:
    """Counter-based generator for a stream key (an int or a tuple of ints).

    Distinct keys give independent streams; the same key always reproduces the
    same draws, independent of execution order elsewhere.
    """
    if isinstance(seed, (int, np.integer)):
        entropy = (int(seed),)
    else:
        entropy = tuple(int(s) for s in seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SimConfig:
    """Inputs for one simulated path.

    ``x0 = None`` selects the default start: the interval midpoint in
    two-sided mode, lower + 1 in one-sided mode.  ``burn_in`` initial steps are
    simulated and discarded before recording starts.
    """

    drift: DriftSpec
    sigma: float
    barrier: BarrierConfig
    n_steps: int
    delta: float
    x0: float | None = None
    seed: int | tuple[int, ...] = 0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if self.n_steps < 0 or self.burn_in < 0:
            raise ValueError("n_steps and burn_in must be nonnegative")
        if self.x0 is not None and not self.barrier.contains(self.x0):
            raise ValueError("x0 must lie in the barrier domain")

    @property
    def start(self) -> float:
        if self.x0 is not None:
            return float(self.x0)
        b = self.barrier
        if b.mode == "two_sided":
            return 0.5 * (b.lower + b.upper)
        return b.lower + 1.0


def sample_sup_with_drift(drift_rate: float, sigma: float, delta: float,
                          w_increment: float, uniform: float) -> float:
    """Sample the running supremum over one step of drift_rate*s + sigma*W_s,
    conditioned on the endpoint displacement y = drift_rate*delta + sigma*w.

    Returns M >= max(0, y).  ``uniform`` must lie in (0, 1]; uniform = 1 gives
    the almost-sure lower envelope max(0, y).
    """
    vals = (drift_rate, sigma, delta, w_increment, uniform)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite input to sample_sup_with_drift")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 < uniform <= 1.0:
        raise ValueError("uniform must lie in (0, 1]")
    y = drift_rate * delta + sigma * w_increment
    return _bridge_max(y, sigma, delta, uniform)


def _bridge_max(y: float, sigma: float, delta: float, u: float) -> float:
    # Inverse transform of the bridge-maximum law; ln(u) <= 0 so the radicand
    # dominates y^2 and M >= max(0, y) always.
    return 0.5 * (y + math.sqrt(y * y - 2.0 * sigma * sigma * delta * math.log(u)))


def _draws(cfg: SimConfig, rng: np.random.Generator, count: int):
    """Draw ``count`` steps' noise: all normals, then all lower uniforms, then
    (two-sided mode only) all upper uniforms.

    Returns (s, u_lo, u_hi) as arrays, u_hi None in one-sided mode, with
    s = sigma * (Z * sqrt(delta)) and U = 1 - Uniform[0, 1) in (0, 1].
    """
    s = rng.standard_normal(count)
    s *= math.sqrt(cfg.delta)
    s *= cfg.sigma
    u_lo = rng.random(count)
    np.subtract(1.0, u_lo, out=u_lo)
    if cfg.barrier.mode != "two_sided":
        return s, u_lo, None
    u_hi = rng.random(count)
    np.subtract(1.0, u_hi, out=u_hi)
    return s, u_lo, u_hi


def _steps(cfg: SimConfig, state: float, s, u_lo, u_hi, xs, dls, drs) -> float:
    """The reflected Euler kernel: one step per entry of the draw arrays.

    s, u_lo and u_hi are a slice of `_draws` (u_hi None in one-sided mode).
    Appends each next state, dL and dR to the lists xs, dls, drs and returns
    the last state; a failing step raises SimulationDivergedError after
    len(xs) completed steps.  Exactly one of dL, dR can be nonzero: the lower
    barrier is handled first and, if it fired, the upper sample is skipped
    (both barriers in one step is an o(delta) event).
    """
    drift_fn = cfg.drift.fn
    delta = cfg.delta
    lower = cfg.barrier.lower
    upper = cfg.barrier.upper if u_hi is not None else None
    # one-sided: the largest float, so +inf still fails the domain check
    hi = upper if upper is not None else sys.float_info.max
    # q = 2 sigma^2 delta ln U, the bridge-maximum radicand term of
    # `_bridge_max`, evaluated in its order; math.log, not np.log, whose last
    # bit differs on some inputs.
    c = 2.0 * cfg.sigma * cfg.sigma * delta
    log, sqrt = math.log, math.sqrt
    q_lo = [c * log(u) for u in u_lo.tolist()]
    # one-sided mode never reads qh; q_lo only fills the zip
    q_hi = [c * log(u) for u in u_hi.tolist()] if u_hi is not None else q_lo
    add_x, add_l, add_r = xs.append, dls.append, drs.append
    for s_k, ql, qh in zip(s.tolist(), q_lo, q_hi):
        d = float(drift_fn(state)) * delta + s_k
        y = state + d
        dl = 0.5 * (-d + sqrt(d * d - ql)) - (state - lower)
        if dl > 0.0:
            dr = 0.0
            nxt = y + dl
        else:
            dl = 0.0
            dr = 0.0
            nxt = y
            if upper is not None:
                dr = 0.5 * (d + sqrt(d * d - qh)) + (state - upper)
                if dr > 0.0:
                    nxt = y - dr
                else:
                    dr = 0.0
        if not lower <= nxt <= hi:
            nxt = _settle(nxt, lower, hi)
        add_x(nxt)
        add_l(dl)
        add_r(dr)
        state = nxt
    return state


def _settle(nxt: float, lower: float, hi: float) -> float:
    """Clamp a state within _CLAMP outside [lower, hi]; raise beyond it."""
    if not math.isfinite(nxt):
        raise SimulationDivergedError("state became non-finite")
    if nxt < lower:
        if lower - nxt > _CLAMP:
            raise SimulationDivergedError("state undershot the lower barrier")
        return lower
    if nxt - hi > _CLAMP:
        raise SimulationDivergedError("state overshot the upper barrier")
    return hi


def step(state: float, cfg: SimConfig, rng: np.random.Generator):
    """One public Euler step; returns (next_state, dL, dR).

    Consumes one normal and one uniform from ``rng`` (two uniforms in
    two-sided mode; the upper-barrier uniform is drawn unconditionally for
    stream regularity and discarded when the lower barrier fired).
    """
    if not cfg.barrier.contains(state):
        raise ValueError("state must lie in the barrier domain")
    xs, dls, drs = [], [], []
    _steps(cfg, float(state), *_draws(cfg, rng, 1), xs, dls, drs)
    return xs[0], dls[0], drs[0]


def simulate_path(cfg: SimConfig) -> SamplePath:
    """Simulate n_steps reflected Euler steps after the burn-in.

    Fully deterministic given cfg.seed.  The whole path's draws are taken at
    once per channel (normals, then lower uniforms, then upper uniforms) and
    transformed once as arrays, so a path is reproducible only through this
    function, not by replaying `step`.  The one stepping kernel that `step`
    also runs then takes them as Python floats, converted one block of at
    most _BLOCK steps at a time, so the working set beyond the path's own
    arrays stays bounded.  The regulators are cumulative sums of the
    recorded increments.
    """
    total = cfg.burn_in + cfg.n_steps
    s, u_lo, u_hi = _draws(cfg, stream_rng(cfg.seed), total)
    # index k holds the state after k steps and the increments of the k-th
    x = np.empty(total + 1)
    dl = np.empty(total + 1)
    dr = np.empty(total + 1)
    x[0] = state = cfg.start
    for a in range(0, total, _BLOCK):
        b = min(a + _BLOCK, total)
        xs, dls, drs = [], [], []
        try:
            state = _steps(cfg, state, s[a:b], u_lo[a:b],
                           None if u_hi is None else u_hi[a:b], xs, dls, drs)
        except SimulationDivergedError as e:
            raise SimulationDivergedError(str(e), step_index=a + len(xs)) from None
        x[a + 1:b + 1] = xs
        dl[a + 1:b + 1] = dls
        dr[a + 1:b + 1] = drs
    del s, u_lo, u_hi  # free the draws before the regulators and times
    keep = slice(cfg.burn_in, None)
    x, l_reg, r_reg = x[keep], dl[keep], dr[keep]
    l_reg[0] = r_reg[0] = 0.0
    np.cumsum(l_reg, out=l_reg)
    np.cumsum(r_reg, out=r_reg)
    times = np.arange(cfg.n_steps + 1) * cfg.delta
    return SamplePath(delta=cfg.delta, sigma=cfg.sigma, times=times, x=x,
                      l_reg=l_reg, r_reg=r_reg, seed=cfg.seed, barrier=cfg.barrier)


def simulate_paths(cfgs) -> list:
    """Simulate paths that share every SimConfig field but the seed, all at
    once: one vector step per time index across the paths.

    Returns one entry per config, in order: the SamplePath that
    simulate_path(cfg) returns, bit for bit, or the SimulationDivergedError
    (same message and step_index) that it would raise.  A failing path does
    not stop the others.  Each path draws from its own stream exactly as
    simulate_path does.  A vector step has a fixed cost of tens of
    microseconds, so this pays only for many paths per call; a single path
    belongs to simulate_path.  Each step's draws wait in the record slots
    that the step overwrites, so a batch peaks at three floats per
    path-step: states, signed increments and upper radicand terms while it
    steps (no upper ones one-sided), then states and the two regulators.
    The returned paths are read-only column views of those arrays.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("batched configs may differ only in seed")
    total, width = cfg.burn_in + cfg.n_steps, len(cfgs)
    two_sided = cfg.barrier.mode == "two_sided"
    # time-major, so that one time index is one contiguous row.  Row k of x
    # holds the state after k steps and row k of g the signed regulator
    # increment dR - dL of the k-th step (at most one of the two is
    # nonzero); until step k writes them, they hold its scaled normals and
    # its lower radicand terms 2 sigma^2 delta ln U.  qh[k - 1] holds the
    # upper radicand terms of step k.
    x = np.empty((total + 1, width))
    g = np.empty((total + 1, width))
    qh = np.empty((total, width)) if two_sided else None
    for j, c in enumerate(cfgs):
        x[1:, j], u_lo, u_hi = _draws(cfg, stream_rng(c.seed), total)
        g[1:, j] = _log_terms(u_lo)
        if two_sided:
            qh[:, j] = _log_terms(u_hi)
    scale = 2.0 * cfg.sigma * cfg.sigma * cfg.delta
    g[1:] *= scale
    if two_sided:
        qh *= scale
    x[0] = cfg.start
    g[0] = 0.0  # row 0 records no step
    errors = _vector_steps(cfg, x, g, qh)
    del qh  # free the draws before the regulators
    keep = slice(cfg.burn_in, None)
    x, r_reg = x[keep], g[keep]
    l_reg = np.negative(r_reg)
    np.maximum(l_reg, 0.0, out=l_reg)
    np.maximum(r_reg, 0.0, out=r_reg)
    l_reg[0] = r_reg[0] = 0.0
    # a sequential sum down each column: bitwise each column's own cumsum
    np.cumsum(l_reg, axis=0, out=l_reg)
    np.cumsum(r_reg, axis=0, out=r_reg)
    times = np.arange(cfg.n_steps + 1) * cfg.delta
    return [errors[j] if j in errors else
            SamplePath(delta=cfg.delta, sigma=cfg.sigma, times=times,
                       x=x[:, j], l_reg=l_reg[:, j], r_reg=r_reg[:, j],
                       seed=c.seed, barrier=cfg.barrier)
            for j, c in enumerate(cfgs)]


def _log_terms(u) -> np.ndarray:
    # math.log per draw: np.log differs from it in the last bit on some inputs
    return np.fromiter(map(math.log, u.tolist()), float, len(u))


def _vector_steps(cfg: SimConfig, x, g, qh) -> dict:
    """The reflected Euler kernel of `_steps`, one vector step per time index
    across the R columns of the records.

    x and g are (steps + 1, R); qh is (steps, R) two-sided and None
    one-sided.  Starting from the states in x[0], step k reads its scaled
    normals from x[k], its lower radicand terms 2 sigma^2 delta ln U from
    g[k] and its upper ones from qh[k - 1], then overwrites x[k] with the
    states and g[k] with the signed increments dR - dL.  Every value is the
    scalar kernel's, computed by the same float operations, so each column
    is bitwise the scalar path.  Returns {column: SimulationDivergedError}
    for the paths that failed, with the scalar kernel's message and step
    index.  A failed column is parked at the lower barrier and stepped on,
    and its records mean nothing.
    """
    drift_fn = cfg.drift.fn
    delta = cfg.delta
    lower = cfg.barrier.lower
    two_sided = qh is not None
    # one-sided: the largest float, so +inf still fails the domain check
    hi = cfg.barrier.upper if two_sided else sys.float_info.max
    rows = 2 if two_sided else 1
    width = x.shape[1]
    # m: the bridge maxima, then the (dL, dR) candidates.  gap = (state -
    # lower, hi - state), whose negative sign flags a state outside the
    # domain and whose rows dL and dR subtract (upper - state is exactly the
    # negative of the scalar kernel's state - upper).  (-d) * (-d) is d * d
    # and -d + r is r - d, bit for bit.
    d = np.empty(width)
    dd = np.empty(width)
    m = np.empty((rows, width))
    m_lo, m_hi = m[0], m[-1]
    gap = np.empty((2, width))
    gap_lo, gap_hi = gap
    gap_m = gap[:rows]
    low = np.empty(width, dtype=bool)
    errors: dict = {}
    with np.errstate(all="ignore"):
        np.subtract(x[0], lower, out=gap_lo)
        np.subtract(hi, x[0], out=gap_hi)
        for k in range(1, x.shape[0]):
            state, y, inc = x[k - 1], x[k], g[k]
            np.multiply(drift_fn(state), delta, out=d)
            d += y
            np.add(state, d, out=y)
            np.multiply(d, d, out=dd)
            np.subtract(dd, inc, out=m_lo)
            if two_sided:
                np.subtract(dd, qh[k - 1], out=m_hi)
                np.sqrt(m, out=m)
                m_lo -= d
                m_hi += d
            else:
                np.sqrt(m_lo, out=m_lo)
                m_lo -= d
            m *= 0.5
            m -= gap_m
            # dL where the lower barrier fired; else dR where the upper did
            np.greater(m_lo, 0.0, out=low)
            np.maximum(m, 0.0, out=m)
            if two_sided:
                np.copyto(m_hi, 0.0, where=low)
                np.subtract(m_hi, m_lo, out=inc)
            else:
                np.subtract(0.0, m_lo, out=inc)
            # y + dL, y - dR, or y itself (y - +0.0 keeps a -0.0)
            y -= inc
            np.subtract(y, lower, out=gap_lo)
            np.subtract(hi, y, out=gap_hi)
            if not np.minimum.reduce(gap, axis=None) >= 0.0:
                _vector_settle(y, lower, hi, k - 1, errors)
                np.subtract(y, lower, out=gap_lo)
                np.subtract(hi, y, out=gap_hi)
    return errors


def _vector_settle(y, lower, hi, k, errors) -> None:
    """`_settle` in place each entry of y outside [lower, hi]; file a first
    failure of a column under its index, and park failed columns at lower."""
    for j in np.flatnonzero(~((lower <= y) & (y <= hi))).tolist():
        try:
            y[j] = _settle(float(y[j]), lower, hi)
        except SimulationDivergedError as e:
            errors.setdefault(j, SimulationDivergedError(str(e), step_index=k))
            y[j] = lower


def simulate_fine(cfg: SimConfig, refine: int) -> SamplePath:
    """Simulate on the refined grid with step delta/refine.

    The fine path spans the same model time (n_steps*delta, and the same
    burn-in time), serving as the continuously-observed process for the
    continuous-type estimator.  refine=1 is exactly simulate_path.
    """
    return simulate_path(fine_config(cfg, refine))


def fine_config(cfg: SimConfig, refine: int) -> SimConfig:
    """The config of `simulate_fine`'s path: step delta/refine over the same
    model time, burn-in included."""
    if refine < 1 or int(refine) != refine:
        raise ValueError("refine must be a positive integer")
    refine = int(refine)
    if refine == 1:
        return cfg
    return replace(cfg, n_steps=cfg.n_steps * refine, delta=cfg.delta / refine,
                   burn_in=cfg.burn_in * refine)


# --- CSV import/export -------------------------------------------------------

def format_seed(seed) -> str:
    if isinstance(seed, (int, np.integer)):
        return str(int(seed))
    return ",".join(str(int(s)) for s in seed)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def write_csv(out_path, seed, header: str, rows) -> None:
    """The one CSV writer: a `# seed=` comment, the header, then the rows.

    out_path is a file path or an open text stream.  Floats are written at
    full double precision (%.17g), None as an empty field, anything else
    with str().  A row of Python floats only, one per header column, is
    formatted by one %-format call (a long path's rows are), and gives the
    same bytes.
    """
    width = header.count(",") + 1
    floats = (float,) * width
    float_row = (",".join(["%.17g"] * width) + "\n").__mod__
    with (nullcontext(out_path) if hasattr(out_path, "write")
          else open(out_path, "w", newline="")) as f:
        f.write(f"# seed={format_seed(seed)}\n{header}\n")
        for row in rows:
            if tuple(map(type, row)) == floats:
                f.write(float_row(tuple(row)))
            else:
                f.write(",".join(_cell(v) for v in row) + "\n")


def write_path_csv(path: SamplePath, out_path: str) -> None:
    """Write `t,x,l_reg,r_reg` rows at full double precision, preceded by a
    `# seed=` metadata comment.

    The columns become Python floats (the writer's fast rows) one block of
    _BLOCK rows at a time, so the writer holds no copy of the whole path.
    """
    cols = (path.times, path.x, path.l_reg, path.r_reg)
    write_csv(out_path, path.seed, "t,x,l_reg,r_reg",
              (row for a in range(0, path.x.size, _BLOCK)
               for row in zip(*(c[a:a + _BLOCK].tolist() for c in cols))))


def read_path_csv(in_path: str, sigma: float, barrier: BarrierConfig,
                  delta: float | None = None) -> SamplePath:
    """Rebuild a SamplePath from a `t,x,l_reg,r_reg` CSV.

    sigma and barrier are not stored in the CSV and must be supplied; delta is
    inferred from the time column unless given.

    Accepted layout (the one `write_path_csv` writes, plus CRLF line ends):
    leading comment, `t,...` header and blank lines, where a `# seed=` comment
    sets the seed (default 0); then rows of four comma-separated floats, among
    which empty lines and lines starting with `#` are skipped.  ValueError is
    raised for a non-numeric field, a row of another length, a column count
    other than four, no data rows, or a single row when delta is not given.
    """
    seed: int | tuple[int, ...] = 0
    with open(in_path) as f:
        for k, line in enumerate(f):
            line = line.strip()
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("seed="):
                    parts = body[len("seed="):].split(",")
                    ints = tuple(int(p) for p in parts)
                    seed = ints[0] if len(ints) == 1 else ints
            elif line and not line.startswith("t,"):
                break
        else:
            raise ValueError(f"no data rows in {in_path}")
        f.seek(0)
        data = np.loadtxt(f, delimiter=",", comments="#", skiprows=k, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("path CSV must have columns t,x,l_reg,r_reg")
    if delta is None:
        if data.shape[0] < 2:
            raise ValueError("cannot infer delta from a single-row path CSV")
        delta = float(data[1, 0] - data[0, 0])
    return SamplePath(delta=delta, sigma=sigma, times=data[:, 0], x=data[:, 1],
                      l_reg=data[:, 2], r_reg=data[:, 3], seed=seed,
                      barrier=barrier)
