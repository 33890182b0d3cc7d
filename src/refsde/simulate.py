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

Every path is stepped on one record layout (`_records`): time-major arrays
of states and of signed regulator increments dR - dL, plus the upper
radicand terms two-sided, one column per path.  Each step's draws, the
scaled normal sigma * (Z * sqrt(delta)) and the radicand terms
2 sigma^2 delta ln U with U = 1 - Uniform[0, 1), wait in the slots that the
step overwrites, so the records hold three floats per path-step.  Each
path's stream fills its column with its raw draws, and one numpy pass over
the whole batch's records (np.log for the radicand terms) transforms them.
Two kernels step the records, with the same float operations in the same
order, so each path is bitwise the same whichever steps it:

- the scalar kernel, `_steps`, the one float loop: one column at a time,
  one block of Python floats at a time;
- the vector kernel, `_vector_steps`: one drift call and one pass of array
  arithmetic per time index across all the columns.

`_simulate` is the one way in.  A batch is one config and a list of stream
keys: it steps one path of the config per key, so the paths of a batch
differ only in their draws.  A batch of at least _MIN_BATCH paths steps
with the vector kernel and a narrower one with the scalar kernel, and
`_simulate` hands back the finished batch arrays.  `simulate_path(cfg)` is
the batch of one, `cfg` with its own seed, wrapped into a SamplePath; the
replication harness reads the arrays of its batches themselves.

`SimConfig` refuses a step too large for step 0's arithmetic to stay
finite, so an out-of-scale sigma, delta or start fails when the config is
built, not after a run.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .model import BarrierConfig, DriftSpec, SamplePath

__all__ = [
    "SimConfig",
    "SimulationDivergedError",
    "fine_config",
    "simulate_fine",
    "simulate_path",
    "stream_rng",
    "write_csv",
    "write_path_csv",
    "read_path_csv",
]

# Pure floating-point guard: reflection algebra keeps the state inside the
# domain exactly, so any overshoot beyond this is a genuine failure.
_CLAMP = 1e-12

# Steps per block of the stream draws and of the scalar kernel, which holds
# one block's draws and records as Python floats (about 2 MB at 2**14
# steps), so a long path's working set is its records.
_BLOCK = 2**14
# The fewest paths that the vector kernel steps clearly faster than the
# scalar kernel steps them one by one: a vector step costs about 20 us
# whatever the width.  Measured on cases 1 and 2 at n = 400 and 1600, both
# barrier modes: the break-even widths were 14-18 (medians of five runs
# each), rounded up here.
_MIN_BATCH = 20
# The largest |ln U| and |Z| that a step can draw.  U = 1 - Uniform[0, 1)
# is at least 2**-53, so |ln U| <= 53 ln 2.  numpy's ziggurat normal draws
# its tail beyond r = 3.654... as r + x, accepting x only where
# 2 (-ln U') > x^2 for another such U', so |Z| < r + sqrt(2 * 53 ln 2).
_LN_U_MAX = 53.0 * math.log(2.0)
_Z_MAX = 3.6541528853610088 + math.sqrt(2.0 * _LN_U_MAX)


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
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        _entropy(seed))))


def _entropy(seed) -> tuple[int, ...]:
    """A stream key's entries as a tuple of ints."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


@dataclass(frozen=True)
class SimConfig:
    """Inputs for one simulated path.

    ``x0 = None`` selects the default start: the interval midpoint in
    two-sided mode, lower + 1 in one-sided mode.  ``burn_in`` initial steps are
    simulated and discarded before recording starts.  ``seed`` is the
    stream key of `simulate_path`'s path; a batch (`_simulate`) reads every
    other field and takes its keys apart.

    A sigma * sqrt(delta) or a start drift step |b(x0)| * delta is refused
    when step 0's bridge-maximum radicand d * d - 2 sigma^2 delta ln U could
    overflow for some draw (|Z| < _Z_MAX, |ln U| <= _LN_U_MAX): each alone
    above about 9.0e152 and 1.3e154, and a NaN b(x0).  b(x0) is evaluated
    once, without numpy warnings.
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
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if self.n_steps < 0 or self.burn_in < 0:
            raise ValueError("n_steps and burn_in must be nonnegative")
        if self.x0 is not None and not self.barrier.contains(self.x0):
            raise ValueError("x0 must lie in the barrier domain")
        # SeedSequence refuses negative entropy, but only once a path draws
        if any(s < 0 for s in _entropy(self.seed)):
            raise ValueError("seed entries must be nonnegative: "
                             f"{self.seed!r}")
        # step 0's bridge-maximum radicand d * d - c ln U at its largest over
        # every draw, with d = b(x0) delta + sigma sqrt(delta) Z and c the
        # 2 sigma^2 delta of _records; NaN fails the test too
        with np.errstate(all="ignore"):
            drift_step = abs(float(self.drift.fn(self.start))) * self.delta
        noise = self.sigma * math.sqrt(self.delta)
        d = drift_step + noise * _Z_MAX
        c = 2.0 * self.sigma * self.sigma * self.delta
        if not d * d + c * _LN_U_MAX < math.inf:
            raise ValueError(f"step out of scale: sigma*sqrt(delta) = "
                             f"{noise:g}, |b(x0)|*delta = {drift_step:g} can "
                             "overflow step 0's bridge maximum")

    @property
    def start(self) -> float:
        if self.x0 is not None:
            return float(self.x0)
        b = self.barrier
        if b.mode == "two_sided":
            return 0.5 * (b.lower + b.upper)
        return b.lower + 1.0


def _records(cfg: SimConfig, keys, total: int):
    """The records of ``total`` steps of one path per stream key in
    ``keys``, its draws in place: the one layout both kernels step.

    Returns (x, g, qh).  x and g are time-major (total + 1, R), so that one
    time index is one contiguous row, and qh is (total, R) two-sided, None
    one-sided.  Row k of x holds the state after k steps and row k of g the
    signed regulator increment dR - dL of the k-th step (at most one of the
    two is nonzero); until step k writes them, they hold its scaled normals
    and its lower radicand terms, and qh[k - 1] its upper radicand terms.
    Row 0 holds the start and no increment.

    `_draws` puts the Z and Uniform[0, 1) draws of each key's stream in its
    column, one stream at a time; the transforms then run once over the
    batch, in place on the contiguous rows: the scaled normals
    sigma * (Z * sqrt(delta)) and the radicand terms 2 sigma^2 delta ln U,
    with U = 1 - Uniform[0, 1) in (0, 1].  A value's np.log does not depend
    on where it sits in the array, so a column's bits do not depend on the
    batch's width (the tests pin it).
    """
    width = len(keys)
    x = np.empty((total + 1, width))
    g = np.empty((total + 1, width))
    qh = np.empty((total, width)) if cfg.barrier.mode == "two_sided" else None
    for j, key in enumerate(keys):
        _draws(stream_rng(key), x[1:, j], g[1:, j],
               None if qh is None else qh[:, j])
    s = x[1:]
    s *= math.sqrt(cfg.delta)
    s *= cfg.sigma
    c = 2.0 * cfg.sigma * cfg.sigma * cfg.delta
    for q in (g[1:],) if qh is None else (g[1:], qh):
        np.subtract(1.0, q, out=q)
        np.log(q, out=q)
        q *= c
    x[0] = cfg.start
    g[0] = 0.0
    return x, g, qh


def _draws(rng: np.random.Generator, z, u_lo, u_hi) -> None:
    """Fill one path's draw slots from ``rng``, one channel at a time, one
    _BLOCK at a time: all standard normals into z, then all Uniform[0, 1)
    draws into u_lo, then into u_hi (None one-sided)."""
    for slot, draw in ((z, rng.standard_normal), (u_lo, rng.random),
                       (u_hi, rng.random)):
        if slot is None:
            break
        for a in range(0, len(slot), _BLOCK):
            slot[a:a + _BLOCK] = draw(min(_BLOCK, len(slot) - a))


def _steps(cfg: SimConfig, x, g, qh) -> dict:
    """The scalar kernel, the one reflected Euler float loop: down each
    column of the records of `_records` alone, one block of at most _BLOCK
    steps at a time.

    Each block's slots become Python floats, and the block's states and
    signed increments dR - dL are written back in their place.  Exactly one
    of dL, dR can be nonzero: the lower barrier is handled first and, if it
    fired, the upper sample is skipped (both barriers in one step is an
    o(delta) event).  Returns {column: SimulationDivergedError} for the
    paths that failed, with the index of the failing step; a failed
    column's records mean nothing.
    """
    drift_fn = cfg.drift.fn
    delta = cfg.delta
    lower, upper, hi = cfg.barrier.lower, cfg.barrier.upper, cfg.barrier.top
    sqrt = math.sqrt
    total = x.shape[0] - 1
    errors: dict = {}
    for j in range(x.shape[1]):
        state = float(x[0, j])
        for a in range(0, total, _BLOCK):
            b = min(a + _BLOCK, total)
            q_lo = g[a + 1:b + 1, j].tolist()
            # one-sided mode never reads q_hi; q_lo only fills the zip
            q_hi = q_lo if qh is None else qh[a:b, j].tolist()
            xs, incs = [], []
            add_x, add_inc = xs.append, incs.append
            try:
                for s_k, ql, qu in zip(x[a + 1:b + 1, j].tolist(), q_lo, q_hi):
                    d = float(drift_fn(state)) * delta + s_k
                    y = state + d
                    dl = 0.5 * (-d + sqrt(d * d - ql)) - (state - lower)
                    if dl > 0.0:
                        inc = -dl
                        nxt = y + dl
                    else:
                        inc = 0.0
                        nxt = y
                        if upper is not None:
                            dr = 0.5 * (d + sqrt(d * d - qu)) + (state - upper)
                            if dr > 0.0:
                                inc = dr
                                nxt = y - dr
                    if not lower <= nxt <= hi:
                        nxt = _settle(nxt, lower, hi)
                    add_x(nxt)
                    add_inc(inc)
                    state = nxt
            except SimulationDivergedError as e:
                errors[j] = SimulationDivergedError(str(e), step_index=a + len(xs))
                break
            x[a + 1:b + 1, j] = xs
            g[a + 1:b + 1, j] = incs
    return errors


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


def simulate_path(cfg: SimConfig) -> SamplePath:
    """Simulate n_steps reflected Euler steps after the burn-in.

    Fully deterministic given cfg.seed.  The path is `_simulate(cfg,
    [cfg.seed])`, a batch of one, which the scalar kernel `_steps` steps.
    The whole path's draws are taken per channel (normals, then lower
    uniforms, then upper uniforms), not step by step.  The working set is
    the records: states, signed increments and upper radicand terms while
    the path steps, then states and both regulators, plus one block of at
    most _BLOCK steps as Python floats.  A failing step raises the
    SimulationDivergedError that the kernel filed, with its step index.
    """
    x, l_reg, r_reg, errors = _simulate(cfg, [cfg.seed])
    if errors:
        raise errors[0]
    return SamplePath(delta=cfg.delta, x=x[:, 0], l_reg=l_reg[:, 0],
                      r_reg=r_reg[:, 0], seed=cfg.seed, barrier=cfg.barrier)


def _simulate(cfg: SimConfig, keys, kernel=None):
    """Step one path of cfg per stream key in the nonempty list ``keys``,
    all at once, and hand back the finished batch arrays.

    Every field of cfg but its seed applies to every path, and each path
    draws from the stream of its own key, one column of the records each.
    Returns (x, l_reg, r_reg, errors): the states and the two regulators,
    (n_steps + 1, R) each with one column per key, and {column:
    SimulationDivergedError} for the paths that failed, whose columns mean
    nothing.  A batch of at least _MIN_BATCH paths steps with
    `_vector_steps`, one vector step per time index across the paths, and a
    narrower one with `_steps`, path by path: the kernels give the same
    bits, and a vector step's fixed cost of tens of microseconds pays only
    for many paths (``kernel`` overrides the choice).  A batch peaks at
    three floats per path-step.

    The finish drops the burn-in rows and sums the signed increments into
    the two regulators, L from max(-g, 0) and R from max(g, 0) in place of
    g.
    """
    if kernel is None:
        kernel = _vector_steps if len(keys) >= _MIN_BATCH else _steps
    x, g, qh = _records(cfg, keys, cfg.burn_in + cfg.n_steps)
    errors = kernel(cfg, x, g, qh)
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
    return x, l_reg, r_reg, errors


def _vector_steps(cfg: SimConfig, x, g, qh) -> dict:
    """The vector kernel: the float loop of `_steps`, one vector step per
    time index across the R columns of the records of `_records`.

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
    hi = cfg.barrier.top
    two_sided = qh is not None
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
    return replace(cfg, n_steps=cfg.n_steps * refine, delta=cfg.delta / refine,
                   burn_in=cfg.burn_in * refine)


# --- CSV import/export -------------------------------------------------------

def format_seed(seed) -> str:
    return ",".join(map(str, _entropy(seed)))


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
    _BLOCK rows at a time, the block's times k*delta among them, so the
    writer holds no copy of the whole path.
    """
    cols = (path.x, path.l_reg, path.r_reg)

    def block(a):
        b = min(a + _BLOCK, path.x.size)
        return zip((np.arange(a, b) * path.delta).tolist(),
                   *(c[a:b].tolist() for c in cols))
    write_csv(out_path, path.seed, "t,x,l_reg,r_reg",
              (row for a in range(0, path.x.size, _BLOCK)
               for row in block(a)))


def read_path_csv(in_path: str, barrier: BarrierConfig,
                  delta: float | None = None) -> SamplePath:
    """Rebuild a SamplePath from a `t,x,l_reg,r_reg` CSV.

    The barrier is not stored in the CSV and must be supplied; delta is
    inferred from the time column unless given.  The time column must equal
    k*delta, k = 0..n, exactly: the SamplePath derives its times from delta.

    Accepted layout (the one `write_path_csv` writes, plus CRLF line ends):
    leading comment, `t,...` header and blank lines, where a `# seed=` comment
    sets the seed (default 0); then rows of four comma-separated floats, among
    which empty lines and lines starting with `#` are skipped.  ValueError is
    raised for a non-numeric field, a row of another length, a column count
    other than four, no data rows, a single row when delta is not given, or
    a time column off the k*delta grid.
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
    if not np.array_equal(data[:, 0], np.arange(data.shape[0]) * delta):
        raise ValueError("times must equal k*delta, k = 0..n")
    return SamplePath(delta=delta, x=data[:, 1], l_reg=data[:, 2],
                      r_reg=data[:, 3], seed=seed, barrier=barrier)
