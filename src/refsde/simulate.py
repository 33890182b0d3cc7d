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
    "sample_sup_with_drift",
    "simulate_fine",
    "simulate_path",
    "step",
    "stream_rng",
    "write_csv",
    "write_path_csv",
    "read_path_csv",
]

# Pure floating-point guard: reflection algebra keeps the state inside the
# domain exactly, so any overshoot beyond this is a genuine failure.
_CLAMP = 1e-12


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


def _advance(state: float, b_x: float, sigma: float, delta: float,
             lower: float, upper, w: float, u_lo: float, u_hi: float):
    """One reflected Euler step; upper is None in one-sided mode.

    Returns (next_state, dL, dR).  Exactly one of dL, dR can be nonzero: the
    lower barrier is handled first and, if it fired, the upper sample is
    skipped (both barriers in one step is an o(delta) event).
    """
    d = b_x * delta + sigma * w
    y = state + d
    a_sup = _bridge_max(-d, sigma, delta, u_lo)
    dl = a_sup - (state - lower)
    if dl > 0.0:
        dr = 0.0
        nxt = y + dl
    else:
        dl = 0.0
        dr = 0.0
        nxt = y
        if upper is not None:
            b_sup = _bridge_max(d, sigma, delta, u_hi)
            dr = b_sup + (state - upper)
            if dr > 0.0:
                nxt = y - dr
            else:
                dr = 0.0
    if not math.isfinite(nxt):
        raise SimulationDivergedError("state became non-finite")
    if nxt < lower:
        if lower - nxt > _CLAMP:
            raise SimulationDivergedError("state undershot the lower barrier")
        nxt = lower
    elif upper is not None and nxt > upper:
        if nxt - upper > _CLAMP:
            raise SimulationDivergedError("state overshot the upper barrier")
        nxt = upper
    return nxt, dl, dr


def step(state: float, cfg: SimConfig, rng: np.random.Generator):
    """One public Euler step; returns (next_state, dL, dR).

    Consumes one normal and one uniform from ``rng`` (two uniforms in
    two-sided mode; the upper-barrier uniform is drawn unconditionally for
    stream regularity and discarded when the lower barrier fired).
    """
    if not cfg.barrier.contains(state):
        raise ValueError("state must lie in the barrier domain")
    w = rng.standard_normal() * math.sqrt(cfg.delta)
    u_lo = 1.0 - rng.random()
    two_sided = cfg.barrier.mode == "two_sided"
    u_hi = 1.0 - rng.random() if two_sided else 1.0
    b_x = float(cfg.drift.fn(state))
    return _advance(float(state), b_x, cfg.sigma, cfg.delta, cfg.barrier.lower,
                    cfg.barrier.upper if two_sided else None, float(w), u_lo, u_hi)


def simulate_path(cfg: SimConfig) -> SamplePath:
    """Simulate n_steps reflected Euler steps after the burn-in.

    Fully deterministic given cfg.seed.  Draws are batched per channel
    (normals, then lower uniforms, then upper uniforms), so a path is
    reproducible only through this function, not by replaying `step`.
    """
    total = cfg.burn_in + cfg.n_steps
    rng = stream_rng(cfg.seed)
    sqrt_delta = math.sqrt(cfg.delta)
    w = (rng.standard_normal(total) * sqrt_delta).tolist()
    u_lo = (1.0 - rng.random(total)).tolist()
    two_sided = cfg.barrier.mode == "two_sided"
    u_hi = (1.0 - rng.random(total)).tolist() if two_sided else [1.0] * total

    lower = cfg.barrier.lower
    upper = cfg.barrier.upper if two_sided else None
    sigma = cfg.sigma
    delta = cfg.delta
    drift_fn = cfg.drift.fn

    x = np.empty(cfg.n_steps + 1)
    l_reg = np.empty(cfg.n_steps + 1)
    r_reg = np.empty(cfg.n_steps + 1)

    state = cfg.start
    k = -1  # current step index, for error context
    try:
        for k in range(cfg.burn_in):
            state, _, _ = _advance(state, float(drift_fn(state)), sigma, delta,
                                   lower, upper, w[k], u_lo[k], u_hi[k])
        x[0] = state
        l_reg[0] = 0.0
        r_reg[0] = 0.0
        cum_l = 0.0
        cum_r = 0.0
        for i in range(cfg.n_steps):
            k = cfg.burn_in + i
            state, dl, dr = _advance(state, float(drift_fn(state)), sigma, delta,
                                     lower, upper, w[k], u_lo[k], u_hi[k])
            cum_l += dl
            cum_r += dr
            x[i + 1] = state
            l_reg[i + 1] = cum_l
            r_reg[i + 1] = cum_r
    except SimulationDivergedError as e:
        raise SimulationDivergedError(str(e), step_index=k) from None

    times = np.arange(cfg.n_steps + 1) * delta
    return SamplePath(delta=delta, sigma=sigma, times=times, x=x, l_reg=l_reg,
                      r_reg=r_reg, seed=cfg.seed, barrier=cfg.barrier)


def simulate_fine(cfg: SimConfig, refine: int) -> SamplePath:
    """Simulate on the refined grid with step delta/refine.

    The fine path spans the same model time (n_steps*delta, and the same
    burn-in time), serving as the continuously-observed process for the
    continuous-type estimator.  refine=1 is exactly simulate_path.
    """
    if refine < 1 or int(refine) != refine:
        raise ValueError("refine must be a positive integer")
    refine = int(refine)
    if refine == 1:
        return simulate_path(cfg)
    fine = replace(cfg, n_steps=cfg.n_steps * refine, delta=cfg.delta / refine,
                   burn_in=cfg.burn_in * refine)
    return simulate_path(fine)


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
    with str().
    """
    with (nullcontext(out_path) if hasattr(out_path, "write")
          else open(out_path, "w", newline="")) as f:
        f.write(f"# seed={format_seed(seed)}\n{header}\n")
        for row in rows:
            f.write(",".join(_cell(v) for v in row) + "\n")


def write_path_csv(path: SamplePath, out_path: str) -> None:
    """Write `t,x,l_reg,r_reg` rows at full double precision, preceded by a
    `# seed=` metadata comment."""
    write_csv(out_path, path.seed, "t,x,l_reg,r_reg",
              zip(path.times, path.x, path.l_reg, path.r_reg))


def read_path_csv(in_path: str, sigma: float, barrier: BarrierConfig,
                  delta: float | None = None) -> SamplePath:
    """Rebuild a SamplePath from a `t,x,l_reg,r_reg` CSV.

    sigma and barrier are not stored in the CSV and must be supplied; delta is
    inferred from the time column unless given.
    """
    seed: int | tuple[int, ...] = 0
    rows = []
    with open(in_path, "r", newline="") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("seed="):
                    parts = body[len("seed="):].split(",")
                    ints = tuple(int(p) for p in parts)
                    seed = ints[0] if len(ints) == 1 else ints
                continue
            if line.startswith("t,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"no data rows in {in_path}")
    data = np.asarray(rows)
    if data.shape[1] != 4:
        raise ValueError("path CSV must have columns t,x,l_reg,r_reg")
    if delta is None:
        if data.shape[0] < 2:
            raise ValueError("cannot infer delta from a single-row path CSV")
        delta = float(data[1, 0] - data[0, 0])
    return SamplePath(delta=delta, sigma=sigma, times=data[:, 0], x=data[:, 1],
                      l_reg=data[:, 2], r_reg=data[:, 3], seed=seed,
                      barrier=barrier)
