"""Core types for reflected-diffusion simulation and drift estimation.

The process solves

    dX_t = b(X_t) dt + sigma dW_t + dL_t - dR_t,   X_0 = x0,

where L and R are the minimal nondecreasing regulators that keep X above the
lower barrier and (in two-sided mode) below the upper one.  Both start at 0 and
grow only while X sits at the corresponding barrier.  One-sided mode drops R
and lets the domain extend to +infinity.

Everything here is an immutable value type shared by the other modules.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

__all__ = [
    "BarrierConfig",
    "DriftSpec",
    "KernelSpec",
    "SamplePath",
    "Schedule",
    "builtin_drift",
    "epanechnikov",
    "validate_schedule",
]

BarrierMode = Literal["two_sided", "one_sided_lower"]


@dataclass(frozen=True)
class DriftSpec:
    """A named scalar drift b(.).

    ``fn`` must accept both floats and numpy arrays (use numpy ufuncs).
    ``lipschitz_bound`` is optional metadata: a global bound on the difference
    quotients |b(x1)-b(x2)|/|x1-x2|, or None when no global bound exists.
    """

    name: str
    fn: Callable
    lipschitz_bound: float | None = None

    def __post_init__(self) -> None:
        if self.lipschitz_bound is not None and not self.lipschitz_bound > 0:
            raise ValueError("lipschitz_bound must be positive when given")

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class BarrierConfig:
    """Reflecting barrier placement: [lower, upper] or [lower, inf)."""

    lower: float = 0.0
    upper: float | None = 3.0
    mode: BarrierMode = "two_sided"

    def __post_init__(self) -> None:
        if not math.isfinite(self.lower) or self.lower < 0.0:
            raise ValueError("lower barrier must be finite and >= 0")
        if self.mode == "two_sided":
            if self.upper is None or not math.isfinite(self.upper):
                raise ValueError("two_sided mode requires a finite upper barrier")
            if not self.lower < self.upper:
                raise ValueError("two_sided mode requires lower < upper")
        elif self.mode == "one_sided_lower":
            if self.upper is not None:
                raise ValueError("one_sided_lower mode takes no upper barrier")
        else:
            raise ValueError(f"unknown barrier mode {self.mode!r}")

    @classmethod
    def two_sided(cls, lower: float, upper: float) -> "BarrierConfig":
        return cls(lower=lower, upper=upper, mode="two_sided")

    @classmethod
    def one_sided(cls, lower: float) -> "BarrierConfig":
        return cls(lower=lower, upper=None, mode="one_sided_lower")

    @property
    def top(self) -> float:
        """The largest state of the domain: the upper barrier, or one-sided
        the largest float, so that +inf lies outside."""
        return self.upper if self.mode == "two_sided" else sys.float_info.max

    def contains(self, x) -> bool:
        """True when every value of x lies in the barrier domain."""
        arr = np.asarray(x)
        # ndarray.all(), not np.all, whose Python wrapper costs more than a
        # scalar's comparison
        if not (arr >= self.lower).all():
            return False
        return bool((arr <= self.top).all())


@dataclass(frozen=True)
class SamplePath:
    """Regular-grid record (t_k, X_{t_k}, L_{t_k}, R_{t_k}) plus metadata.

    Times are t_k = k*delta for k = 0..n.  Regulators start at 0 and are
    nondecreasing; r_reg is identically 0 in one-sided mode.  ``seed`` is the
    RNG stream key used to generate the path (an int or a tuple of ints).
    """

    delta: float
    sigma: float
    times: np.ndarray
    x: np.ndarray
    l_reg: np.ndarray
    r_reg: np.ndarray
    seed: int | tuple[int, ...]
    barrier: BarrierConfig

    def __post_init__(self) -> None:
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        n = self.x.shape[0]
        for name in ("times", "x", "l_reg", "r_reg"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError("path arrays must be 1-d and equal length")
            arr.setflags(write=False)  # immutable-by-convention
        if n == 0:
            raise ValueError("path must contain at least one grid point")
        if not np.array_equal(self.times, np.arange(n) * self.delta):
            raise ValueError("times must equal k*delta, k = 0..n")
        if self.l_reg[0] != 0.0 or self.r_reg[0] != 0.0:
            raise ValueError("regulators must start at 0")
        _check_path(self.x, np.diff(self.l_reg), np.diff(self.r_reg),
                    self.barrier)

    @property
    def n_steps(self) -> int:
        return self.x.shape[0] - 1


def _check_path(x, dl, dr, barrier: BarrierConfig) -> None:
    """The checks of a path's states x and regulator increments dl, dr whose
    regulators start at 0: SamplePath's, and the replication harness's on
    each column of a batch that it never wraps in a SamplePath.

    With both regulators starting at 0, R is identically 0 exactly when
    every dr is 0.
    """
    if np.any(dl < 0.0) or np.any(dr < 0.0):
        raise ValueError("regulators must be nondecreasing")
    if not barrier.contains(x):
        raise ValueError("states leave the barrier domain")
    if barrier.mode == "one_sided_lower" and np.any(dr != 0.0):
        raise ValueError("one-sided paths must have r_reg identically 0")


def _epanechnikov(t):
    # fmax, not maximum: it maps a NaN t to 0, as the kernel's support does
    t = np.asarray(t, dtype=float)
    out = 0.75 * (1.0 - t * t)
    if t.ndim == 0:
        return float(np.fmax(out, 0.0))
    return np.fmax(out, 0.0, out=out)


@dataclass(frozen=True)
class KernelSpec:
    """Compact-support symmetric kernel K on [-1,1] plus its bandwidth h.

    ``fn`` must return 0 outside [-1,1]; the estimators rely on it and do
    not clip.  The scaled kernel used by the estimators is K_h(y) = K(y/h)/h.
    """

    name: str
    fn: Callable
    bandwidth: float

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")


def epanechnikov(bandwidth: float) -> KernelSpec:
    """K(t) = 0.75*(1 - t^2) on [-1,1], the default estimation kernel."""
    return KernelSpec("epanechnikov", _epanechnikov, bandwidth)


def _case1(x):
    return np.sin(2.0 * np.pi * x) + 1.5 * x


def _case2(x):
    return np.sqrt(1.0 + x * x)


def _case3(x):
    return 2.0 * np.sqrt(x)


def builtin_drift(case_id: int) -> DriftSpec:
    """The three benchmark drifts, by case number.

    Case 3 has derivative 1/sqrt(x), unbounded at 0, so it carries no global
    Lipschitz bound; its domain requirement x >= 0 is guaranteed by lower >= 0.
    """
    if case_id == 1:
        return DriftSpec("case1", _case1, lipschitz_bound=2.0 * math.pi + 1.5)
    if case_id == 2:
        return DriftSpec("case2", _case2, lipschitz_bound=1.0)
    if case_id == 3:
        return DriftSpec("case3", _case3, lipschitz_bound=None)
    raise ValueError(f"unknown drift case {case_id!r}: choose 1, 2 or 3")


@dataclass(frozen=True)
class Schedule:
    """A concrete (n, delta, h) observation schedule plus the epsilon used in
    the rate conditions."""

    n: int
    delta: float
    h: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.n <= 0 or self.delta <= 0 or self.h <= 0 or self.epsilon <= 0:
            raise ValueError("schedule fields must be strictly positive")
        if not self.epsilon < 0.5:
            raise ValueError("epsilon must be < 1/2")


# (label, exponent fn of (gamma, beta, eps), wants_growth)
# where delta = n^-gamma and h = n^-beta are inferred from the schedule point.
_PRODUCTS = [
    ("nΔ", lambda g, b, e: 1.0 - g, True),
    ("Δ^(1/2−ε)h^(−1)", lambda g, b, e: -(0.5 - e) * g + b, False),
    ("nhΔ", lambda g, b, e: 1.0 - b - g, True),
    ("nh³Δ", lambda g, b, e: 1.0 - 3.0 * b - g, False),
    ("nh^(−1)Δ^(2−ε)", lambda g, b, e: 1.0 + b - (2.0 - e) * g, False),
]
_REGIMES = {
    "discrete_consistency": (0, 1),
    "discrete_normality": (0, 1, 2, 3, 4),
}


def validate_schedule(s: Schedule, regime: str) -> list[str]:
    """Diagnose whether the rate products tend the required directions.

    The schedule is read as one member of the power-law family delta = n^-gamma,
    h = n^-beta; each product is evaluated at n and at 4n and the two values
    compared.  Returns a (possibly empty) list of warning strings; never raises
    for a well-formed schedule.
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    log_n = math.log(s.n)
    if log_n == 0.0:
        # n=1 carries no growth information; treat every direction as violated.
        return [f"{label} direction undetermined at n=1" for label in
                (_PRODUCTS[i][0] for i in _REGIMES[regime])]
    gamma = -math.log(s.delta) / log_n
    beta = -math.log(s.h) / log_n
    warnings = []
    for idx in _REGIMES[regime]:
        label, expo, wants_growth = _PRODUCTS[idx]
        p = expo(gamma, beta, s.epsilon)
        at_n = math.exp(p * log_n)
        at_4n = math.exp(p * math.log(4 * s.n))
        if wants_growth and not at_4n > at_n:
            warnings.append(f"{label} not →∞")
        if not wants_growth and not at_4n < at_n:
            warnings.append(f"{label} not →0")
    return warnings
