"""Decay thresholds, rates, Lyapunov monitoring, and verdicts.

All four decay statements share one construction.  With 1/B^2 read as 0
on a strip and alpha in {0, 1},

    2 A^2 = 24/L^2 + 2/B^2 - alpha

is the admissibility margin; when positive, small solutions decay like
exp(-rate * t) in the weighted energy ((1+x), u^2) with

    rate      = A^2 / (1 + L),
    delta     = A^2 / 2,
    eps_small = A^2 / (2 (8/L^2 + 2/B^2)),
    threshold = 9 * eps_small * delta / 4,

where ``threshold`` bounds the admissible initial weighted energy.  For
alpha = 0 the margin is positive for every domain size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EnergyTrace
from .geometry import check_alpha, check_positive_finite

ENERGY_FLOOR = 1e-14
ENVELOPE_TOL = 0.05
RELATIVE_GUARD = 1e-12


@dataclass(frozen=True)
class DecayGeometry:
    """Rectangle of length L and half-width B, or strip (B None); checked, stored as floats."""

    L: float
    B: float | None = None

    def __post_init__(self):
        for name in ("L",) if self.B is None else ("L", "B"):
            check_positive_finite(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def rectangle(cls, L: float, B: float) -> "DecayGeometry":
        check_positive_finite("B", B)  # a None B would build a strip
        return cls(L, B)

    @classmethod
    def strip(cls, L: float) -> "DecayGeometry":
        return cls(L)

    @property
    def kind(self) -> str:
        return "strip" if self.B is None else "rectangle"

    @property
    def inv_b_sq(self) -> float:
        return 0.0 if self.B is None else 1.0 / self.B ** 2


@dataclass(frozen=True)
class DecayTheory:
    """Admissibility, smallness threshold, and decay rate for one setting."""

    alpha: int
    geometry: DecayGeometry
    admissible: bool
    a_sq: float
    threshold: float
    rate: float
    delta: float
    eps_small: float


def decay_theory(alpha: int, geometry: DecayGeometry) -> DecayTheory:
    """Evaluate the decay statement matching (alpha, geometry)."""
    check_alpha(alpha)
    L = geometry.L
    inv_b2 = geometry.inv_b_sq
    two_a_sq = 24.0 / L ** 2 + 2.0 * inv_b2 - alpha
    admissible = two_a_sq > 0.0
    a_sq = two_a_sq / 2.0
    delta = a_sq / 2.0
    eps_small = a_sq / (2.0 * (8.0 / L ** 2 + 2.0 * inv_b2))
    threshold = 9.0 * eps_small * delta / 4.0
    rate = a_sq / (1.0 + L)
    if not admissible:  # no decay statement: only the margin a_sq is defined
        threshold = rate = delta = eps_small = float("nan")
    return DecayTheory(alpha=alpha, geometry=geometry, admissible=admissible,
                       a_sq=a_sq, threshold=threshold, rate=rate,
                       delta=delta, eps_small=eps_small)


@dataclass(frozen=True)
class MonitorReport:
    """Per-sample residuals of the Lyapunov differential inequality."""

    t: np.ndarray
    residuals: np.ndarray
    max_excursion: float
    persistence_ok: bool


def lyapunov_monitor(trace: EnergyTrace, theory: DecayTheory) -> MonitorReport:
    """Residuals of d/dt((1+x),u^2) + A^2 ||u||^2 + [eps - 4/(9 delta) W] |grad u|^2.

    Nonpositive residuals are what the small-data estimate guarantees;
    positive excursions on compliant runs only measure discretization
    error.  Also checks the persistence bound W(t) < 9 eps delta / 4.
    """
    if not theory.admissible:
        raise ValueError("monitor is undefined for an inadmissible theory")
    if len(trace) < 3:
        raise ValueError("trace too short to monitor (need >= 3 samples)")
    t = trace.t
    w = trace.weighted
    dw = np.gradient(w, t)
    bracket = theory.eps_small - 4.0 / (9.0 * theory.delta) * w
    grad_sq = trace.grad_x_sq + trace.grad_y_sq
    res = dw + theory.a_sq * trace.l2_sq + bracket * grad_sq
    persistence = bool(np.all(w < theory.threshold)
                       or w[0] >= theory.threshold)
    return MonitorReport(t=t, residuals=res,
                         max_excursion=float(np.max(res)),
                         persistence_ok=persistence)


def energy_balance(trace: EnergyTrace) -> tuple[float, float]:
    """L2 monotonicity and flux balance of a linear run's trace.

    A linear run dissipates only through the inflow wall:
    ||u(t)||^2 + int_0^t flux0 ds = ||u(0)||^2.  Returns the largest
    sampled increase of l2_sq (negative when l2_sq strictly decreases) and
    the largest balance defect relative to l2_sq[0], with the flux
    integral by the trapezoid rule on the sample times.  Callers set the
    bounds.
    """
    if len(trace) < 2:
        raise ValueError("energy balance needs at least two samples")
    l2 = trace.l2_sq
    if not l2[0] > 0.0:
        raise ValueError("energy balance needs a nonzero initial state")
    rise = float(np.max(np.diff(l2)))
    flux_int = np.concatenate(
        [[0.0], np.cumsum(0.5 * (trace.flux0[1:] + trace.flux0[:-1]) * np.diff(trace.t))])
    defect = float(np.max(np.abs(l2 + flux_int - l2[0])) / l2[0])
    return rise, defect


def fit_decay_rate(trace: EnergyTrace, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares exponential rate of the weighted energy over a window.

    Returns (rate, r_squared) from the slope of -log(weighted).  Raises
    if the window holds fewer than 5 samples or the energy underflows
    ENERGY_FLOOR anywhere inside it.
    """
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"window must satisfy t_hi > t_lo, got {window}")
    mask = (trace.t >= t_lo) & (trace.t <= t_hi)
    if int(mask.sum()) < 5:
        raise ValueError(f"fewer than 5 samples in window {window}")
    w = trace.weighted[mask]
    if np.any(w <= ENERGY_FLOOR):
        raise ValueError(
            f"window underflow: weighted energy fell below the {ENERGY_FLOOR} floor")
    t = trace.t[mask]
    y = -np.log(w)
    a = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    fitted = a @ np.array([slope, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_sq


@dataclass(frozen=True)
class DecayVerdict:
    """Comparison of one run against one decay statement."""

    theory: DecayTheory
    initial_weighted: float
    smallness_ok: bool
    envelope_ok: bool
    fitted_rate: float
    fit_r_squared: float
    margin: float

    def to_dict(self) -> dict:
        g = self.theory.geometry
        return {
            "alpha": self.theory.alpha,
            "geometry": {"kind": g.kind, "L": g.L, "B": g.B},
            "admissible": self.theory.admissible,
            "a_sq": self.theory.a_sq,
            "threshold": self.theory.threshold,
            "rate": self.theory.rate,
            "initial_weighted": self.initial_weighted,
            "smallness_ok": self.smallness_ok,
            "envelope_ok": self.envelope_ok,
            "fitted_rate": self.fitted_rate,
            "fit_r_squared": self.fit_r_squared,
            "margin": self.margin,
        }


def _fit_window(trace: EnergyTrace) -> tuple[float, float] | None:
    """Preferred window [t_end/2, t_end], shrunk to the above-floor prefix.

    The theorems bound the energy from above, so once it underflows the
    rounding floor there is no exponent left to measure; the window then
    covers the last half of the resolvable decay instead.
    """
    guard = max(ENERGY_FLOOR, trace.weighted[0] * RELATIVE_GUARD)
    above = trace.t[trace.weighted > guard]
    if above.size < 5:
        return None
    t_hi = float(above[-1])
    t_full = float(trace.t[-1])
    if t_hi == t_full:
        return (t_full / 2.0, t_full)
    return (t_hi / 2.0, t_hi)


def verdict(trace: EnergyTrace, theory: DecayTheory) -> DecayVerdict:
    """Envelope check plus fitted rate for one trace.

    envelope_ok demands weighted(t) <= weighted(0) * exp(-rate t) *
    (1 + ENVELOPE_TOL) at every sample; an inadmissible theory has no
    envelope, so envelope_ok is False there.  The verdict never claims
    the converse: failing smallness is not a failure of the theory.
    """
    if len(trace) < 2:
        raise ValueError("trace too short for a verdict")
    w0 = float(trace.weighted[0])
    smallness_ok = bool(theory.admissible and w0 < theory.threshold)
    envelope = w0 * np.exp(-theory.rate * trace.t) * (1.0 + ENVELOPE_TOL)  # nan if inadmissible
    envelope_ok = bool(theory.admissible and np.all(trace.weighted <= envelope))
    window = _fit_window(trace)
    if window is None:
        fitted, r_sq = float("nan"), float("nan")
    else:
        fitted, r_sq = fit_decay_rate(trace, window)
    margin = fitted / theory.rate if theory.admissible else float("nan")
    return DecayVerdict(theory=theory, initial_weighted=w0,
                        smallness_ok=smallness_ok, envelope_ok=envelope_ok,
                        fitted_rate=fitted, fit_r_squared=r_sq, margin=margin)
