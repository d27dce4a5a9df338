"""Critical-domain spectra of the linearized operator, in closed form.

Separation of variables v(x, y) = p(x) q(y) on (0, L) x (-B, B) reduces
the stationary eigenproblem to a transverse Dirichlet mode q with
eigenvalue xi = (pi n / 2B)^2 and a resonance cubic

    s^3 - (1 - xi) s + beta = 0

whose three real roots, equally spaced by multiples of 2*pi/L, produce
purely oscillatory (non-decaying) eigenmodes.  Everything here is exact
arithmetic on those formulas: no eigensolvers, no iteration.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_int, check_positive_finite

TWO_PI = 2.0 * math.pi
CRITICAL_TOL = 1e-9


def mode_xi(n: int, B: float) -> float:
    """Transverse Dirichlet eigenvalue (pi*n / 2B)^2."""
    check_int("n", n, 1)
    check_positive_finite("B", B)
    return (math.pi * n / (2.0 * B)) ** 2


class CriticalLength(NamedTuple):
    """Critical length together with the smallest resonance root."""

    L: float
    s1: float


def critical_length(k: int, l: int, xi: float) -> CriticalLength:
    """L = (2 pi / sqrt 3) sqrt((k^2 + k l + l^2) / (1 - xi)) and its s1."""
    check_int("k", k, 1)
    check_int("l", l, 1)
    if not (0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1); got {xi} (transverse mode too stiff)")
    m = k * k + k * l + l * l
    L = TWO_PI / math.sqrt(3.0) * math.sqrt(m / (1.0 - xi))
    s1 = -TWO_PI / (3.0 * L) * (2 * k + l)
    return CriticalLength(L, s1)


@dataclass(frozen=True)
class ResonantTriple:
    """Equally spaced real roots of the resonance cubic.

    Satisfies, up to rounding: s1+s2+s3 = 0, the elementary-symmetric
    identities of the cubic, the spacings s2-s1 = 2 pi k / L and
    s3-s2 = 2 pi l / L, and each s_j is a root.
    """

    s1: float
    s2: float
    s3: float
    beta: float
    xi: float
    k: int
    l: int
    L: float

    def identity_residuals(self) -> dict:
        """Absolute residuals of the five defining identities."""
        s1, s2, s3 = self.s1, self.s2, self.s3
        spacing = TWO_PI / self.L
        return {
            "sum": abs(s1 + s2 + s3),
            "pair_sum": abs(s1 * s2 + s1 * s3 + s2 * s3 + (1.0 - self.xi)),
            "product": abs(s1 * s2 * s3 + self.beta),
            "spacing_k": abs((s2 - s1) - spacing * self.k),
            "spacing_l": abs((s3 - s2) - spacing * self.l),
        }

    def cubic_residuals(self) -> np.ndarray:
        c = 1.0 - self.xi
        return np.array([abs(s * s * s - c * s + self.beta)
                         for s in (self.s1, self.s2, self.s3)])


def resonant_family(k: int, l: int, n: int, B: float) -> ResonantTriple:
    """Resonant triple for spacing indices (k, l) and transverse mode (n, B)."""
    xi = mode_xi(n, B)
    if xi >= 1.0:
        raise ValueError(
            f"mode_xi(n={n}, B={B}) = {xi} >= 1: no real critical length")
    L, s1 = critical_length(k, l, xi)
    spacing = TWO_PI / L
    s2 = s1 + spacing * k
    s3 = s2 + spacing * l
    # -s1 s2 s3 in closed form: exactly 0.0 for the stationary family k = l.
    beta = (TWO_PI / (3.0 * L)) ** 3 * ((2 * k + l) * (k - l) * (k + 2 * l))
    return ResonantTriple(s1=s1, s2=s2, s3=s3, beta=beta, xi=xi, k=k, l=l, L=L)


def critical_residual(L: float, B: float, k: int, l: int, n: int) -> float:
    """Left-hand side of the critical-rectangle condition minus one.

    ((2 pi / (L sqrt 3)) sqrt(k^2+kl+l^2))^2 + (pi n / 2B)^2 - 1.
    """
    check_positive_finite("L", L)  # mode_xi checks n and B
    check_int("k", k, 1)
    check_int("l", l, 1)
    m = k * k + k * l + l * l
    return (TWO_PI / (L * math.sqrt(3.0))) ** 2 * m + mode_xi(n, B) - 1.0


def minimal_critical_rectangle(B: float) -> float:
    """Length L* of the minimal critical rectangle at half-width B.

    Solves 4 pi^2 / L^2 + pi^2 / (4 B^2) = 1; requires B > pi/2.
    """
    check_positive_finite("B", B)
    if not (B > math.pi / 2.0):
        raise ValueError(
            f"B must exceed pi/2 for a critical length to exist, got {B}")
    return TWO_PI / math.sqrt(1.0 - math.pi ** 2 / (4.0 * B ** 2))


@dataclass(frozen=True)
class ModeProfile:
    """Closed-form longitudinal profile p(x) = sum_j c_j exp(i s_j x).

    Coefficients follow the cyclic-difference rule c_j = s_{j+1} - s_{j+2}
    (which clears the four boundary constraints p(0) = p(L) = p'(0)
    = p'(L) = 0), normalized so max |p| = 1 on [0, L].  With the spacings
    s2 - s1 = 2 pi k / L and s3 - s2 = 2 pi l / L that amplitude is
    (2 pi / L) A(k, l), see ``build_profile``.  ``is_real`` (beta = 0, the
    stationary family k = l) makes the profile and its derivative real arrays.
    """

    s: tuple
    coeffs: tuple
    is_real: bool

    def _series(self, x, weights) -> np.ndarray:
        p = np.exp(np.multiply.outer(np.asarray(x, dtype=float), 1j * np.array(self.s))) @ weights
        return p.real if self.is_real else p

    def __call__(self, x) -> np.ndarray:
        return self._series(x, self.coeffs)

    def derivative(self, x) -> np.ndarray:
        return self._series(x, [1j * sj * cj for sj, cj in zip(self.s, self.coeffs)])

    def boundary_residuals(self, L: float) -> tuple:
        """|p(0)|, |p(L)|, |p'(0)|, |p'(L)| as four floats.

        The profile's own sums, formed in complex floats: at x = 0 every
        exponential is 1, so p(0) and p'(0) are plain sums of the weights,
        and at x = L they take the three factors exp(i s_j L).  A real
        profile reads the real parts, as ``_series`` does.
        """
        slopes = [1j * sj * cj for sj, cj in zip(self.s, self.coeffs)]
        phases = [cmath.exp(1j * sj * L) for sj in self.s]
        sums = (sum(self.coeffs), sum(e * c for e, c in zip(phases, self.coeffs)),
                sum(slopes), sum(e * d for e, d in zip(phases, slopes)))
        if self.is_real:
            return tuple(abs(v.real) for v in sums)
        return tuple(abs(v) for v in sums)


_NORMALIZE_SAMPLES = 8193


def _parabolic_peak(ym: float, y0: float, yp: float) -> float:
    """Vertex height of the parabola through three equally spaced samples.

    y0 is the grid maximum; it is returned as is unless the parabola is
    strictly concave.
    """
    denom = ym - 2.0 * y0 + yp
    if denom < 0.0:
        return float(y0 - (yp - ym) ** 2 / (8.0 * denom))
    return float(y0)


@functools.lru_cache(maxsize=1024)
def _unit_amplitude(k: int, l: int) -> float:
    """max |p| / (2 pi / L) of the profile with spacing indices (k, l).

    In theta = 2 pi x / L the raw coefficients are (2 pi / L)(-l, k+l, -k)
    and the root spacings k theta, l theta, (k+l) theta, so |p|^2 / (2 pi / L)^2
    is the real cosine polynomial below, the same for every L.  It is sampled
    on the 8193 points theta_i = 2 pi i / 8192 of [0, 2 pi], and the peak of
    its square root is refined by a parabola.  The polynomial is (k + l - m)^2
    = 0 at theta = 0 and near 0 at 2 pi, so the peak sample is interior.
    """
    theta = np.linspace(0.0, TWO_PI, _NORMALIZE_SAMPLES)
    m = k + l
    p_sq = (l * l + m * m + k * k - 2.0 * l * m * np.cos(k * theta)
            - 2.0 * k * m * np.cos(l * theta) + 2.0 * k * l * np.cos(m * theta))
    i = int(np.argmax(p_sq))
    return _parabolic_peak(*np.sqrt(p_sq[i - 1:i + 2]))


def build_profile(triple: ResonantTriple) -> ModeProfile:
    """Profile for a resonant triple; rejects repeated roots.

    The raw coefficients are the cyclic differences of the roots.  They are
    divided by (2 pi / L) A(k, l), where A(k, l) is the refined maximum over
    theta in [0, 2 pi] of

        sqrt(l^2 + (k+l)^2 + k^2 - 2 l (k+l) cos k theta
             - 2 k (k+l) cos l theta + 2 k l cos (k+l) theta),

    computed once per (k, l) and cached.  That amplitude holds only when the
    roots are spaced as (k, l, L) say, so a triple whose s2 - s1 or s3 - s2
    differs from 2 pi k / L or 2 pi l / L by more than 1e-12 max(1, |s|) is
    rejected.
    """
    check_int("k", triple.k, 1)
    check_int("l", triple.l, 1)
    s1, s2, s3 = triple.s1, triple.s2, triple.s3
    scale = max(1.0, abs(s1), abs(s2), abs(s3))
    if min(s2 - s1, s3 - s2) <= 1e-12 * scale:
        raise ValueError("repeated roots give only the zero profile")
    spacing = TWO_PI / triple.L
    for name, gap, index in (("s2 - s1", s2 - s1, triple.k),
                             ("s3 - s2", s3 - s2, triple.l)):
        if abs(gap - spacing * index) > 1e-12 * scale:
            raise ValueError(f"spacing {name} = {gap!r} does not match "
                             f"2 pi * {index} / L = {spacing * index!r}")
    norm = spacing * _unit_amplitude(triple.k, triple.l)
    coeffs = ((s2 - s3) / norm, (s3 - s1) / norm, (s1 - s2) / norm)
    return ModeProfile(s=(s1, s2, s3), coeffs=coeffs, is_real=triple.beta == 0.0)


@dataclass(frozen=True)
class StationaryMode:
    """Separated eigenmode factory v(x, y) = p(x) q(y).

    p is the real part of the profile and q the transverse Dirichlet
    eigenfunction (cosine for odd n, sine for even n); evaluation returns
    their product, a true stationary solution of the linearized equation
    exactly when beta = 0.
    """

    profile: ModeProfile
    triple: ResonantTriple
    n: int
    B: float

    def p(self, x) -> np.ndarray:
        return np.real(self.profile(x))

    def q(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = math.pi * self.n / (2.0 * self.B)
        return np.cos(w * y) if self.n % 2 == 1 else np.sin(w * y)

    def __call__(self, x, y) -> np.ndarray:
        return self.p(x) * self.q(y)


def stationary_mode(k: int, l: int, n: int, B: float) -> StationaryMode:
    """Eigenmode factory on the critical rectangle for (k, l, n, B)."""
    triple = resonant_family(k, l, n, B)
    return StationaryMode(profile=build_profile(triple), triple=triple, n=n, B=B)
