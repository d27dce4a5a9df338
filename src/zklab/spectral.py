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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_alpha, check_positive_finite

TWO_PI = 2.0 * math.pi
CRITICAL_TOL = 1e-9


def _check_index(name: str, v) -> None:
    """Raise a ValueError naming ``name`` unless v is a Python int >= 1 (not a bool)."""
    if not (type(v) is int and v >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


def mode_xi(n: int, B: float) -> float:
    """Transverse Dirichlet eigenvalue (pi*n / 2B)^2."""
    _check_index("n", n)
    check_positive_finite("B", B)
    return (math.pi * n / (2.0 * B)) ** 2


def cubic_roots(xi: float, beta: float) -> np.ndarray:
    """All roots of s^3 - (1 - xi) s + beta = 0, closed form.

    Real roots come back with exactly zero imaginary part (trigonometric
    method for three real roots, Cardano otherwise).
    """
    if not (math.isfinite(xi) and math.isfinite(beta)):
        raise ValueError("cubic coefficients must be finite")
    p = -(1.0 - xi)   # depressed cubic t^3 + p t + q
    q = beta
    if q == 0.0:
        if p <= 0.0:
            r = math.sqrt(-p)
            return np.array([-r, 0.0, r], dtype=complex)
        r = 1j * math.sqrt(p)
        return np.array([-r, 0.0 + 0.0j, r])
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if disc >= 0.0 and p < 0.0:
        # three real roots
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg) / 3.0
        roots = np.array(sorted(m * math.cos(phi - TWO_PI * k / 3.0)
                                for k in range(3)), dtype=complex)
        return _polish(roots, p, q)
    # one real root, complex pair.  Near the double-root curve disc rounds
    # below zero and the radicand, rounded on its own, can too: clamp it at
    # 0, which leaves every non-negative radicand as it was.
    half_q = q / 2.0
    inner = math.sqrt(max(0.0, half_q ** 2 + (p / 3.0) ** 3))
    u = np.cbrt(-half_q + inner)
    v = np.cbrt(-half_q - inner)
    t1 = u + v
    re = -t1 / 2.0
    im = (u - v) * math.sqrt(3.0) / 2.0
    roots = np.array([t1 + 0.0j, re + 1j * im, re - 1j * im])
    polished = _polish(roots, p, q)
    polished[0] = polished[0].real  # the Newton step keeps real roots real
    return polished


def _polish(roots: np.ndarray, p: float, q: float) -> np.ndarray:
    """One Newton step on t^3 + p t + q, skipped near double roots."""
    deriv = 3.0 * roots ** 2 + p
    scale = np.abs(roots).max() + 1.0
    safe = np.abs(deriv) > 1e-8 * scale ** 2
    out = roots.copy()
    out[safe] -= (roots[safe] ** 3 + p * roots[safe] + q) / deriv[safe]
    return out


class CriticalLength(NamedTuple):
    """Critical length together with the smallest resonance root."""

    L: float
    s1: float


def critical_length(k: int, l: int, xi: float) -> CriticalLength:
    """L = (2 pi / sqrt 3) sqrt((k^2 + k l + l^2) / (1 - xi)) and its s1."""
    _check_index("k", k)
    _check_index("l", l)
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

    @property
    def roots(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])

    def identity_residuals(self) -> dict:
        """Absolute residuals of the five defining identities."""
        s = self.roots
        e2 = s[0] * s[1] + s[0] * s[2] + s[1] * s[2]
        spacing = TWO_PI / self.L
        return {
            "sum": abs(s.sum()),
            "pair_sum": abs(e2 + (1.0 - self.xi)),
            "product": abs(s.prod() + self.beta),
            "spacing_k": abs((self.s2 - self.s1) - spacing * self.k),
            "spacing_l": abs((self.s3 - self.s2) - spacing * self.l),
        }

    def cubic_residuals(self) -> np.ndarray:
        s = self.roots
        return np.abs(s ** 3 - (1.0 - self.xi) * s + self.beta)


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
    beta = -s1 * s2 * s3
    return ResonantTriple(s1=s1, s2=s2, s3=s3, beta=beta, xi=xi, k=k, l=l, L=L)


def critical_residual(L: float, B: float, k: int, l: int, n: int) -> float:
    """Left-hand side of the critical-rectangle condition minus one.

    ((2 pi / (L sqrt 3)) sqrt(k^2+kl+l^2))^2 + (pi n / 2B)^2 - 1.
    """
    check_positive_finite("L", L)  # mode_xi checks n and B
    _check_index("k", k)
    _check_index("l", l)
    m = k * k + k * l + l * l
    return (TWO_PI / (L * math.sqrt(3.0))) ** 2 * m + mode_xi(n, B) - 1.0


@dataclass(frozen=True)
class CriticalRectangle:
    """A rectangle satisfying the critical condition for indices (k, l, n)."""

    L: float
    B: float
    k: int
    l: int
    n: int
    residual: float

    @property
    def is_critical(self) -> bool:
        return abs(self.residual) <= CRITICAL_TOL


# The B-sampling for enumeration: xi on the rational grid {j/XI_DENOM},
# so B = pi n / (2 sqrt(xi)).  The grid contains xi = 1/4, hence the
# (4 pi / sqrt 3, pi, 1, 1, 1) golden rectangle appears exactly.
XI_DENOM = 64


def enumerate_critical(L_max: float, B_max: float, k_max: int, l_max: int,
                       n_max: int, alpha: int) -> list[CriticalRectangle]:
    """All critical rectangles within the bounds, on the declared B-sampling.

    For alpha = 0 the resonance condition fails for every L > 0, so the
    list is always empty.
    """
    check_alpha(alpha)
    check_positive_finite("L_max", L_max)
    check_positive_finite("B_max", B_max)
    for name, v in (("k_max", k_max), ("l_max", l_max), ("n_max", n_max)):
        _check_index(name, v)
    if alpha == 0:
        return []
    out = []
    for n in range(1, n_max + 1):
        for j in range(1, XI_DENOM):
            xi = j / XI_DENOM
            B = math.pi * n / (2.0 * math.sqrt(xi))
            if B > B_max:
                continue
            for k in range(1, k_max + 1):
                for l in range(1, l_max + 1):
                    L = critical_length(k, l, xi).L
                    if L <= L_max:
                        out.append(CriticalRectangle(
                            L=L, B=B, k=k, l=l, n=n,
                            residual=critical_residual(L, B, k, l, n)))
    out.sort(key=lambda r: (r.L, r.B, r.k, r.l, r.n))
    return out


def minimal_critical_rectangle(B: float) -> float:
    """Length L* of the minimal critical rectangle at half-width B.

    Solves 4 pi^2 / L^2 + pi^2 / (4 B^2) = 1; requires B > pi/2.
    """
    check_positive_finite("B", B)
    if not (B > math.pi / 2.0):
        raise ValueError(
            f"B must exceed pi/2 for a critical length to exist, got {B}")
    return TWO_PI / math.sqrt(1.0 - math.pi ** 2 / (4.0 * B ** 2))


def kdv_critical_set(k_max: int, l_max: int) -> list[float]:
    """Sorted distinct critical lengths (2 pi / sqrt 3) sqrt(k^2 + kl + l^2)."""
    _check_index("k_max", k_max)
    _check_index("l_max", l_max)
    ms = {k * k + k * l + l * l
          for k in range(1, k_max + 1) for l in range(1, l_max + 1)}
    return [TWO_PI / math.sqrt(3.0) * math.sqrt(m) for m in sorted(ms)]


@dataclass(frozen=True)
class ModeProfile:
    """Closed-form longitudinal profile p(x) = sum_j c_j exp(i s_j x).

    Coefficients follow the cyclic-difference rule c_j = s_{j+1} - s_{j+2}
    (which clears the four boundary constraints p(0) = p(L) = p'(0)
    = p'(L) = 0), normalized so max |p| = 1 on [0, L].  With the spacings
    s2 - s1 = 2 pi k / L and s3 - s2 = 2 pi l / L that amplitude is
    (2 pi / L) A(k, l), see ``build_profile``.  The profile is real-valued
    exactly when beta = 0 (the stationary family k = l).
    """

    s: tuple
    coeffs: tuple
    L: float
    beta: float

    @property
    def is_real(self) -> bool:
        return self.beta == 0.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = np.zeros(x.shape, dtype=complex)
        for sj, cj in zip(self.s, self.coeffs):
            p += cj * np.exp(1j * sj * x)
        return p.real if self.is_real else p

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = np.zeros(x.shape, dtype=complex)
        for sj, cj in zip(self.s, self.coeffs):
            p += 1j * sj * cj * np.exp(1j * sj * x)
        return p.real if self.is_real else p


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
    its square root is refined by a parabola.
    """
    theta = np.linspace(0.0, TWO_PI, _NORMALIZE_SAMPLES)
    m = k + l
    p_sq = (l * l + m * m + k * k - 2.0 * l * m * np.cos(k * theta)
            - 2.0 * k * m * np.cos(l * theta) + 2.0 * k * l * np.cos(m * theta))
    i = int(np.argmax(p_sq))
    if 0 < i < p_sq.size - 1:
        return _parabolic_peak(*np.sqrt(p_sq[i - 1:i + 2]))
    return float(np.sqrt(p_sq[i]))


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
    _check_index("k", triple.k)
    _check_index("l", triple.l)
    s = triple.roots
    scale = max(1.0, float(np.max(np.abs(s))))
    if min(s[1] - s[0], s[2] - s[1]) <= 1e-12 * scale:
        raise ValueError("repeated roots give only the zero profile")
    spacing = TWO_PI / triple.L
    for name, gap, index in (("s2 - s1", s[1] - s[0], triple.k),
                             ("s3 - s2", s[2] - s[1], triple.l)):
        if abs(gap - spacing * index) > 1e-12 * scale:
            raise ValueError(f"spacing {name} = {gap!r} does not match "
                             f"2 pi * {index} / L = {spacing * index!r}")
    raw = np.array([s[1] - s[2], s[2] - s[0], s[0] - s[1]])
    coeffs = tuple(raw / (spacing * _unit_amplitude(triple.k, triple.l)))
    beta = 0.0 if triple.beta == 0.0 else triple.beta
    return ModeProfile(s=tuple(s), coeffs=coeffs, L=triple.L, beta=beta)


@dataclass(frozen=True)
class StationaryMode:
    """Separated eigenmode factory v(x, y) = p(x) q(y).

    q is the transverse Dirichlet eigenfunction (cosine for odd n, sine
    for even n).  Evaluation returns the real part of p; that is a true
    stationary solution of the linearized equation exactly when beta = 0.
    """

    profile: ModeProfile
    triple: ResonantTriple
    n: int
    B: float

    def q(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = math.pi * self.n / (2.0 * self.B)
        return np.cos(w * y) if self.n % 2 == 1 else np.sin(w * y)

    def __call__(self, x, y) -> np.ndarray:
        p = self.profile(x)
        if np.iscomplexobj(p):
            p = p.real
        return p * self.q(y)


def stationary_mode(k: int, l: int, n: int, B: float) -> StationaryMode:
    """Eigenmode factory on the critical rectangle for (k, l, n, B)."""
    triple = resonant_family(k, l, n, B)
    return StationaryMode(profile=build_profile(triple), triple=triple, n=n, B=B)
