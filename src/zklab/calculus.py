"""Discrete differential operators, norms, and functional-inequality checks.

All operators are second-order finite differences on the uniform grid.
Interior nodes use centered stencils; nodes adjacent to a wall use biased
five/six-point stencils built from the available data (including the
boundary layer), so every operator is pointwise second-order consistent
for smooth fields regardless of boundary conditions.  Quadrature is the
tensor trapezoidal rule on the closed rectangle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Field

OPERATOR_KINDS = ("dx", "dy", "dxx", "dyy", "dxxx", "dxyy", "dx4", "dy4")

# The stencil table.  Centered second-order rows on offsets -2..2 by order,
# as (weights, divisor): the derivative is weights @ u / (divisor * h**order).
_CENTERED = {
    1: (np.array([0.0, -1.0, 0.0, 1.0, 0.0]), 2.0),
    3: (np.array([-1.0, 2.0, 0.0, -2.0, 1.0]), 2.0),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 1.0),
}
# Closure rows for the third and fourth derivative at the node next to a
# wall (offsets relative to that node; the off-wall ghost is eliminated by
# one-sided extrapolation, which collapses to these biased weights).  The
# right-wall rows are their reflections.
_D3_LEFT = np.array([-3.0, 10.0, -12.0, 6.0, -1.0])   # offsets -1..3, /(2h^3)
_D4_LEFT = np.array([2.0, -9.0, 16.0, -14.0, 6.0, -1.0])  # offsets -1..4, /h^4
_CLOSURES = {3: (_D3_LEFT, -_D3_LEFT[::-1]), 4: (_D4_LEFT, _D4_LEFT[::-1])}


def fd_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on integer offsets.

    Solves the Vandermonde moment system; weights are per h**order.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    if order >= n:
        raise ValueError("need more points than the derivative order")
    A = np.vander(offsets, n, increasing=True).T
    b = np.zeros(n)
    b[order] = float(math.factorial(order))
    return np.linalg.solve(A, b)


def _d1_interior(v: np.ndarray, h: float) -> np.ndarray:
    return (v[2:] - v[:-2]) / (2.0 * h)


def _d2_interior(v: np.ndarray, h: float) -> np.ndarray:
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2


def _d34_interior(v: np.ndarray, h: float, order: int) -> np.ndarray:
    """The third or fourth derivative along axis 0 at the interior nodes."""
    w, div = _CENTERED[order]
    left, right = _CLOSURES[order]
    n = v.shape[0] - 2
    out = np.empty((n,) + v.shape[1:])
    out[1:-1] = sum(w[k] * v[k:k + n - 2] for k in range(4, -1, -1) if w[k])
    out[0] = left @ v[:left.size]
    out[-1] = right @ v[-right.size:]
    return out / (div * h**order)


def _d1_wall(v: np.ndarray, h: float) -> np.ndarray:
    """u_x on the wall line v[0], one-sided second order from v[0:3]."""
    return (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)


def _d1_full(v: np.ndarray, h: float) -> np.ndarray:
    """First derivative at every node, one-sided at the two walls."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = _d1_wall(v, h)
    out[-1] = -_d1_wall(v[::-1], h)
    return out


def apply_operator(fld: Field, kind: str) -> Field:
    """Second-order discrete derivative of the given kind.

    The output boundary layer is zeroed; interior values treat the input
    boundary layer as data.
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    g = fld.grid
    v = fld.values
    if kind == "dx":
        interior = _d1_interior(v[:, 1:-1], g.hx)
    elif kind == "dy":
        interior = _d1_interior(v[1:-1, :].T, g.hy).T
    elif kind == "dxx":
        interior = _d2_interior(v[:, 1:-1], g.hx)
    elif kind == "dyy":
        interior = _d2_interior(v[1:-1, :].T, g.hy).T
    elif kind == "dxxx":
        interior = _d34_interior(v[:, 1:-1], g.hx, 3)
    elif kind == "dx4":
        interior = _d34_interior(v[:, 1:-1], g.hx, 4)
    elif kind == "dy4":
        interior = _d34_interior(v[1:-1, :].T, g.hy, 4).T
    else:  # dxyy: y-second-derivative of the x-derivative, both centered
        wy = _d2_interior(v.T, g.hy).T        # (nx+2, ny)
        interior = _d1_interior(wy, g.hx)     # (nx, ny)
    return fld.with_interior(interior)


def trapezoid_weights(grid) -> tuple[np.ndarray, np.ndarray]:
    wx = np.full(grid.nx + 2, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2.0
    wy = np.full(grid.ny + 2, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2.0
    return wx, wy


def integrate(values: np.ndarray, grid) -> float:
    """Trapezoidal integral of full-grid samples over the closed rectangle."""
    wx, wy = trapezoid_weights(grid)
    return float(wx @ values @ wy)


def gradient_full(fld: Field) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, u_y) at every node, one-sided second order at the walls."""
    g = fld.grid
    ux = _d1_full(fld.values, g.hx)
    uy = _d1_full(fld.values.T, g.hy).T
    return ux, uy


def _d1_sq_sums(u: np.ndarray, d: np.ndarray) -> tuple[float, float, float]:
    """Squared sums of 2h u' along axis 0 of an interior with zero walls.

    Returns (sum over the interior nodes, over the first wall line, over
    the last wall line); the centered stencil reads the zero walls, the
    wall nodes take the one-sided 4 u_1 - u_2.  ``d`` (shaped like ``u``)
    is overwritten.
    """
    np.subtract(u[2:], u[:-2], out=d[1:-1])
    d[0] = u[1]
    d[-1] = u[-2]       # the sign of -u[-2] drops out of the square
    np.square(d, out=d)
    lo = 4.0 * u[0] - u[1]
    hi = 4.0 * u[-1] - u[-2]
    return float(d.sum()), float(lo @ lo), float(hi @ hi)


@functools.lru_cache(maxsize=16)
def _weighted_column(grid) -> np.ndarray:
    """Read-only (1 + x_i) hx hy at the interior x nodes: the weight of ((1+x), u^2)."""
    w = (1.0 + grid.xs_interior()) * (grid.hx * grid.hy)
    w.flags.writeable = False
    return w


def trace_row(interior: np.ndarray, grid) -> tuple:
    """(l2_sq, weighted, flux0, grad_x_sq, grad_y_sq, cubic) of a clean state.

    The single definition of a trace row, read from the (nx, ny) interior
    of a field whose boundary layer is zero: the walls carry no quadrature
    weight except through the one-sided derivatives there, and the
    derivative along a wall vanishes.  Equals ``integrate(v*v)``,
    ``weighted_energy``, ``trace_flux``, the ``gradient_full`` energies and
    ``integrate(v**3)`` of that field up to round-off.
    """
    u = interior
    hx, hy = grid.hx, grid.hy
    # One full-size buffer: u^2, then u^3, then each derivative in turn.
    buf = u * u
    rows = buf.sum(axis=1)
    l2_sq = hx * hy * float(rows.sum())
    weighted = float(_weighted_column(grid) @ rows)
    buf *= u
    cubic = hx * hy * float(buf.sum())
    inner, lo, hi = _d1_sq_sums(u, buf)
    flux0 = hy * lo / (4.0 * hx * hx)
    grad_x_sq = hy * (inner + 0.5 * (lo + hi)) / (4.0 * hx)
    inner, lo, hi = _d1_sq_sums(u.T, buf.T)
    grad_y_sq = hx * (inner + 0.5 * (lo + hi)) / (4.0 * hy)
    return l2_sq, weighted, flux0, grad_x_sq, grad_y_sq, cubic


def trace_flux(fld: Field) -> float:
    """Boundary dissipation integral at the inflow wall: int u_x(0,y)^2 dy."""
    g = fld.grid
    v = fld.values
    ux0 = _d1_wall(v, g.hx)
    _, wy = trapezoid_weights(g)
    return float(wy @ (ux0 * ux0))


@dataclass(frozen=True)
class NormReport:
    """Norms and monitored functionals of a single field."""

    l2: float
    lq: dict
    h1_semi: float
    weighted_l2: float
    sup_sq: float
    trace_flux: float


def norms(fld: Field) -> NormReport:
    """Populate a NormReport."""
    g = fld.grid
    v = fld.values
    l2sq = integrate(v * v, g)
    lq = {q: integrate(np.abs(v) ** q, g) ** (1.0 / q) for q in (3, 4)}
    ux, uy = gradient_full(fld)
    h1_semi_sq = integrate(ux * ux + uy * uy, g)
    return NormReport(
        l2=float(np.sqrt(l2sq)),
        lq=lq,
        h1_semi=float(np.sqrt(h1_semi_sq)),
        weighted_l2=weighted_energy(fld),
        sup_sq=float(np.max(v * v)),
        trace_flux=trace_flux(fld),
    )


def initial_regularity(fld: Field) -> float:
    """The initial-regularity functional i0 of a field.

    ||u||^2 + ||grad u||^2 + ||u_yy||^2 + ||u u_x + (u_xx + u_yy)_x||^2,
    with the last term evaluated as || u*u_x + Laplacian(u_x) ||^2.
    """
    g = fld.grid
    v = fld.values
    ux, uy = gradient_full(fld)
    uyy = apply_operator(fld, "dyy")
    lap_ux = (_d2_interior(ux[:, 1:-1], g.hx)
              + _d2_interior(ux[1:-1, :].T, g.hy).T)
    nl_full = np.zeros(g.shape)
    nl_full[1:-1, 1:-1] = v[1:-1, 1:-1] * ux[1:-1, 1:-1] + lap_ux
    return (integrate(v * v, g) + integrate(ux * ux + uy * uy, g)
            + integrate(uyy.values ** 2, g) + integrate(nl_full * nl_full, g))


def weighted_energy(fld: Field) -> float:
    """The Lyapunov functional ((1+x), u^2)."""
    g = fld.grid
    wx, wy = trapezoid_weights(g)
    return float((wx * (1.0 + g.xs())) @ (fld.values ** 2) @ wy)


def check_gn(fld: Field, q: int) -> float:
    """Gagliardo-Nirenberg certificate for zero-trace fields.

    Returns ||u||_q / (beta * ||grad u||^theta * ||u||^(1-theta)) with
    theta = 2(1/2 - 1/q), beta = 2^theta; 0 for the zero field.
    A value <= 1 + tol certifies the inequality on this sample.
    """
    if q not in (3, 4):
        raise ValueError(f"q must be 3 or 4, got {q}")
    g = fld.grid
    v = fld.values
    l2 = np.sqrt(integrate(v * v, g))
    if l2 == 0.0:
        return 0.0
    theta = 2.0 * (0.5 - 1.0 / q)
    beta = 2.0 ** theta
    lq = integrate(np.abs(v) ** q, g) ** (1.0 / q)
    ux, uy = gradient_full(fld)
    gn = np.sqrt(integrate(ux * ux + uy * uy, g))
    return float(lq / (beta * gn ** theta * l2 ** (1.0 - theta)))


def check_sup_bound(fld: Field) -> float:
    """Certificate for sup u^2 <= ||u||_H1^2 + ||u_xy||^2; 0 for zero field."""
    g = fld.grid
    v = fld.values
    sup_sq = float(np.max(v * v))
    if sup_sq == 0.0:
        return 0.0
    ux, uy = gradient_full(fld)
    uxy = _d1_full(ux.T, g.hy).T
    denom = (integrate(v * v + ux * ux + uy * uy, g)
             + integrate(uxy * uxy, g))
    return sup_sq / denom


def check_poincare(fld: Field, axis: str) -> float:
    """Certificate for the directional Poincare inequalities.

    axis 'y': ||w||^2 <= (B^2/2) ||w_y||^2;  axis 'x': ||w||^2 <= (L^2/8) ||w_x||^2.
    Returns the ratio ||w||^2 / (C * ||w_axis||^2); 0 for the zero field.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    g = fld.grid
    v = fld.values
    l2sq = integrate(v * v, g)
    if l2sq == 0.0:
        return 0.0
    ux, uy = gradient_full(fld)
    if axis == "y":
        c = g.B ** 2 / 2.0
        gsq = integrate(uy * uy, g)
    else:
        c = g.L ** 2 / 8.0
        gsq = integrate(ux * ux, g)
    return float(l2sq / (c * gsq))

