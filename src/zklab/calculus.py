"""Quadrature, trace functionals, functional-inequality checks, and the
lab's one table of finite-difference rows.

Every difference in the lab is a row of ``_ROWS``: the centered D1 to D4,
the one-sided u_x row at a wall, and the closures of the stepper's
x-operators at x = h and x = L - h, which ``dynamics._x_bands`` writes into
band storage.  ``_apply`` applies a row along one axis; ``_d1_sums``
reads the wall row through it, and ``initial_regularity`` D2.  The hot
paths, D1 on a field with zero walls (``_d1_zero_walls``, for
``trace_row``, the stepper's nonlinear term and the interior nodes of
``_d1_sums``) and ``trace_row``'s wall row (``_wall_lines``), are
written out as slices that a test pins to the table bit for bit.

On a full grid the first difference is ``_d1_sums``, the unscaled sums
``divisor * h * u'`` at every node.  ``gradient_full`` divides them by
``divisor * h``; the certificates square and integrate the sums and
divide each integral once by ``(divisor * h)**2``, as ``trace_row`` does
with its zero-wall sums.
Quadrature is the tensor trapezoidal rule on the closed rectangle.

``trace_row`` reads a state of a run as the stepper holds it: the (nx, ny)
interior, or for a state even in y on odd ny only the lower (ny+1)/2
columns, told apart by the column count (``Grid.is_half``).  It sums over
the y-lines, the rows of the transposed interior, each contiguous in the
stepper's layout; on the half, each line below the centre stands for
itself and its mirror.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .geometry import Field


class _Row(NamedTuple):
    """A difference row: the derivative at node i is sum(w * u[i + k]) / (divisor * h**order)."""

    order: int
    weights: dict       # {offset k: weight w}, in the order the terms are summed
    divisor: float


# Every row is second order.  "d1_wall" sits on a wall node and reaches
# inward.  The "left" and "right" rows sit at x = h and x = L - h: "d3_left"
# is one-sided; "d4_left" folds the u_xx(0) = 0 ghost u(-h) = -u(h) into
# its diagonal, "d3_right" and "d4_right" the u_x(L) = 0 ghost
# u(L+h) = u(L-h).  A weight on a wall node, where u = 0, drops wherever a
# row is applied.  The outputs depend to the last bit on the order of the
# terms, which is that of the weights.
_ROWS = {
    "d1": _Row(1, {1: 1.0, -1: -1.0}, 2.0),
    "d2": _Row(2, {1: 1.0, 0: -2.0, -1: 1.0}, 1.0),
    "d3": _Row(3, {-2: -1.0, -1: 2.0, 1: -2.0, 2: 1.0}, 2.0),
    "d4": _Row(4, {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}, 1.0),
    "d1_wall": _Row(1, {0: -3.0, 1: 4.0, 2: -1.0}, 2.0),
    "d3_left": _Row(3, {-1: -3.0, 0: 10.0, 1: -12.0, 2: 6.0, 3: -1.0}, 2.0),
    "d4_left": _Row(4, {-1: -4.0, 0: 5.0, 1: -4.0, 2: 1.0}, 1.0),
    "d3_right": _Row(3, {-2: -1.0, -1: 2.0, 0: 1.0, 1: -2.0}, 2.0),
    "d4_right": _Row(4, {-2: 1.0, -1: -4.0, 0: 7.0, 1: -4.0}, 1.0),
}


def _apply(row: _Row, v: np.ndarray, start: int, stop: int | None = None, h: float | None = None):
    """The row's sums along axis 0 of v at the nodes start <= i < stop, or at node start alone.

    Every term must stay inside v.  The terms add in the row's order, a
    weight of +-1 without a multiply; with h the sums are then divided by
    divisor * h**order.  At one node the sums have one axis less than v:
    numpy works on a row of v faster than on a one-node slice.
    """
    acc = None
    for k, w in row.weights.items():
        s = v[start + k] if stop is None else v[start + k:stop + k]
        s = s if abs(w) == 1.0 else abs(w) * s
        acc = (s if w > 0 else -s) if acc is None else (acc + s if w > 0 else acc - s)
    return acc if h is None else acc / (row.divisor * h ** row.order)


def _d1_sums(v: np.ndarray) -> np.ndarray:
    """divisor * h * u' along axis 0 at every node: the d1 sums inside, the d1_wall sums on the walls.

    d1_wall shares d1's divisor, so one scale turns every value into the
    derivative; a caller that squares and integrates applies it once, to
    the integral.
    """
    wall = _ROWS["d1_wall"]
    out = _d1_zero_walls(v, np.empty_like(v))
    out[0] = _apply(wall, v, 0)
    out[-1] = -_apply(wall, v[::-1], 0)  # reversed, the spacing is -h
    return out


def _d1_full(v: np.ndarray, h: float) -> np.ndarray:
    """First derivative at every node, one-sided at the two walls."""
    out = _d1_sums(v)
    out /= _ROWS["d1"].divisor * h
    return out


@functools.lru_cache(maxsize=16)
def trapezoid_weights(grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only trapezoid weights (wx, wy) of the grid, built once per grid."""
    wx = np.full(grid.nx + 2, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2.0
    wy = np.full(grid.ny + 2, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2.0
    wx.flags.writeable = False
    wy.flags.writeable = False
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


def _d1_zero_walls(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of the d1 row at every node of v, which is zero beyond its ends, into ``out``.

    The hot path of ``trace_row``, of the stepper's nonlinear term and of
    ``_d1_sums``'s inner nodes, so the row is written out as slices:
    applied by ``_apply``, node by node at the ends, it made trace_row's
    gradient sums take about 1.6 times as long.  When both arrays are
    contiguous along axis 0 (Fortran order: the stepper's held columns
    and their transposed views), the lines lie one after another, so one
    difference runs over the flat arrays and each line's two ends, where
    it reached across a line boundary, are set after it; otherwise the
    difference runs on axis-0 slices.  A test pins both paths to the table
    bit for bit.
    """
    if v.flags.f_contiguous and out.flags.f_contiguous:
        flat = v.ravel(order="F")
        np.subtract(flat[2:], flat[:-2], out=out.ravel(order="F")[1:-1])
    else:
        np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[0] = v[1]
    np.negative(v[-2], out=out[-1])
    return out


def _wall_lines(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d1_wall sums along axis 0 of e, which is zero past its ends, on its first and last wall.

    As slices: past the zero wall the row's weights are w[1] and -1.
    """
    w = _ROWS["d1_wall"].weights[1]
    return w * e[0] - e[1], w * e[-1] - e[-2]


@functools.lru_cache(maxsize=16)
def _weighted_column(grid) -> np.ndarray:
    """Read-only (1 + x_i) hx hy at the interior x nodes: the weight of ((1+x), u^2)."""
    w = (1.0 + grid.xs()[1:-1]) * (grid.hx * grid.hy)
    w.flags.writeable = False
    return w


def _squares(v: np.ndarray, grid, half: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """v*v, its sums over the y-lines at each x, and the one definition of the weighted energy.

    v is an interior transposed, one row per y-line: all ny, or with
    ``half`` the even half, whose lines below the centre stand for two.
    The weighted energy is ((1+x), u^2).
    """
    v2 = v * v
    cols = v2.sum(axis=0)
    if half:
        cols += cols
        cols -= v2[-1]
    return v2, cols, float(_weighted_column(grid) @ cols)


def trace_row(interior: np.ndarray, grid) -> tuple:
    """(l2_sq, weighted, flux0, grad_x_sq, grad_y_sq, cubic) of a clean state.

    The single definition of a trace row, read from the (nx, ny) interior
    of a field whose boundary layer is zero, or, for such a field even in
    y on odd ny, from the lower (ny+1)/2 columns of its interior, centre
    included; the column count tells which (``Grid.is_half``).  The walls
    carry no quadrature weight except through the one-sided derivatives
    there, and the derivative along a wall vanishes.  Equals
    ``integrate(v*v)``, the Lyapunov functional ``integrate((1+x) v*v)``,
    the inflow flux int u_x(0,y)^2 dy on the wall row of ``gradient_full``,
    the ``gradient_full`` energies and ``integrate(v**3)`` of that field up
    to round-off.

    Both differences run over the rows of ``interior.T``, the y-lines,
    which the stepper holds contiguous.  On the half, a sum over the lines
    counts each line below the centre twice and the centre line once, and
    the y-difference at the centre, between two mirror images, vanishes.
    """
    v = interior.T
    half = grid.is_half(len(v))
    hx, hy = grid.hx, grid.hy

    def total(s, centre):
        """The full state's sum from s, a sum over the held lines, and the centre line's terms."""
        return 2.0 * s - float(centre.sum()) if half else s

    # One buffer of v's shape: u^2, then u^3, then each derivative in turn.
    buf, cols, weighted = _squares(v, grid, half)
    l2_sq = hx * hy * float(cols.sum())
    buf *= v
    cubic = hx * hy * total(float(buf.sum()), buf[-1])
    sq = _ROWS["d1"].divisor ** 2   # the sums are of (divisor * h * u')^2; d1_wall shares it
    d = _d1_zero_walls(v.T, buf.T)  # along each line
    np.square(d, out=d)
    inner = total(float(buf.sum()), buf[-1])
    lo, hi = (total(float(e @ e), e[-1] * e[-1]) for e in _wall_lines(v.T))
    flux0 = hy * lo / (sq * hx * hx)
    grad_x_sq = hy * (inner + 0.5 * (lo + hi)) / (sq * hx)
    d = _d1_zero_walls(v, buf)      # across the lines
    lo, hi = (float(e @ e) for e in _wall_lines(v))
    if half:
        d[-1] = 0.0  # the centre's two neighbours are mirror images,
        hi = lo      # and so are the two walls
    np.square(d, out=d)
    inner = total(float(d.sum()), d[-1])
    grad_y_sq = hx * (inner + 0.5 * (lo + hi)) / (sq * hy)
    return l2_sq, weighted, flux0, grad_x_sq, grad_y_sq, cubic


def initial_regularity(fld: Field) -> float:
    """The initial-regularity functional i0 of a field.

    ||u||^2 + ||grad u||^2 + ||u_yy||^2 + ||u u_x + (u_xx + u_yy)_x||^2,
    with the last term evaluated as || u*u_x + Laplacian(u_x) ||^2.

    Each term is integrated as soon as it is formed and its arrays are
    dropped, and the sum runs in the terms' order: on C07's 127x383 strip
    the call peaks at 4.1 full-grid arrays under tracemalloc, against 7.0
    when every term was held to the end.
    """
    g = fld.grid
    v = fld.values
    ux, uy = gradient_full(fld)
    sq = ux * ux
    sq += uy * uy
    del uy
    grad_sq = integrate(sq, g)
    sq = np.pad(_apply(_ROWS["d2"], v[1:-1, :].T, 1, g.ny + 1, g.hy).T, 1)  # u_yy, zero walls
    sq *= sq
    uyy_sq = integrate(sq, g)
    del sq
    nl = _apply(_ROWS["d2"], ux[:, 1:-1], 1, g.nx + 1, g.hx)
    nl += _apply(_ROWS["d2"], ux[1:-1, :].T, 1, g.ny + 1, g.hy).T  # Laplacian(u_x)
    nl = np.pad(v[1:-1, 1:-1] * ux[1:-1, 1:-1] + nl, 1)
    del ux
    nl *= nl
    return integrate(v * v, g) + grad_sq + uyy_sq + integrate(nl, g)


class _Terms(NamedTuple):
    """What the certificates of one field share; the arrays are read-only."""

    v2: np.ndarray      # v * v
    l2_sq: float        # integrate(v * v)
    sx: np.ndarray      # _d1_sums(v): divisor * hx * u_x at every node
    ux_sq: float        # integrate(u_x * u_x), as integrate(sx * sx) / (divisor * hx)**2
    uy_sq: float        # integrate(u_y * u_y), likewise from the y-sums
    grad_sq: float      # ux_sq + uy_sq


# One-entry memo keyed on the Field, so the five certificates of one field
# take one gradient.  A Field hashes by identity and freezes a private copy
# of its values, so identity stands for the values.  The entry holds the
# latest field and two grid arrays, and the y-sums are squared in place: a
# run of fields then reuses its heap, which glibc would trim and re-fault.
# The difference sums are integrated unscaled and each integral is divided
# once by the square of the sums' scale, as trace_row does.
@functools.lru_cache(maxsize=1)
def _shared_terms(fld: Field) -> _Terms:
    g, v = fld.grid, fld.values
    d = _ROWS["d1"].divisor
    sx = _d1_sums(v)
    sy = _d1_sums(v.T)
    v2 = v * v
    v2.flags.writeable = sx.flags.writeable = False
    ux_sq = integrate(sx * sx, g) / (d * g.hx) ** 2
    uy_sq = integrate(np.square(sy, out=sy).T, g) / (d * g.hy) ** 2
    return _Terms(v2=v2, l2_sq=integrate(v2, g), sx=sx, ux_sq=ux_sq, uy_sq=uy_sq,
                  grad_sq=ux_sq + uy_sq)


def check_gn(fld: Field, q: int) -> float:
    """Gagliardo-Nirenberg certificate for zero-trace fields.

    Returns ||u||_q / (beta * ||grad u||^theta * ||u||^(1-theta)) with
    theta = 2(1/2 - 1/q), beta = 2^theta; 0 for the zero field, and inf,
    the limit of the ratio, for a nonzero field of zero gradient (one with
    nonzero walls, such as a constant).  A value <= 1 + tol certifies the
    inequality on this sample.  The certificates of one field share one
    gradient and one ||u||^2.
    """
    if q not in (3, 4):
        raise ValueError(f"q must be 3 or 4, got {q}")
    t = _shared_terms(fld)
    l2 = np.sqrt(t.l2_sq)
    if l2 == 0.0:
        return 0.0
    if t.grad_sq == 0.0:
        return math.inf
    theta = 2.0 * (0.5 - 1.0 / q)
    beta = 2.0 ** theta
    # |v|^q as products of the shared v*v: no libm pow per node.
    vq = t.v2 * (np.abs(fld.values) if q == 3 else t.v2)
    lq = integrate(vq, fld.grid) ** (1.0 / q)
    gn = np.sqrt(t.grad_sq)
    return float(lq / (beta * gn ** theta * l2 ** (1.0 - theta)))


def check_sup_bound(fld: Field) -> float:
    """Certificate for sup u^2 <= ||u||_H1^2 + ||u_xy||^2; 0 for zero field.

    Reads the terms shared by the certificates of this field.  u_xy is the
    y-difference of the shared x-sums, divisor^2 * hx * hy * u_xy at every
    node, squared in place and scaled once, on its integral.
    """
    g = fld.grid
    t = _shared_terms(fld)
    sup_sq = float(np.max(t.v2))
    if sup_sq == 0.0:
        return 0.0
    sxy = _d1_sums(t.sx.T)
    d = _ROWS["d1"].divisor
    uxy_sq = integrate(np.square(sxy, out=sxy).T, g) / (d * d * g.hx * g.hy) ** 2
    return sup_sq / (t.l2_sq + t.grad_sq + uxy_sq)


def check_poincare(fld: Field, axis: str) -> float:
    """Certificate for the directional Poincare inequalities.

    axis 'y': ||w||^2 <= (B^2/2) ||w_y||^2;  axis 'x': ||w||^2 <= (L^2/8) ||w_x||^2.
    Returns the ratio ||w||^2 / (C * ||w_axis||^2); 0 for the zero field,
    inf for a nonzero field of zero w_axis (one with nonzero walls).
    Reads the gradient integrals shared by the certificates of this field.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    g = fld.grid
    t = _shared_terms(fld)
    if t.l2_sq == 0.0:
        return 0.0
    if axis == "y":
        c = g.B ** 2 / 2.0
        gsq = t.uy_sq
    else:
        c = g.L ** 2 / 8.0
        gsq = t.ux_sq
    if gsq == 0.0:
        return math.inf
    return float(t.l2_sq / (c * gsq))
