"""Uniform tensor-product grids and the fields sampled on them.

The computational domain is (0, L) x (-B, B) with homogeneous Dirichlet
walls.  Fields carry one explicit boundary layer (the first/last row and
column of the value array hold the wall values), so stencil code never
branches on position: interior operators read wall data like any other
neighbour.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_POINTS = 8


def _is_real(v) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_positive_finite(name: str, v) -> None:
    """Raise a ValueError naming ``name`` unless v is a positive real a float holds."""
    if not (_is_real(v) and 0 < v <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and positive, got {v!r}")


def check_int(name: str, v, lo: int) -> None:
    """Raise a ValueError naming ``name`` unless v is a Python int >= lo (not a bool)."""
    if not (type(v) is int and v >= lo):
        raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")


def check_alpha(alpha) -> None:
    """Raise a ValueError unless alpha is the int 0 or 1 (not a bool or float)."""
    if type(alpha) is not int or alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, L) x (-B, B) with nx x ny interior nodes.

    Node (i, j), 0 <= i <= nx+1, 0 <= j <= ny+1, sits at
    (i*hx, (j - (ny+1)/2)*hy); i in {0, nx+1} and j in {0, ny+1} are wall
    nodes.  The y-coordinates are exactly antisymmetric, ys()[ny+1-j] ==
    -ys()[j], so a datum even in y samples to an exact mirror image.
    A Grid is geometry only: whether B is a physical half-width or the
    truncation of a strip is a fact about the run, held by its SimConfig.
    Construction validates every field, so every Grid that exists is valid.
    """

    L: float
    B: float
    nx: int
    ny: int

    def __post_init__(self):
        check_positive_finite("L", self.L)
        check_positive_finite("B", self.B)
        check_int("nx", self.nx, MIN_POINTS)
        check_int("ny", self.ny, MIN_POINTS)

    @property
    def hx(self) -> float:
        return self.L / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 2.0 * self.B / (self.ny + 1)

    def xs(self) -> np.ndarray:
        """All node x-coordinates, computed per node (no running sums)."""
        return self.hx * np.arange(self.nx + 2)

    def ys(self) -> np.ndarray:
        """All node y-coordinates, computed per node from the centre line."""
        return self.hy * (np.arange(self.ny + 2) - 0.5 * (self.ny + 1))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 2, self.ny + 2)

    def is_half(self, n: int) -> bool:
        """Whether n y-columns or modes are the even half (ny+1)/2 of odd ny rather than all ny.

        The lower (ny+1)/2 columns, centre included, hold a state on odd ny
        that equals its own y-mirror; any n but these two counts raises a
        ValueError naming both.
        """
        if n == self.ny:
            return False
        if 2 * n - 1 != self.ny:
            raise ValueError(f"{n} columns or modes fit neither ny={self.ny} "
                             f"nor its even half (ny+1)/2={(self.ny + 1) / 2:g}")
        return True


def build_grid(L: float, B: float, nx: int, ny: int) -> Grid:
    """The Grid with these fields, validated by its constructor."""
    return Grid(L, B, nx, ny)


def _real(values) -> np.ndarray:
    """values as a float array, not copied if they are one; a ValueError if they are complex.

    numpy would drop the imaginary part with only a ComplexWarning.
    """
    if np.iscomplexobj(values):
        raise ValueError(f"field values are complex ({np.asarray(values).dtype}); "
                         f"a Field holds real samples only")
    return np.asarray(values, dtype=float)


class _Fresh:
    """A float array built for one Field alone, which the Field freezes as it is, uncopied.

    Whoever wraps an array keeps no other reference to it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar samples on a Grid, boundary layer included.

    Construction checks the shape, realness and finiteness and freezes a
    private copy of the array, or, for an array built for it alone
    (``_Fresh``), that array itself; operations return new Fields.  A
    Field compares and hashes by identity, which stands for its values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        fresh = isinstance(self.values, _Fresh)
        vals = _real(self.values.array if fresh else self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        if not fresh:
            vals = vals.copy()
        vals.flags.writeable = False
        # A view of the read-only array: numpy refuses to make it writeable again.
        object.__setattr__(self, "values", vals.view())

    def __reduce__(self):
        # Pickle and copy rebuild through the constructor, so the copy is checked and frozen.
        return Field, (self.grid, self.values)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1, 1:-1]

    def with_interior(self, interior: np.ndarray) -> "Field":
        """New Field with the given interior and a zero boundary layer."""
        g = self.grid
        interior = _real(interior)
        if interior.shape != (g.nx, g.ny):
            raise ValueError(f"interior shape {interior.shape} does not match "
                             f"grid interior {(g.nx, g.ny)}")
        vals = np.zeros(g.shape)
        vals[1:-1, 1:-1] = interior
        return Field(g, _Fresh(vals))


def _zero_walls(vals: np.ndarray) -> None:
    """Set the boundary layer of a full-grid array to u = 0, in place."""
    vals[0] = vals[-1] = 0.0
    vals[:, 0] = vals[:, -1] = 0.0


def _samples(grid: Grid, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """A new float array of f(x, y) at every node, boundary layer included.

    f is called once, on the x column ``xs()[:, None]`` and the y row
    ``ys()[None, :]``, so it must broadcast; its result, a scalar included,
    is broadcast to the grid's shape.  Complex samples raise a ValueError.
    A product p(x) q(y) is sampled without the full-grid result of f by
    ``_product_samples``.
    """
    vals = np.empty(grid.shape)
    vals[...] = np.broadcast_to(_real(f(grid.xs()[:, None], grid.ys()[None, :])), grid.shape)
    return vals


def _product_samples(grid: Grid, p: Callable[[np.ndarray], np.ndarray],
                     q: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A new float array of p(x) q(y) at every node: one multiply into it, of p(x) by q(y).

    p is called on the x column ``xs()[:, None]`` and q on the y row
    ``ys()[None, :]``; either may return a scalar.  Each node takes the
    one product that ``_samples`` of ``lambda x, y: p(x) * q(y)`` takes,
    so the two arrays are equal bit for bit; this one is the only
    full-grid array built.  Real factors only.
    """
    return np.multiply(p(grid.xs()[:, None]), q(grid.ys()[None, :]), out=np.empty(grid.shape))


def sample_field(grid: Grid, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Field:
    """Pointwise samples of f(x, y) at every node, boundary layer included (``_samples``)."""
    return Field(grid, _Fresh(_samples(grid, f)))
