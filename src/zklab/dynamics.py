"""Time integration of the ZK initial-boundary value problem.

Semi-discrete form: u_t = -(alpha u_x + u_xxx + u_xyy + eps(u_xxxx+u_yyyy))
- (u^2)_x on the interior unknowns, with walls u = 0, outflow u_x(L,.) = 0,
and for eps > 0 the extra regularization conditions u_yy(x,+-B) = 0 and
u_xx(0,.) = 0.  That (u^2)_x = 2 u u_x is twice ZK's u u_x (ROADMAP item 1).

The y-direction second derivative is the Dirichlet tridiagonal, so the
whole linear part block-diagonalizes under the type-I discrete sine
transform in y: each transverse mode m evolves by an nx-by-nx matrix

    A_m = D3 + (alpha - xi_m) D1 + eps (D4x + xi_m^2 I).

The operator is held as D1, D3, D4x in band storage, written from the
rows of ``calculus._ROWS`` (the lab's one table of difference rows, the
IBVP's closures included), and the xi_m.  A_m is written out once, in
``LinearPart.implicit``: ``start`` forms I + dt/2 A_m of the modes a run
steps in one array, the LAPACK band storage that the elimination
overwrites and both triangular sweeps read (one band stack of the run's
k modes, which holds L, U and 2/D; 2.1 stacks at the set-up's peak).
The nonlinear term is that table's centered D1 row applied to u^2 with
zero walls.

Time stepping is Crank-Nicolson on the linear part (one banded LU of
I + dt/2 A without row interchanges, factored by each ``start``) with the
conservative nonlinearity (u^2)_x treated explicitly by second-order
Adams-Bashforth extrapolation to the half step; the first step uses a
single explicit Euler predictor, which multiplies by the factors.

The stepper keeps the state as its (ny, nx) transverse-mode stack m, and
one step is m <- 2 (I + dt/2 A)^-1 (m - dt/2 F) - m, where F is the DST of
the extrapolated nonlinear term (zero for a linear run).  The solve
returns the factor 2 with it (it stores its pivots' reciprocals doubled),
and -dt/2 F is c S(s_n - s_(n-1)/3), with S the forward DST, s the raw
sums of the d1 row over u^2 and c = -(dt/2)(3/2) / (2 hx) the one constant
(``Stepper._nonlin_scale``) that holds the nonlinear term's scale: 1/(2 hx),
the AB2 weight 3/2 and -dt/2.  Physical values
are built by the inverse DST only where something reads them.  Since the
unnormalised DST-I gives |u_ij| <= sum_m |m_mi| / (ny + 1), a modal state
whose whole-stack sum of |m_mi| (one BLAS dasum) stays below (ny + 1) times
the threshold is cleared of blow-up without the inverse transform.

The scheme keeps y-parity, and the odd modes of a y-even state are zero.
So a run on odd ny whose datum equals its own y-mirror holds only the
(ny + 1)/2 even modes, transformed by a half-length DST-III of the lower
half of the columns (Boyd 2001, ch. 8; Martucci 1994): each step solves
and transforms half the modes.  Any other datum steps every mode.  A half
stack of at most ``_DENSE_HALF_MAX`` rows is transformed by one dense
matrix product, which is faster than pocketfft at those lengths; longer
half stacks and every full stack use pocketfft, so a run whose half
stack is at most that long loads no scipy.fft.  A run on the even half
samples its trace on the held lower columns; only a snapshot, the final
state or a blow-up report mirrors them into the full interior.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import calculus, spectral
from .geometry import (Field, Grid, _Fresh, _is_real, _product_samples, _real, _zero_walls,
                       check_alpha, check_int, check_positive_finite)

BLOWUP_THRESHOLD = 1.0e6

# The longest even-half stack that LinearPart transforms by a dense product.
# Speed-up of the product over pocketfft for a (k, 127) stack with one BLAS
# thread, forward / inverse, median of three runs on a 2-core x86-64 host:
#   k = 16: 6.6 / 6.9   32: 5.0 / 4.9   48: 3.0 / 3.4   64: 2.4 / 2.5
#   k = 80: 1.8 / 2.0   96: 1.0 / 1.1   128: 0.71 / 0.76   192: 0.53 / 0.50
# This is the largest k at which both beat pocketfft by at least 20%.
_DENSE_HALF_MAX = 80

RECTANGLE = "rectangle"
TRUNCATED_STRIP = "truncated_strip"

_DOMAIN_KINDS = (RECTANGLE, TRUNCATED_STRIP)


# scipy is imported where a run first transforms or solves, so a process
# that never steps (the spectra, the certificates) loads no scipy module,
# and a run whose transforms are all dense products (a y-even half stack of
# at most _DENSE_HALF_MAX rows) loads scipy.linalg.blas but no scipy.fft.
# Measured on x86-64 Linux, Python 3.11, scipy 1.17: ``import zklab`` peaks
# at 33 MiB RSS; scipy.fft adds 85 modules and 21 MiB, scipy.linalg.blas
# alone 85 modules and 23 MiB, and the two together 128 modules and 28 MiB.

@functools.cache
def _fft():
    """scipy.fft, imported on the first transform that pocketfft makes."""
    import scipy.fft
    return scipy.fft


@functools.cache
def _blas():
    """scipy.linalg.blas, imported on the first solve or blow-up test."""
    from scipy.linalg import blas
    return blas


def _check_epsilon(epsilon) -> None:
    """epsilon must be a finite non-negative real (an int or a float, not a bool)."""
    if not (_is_real(epsilon) and 0 <= epsilon <= sys.float_info.max):
        raise ValueError(f"epsilon must be a finite non-negative real, got {epsilon!r}")


def _check_coefficients(alpha, epsilon) -> None:
    """alpha must be the int 0 or 1, epsilon a finite non-negative real."""
    check_alpha(alpha)
    _check_epsilon(epsilon)


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Validated, flat, JSON-serializable simulation configuration: the one description of a run.

    Checked once, as it is built, it keeps what the checks parse beside its
    fields: its ``Grid`` and its tagged datum's factors (p, q).
    """

    L: float
    B: float
    nx: int
    ny: int
    dt: float = 1e-3
    t_end: float
    alpha: int = 1
    epsilon: float = 0.0
    linear: bool = False
    domain_kind: str = RECTANGLE
    initial: object = "zero"
    scale_weighted: float | None = None
    snapshot_stride: int = 10 ** 9
    trace_stride: int = 10

    def __post_init__(self):
        # The Grid checks L, B, nx, ny, and is the one that grid() returns.
        object.__setattr__(self, "_grid", Grid(self.L, self.B, self.nx, self.ny))
        if self.domain_kind not in _DOMAIN_KINDS:
            raise ValueError(
                f"domain_kind must be one of {_DOMAIN_KINDS}, got {self.domain_kind!r}")
        check_positive_finite("dt", self.dt)
        check_positive_finite("t_end", self.t_end)
        _check_coefficients(self.alpha, self.epsilon)
        if not isinstance(self.linear, bool):
            raise ValueError(f"linear must be a bool, got {self.linear!r}")
        check_int("snapshot_stride", self.snapshot_stride, 1)
        check_int("trace_stride", self.trace_stride, 1)
        if self.scale_weighted is not None:
            check_positive_finite("scale_weighted", self.scale_weighted)
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end={self.t_end!r} / dt={self.dt!r} overflows the step count")
        if self.n_steps < 1:
            raise ValueError("t_end must cover at least one step")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end!r} is not a whole number of steps "
                             f"of dt={self.dt!r}")
        with _overflow_names(self.initial):  # the tag is parsed and checked here, once
            object.__setattr__(self, "_sampler", _initial_sampler(self))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def grid(self) -> Grid:
        return self._grid


def _run_grid(config: SimConfig, grid: Grid | None) -> Grid:
    """``config.grid()``, which a given ``grid`` must equal."""
    g = config.grid()
    if grid not in (None, g):
        raise ValueError(f"{grid} is not the config's grid {g}")
    return g


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from a flat mapping; unknown keys are rejected."""
    unknown = set(raw) - {f.name for f in fields(SimConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(SimConfig) if f.default is MISSING} - set(raw)
    if missing:
        raise ValueError(f"missing required config keys: {sorted(missing)}")
    return SimConfig(**raw)


# ---------------------------------------------------------------------------
# initial data

def _tag_numbers(tag: str, count: int, parse=float) -> list:
    """The ``count`` comma-separated finite numbers after the tag's colon."""
    kind, _, args = tag.partition(":")
    try:
        nums = [parse(s) for s in args.split(",")]
    except ValueError:
        nums = []
    # nan, the infinities and ints beyond the float range fail the comparison.
    if len(nums) != count or not all(abs(x) <= sys.float_info.max for x in nums):
        raise ValueError(f"initial: cannot parse {kind} tag {tag!r}")
    return nums


@contextlib.contextmanager
def _overflow_names(tag):
    """Turn a float-range overflow, or numpy's warning of one, into a ValueError naming the tag."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"initial: {tag!r} overflows the float range: {exc}") from exc


# Every tagged datum is a product p(x) q(y).  Its factors are module-level
# functions, bound to their numbers with functools.partial, or a
# StationaryMode's methods, so a SimConfig holding them pickles.


def _zero(x):
    return 0.0


def _cos_x(amp, L, x):
    return amp * (1.0 - np.cos(2.0 * np.pi * x / L))


def _cos_y(B, y):
    return np.cos(np.pi * y / (2.0 * B))


def _bump_y(r, y):
    return np.clip(1.0 - (y / r) ** 2, 0.0, None) ** 3


def _initial_sampler(config: SimConfig):
    """The config's initial tag as the factors (p, q) of p(x) q(y), or None for a snapshot file.

    A ``mode:`` tag's are its ``spectral.StationaryMode``'s p and q.
    Checks every tag rule that needs neither the file nor the samples.
    """
    tag, L, B = config.initial, config.L, config.B
    if isinstance(tag, dict) and set(tag) == {"file"} and isinstance(tag["file"], str):
        return None
    if not isinstance(tag, str):
        raise ValueError(f"initial must be a tag string or {{'file': path}}, got {tag!r}")
    if tag == "zero":
        return _zero, _zero
    if tag.startswith("mode:"):
        k, l, n = _tag_numbers(tag, 3, int)
        mode = spectral.stationary_mode(k, l, n, B)
        if abs(mode.triple.L - L) > 1e-9 * L:
            raise ValueError(f"initial: grid L={L} does not host the critical length "
                             f"{mode.triple.L} of mode {tag!r}")
        return mode.p, mode.q
    if tag.startswith("cos-product:"):
        amp, = _tag_numbers(tag, 1)
        return functools.partial(_cos_x, amp, L), functools.partial(_cos_y, B)
    if tag.startswith("cos-bump:"):
        amp, r = _tag_numbers(tag, 2)
        if not (0 < r <= B):
            raise ValueError(f"initial: bump radius {r} outside (0, B]")
        if config.domain_kind == TRUNCATED_STRIP and B < 4.0 * r:
            raise ValueError(f"initial: strip truncation needs B >= 4x the bump radius "
                             f"(B={B}, r={r})")
        return functools.partial(_cos_x, amp, L), functools.partial(_bump_y, r)
    raise ValueError(f"initial: unknown tag {tag!r}")


def initial_field(config: SimConfig, grid: Grid | None = None) -> Field:
    """Sample the configured initial datum onto the grid, Dirichlet-clean.

    ``grid``, when given, must be ``config.grid()``.  A datum whose samples
    or weighted energy overflow the float range raises a ValueError naming
    the tag, and no numpy warning.  A tagged datum p(x) q(y) is sampled by
    one multiply of its x column and its y row into one full-grid array
    (``geometry._product_samples``), a snapshot's values (which
    ``read_snapshot``'s Field holds uncopied) are copied into one; its
    walls are zeroed, and that array becomes the Field.  With
    ``scale_weighted``, the weighted energy is read from the interior's
    squares (``calculus._squares``) and the whole array, whose walls are
    0, is scaled in place.
    """
    g = _run_grid(config, grid)
    with _overflow_names(config.initial):
        if config._sampler is not None:
            vals = _product_samples(g, *config._sampler)
        else:
            fld = read_snapshot(config.initial["file"])[1]
            if fld.grid != g:
                raise ValueError(f"initial: snapshot {fld.grid} is not the config's grid {g}")
            vals = np.array(fld.values)
        _zero_walls(vals)
        if config.scale_weighted is not None:
            u = vals[1:-1, 1:-1]
            with np.errstate(over="ignore"):  # an overflow is named below
                w = calculus._squares(u.T, g)[2]
            if w == math.inf:
                raise OverflowError("the weighted energy overflows")
            if w == 0.0:
                cause = ("is identically zero" if not u.any()
                         else "is nonzero, but its weighted energy underflows to 0")
                raise ValueError(f"scale_weighted: initial datum {cause}")
            vals *= math.sqrt(config.scale_weighted / w)
        return Field(g, _Fresh(vals))


# ---------------------------------------------------------------------------
# discrete operators in x and the transverse eigenvalues

def transverse_eigenvalues(ny: int, hy: float) -> np.ndarray:
    """Eigenvalues xi_m of -D_yy (Dirichlet tridiagonal), DST-I ordering."""
    m = np.arange(1, ny + 1)
    return 4.0 * np.sin(np.pi * m / (2.0 * (ny + 1))) ** 2 / hy ** 2


def _x_rows(order: int) -> tuple:
    """The rows of ``calculus._ROWS`` that the order-th x-operator is written from.

    (centered, closure at x = h, closure at x = L - h), None where the
    table holds no closure of this order.
    """
    return tuple(calculus._ROWS.get(f"d{order}{end}") for end in ("", "_left", "_right"))


# The band widths of every A_m: the farthest reach below and above the
# diagonal of any row that _x_bands writes.
_KL, _KU = (max(sign * k for order in (1, 3, 4) for row in _x_rows(order) if row
                for k in row.weights) for sign in (-1, 1))
# The rows per unknown of LAPACK band storage (superdiagonals, diagonal, subdiagonals).
_LDAB = _KL + _KU + 1


def _band_stack(system: np.ndarray, nx: int) -> np.ndarray:
    """The (_LDAB, k, nx) band stack that a flat ``LinearPart.implicit`` array holds, a view.

    Entry (i, j) of mode m at [_KU + i - j, m, j], as ``_band_apply`` reads.
    """
    return system[:-_KU].reshape(-1, nx, _LDAB).transpose(2, 0, 1)


def _x_layout(order: int) -> tuple:
    """Where ``_x_bands`` writes the order-th x-operator, read once from ``_x_rows``.

    (centered row, its band rows, edits): the centered row fills its band
    rows, and the edits, (band rows, columns, weights, divisors) with a
    column counted from the right end when negative, set what differs near
    the ends.  They are the centered row's entries outside the matrix (no
    node i = j - k), weight 0, and the closures at x = h (node 0, the
    columns k >= 0) and at x = L - h (node n - 1, the columns n - 1 + k,
    k <= 0); a weight on a wall node has no column.
    """
    centered, left, right = _x_rows(order)
    edits = [(_KU - k, j, 0.0, 1.0) for k in centered.weights
             for j in (range(k) if k > 0 else range(k, 0))]
    edits += [(_KU - k, k, w, left.divisor) for k, w in (left.weights.items() if left else ())
              if k >= 0]
    edits += [(_KU - k, k - 1, w, right.divisor)
              for k, w in (right.weights.items() if right else ()) if k <= 0]
    return centered, _KU - np.array(list(centered.weights)), [np.array(a) for a in zip(*edits)]


_X_LAYOUTS = {order: _x_layout(order) for order in (1, 3, 4)}


def _x_bands(order: int, n: int, h: float) -> np.ndarray:
    """The order-th x-derivative on the n interior nodes, closed by the IBVP.

    LAPACK band storage, d[i, j] at [_KU + i - j, j], column-major as
    ``LinearPart.implicit`` lays out each mode.  Every row is the
    centered row of ``calculus._ROWS``, except at x = h and x = L - h where
    the table holds a closure of this order (``_x_rows``); a weight on a
    wall node drops, as u = 0 there.  Each weight w of a row is entered as
    w / (divisor h^order), in two writes of the whole layout
    (``_x_layout``), not one per weight.
    """
    centered, band_rows, (rows, cols, weights, divisors) = _X_LAYOUTS[order]
    scale = h ** order
    b = np.zeros((_LDAB, n), order="F")
    b[band_rows] = np.array([w / (centered.divisor * scale)
                             for w in centered.weights.values()])[:, None]
    b[rows, cols] = weights / (divisors * scale)
    return b


def _band_apply(bands: np.ndarray, modes: np.ndarray, offsets=range(-_KL, _KU + 1),
                out: np.ndarray | None = None, magnitudes: bool = False) -> np.ndarray:
    """Each row of a (k, nx) mode stack times its band matrix from a (rows, k, nx) band stack.

    Adds to ``out`` (zeros by default) the product of each diagonal in
    ``offsets`` (0 the main one, positive above it), in that order, one
    (k, nx) slice at a time; with ``magnitudes`` each band entry enters as
    its absolute value.
    """
    out = np.zeros_like(modes) if out is None else out
    nx = modes.shape[1]
    for k in offsets:
        lo, hi = max(0, -k), nx - max(0, k)
        diagonal = bands[_KU - k, :, lo + k:hi + k]
        out[:, lo:hi] += (np.abs(diagonal) if magnitudes else diagonal) * modes[:, lo + k:hi + k]
    return out


class LinearPart:
    """alpha*Dx + Dxxx + Dxyy + eps*(Dx4 + Dy4) with the IBVP closures.

    Held as its x-operators in band storage (``_x_bands`` of order 1 and 3,
    and 4 when eps > 0) and the transverse eigenvalues ``xi``; no
    A_m = D3 + (alpha - xi_m) D1 + eps (D4 + xi_m^2 I) is held.
    ``implicit`` forms I + dt/2 A_m for the modes of one stack in the
    band storage the solve eliminates and sweeps, the one place A_m is
    written; ``apply`` reads it at dt = 2, where it is I + A.

    A mode stack is either full, (ny, nx) from an (nx, ny) interior, or,
    for odd ny and an interior even in y, its even half: the rows
    m = 0, 2, 4, ... of the full stack, on the same DST-I scale, from the
    lower (ny+1)/2 columns of the interior, centre column included.  For
    such an interior the odd modes vanish.  The transforms and
    ``implicit`` tell the two apart by the length of the y axis.

    A full stack is transformed by pocketfft's DST-I.  A half stack of
    k = (ny+1)/2 rows is transformed by pocketfft's DST-III when k exceeds
    ``_DENSE_HALF_MAX``, and otherwise by one matrix product with a k x k
    matrix of that DST-III, scale included.  The two matrices (forward and
    inverse, 8 k^2 bytes each) are built from the closed form, by numpy
    alone, on the first such transform.
    """

    def __init__(self, grid: Grid, alpha: int, epsilon: float = 0.0):
        _check_coefficients(alpha, epsilon)
        self.grid = grid
        self.alpha, self.epsilon = alpha, epsilon
        self.xi = transverse_eigenvalues(grid.ny, grid.hy)
        nx, hx = grid.nx, grid.hx
        self._d1, self._d3 = _x_bands(1, nx, hx), _x_bands(3, nx, hx)
        self._d4 = _x_bands(4, nx, hx) if epsilon > 0 else None

    def implicit(self, k: int, dt: float) -> np.ndarray:
        """I + dt/2 A_m for the k = ny modes or the even half, in ``_factor``'s band storage.

        A flat array of _LDAB k nx + _KU floats.  Its first _LDAB k nx are
        the column-major (_LDAB, k nx) LAPACK band storage of the
        block-diagonal system, the modes one after another: entry (i, j)
        of mode m at [_KU + i - j, m nx + j], that is _LDAB rows per
        unknown, the superdiagonals, the diagonal, the subdiagonals.  The
        last _KU are zeros, so the view shifted by _KU entries, whose row 0
        is the diagonal, spans whole columns too (``_factor``).
        ``_band_stack`` views the system as a (_LDAB, k, nx) band stack.
        """
        xi = self.xi[0::2] if self.grid.is_half(k) else self.xi
        nx = self.grid.nx
        system = np.empty(_LDAB * k * nx + _KU)
        system[_LDAB * k * nx:] = 0.0
        # [m, j, r]: band row r of column j of mode m, in memory order
        columns = system[:_LDAB * k * nx].reshape(k, nx, _LDAB)
        np.multiply((self.alpha - xi)[:, None, None], self._d1.T, out=columns)
        columns += self._d3.T
        if self._d4 is not None:
            columns += (self.epsilon * self._d4).T
            columns[:, :, _KU] += (self.epsilon * xi ** 2)[:, None]
        columns *= 0.5 * dt
        columns[:, :, _KU] += 1.0
        return system

    @functools.cached_property
    def _half_dst(self) -> tuple[np.ndarray, np.ndarray]:
        """The half-stack transforms as k x k matrices: (to_modes, from_modes).

        Both read s[m, j] = sin(pi (2m+1)(j+1) / 2k): to_modes is twice the
        DST-III, 4 s with the centre column j = k-1 weighted 2 s, and
        from_modes, half its inverse, is s.T / 2k.  The sines come from a
        table of sin(pi r / 2k) over r mod 4k whose arguments are reduced
        exactly to [0, pi/2], so each entry is within 1.5 ulp (measured
        against long-double sines at k <= 80).
        """
        k = (self.grid.ny + 1) // 2
        r = np.arange(4 * k) % (2 * k)
        table = np.sin(np.pi * np.minimum(r, 2 * k - r) / (2 * k))
        table[2 * k:] *= -1.0  # sin(x + pi) = -sin(x)
        j = np.arange(k)
        s = table[np.outer(2 * j + 1, j + 1) % (4 * k)]
        to = 4.0 * s
        to[:, -1] *= 0.5
        return to, s.T / (2 * k)

    def to_modes(self, interior: np.ndarray) -> np.ndarray:
        """(nx, ny) physical interior -> C-contiguous (ny, nx) transverse-mode stack.

        The even half of the DST-I of a y-even column is twice the DST-III
        of its lower half (Martucci 1994).
        """
        if not self.grid.is_half(interior.shape[1]):
            return _fft().dst(interior.T, type=1, axis=0)
        if interior.shape[1] <= _DENSE_HALF_MAX:
            return self._half_dst[0] @ interior.T
        modes = _fft().dst(interior.T, type=3, axis=0)
        modes *= 2.0
        return modes

    def from_modes(self, modes: np.ndarray) -> np.ndarray:
        """(ny, nx) mode stack -> (nx, ny) physical interior (a transposed view).

        An even-half stack gives the lower half of the interior.
        """
        if not self.grid.is_half(modes.shape[0]):
            return _fft().idst(modes, type=1, axis=0).T
        if modes.shape[0] <= _DENSE_HALF_MAX:
            return (self._half_dst[1] @ modes).T
        half = _fft().idst(modes, type=3, axis=0)
        half *= 0.5
        return half.T

    def apply(self, fld: Field) -> Field:
        """A u as a Field on the operator's grid (boundary layer zeroed).

        Each mode times ``implicit``'s system at dt = 2, I + A_m, less the mode.
        """
        if fld.grid != self.grid:
            raise ValueError("field grid does not match operator grid")
        modes = self.to_modes(fld.interior)
        out = _band_apply(_band_stack(self.implicit(len(modes), 2.0), self.grid.nx), modes)
        out -= modes
        return fld.with_interior(self.from_modes(out))


# ---------------------------------------------------------------------------
# trace and trajectory containers

TRACE_COLUMNS = ("t", "l2_sq", "weighted", "flux0", "grad_x_sq", "grad_y_sq", "cubic")


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled energy functionals along a run."""

    t: np.ndarray
    l2_sq: np.ndarray
    weighted: np.ndarray
    flux0: np.ndarray
    grad_x_sq: np.ndarray
    grad_y_sq: np.ndarray
    cubic: np.ndarray
    i0_initial: float | None = None

    def __len__(self) -> int:
        return self.t.size

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(frozen=True)
class Trajectory:
    """Simulation output: config echo (the grid is ``config.grid()``), snapshots, trace.

    ``blowup`` is the unraised ``BlowupError`` (step, time, node and
    magnitude) of a run that blew up, and None otherwise.
    """

    config: SimConfig
    snapshots: list
    trace: EnergyTrace
    blowup: "BlowupError | None" = None

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]

    @property
    def aborted_at(self) -> float | None:
        """The time of the blow-up, or None for a healthy run."""
        return None if self.blowup is None else self.blowup.t


# ---------------------------------------------------------------------------
# stepping

_REFINE_GROWTH = 4.0  # see _factor; the benchmark and acceptance grids read at most 3.12


def _factor(form, nx: int):
    """The Crank-Nicolson solve and product of I + dt/2 A for k modes, formed by ``form()``.

    ``form()`` returns a fresh I + dt/2 A of nx unknowns per mode in
    ``LinearPart.implicit``'s flat band storage, and the elimination runs
    in that array (``_band_lu``): Doolittle without row interchanges, on
    every mode at once (a loop over the columns), gives I + dt/2 A_m =
    L D U, L unit lower with A_m's _KL subdiagonals and U unit upper with
    its _KU superdiagonals.  Both sweeps then read that one array, as BLAS
    ``dtbsv`` band storage of leading dimension _LDAB: U's sweep the array
    itself with _KU superdiagonals, L's the view shifted by _KU entries,
    whose row 0 is the diagonal, with _KL subdiagonals.  The diagonal row
    holds 2/D, which neither unit sweep reads.  ``solve(b)`` overwrites a
    contiguous flat (k*nx,) mode vector b and returns
    2 (I + dt/2 A)^-1 b, the step's factor 2 folded into the 2/D scaling
    between the two sweeps: a power of two, so the result is exactly twice
    the unscaled solve.  ``product(b)`` overwrites such a b with
    (I + dt/2 A) b / 2 = L (U b / (2/D)), multiplied by BLAS ``dtbmv``
    from the band views that the sweeps read, to round-off of
    |L| |D| |U| |b| on refined factors too.  A zero or non-finite pivot
    raises LinAlgError naming the column and the mode by its index in the
    stack.

    Without interchanges the factors can grow: at eps = 0, the pivots of a
    mode whose D1 term dominates (xi_m dt / hx large) alternate between
    O(1) and O((xi_m dt / hx)^2).  Where the growth (|L| |D| |U| 1) /
    (|I + dt/2 A| 1) of some row passes ``_REFINE_GROWTH``, every solve
    adds one step of iterative refinement (Skeel 1980), which brings the
    componentwise backward error back to round-off; only then is
    ``form()`` called a second time, for the residual.

    Working set, in stacks of _LDAB k nx floats: the one array, which is
    kept, and a few (k, nx) rows for the growth, 2.06 stacks at the peak
    on C07's 127x383 strip's half stack and 1.89 on its full stack
    (tracemalloc; 2.36 when L and U were copied out of the array, 3.52
    when a band stack was formed beside it).  A refined solve also keeps
    the halved system.
    """
    factors, refine = _band_lu(form, nx)
    upper = factors[:-_KU].reshape(-1, _LDAB).T
    lower = factors[_KU:].reshape(-1, _LDAB).T  # row 0 the diagonal
    rdiag = upper[_KU]
    tbsv, tbmv = _blas().dtbsv, _blas().dtbmv

    def sweeps(b: np.ndarray) -> np.ndarray:
        tbsv(_KL, lower, b, lower=1, diag=1, overwrite_x=1)
        b *= rdiag
        tbsv(_KU, upper, b, diag=1, overwrite_x=1)
        return b

    def product(b: np.ndarray) -> np.ndarray:
        tbmv(_KU, upper, b, diag=1, overwrite_x=1)
        b /= rdiag
        tbmv(_KL, lower, b, lower=1, diag=1, overwrite_x=1)
        return b

    if not refine:
        return sweeps, product
    # Halved, the residual of the doubled solution is that of the solution, bit for bit.
    system = _band_stack(form(), nx)
    system *= 0.5
    k = system.shape[1]

    def refined(b: np.ndarray) -> np.ndarray:
        x = sweeps(b.copy())
        b -= _band_apply(system, x.reshape(k, nx)).reshape(-1)
        x += sweeps(b)
        return x

    return refined, product


def _band_lu(form, nx: int):
    """``form()``'s system, eliminated in place into L, U and 2/D, and whether to refine.

    The refinement is asked for where the growth passes ``_REFINE_GROWTH``.
    """
    with np.errstate(all="ignore"):  # a bad pivot is named below
        factors = form()
        lu = _band_stack(factors, nx)
        system_rows = _band_apply(lu, np.ones(lu.shape[1:]), magnitudes=True)  # |I + dt/2 A| 1
        # rows[r][j]: band row r of column j, one entry per mode, a 1-D slice
        rows = list(lu.transpose(0, 2, 1))
        inv_pivot, product = rows[_KU], np.empty(lu.shape[1])
        for j in range(nx):
            np.divide(1.0, inv_pivot[j], out=inv_pivot[j])
            column = [rows[_KU + s][j] for s in range(1, _KL + 1)]
            for entry in column:
                entry *= inv_pivot[j]  # column j of L
            for e in range(1, min(_KU, nx - 1 - j) + 1):
                for s, entry in enumerate(column, 1):
                    np.multiply(entry, rows[_KU - e][j + e], out=product)
                    target = rows[_KU + s - e][j + e]
                    target -= product
        for e in range(1, _KU + 1):
            rows[_KU - e][e:] *= inv_pivot[:-e]  # each row of U over its pivot
    # lu now holds every mode's unit factors around 1/D in the diagonal row.
    if not (np.isfinite(factors).all() and lu[_KU].all()):
        bad = ~np.isfinite(lu).all(axis=0) | (lu[_KU] == 0.0)
        m, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise np.linalg.LinAlgError(f"I + dt/2 A has a zero or non-finite pivot without row "
                                    f"interchanges: mode {m}, column {j}")
    refine = _growth(lu, system_rows) > _REFINE_GROWTH
    lu[_KU] *= 2.0
    return factors, refine


def _growth(lu: np.ndarray, system_rows: np.ndarray) -> float:
    """The largest row growth (|L| |D| |U| 1) / (|I + dt/2 A| 1) of factors in band storage.

    Each sum runs diagonal by diagonal on (k, nx) slices in ``_band_apply``'s
    order; the unit diagonals of U and L enter as the first and the last term.
    """
    ones = np.ones(system_rows.shape)
    scaled_rows = _band_apply(lu, ones, range(1, _KU + 1), ones.copy(), magnitudes=True)
    scaled_rows /= np.abs(lu[_KU])  # |D| |U| 1
    growth = _band_apply(lu, scaled_rows, range(-_KL, 0), magnitudes=True)
    growth += scaled_rows
    growth /= system_rows
    return growth.max()


class Stepper:
    """Holds the factorized Crank-Nicolson system, the modal state and the
    nonlinear history.

    The implicit system I + dt/2 A is time-independent.  It is factored
    (``_factor``) by each ``start``, for the mode stack that run steps,
    in the array that ``LinearPart.implicit`` forms for it; ``Stepper()``
    builds no stack.  The nonlinear term's scale is the one constant
    ``_nonlin_scale`` (see ``advance``).

    The state is its transverse-mode stack alone: ``start`` begins a run
    from a physical interior (one forward DST) and ``advance`` steps the
    modes.  The physical columns are a cache: ``start`` keeps the datum's,
    every ``advance`` drops them, and they are built again by one inverse
    DST only when something reads them: the next step's nonlinear term,
    ``interior`` (a trace row, a snapshot, the final state), or a
    ``blown_up`` test that the modal bound cannot settle.  A linear run
    thus pays one inverse DST per trace row or snapshot and none in
    between.

    D_yy and the x-wise nonlinear term commute with the mirror y -> -y, so
    a datum on odd ny that equals its own y-mirror stays even: the stepper
    then holds only its even modes (see ``LinearPart``), the length of the
    held stack says so, and its cached columns are the lower (ny+1)/2.
    ``simulate`` samples its trace rows on those columns (``trace_row``
    takes them as they are); ``interior`` mirrors them into the full
    interior for a snapshot, the final state and a blow-up report.
    """

    def __init__(self, config: SimConfig, grid: Grid | None = None):
        self.config = config
        self.linear_part = LinearPart(_run_grid(config, grid), config.alpha, config.epsilon)
        # The one place the nonlinear term's scale lives.  F = (u^2)_x, with
        # coefficient 1 (twice ZK's u u_x, ROADMAP item 1), is ``_nonlin``'s
        # sums s over divisor * hx, and a step adds -dt/2 times the AB2
        # extrapolation 3/2 F_n - 1/2 F_(n-1) = 3/2 (s_n - s_(n-1)/3) / (divisor * hx).
        hx = self.linear_part.grid.hx
        self._nonlin_scale = -0.5 * config.dt * 1.5 / (calculus._ROWS["d1"].divisor * hx)
        self._solve = self._product = None  # _factor's pair for the run's mode stack
        self._nonlin_prev: np.ndarray | None = None  # the last step's sums s_(n-1)
        self._modes: np.ndarray | None = None
        self._interior: np.ndarray | None = None  # cached columns, all or the lower half

    def _nonlin(self, interior: np.ndarray) -> np.ndarray:
        """The centered d1 row's sums over u^2 at every node, walls u = 0.

        Conservative; divided by the row's divisor * hx they are (u^2)_x,
        and ``_nonlin_scale`` holds that division.
        """
        u2 = interior * interior
        return calculus._d1_zero_walls(u2, np.empty_like(u2))

    def start(self, interior: np.ndarray) -> None:
        """Begin a fresh run from an (nx, ny) interior: one factorization, one forward DST.

        The nonlinear history is reset, so the first ``advance`` takes the
        Euler predictor step.  An interior equal to its y-mirror on odd ny
        is stepped on its even modes only.  A complex interior is a
        ValueError, as it is for a Field (``geometry._real``).
        """
        g = self.linear_part.grid
        interior = _real(interior)
        if interior.shape != (g.nx, g.ny):
            raise ValueError(f"start: interior shape {interior.shape} is not "
                             f"(nx, ny) = {g.nx, g.ny}")
        if g.ny % 2 == 1 and np.array_equal(interior, interior[:, ::-1]):
            interior = interior[:, :(g.ny + 1) // 2]
        self._solve, self._product = _factor(
            functools.partial(self.linear_part.implicit, interior.shape[1], self.config.dt), g.nx)
        self._interior = interior.copy()
        self._interior.flags.writeable = False
        self._modes = self.linear_part.to_modes(self._interior)
        self._nonlin_prev = None

    def advance(self) -> None:
        """One IMEX step of the held modal state.

        Uses (I + hA)^-1 [(I - hA) m - dt F] = 2 (I + hA)^-1 (m - h F) - m
        with h = dt/2 and F the DST of the extrapolated nonlinear term (zero
        for a linear run), so a step is one banded solve, which returns the
        factor 2 with it, and no operator apply.  -h F is ``_nonlin_scale``
        times the DST of s_n - s_(n-1)/3 (two passes over the columns), or
        on the first step of s/1.5 at an Euler predictor's half step, whose
        m - h A m is 2 (m - p) with p = (I + hA) m / 2, the factors'
        ``product``.  The step drops the cached physical columns.  A
        nonlinear step reads them, built by one inverse DST unless a reader
        since the last step built them, and transforms F in by one forward
        DST; a linear step takes no DST.
        """
        m = self._state()
        lp = self.linear_part
        if self.config.linear:
            rhs = m.copy()
        else:
            u = self._held()
            s_now = self._nonlin(u)
            if self._nonlin_prev is None:
                # u - h (A u + F_n), then the sums there on the AB2 scale.
                predicted = lp.from_modes(2.0 * (m - self._product(m.flatten()).reshape(m.shape)))
                predicted += (self._nonlin_scale / 1.5) * s_now
                t = self._nonlin(predicted)
                t /= 1.5
            else:
                t = self._nonlin_prev * (-1.0 / 3.0)
                t += s_now
            self._nonlin_prev = s_now
            rhs = lp.to_modes(t)
            rhs *= self._nonlin_scale
            rhs += m
        x = self._solve(rhs.reshape(-1)).reshape(m.shape)
        x -= m
        self._modes, self._interior = x, None

    def _state(self) -> np.ndarray:
        """The held mode stack; a RuntimeError before the first ``start``."""
        if self._modes is None:
            raise RuntimeError("the stepper has no state: call start first")
        return self._modes

    def _held(self) -> np.ndarray:
        """The physical columns of the held stack, all ny or the lower half, read-only.

        Built by one inverse DST if not cached; a transposed view of a
        C-contiguous (columns, nx) array once a step has run.
        """
        if self._interior is None:
            u = self.linear_part.from_modes(self._state())
            u.flags.writeable = False
            self._interior = u
        return self._interior

    def interior(self) -> np.ndarray:
        """The (nx, ny) physical state, read-only; one inverse DST per step at most.

        A held even half is mirrored into a new array on every call.
        """
        u = self._held()
        if self.linear_part.grid.is_half(u.shape[1]):
            u = np.concatenate((u, u[:, -2::-1]), axis=1)
            u.flags.writeable = False
        return u

    def blown_up(self) -> bool:
        """True when max |u| exceeds the threshold or a value is NaN/inf.

        One upper bound on max |u| clears a state before the exact test:
        the sum of |m_mi| over the whole mode stack (one BLAS dasum), over
        ny + 1.  scipy's unnormalised DST-I gives |u_ij| <= sum_m |m_mi| /
        (ny + 1), and an even-half stack holds the nonzero modes on that
        scale.  The bound must stay below the threshold by a relative
        margin of 1e-9, which covers the rounding of the sum and of the
        inverse DST.  Only a state that it cannot clear pays the inverse
        DST and the exact max |u|.  A NaN or inf makes the sum NaN or inf,
        which fails the <=, so it reaches the exact test.
        """
        bound = BLOWUP_THRESHOLD * (1.0 - 1e-9) * (self.linear_part.grid.ny + 1)
        if _blas().dasum(np.ravel(self._state(), order="K")) <= bound:
            return False
        # NaN fails <=, so a non-finite value anywhere counts as blow-up.
        return not np.max(np.abs(self._held())) <= BLOWUP_THRESHOLD


class BlowupError(RuntimeError):
    """Raised when the state exceeds the blow-up threshold or turns non-finite.

    ``node`` is the grid node (i, j) of the first non-finite value, or of
    the largest |u| when every value is finite; ``magnitude`` is the
    largest finite |u|.
    """

    def __init__(self, n: int, t: float, magnitude: float, node: tuple[int, int]):
        super().__init__(f"solution blew up at step {n}, t={t}, node {node}: "
                         f"max |u| ~ {magnitude:.3e}")
        self.n = n
        self.t = t
        self.magnitude = magnitude
        self.node = node

    def to_dict(self) -> dict:
        return {"n": self.n, "t": self.t, "node": list(self.node),
                "magnitude": self.magnitude}

    @classmethod
    def at(cls, n: int, t: float, interior: np.ndarray) -> "BlowupError":
        """The error for a blown-up (nx, ny) interior at step n."""
        finite = np.isfinite(interior)
        mag = np.abs(interior)
        flat = np.argmax(mag) if finite.all() else np.argmin(finite)
        i, j = np.unravel_index(flat, interior.shape)
        return cls(n, t, float(np.max(mag[finite], initial=0.0)), (int(i) + 1, int(j) + 1))


def simulate(config: SimConfig) -> Trajectory:
    """Run the IBVP from t=0 to t_end; deterministic given the config.

    On blow-up the trajectory is returned with the partial trace,
    ``aborted_at`` and the ``blowup`` details set instead of raising.
    """
    grid = config.grid()
    u0 = initial_field(config)
    stepper = Stepper(config)
    snapshots = [(0.0, u0)]
    with _overflow_names(config.initial):  # initial_field's rule for the datum
        i0 = calculus.initial_regularity(u0)
    stepper.start(u0.interior)
    rows = [(0.0,) + calculus.trace_row(stepper._held(), grid)]
    blowup = None
    n_steps = config.n_steps
    for n in range(1, n_steps + 1):
        stepper.advance()
        t = n * config.dt
        if stepper.blown_up():
            blowup = BlowupError.at(n, t, stepper.interior())
            break
        if n % config.trace_stride == 0 or n == n_steps:
            rows.append((t,) + calculus.trace_row(stepper._held(), grid))
        if n % config.snapshot_stride == 0 and n != n_steps:
            snapshots.append((t, u0.with_interior(stepper.interior())))
    if blowup is None:
        final = stepper.interior()
        del stepper  # its factors go before the final snapshot's full-grid arrays are built
        snapshots.append((n_steps * config.dt, u0.with_interior(final)))
    cols = list(zip(*rows))
    trace = EnergyTrace(*(np.asarray(c, dtype=float) for c in cols), i0_initial=i0)
    return Trajectory(config=config, snapshots=snapshots, trace=trace, blowup=blowup)


@dataclass(frozen=True)
class SweepResult:
    """Regularization sweep output: one trajectory per epsilon, in the given order."""

    trajectories: list
    pairwise_distances: list
    distances_to_limit: list


def simulate_regularized_sweep(config: SimConfig, epsilons) -> SweepResult:
    """Run the same problem for a decreasing list of regularization strengths.

    Reports the pairwise terminal distances d_i = ||u_{eps_i}(T) -
    u_{eps_{i+1}}(T)|| and, when the last entry is the smallest, each
    state's distance to that terminal state (the passage-to-the-limit
    view).  A trailing epsilon of exactly 0 is allowed; a member that blows
    up raises a ValueError naming its epsilon and blow-up step and time.
    Each member must pass the config's epsilon rule as given, before it is
    converted to a float, so a bool or a string is rejected, not run.
    """
    epsilons = list(epsilons)
    for e in epsilons:
        _check_epsilon(e)
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilons")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    configs = [replace(config, epsilon=e) for e in eps]
    trajectories = []
    for e, c in zip(eps, configs):
        tr = simulate(c)
        if tr.blowup is not None:
            raise ValueError(f"sweep member epsilon={e!r} blew up at step {tr.blowup.n}, "
                             f"t={tr.blowup.t}")
        trajectories.append(tr)
    grid = config.grid()

    def dist(a: Field, b: Field) -> float:
        d = a.values - b.values
        return math.sqrt(calculus.integrate(d * d, grid))

    finals = [tr.final for tr in trajectories]
    pairwise = [dist(a, b) for a, b in zip(finals, finals[1:])]
    to_limit = [dist(f, finals[-1]) for f in finals[:-1]]
    return SweepResult(trajectories=trajectories,
                       pairwise_distances=pairwise, distances_to_limit=to_limit)


# ---------------------------------------------------------------------------
# snapshot files (external interface)

SNAPSHOT_MAGIC = b"ZKSNAP1\n"
_SNAPSHOT_HEADER = struct.Struct("<ddqqd")


def write_snapshot(path, t: float, fld: Field) -> None:
    """Binary grid dump.

    Layout (little-endian): 8-byte magic "ZKSNAP1\\n"; float64 L, B;
    int64 nx, ny; float64 t; then (nx+2)*(ny+2) float64 node values in
    row-major order (x index outermost), boundary layer included.
    """
    g = fld.grid
    header = _SNAPSHOT_HEADER.pack(g.L, g.B, g.nx, g.ny, t)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[float, Field]:
    """Read a ``write_snapshot`` file, validating the header and the length.

    The grid is built from the header, whose t must be finite, before any
    payload is read, and the payload must be exactly (nx+2)*(ny+2) float64
    values, which the Field holds uncopied; every ValueError names the path
    and the cause.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a zklab snapshot")
        header = fh.read(_SNAPSHOT_HEADER.size)
        if len(header) != _SNAPSHOT_HEADER.size:
            raise ValueError(f"{path}: header is {len(header)} bytes, "
                             f"expected {_SNAPSHOT_HEADER.size}")
        L, B, nx, ny, t = _SNAPSHOT_HEADER.unpack(header)
        try:
            grid = Grid(L, B, nx, ny)
            if not math.isfinite(t):
                raise ValueError(f"t must be finite, got {t!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: bad header: {exc}") from exc
        count = (nx + 2) * (ny + 2)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * count:
            raise ValueError(f"{path}: payload is {payload} bytes, but nx={nx}, "
                             f"ny={ny} need {8 * count}")
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
    try:
        return t, Field(grid, _Fresh(data.reshape(nx + 2, ny + 2)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
