"""Time integration of the ZK initial-boundary value problem.

Semi-discrete form: u_t = -(alpha u_x + u_xxx + u_xyy + eps(u_xxxx+u_yyyy))
- u u_x on the interior unknowns, with walls u = 0, outflow u_x(L,.) = 0,
and for eps > 0 the extra regularization conditions u_yy(x,+-B) = 0 and
u_xx(0,.) = 0.

The y-direction second derivative is the Dirichlet tridiagonal, so the
whole linear part block-diagonalizes under the type-I discrete sine
transform in y: each transverse mode m evolves by an nx-by-nx matrix

    A_m = D3 + (alpha - xi_m) D1 + eps (D4x + xi_m^2 I).

Time stepping is Crank-Nicolson on the linear part (one banded LU of
I + dt/2 A, reused across steps) with the conservative nonlinearity (u^2/2)_x
treated explicitly by second-order Adams-Bashforth extrapolation to the
half step; the first step uses a single explicit Euler predictor.

The stepper keeps the state as its (ny, nx) transverse-mode stack m, and
one step is m <- 2 (I + dt/2 A)^-1 (m - dt/2 F) - m, where F is the DST of
the extrapolated nonlinear term (zero for a linear run).  Physical values
are built by the inverse DST only where something reads them.  Since the
unnormalised DST-I gives |u_ij| <= sum_m |m_mi| / (ny + 1), a modal state
can be cleared of blow-up without the inverse transform.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dst, idst

from . import calculus, spectral
from .geometry import (Field, Grid, RECTANGLE, TRUNCATED_STRIP, build_grid,
                       enforce_dirichlet, sample_field)

BLOWUP_THRESHOLD = 1.0e6

_CONFIG_DEFAULTS = {
    "dt": 1e-3,
    "domain_kind": RECTANGLE,
    "alpha": 1,
    "epsilon": 0.0,
    "linear": False,
    "initial": "zero",
    "scale_weighted": None,
    "snapshot_stride": 10 ** 9,
    "trace_stride": 10,
}


@dataclass(frozen=True)
class SimConfig:
    """Validated simulation configuration (flat, JSON-serializable)."""

    L: float
    B: float
    nx: int
    ny: int
    dt: float
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
        for name in ("L", "B", "dt", "t_end"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if type(self.alpha) is not int or self.alpha not in (0, 1):
            raise ValueError(f"alpha must be 0 or 1, got {self.alpha!r}")
        if not (isinstance(self.epsilon, (int, float)) and self.epsilon >= 0
                and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon!r}")
        if not isinstance(self.linear, bool):
            raise ValueError(f"linear must be a bool, got {self.linear!r}")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 8):
                raise ValueError(f"{name} must be an integer >= 8, got {v!r}")
        for name in ("snapshot_stride", "trace_stride"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.scale_weighted is not None and not (
                isinstance(self.scale_weighted, (int, float)) and self.scale_weighted > 0):
            raise ValueError(
                f"scale_weighted must be positive when given, got {self.scale_weighted!r}")
        if self.domain_kind not in (RECTANGLE, TRUNCATED_STRIP):
            raise ValueError(f"domain_kind invalid: {self.domain_kind!r}")
        if self.n_steps < 1:
            raise ValueError("t_end must cover at least one step")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end!r} is not a whole number of steps "
                             f"of dt={self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def grid(self) -> Grid:
        return build_grid(self.L, self.B, self.nx, self.ny, self.domain_kind)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return d


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from a flat mapping; unknown keys are rejected."""
    known = set(SimConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    required = {"L", "B", "nx", "ny", "t_end"}
    missing = required - set(raw)
    if missing:
        raise ValueError(f"missing required config keys: {sorted(missing)}")
    merged = dict(_CONFIG_DEFAULTS)
    merged.update(raw)
    return SimConfig(**merged)


# ---------------------------------------------------------------------------
# initial data

def initial_field(config: SimConfig, grid: Grid | None = None) -> Field:
    """Sample the configured initial datum onto the grid, Dirichlet-clean."""
    g = grid if grid is not None else config.grid()
    spec_ = config.initial
    if isinstance(spec_, dict):
        if set(spec_) != {"file"}:
            raise ValueError(f"initial: file reference must be {{'file': path}}, got {spec_!r}")
        fld = read_snapshot(spec_["file"])[1]
        if fld.grid.shape != g.shape:
            raise ValueError("initial: snapshot grid does not match config grid")
        fld = Field(g, fld.values)
    elif spec_ == "zero":
        fld = sample_field(g, lambda x, y: np.zeros_like(x))
    elif isinstance(spec_, str) and spec_.startswith("mode:"):
        try:
            k, l, n = (int(s) for s in spec_[5:].split(","))
        except Exception as exc:
            raise ValueError(f"initial: cannot parse mode tag {spec_!r}") from exc
        mode = spectral.stationary_mode(k, l, n, g.B)
        if abs(mode.triple.L - g.L) > 1e-9 * g.L:
            raise ValueError(
                f"initial: grid L={g.L} does not host the critical length "
                f"{mode.triple.L} of mode {spec_!r}")
        fld = sample_field(g, mode)
    elif isinstance(spec_, str) and spec_.startswith("cos-product:"):
        amp = float(spec_.split(":", 1)[1])
        fld = sample_field(g, lambda x, y: amp * (1.0 - np.cos(2.0 * np.pi * x / g.L))
                           * np.cos(np.pi * y / (2.0 * g.B)))
    elif isinstance(spec_, str) and spec_.startswith("cos-bump:"):
        try:
            amp_s, r_s = spec_.split(":", 1)[1].split(",")
            amp, r = float(amp_s), float(r_s)
        except Exception as exc:
            raise ValueError(f"initial: cannot parse cos-bump tag {spec_!r}") from exc
        if not (0 < r <= g.B):
            raise ValueError(f"initial: bump radius {r} outside (0, B]")
        if g.domain_kind == TRUNCATED_STRIP and g.B < 4.0 * r:
            raise ValueError(
                f"initial: strip truncation needs B >= 4x the bump radius "
                f"(B={g.B}, r={r})")

        def bump(x, y):
            q = np.clip(1.0 - (y / r) ** 2, 0.0, None) ** 3
            return amp * (1.0 - np.cos(2.0 * np.pi * x / g.L)) * q

        fld = sample_field(g, bump)
    else:
        raise ValueError(f"initial: unknown tag {spec_!r}")
    fld = enforce_dirichlet(fld)
    if config.scale_weighted is not None:
        w = calculus.weighted_energy(fld)
        if w == 0.0:
            raise ValueError("scale_weighted: initial datum is identically zero")
        fld = Field(fld.grid, fld.values * math.sqrt(config.scale_weighted / w),
                    dirichlet_clean=True)
    return fld


# ---------------------------------------------------------------------------
# discrete operators in x and the transverse eigenvalues

def _d1_matrix(n: int, h: float) -> np.ndarray:
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0
    d[idx + 1, idx] = -1.0
    return d / (2.0 * h)


def _d3_matrix(n: int, h: float) -> np.ndarray:
    """Third derivative with u(0)=0 biased closure and u_x(L)=0 mirror."""
    d = np.zeros((n, n))
    i = np.arange(1, n - 1)
    d[i[1:], i[1:] - 2] = -1.0
    d[i, i - 1] = 2.0
    d[i, i + 1] = -2.0
    d[i[:-1], i[:-1] + 2] = 1.0
    d[0, 0:4] = (10.0, -12.0, 6.0, -1.0)
    d[n - 1, n - 3:n] = (-1.0, 2.0, 1.0)
    return d / (2.0 * h ** 3)


def _d4x_matrix(n: int, h: float) -> np.ndarray:
    """Fourth derivative with u_xx(0)=0 reflection and u_x(L)=0 mirror."""
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[1:], idx[1:] - 1] = 1.0
    lap /= h ** 2
    d4 = lap @ lap
    d4[n - 1, n - 1] += 2.0 / h ** 4
    return d4


def transverse_eigenvalues(ny: int, hy: float) -> np.ndarray:
    """Eigenvalues xi_m of -D_yy (Dirichlet tridiagonal), DST-I ordering."""
    m = np.arange(1, ny + 1)
    return 4.0 * np.sin(np.pi * m / (2.0 * (ny + 1))) ** 2 / hy ** 2


# Bandwidths of every A_m: the _d3_matrix row at the u(0) = 0 wall reaches
# three columns right, every other stencil two columns either side.
_KL, _KU = 2, 3


def _bands(d: np.ndarray) -> np.ndarray:
    """Dense (n, n) matrix -> BLAS band storage: d[i, j] at [_KU + i - j, j]."""
    n = d.shape[0]
    b = np.zeros((_KL + _KU + 1, n))
    for k in range(-_KL, _KU + 1):
        b[_KU - k, max(k, 0):n + min(k, 0)] = np.diagonal(d, k)
    return b


class LinearPart:
    """The linear spatial operator: ``bands[:, m]`` is ``_bands(A_m)``, (6, ny, nx)."""

    def __init__(self, grid: Grid, alpha: int, epsilon: float):
        if alpha not in (0, 1):
            raise ValueError(f"alpha must be 0 or 1, got {alpha}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if grid.nx < 5 or grid.ny < 3:
            raise ValueError("grid too coarse for the operator stencils")
        self.grid = grid
        nx, hx = grid.nx, grid.hx
        xi = transverse_eigenvalues(grid.ny, grid.hy)[:, None]
        self.bands = (alpha - xi) * _bands(_d1_matrix(nx, hx))[:, None, :]
        self.bands += _bands(_d3_matrix(nx, hx))[:, None, :]
        if epsilon > 0:
            self.bands += epsilon * _bands(_d4x_matrix(nx, hx))[:, None, :]
            self.bands[_KU] += epsilon * xi ** 2

    def to_modes(self, interior: np.ndarray) -> np.ndarray:
        """(nx, ny) physical interior -> C-contiguous (ny, nx) transverse-mode stack."""
        return dst(interior.T, type=1, axis=0)

    def from_modes(self, modes: np.ndarray) -> np.ndarray:
        """(ny, nx) mode stack -> (nx, ny) physical interior (a transposed view)."""
        return idst(modes, type=1, axis=0).T

    def apply_interior(self, interior: np.ndarray) -> np.ndarray:
        """A u on the interior: one DST round trip and a banded stencil."""
        modes = self.to_modes(interior)
        out = np.zeros_like(modes)
        for k in range(-_KL, _KU + 1):
            lo, hi = max(0, -k), self.grid.nx - max(0, k)
            out[:, lo:hi] += self.bands[_KU - k, :, lo + k:hi + k] * modes[:, lo + k:hi + k]
        return self.from_modes(out)

    def apply(self, fld: Field) -> Field:
        """A u as a Field (boundary layer zeroed)."""
        if fld.grid.shape != self.grid.shape:
            raise ValueError("field grid does not match operator grid")
        return fld.with_interior(self.apply_interior(fld.interior.copy()))


def assemble_linear_part(grid: Grid, alpha: int, epsilon: float = 0.0) -> LinearPart:
    """alpha*Dx + Dxxx + Dxyy + eps*(Dx4 + Dy4) with the IBVP closures."""
    return LinearPart(grid, alpha, epsilon)


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
    """Simulation output: config echo, snapshots, energy trace.

    ``blowup`` is the unraised ``BlowupError`` (step, time, node and
    magnitude) of a run that blew up, and None otherwise.
    """

    config: SimConfig
    grid: Grid
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

class Stepper:
    """Holds the factorized Crank-Nicolson system, the modal state and the
    nonlinear history.

    The implicit system I + dt/2 A is time-independent: its mode blocks are
    stacked into one band matrix of order ny*nx and factored once by LAPACK
    ``dgbtrf``.  The entries coupling neighbouring blocks are zero, so partial
    pivoting never crosses a block and the factors are those of a per-mode LU.

    Which modes pivot depends on the mode, dt, the grid and eps: at
    dt = 1e-3, modes 104-126 of a 127x127 grid on (0, 2) x (-1, 1) pivot.
    The ``head`` modes before the first row interchange are solved by two
    triangular band sweeps and the rest by ``dgbtrs``; the result is that of
    one ``dgbtrs`` call on the whole system.

    The state lives between steps as its (ny, nx) transverse-mode stack:
    ``start`` loads a physical interior (one forward DST), ``advance`` steps
    the modes in place and ``interior`` returns the physical state, built by
    at most one inverse DST per step.  A nonlinear step builds it at once,
    because the next step's nonlinear term reads it; a linear step builds it
    only when asked, so a linear run pays one inverse DST per trace row or
    snapshot and none in between.
    """

    def __init__(self, config: SimConfig, grid: Grid | None = None):
        # Imported here: scipy.linalg adds ~6 MiB to a process that never steps.
        from scipy.linalg import blas, lapack
        self.config = config
        self.grid = grid if grid is not None else config.grid()
        self.linear_part = assemble_linear_part(self.grid, config.alpha, config.epsilon)
        nx, ny = self.grid.nx, self.grid.ny
        ldab = 2 * _KL + _KU + 1  # dgbtrf wants _KL extra rows for pivoting fill-in
        # The spare last column keeps the lower-band view below inside buf.
        buf = np.zeros((ldab, nx * ny + 1), order="F")
        ab = buf[:, :-1]
        np.multiply(self.linear_part.bands.reshape(_KL + _KU + 1, -1), 0.5 * config.dt,
                    out=ab[_KL:])
        ab[_KL + _KU] += 1.0
        self.lu, self.piv, info = lapack.dgbtrf(ab, _KL, _KU, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgbtrf failed on I + dt/2 A: info={info}")
        # The modes before the first row interchange form the head.
        swaps = np.flatnonzero(self.piv != np.arange(self.piv.size, dtype=self.piv.dtype))
        self.head = ny if swaps.size == 0 else int(swaps[0]) // nx
        h = self.head * nx
        # The factors are column-major in buf.  Read _KL + _KU rows down, they
        # are an (ldab, h) array whose first _KL + 1 rows hold the unit
        # diagonal and the multipliers: the unit-lower band storage dtbsv reads
        # (it reads no other row), without a copy.
        flat = buf.reshape(-1, order="F")
        self._head_lower = flat[_KL + _KU:_KL + _KU + ldab * h].reshape((ldab, h), order="F")
        self._head_upper = self.lu[:, :h]
        self._tail_lu = self.lu[:, h:]
        self._tail_piv = self.piv[h:] - h
        self._tbsv = blas.dtbsv
        self._gbtrs = lapack.dgbtrs
        self.steps = 0
        self._nonlin_prev: np.ndarray | None = None
        self._modes: np.ndarray | None = None
        self._interior: np.ndarray | None = None

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """(I + dt/2 A)^-1 b in place on a contiguous flat mode vector.

        Head modes never pivot, so their LU solve is two triangular band
        sweeps; ``dgbtrs`` would make one ``dger`` call per column for the
        same arithmetic.  Both wrappers write into a contiguous float64 view.
        """
        h = self._head_upper.shape[1]
        if h:
            self._tbsv(_KL, self._head_lower, b[:h], lower=1, diag=1, overwrite_x=1)
            self._tbsv(_KL + _KU, self._head_upper, b[:h], overwrite_x=1)
        if h < b.size:
            self._gbtrs(self._tail_lu, _KL, _KU, b[h:], self._tail_piv, overwrite_b=1)
        return b

    def _nonlin(self, interior: np.ndarray) -> np.ndarray:
        """(u^2/2)_x in conservative form; walls carry u = 0."""
        h = self.grid.hx
        u2 = interior * interior
        out = np.empty_like(interior)
        out[0, :] = u2[1, :] / (2.0 * h)
        out[-1, :] = -u2[-2, :] / (2.0 * h)
        out[1:-1, :] = (u2[2:, :] - u2[:-2, :]) / (2.0 * h)
        return out

    def start(self, interior: np.ndarray) -> None:
        """Load an (nx, ny) physical interior as the state: one forward DST.

        The nonlinear history and the step count carry on, so ``step`` can
        continue a run from the Field it returned.
        """
        self._interior = interior.copy()
        self._interior.flags.writeable = False
        self._modes = self.linear_part.to_modes(self._interior)

    def advance(self) -> None:
        """One IMEX step of the held modal state.

        Uses (I + hA)^-1 [(I - hA) m - dt F] = 2 (I + hA)^-1 (m - h F) - m
        with h = dt/2 and F the DST of the extrapolated nonlinear term (zero
        for a linear run), so a step is one banded solve and no operator
        apply.  A nonlinear step takes two DSTs (F in, the state out); a
        linear step takes none.
        """
        if self._modes is None:
            raise RuntimeError("advance before start")
        lp = self.linear_part
        dt = self.config.dt
        m = self._modes
        if self.config.linear:
            rhs = m.copy()
        else:
            u = self._interior
            n_now = self._nonlin(u)
            if self._nonlin_prev is None:
                predicted = u - 0.5 * dt * (lp.apply_interior(u) + n_now)
                n_half = self._nonlin(predicted)
            else:
                n_half = 1.5 * n_now - 0.5 * self._nonlin_prev
            self._nonlin_prev = n_now
            rhs = lp.to_modes(n_half)
            rhs *= -0.5 * dt
            rhs += m
        x = self._solve(rhs.reshape(-1)).reshape(m.shape)
        x *= 2.0
        x -= m
        self._modes = x
        self._interior = None if self.config.linear else self._physical()
        self.steps += 1

    def _physical(self) -> np.ndarray:
        u = self.linear_part.from_modes(self._modes)
        u.flags.writeable = False
        return u

    def interior(self) -> np.ndarray:
        """The (nx, ny) physical state, read-only; one inverse DST per step at most."""
        if self._interior is None:
            if self._modes is None:
                raise RuntimeError("interior before start")
            self._interior = self._physical()
        return self._interior

    def blown_up(self) -> bool:
        """True when max |u| exceeds the threshold or a value is NaN/inf.

        Scipy's unnormalised DST-I gives |u_ij| <= sum_m |m_mi| / (ny + 1).
        When the physical state is not built and that bound stays below the
        threshold by a relative margin of 1e-9 (which covers the rounding of
        the sum and of the inverse DST), blow-up is ruled out without an
        inverse DST; otherwise the exact test runs on ``interior()``.
        """
        if self._interior is None:
            col = np.abs(self._modes).sum(axis=0)
            if np.max(col) <= BLOWUP_THRESHOLD * (1.0 - 1e-9) * (self.grid.ny + 1):
                return False
        # NaN fails <=, so a non-finite value anywhere counts as blow-up.
        return not np.max(np.abs(self.interior())) <= BLOWUP_THRESHOLD

    def step(self, fld: Field) -> Field:
        """One step from a clean state Field, continuing this stepper's history."""
        if not fld.dirichlet_clean:
            raise ValueError("step requires a dirichlet_clean state")
        # The Field this stepper last returned continues from the held modes,
        # without a forward DST.
        if self._interior is None or not np.array_equal(fld.interior, self._interior):
            self.start(fld.interior)
        self.advance()
        if self.blown_up():
            raise BlowupError.at(self.steps, self.steps * self.config.dt, self.interior())
        return fld.with_interior(self.interior())


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
    u0 = initial_field(config, grid)
    stepper = Stepper(config, grid)
    snapshots = [(0.0, u0)]
    i0 = calculus.initial_regularity(u0)
    stepper.start(u0.interior)
    rows = [(0.0,) + calculus.trace_row(stepper.interior(), grid)]
    blowup = None
    n_steps = config.n_steps
    for n in range(1, n_steps + 1):
        stepper.advance()
        t = n * config.dt
        if stepper.blown_up():
            blowup = BlowupError.at(n, t, stepper.interior())
            break
        if n % config.trace_stride == 0 or n == n_steps:
            rows.append((t,) + calculus.trace_row(stepper.interior(), grid))
        if n % config.snapshot_stride == 0 and n != n_steps:
            snapshots.append((t, u0.with_interior(stepper.interior())))
    if blowup is None:
        snapshots.append((n_steps * config.dt, u0.with_interior(stepper.interior())))
    cols = list(zip(*rows))
    trace = EnergyTrace(*(np.asarray(c, dtype=float) for c in cols), i0_initial=i0)
    return Trajectory(config=config, grid=grid, snapshots=snapshots, trace=trace,
                      blowup=blowup)


@dataclass(frozen=True)
class SweepResult:
    """Regularization sweep output: one trajectory per epsilon."""

    epsilons: tuple
    trajectories: list
    pairwise_distances: list
    distances_to_limit: list


def simulate_regularized_sweep(config: SimConfig, epsilons) -> SweepResult:
    """Run the same problem for a decreasing list of regularization strengths.

    Reports the pairwise terminal distances d_i = ||u_{eps_i}(T) -
    u_{eps_{i+1}}(T)|| and, when the last entry is the smallest, each
    state's distance to that terminal state (the passage-to-the-limit
    view).  A trailing epsilon of exactly 0 is allowed.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilons")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if any(e < 0 for e in eps):
        raise ValueError("epsilons must be >= 0")
    trajectories = [simulate(replace(config, epsilon=e)) for e in eps]
    grid = trajectories[0].grid

    def dist(a: Field, b: Field) -> float:
        d = a.values - b.values
        return math.sqrt(calculus.integrate(d * d, grid))

    finals = [tr.final for tr in trajectories]
    pairwise = [dist(a, b) for a, b in zip(finals, finals[1:])]
    to_limit = [dist(f, finals[-1]) for f in finals[:-1]]
    return SweepResult(epsilons=tuple(eps), trajectories=trajectories,
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

    The grid is built from the header before any payload is read, and the
    payload must be exactly (nx+2)*(ny+2) float64 values; every ValueError
    names the path and the cause.
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
            grid = build_grid(L, B, nx, ny)
        except ValueError as exc:
            raise ValueError(f"{path}: bad header: {exc}") from exc
        count = (nx + 2) * (ny + 2)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * count:
            raise ValueError(f"{path}: payload is {payload} bytes, but nx={nx}, "
                             f"ny={ny} need {8 * count}")
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
    try:
        return t, Field(grid, data.reshape(nx + 2, ny + 2))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
