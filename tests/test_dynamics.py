import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zklab import (BlowupError, SimConfig, Stepper, assemble_linear_part, build_grid,
                   enforce_dirichlet, initial_field, integrate, read_snapshot,
                   sample_field, simulate, simulate_regularized_sweep,
                   stationary_mode, write_snapshot, zero_field)
from zklab.dynamics import (LinearPart, _d1_matrix, _d3_matrix, _d4x_matrix,
                            config_from_dict, transverse_eigenvalues)
from zklab.geometry import TRUNCATED_STRIP, Field
from zklab.harness import emit_artifacts, random_clean_field

CRIT_L = 4 * math.pi / math.sqrt(3)


def small_config(**over):
    base = dict(L=2.0, B=1.0, nx=31, ny=31, dt=1e-3, t_end=0.05,
                alpha=1, linear=False, initial="cos-product:0.4")
    base.update(over)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration

def test_config_defaults_and_required():
    c = config_from_dict({"L": 2.0, "B": 1.0, "nx": 16, "ny": 16, "t_end": 0.1})
    assert c.alpha == 1 and c.epsilon == 0.0 and not c.linear
    assert c.dt == 1e-3
    assert c.trace_stride == 10 and c.initial == "zero"
    with pytest.raises(ValueError, match="missing"):
        config_from_dict({"L": 2.0})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=2)
    with pytest.raises(ValueError, match="alpha must be 0 or 1"):
        small_config(alpha=True)
    with pytest.raises(ValueError, match="alpha must be 0 or 1"):
        small_config(alpha=1.0)
    with pytest.raises(ValueError, match="L"):
        small_config(L=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        small_config(epsilon=-1e-3)
    with pytest.raises(ValueError, match="trace_stride"):
        small_config(trace_stride=0)
    with pytest.raises(ValueError, match=r"t_end=0\.0505 is not a whole number of steps "
                                         r"of dt=0\.001"):
        small_config(t_end=0.0505)
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"L": 2.0, "B": 1.0, "nx": 16, "ny": 16,
                          "dt": 1e-3, "t_end": 0.1, "gamma": 3})


def test_initial_tags():
    cfg = small_config(initial="zero")
    assert not initial_field(cfg).values.any()
    cfg = small_config(initial="cos-product:0.5")
    fld = initial_field(cfg)
    assert fld.dirichlet_clean and fld.values.max() > 0.4
    cfg = small_config(L=CRIT_L, B=math.pi, initial="mode:1,1,1")
    fld = initial_field(cfg)
    assert abs(fld.values.max() - 1.0) < 1e-6
    with pytest.raises(ValueError, match="critical length"):
        initial_field(small_config(L=2.0, B=math.pi, initial="mode:1,1,1"))
    with pytest.raises(ValueError, match="unknown tag"):
        initial_field(small_config(initial="wavelet:1"))


def test_initial_scale_weighted():
    from zklab import weighted_energy
    cfg = small_config(initial="cos-product:1.0", scale_weighted=0.25)
    assert abs(weighted_energy(initial_field(cfg)) - 0.25) < 1e-12


def test_initial_bump_support():
    cfg = small_config(B=8.0, ny=63, domain_kind=TRUNCATED_STRIP,
                       initial="cos-bump:1.0,2.0")
    fld = initial_field(cfg)
    g = fld.grid
    mask_out = np.abs(g.ys()) >= 2.0
    assert not fld.values[:, mask_out].any()
    with pytest.raises(ValueError, match="4x"):
        initial_field(small_config(B=4.0, ny=63, domain_kind=TRUNCATED_STRIP,
                                   initial="cos-bump:1.0,2.0"))


# ---------------------------------------------------------------------------
# assembled linear operator

def test_operator_residual_on_mode_refines():
    mode = stationary_mode(1, 1, 1, math.pi)
    errs = {}
    for nx in (63, 127):
        g = build_grid(CRIT_L, math.pi, nx, nx)
        lp = assemble_linear_part(g, alpha=1, epsilon=0.0)
        f = enforce_dirichlet(sample_field(g, mode))
        errs[nx] = np.max(np.abs(lp.apply(f).values))
    assert 3.0 < errs[63] / errs[127] < 5.0


def dense_from_bands(bands: np.ndarray) -> np.ndarray:
    """(6, nx) band rows, A[i, j] at [3 + i - j, j] -> dense (nx, nx)."""
    n = bands.shape[1]
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 4)):
            a[i, j] = bands[3 + i - j, j]
    return a


def dense_mode_matrix(g, m, alpha, eps):
    """A_m = D3 + (alpha - xi_m) D1 + eps (D4x + xi_m^2 I), assembled densely."""
    xi = transverse_eigenvalues(g.ny, g.hy)[m]
    return (_d3_matrix(g.nx, g.hx) + (alpha - xi) * _d1_matrix(g.nx, g.hx)
            + eps * (_d4x_matrix(g.nx, g.hx) + xi ** 2 * np.eye(g.nx)))


def test_alpha_difference_is_dx():
    g = build_grid(2.0, 1.0, 16, 12)
    lp1 = assemble_linear_part(g, alpha=1)
    lp0 = assemble_linear_part(g, alpha=0)
    assert lp1.bands.shape == (6, g.ny, g.nx)
    diff = lp1.bands - lp0.bands
    d1 = _d1_matrix(g.nx, g.hx)
    for m in range(g.ny):
        assert np.max(np.abs(dense_from_bands(diff[:, m, :]) - d1)) < 1e-12


# The three solve regimes: no row interchange (every mode in the head), a
# short pivoting tail at ordinary dt, and a long step where most modes pivot.
# Which modes pivot depends on the mode, dt, the grid and eps, so the
# expected head is given per eps in (0.0, 1e-2).
SOLVE_REGIMES = {
    "no_swap": (dict(nx=24, ny=24, dt=1e-3, t_end=1e-3), (24, 24)),
    "mixed": (dict(nx=15, ny=31, dt=1e-3, t_end=1e-3), (29, 31)),
    "long_step": (dict(L=16.0, B=2.0, nx=15, ny=11, dt=10.0, t_end=10.0), (3, 4)),
}


# One step, and three consecutive steps carried in modal form.
@pytest.mark.parametrize("regime, eps, n_steps", [
    pytest.param(regime, eps, n, id=f"{regime}-{eps}" + ("" if n == 1 else f"-{n}steps"))
    for regime in SOLVE_REGIMES for eps in (0.0, 1e-2) for n in (1, 3)])
def test_linear_advance_matches_dense_per_mode_crank_nicolson(regime, eps, n_steps):
    from scipy.linalg import lapack
    over, heads = SOLVE_REGIMES[regime]
    cfg = small_config(linear=True, epsilon=eps, **over)
    g = cfg.grid()
    stepper = Stepper(cfg, g)
    rows = np.arange(g.nx * g.ny)
    assert stepper.head == heads[int(eps > 0)]
    assert np.array_equal(stepper.piv[:stepper.head * g.nx], rows[:stepper.head * g.nx])
    assert np.array_equal(stepper.piv // g.nx, rows // g.nx)
    b = np.random.default_rng(3).standard_normal(rows.size)
    ref = lapack.dgbtrs(stepper.lu, 2, 3, b, stepper.piv)[0]
    assert np.max(np.abs(stepper._solve(b.copy()) - ref)) <= 1e-14 * np.max(np.abs(ref))
    u = initial_field(cfg, g).interior.copy()
    lp = stepper.linear_part
    modes = lp.to_modes(u)
    eye = np.eye(g.nx)
    half = 0.5 * cfg.dt
    expected = np.empty_like(modes)
    for m in range(g.ny):
        a = dense_mode_matrix(g, m, cfg.alpha, eps)
        band_err = np.max(np.abs(dense_from_bands(lp.bands[:, m, :]) - a))
        assert band_err <= 1e-14 * np.max(np.abs(a))
        expected[m] = modes[m]
        for _ in range(n_steps):
            expected[m] = np.linalg.solve(eye + half * a, (eye - half * a) @ expected[m])
    expected = lp.from_modes(expected)
    stepper.start(u)
    for _ in range(n_steps):
        stepper.advance()
    got = stepper.interior()
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_import_leaves_scipy_linalg_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import zklab; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_regularization_quadratic_form_nonnegative():
    g = build_grid(2.0, 1.0, 24, 24)
    eps = 1e-2
    lp_eps = assemble_linear_part(g, alpha=1, epsilon=eps)
    lp0 = assemble_linear_part(g, alpha=1, epsilon=0.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = random_clean_field(g, rng)
        reg = lp_eps.apply(u).values - lp0.apply(u).values
        form = integrate(reg * u.values, g)
        norm_sq = integrate(u.values ** 2, g)
        assert form >= -1e-10 * norm_sq


def test_transverse_eigenvalues_match_dst_modes():
    ny, hy = 17, 0.1
    xis = transverse_eigenvalues(ny, hy)
    j = np.arange(1, ny + 1)
    for m in (1, 5, 17):
        v = np.sin(math.pi * m * j / (ny + 1))
        lap = np.zeros(ny)
        lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2])
        lap[0] = v[1] - 2 * v[0]
        lap[-1] = v[-2] - 2 * v[-1]
        lap /= hy ** 2
        assert np.max(np.abs(-lap - xis[m - 1] * v)) < 1e-9


# ---------------------------------------------------------------------------
# stepping

def test_step_zero_state_stays_zero():
    cfg = small_config()
    out = Stepper(cfg).step(zero_field(cfg.grid()))
    assert not out.values.any()


def test_step_requires_clean_state():
    cfg = small_config()
    dirty = sample_field(cfg.grid(), lambda x, y: np.ones_like(x))
    with pytest.raises(ValueError, match="clean"):
        Stepper(cfg).step(dirty)


@pytest.mark.parametrize("linear", [False, True])
def test_step_by_step_reproduces_simulate_bitwise(linear):
    cfg = small_config(linear=linear, t_end=0.005)
    stepper = Stepper(cfg)
    u = initial_field(cfg)
    for _ in range(cfg.n_steps):
        u = stepper.step(u)
    assert np.array_equal(u.values, simulate(cfg).final.values)


def test_single_step_consistency_on_stationary_mode():
    cfg = SimConfig(L=CRIT_L, B=math.pi, nx=63, ny=63, dt=1e-3, t_end=1e-3,
                    alpha=1, linear=True, initial="mode:1,1,1")
    u0 = initial_field(cfg)
    u1 = Stepper(cfg).step(u0)
    g = cfg.grid()
    num = math.sqrt(integrate((u1.values - u0.values) ** 2, g))
    den = math.sqrt(integrate(u0.values ** 2, g))
    assert num / den <= g.hx ** 2 + cfg.dt ** 2


def test_dt_halving_second_order():
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimConfig(L=2 * math.pi, B=math.pi, nx=63, ny=63, dt=dt,
                        t_end=1.0, alpha=1, linear=False,
                        initial="cos-product:0.4", trace_stride=10 ** 9)
        finals[dt] = simulate(cfg).final.values
    e1 = np.max(np.abs(finals[4e-3] - finals[2e-3]))
    e2 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
    assert 3.0 < e1 / e2 < 5.0


def test_space_self_convergence_second_order():
    finals = {}
    for n in (31, 63, 127):
        cfg = SimConfig(L=2 * math.pi, B=math.pi, nx=n, ny=n, dt=5e-4,
                        t_end=0.5, alpha=1, linear=False,
                        initial="cos-product:0.4", trace_stride=10 ** 9)
        finals[n] = simulate(cfg).final.interior
    # grids are nested: coarse interior node j maps to fine node 2j+1 (0-based)
    def restrict(fine):
        return fine[1::2, 1::2]

    e_c = np.max(np.abs(restrict(finals[63]) - finals[31]))
    e_f = np.max(np.abs(restrict(finals[127]) - finals[63]))
    assert 3.0 < e_c / e_f < 5.0


# ---------------------------------------------------------------------------
# trajectories

def test_simulate_deterministic_bitwise():
    cfg = small_config(t_end=0.02)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.final.values, b.final.values)
    assert np.array_equal(a.trace.weighted, b.trace.weighted)


def test_linear_l2_monotone():
    cfg = small_config(linear=True, t_end=0.5, nx=63, ny=63,
                       initial="cos-product:0.5", trace_stride=5)
    tr = simulate(cfg).trace
    assert np.all(np.diff(tr.l2_sq) <= 1e-12 * tr.l2_sq[0])


def test_trace_fields_finite_and_times_increase():
    cfg = small_config(t_end=0.05, trace_stride=7)
    tr = simulate(cfg).trace
    assert np.all(np.diff(tr.t) > 0)
    for name in ("l2_sq", "weighted", "flux0", "grad_x_sq", "grad_y_sq", "cubic"):
        assert np.all(np.isfinite(tr.column(name)))
    assert tr.i0_initial is not None and tr.i0_initial > 0
    assert np.all(tr.weighted >= tr.l2_sq * (1 - 1e-12))


def test_continuous_dependence():
    base = SimConfig(L=2.0, B=1.0, nx=63, ny=63, dt=2e-3, t_end=5.0,
                     alpha=1, linear=False, initial="cos-product:1.0",
                     scale_weighted=0.5 * 441 / 256, trace_stride=10 ** 9)
    ua = simulate(base).final
    g = ua.grid
    u0 = initial_field(base, g)
    bump = sample_field(g, lambda x, y: np.sin(np.pi * x / g.L)
                        * np.sin(np.pi * (y + g.B) / (2 * g.B)))
    delta0 = 1e-6 / math.sqrt(integrate(bump.values ** 2, g))
    perturbed = Field(g, u0.values + delta0 * bump.values, dirichlet_clean=True)
    stepper = Stepper(base, g)
    stepper.start(perturbed.interior)
    for _ in range(base.n_steps):
        stepper.advance()
    ub = ua.with_interior(stepper.interior())
    dnorm = math.sqrt(integrate((ub.values - ua.values) ** 2, g))
    K = dnorm / 1e-6
    assert np.isfinite(K)
    assert K < 100.0


def test_blowup_aborts_with_partial_trace(tmp_path):
    cfg = small_config(initial="cos-product:100000.0", t_end=0.5, dt=1e-2,
                       trace_stride=1)
    traj = simulate(cfg)
    assert traj.aborted_at is not None
    assert traj.aborted_at <= 0.5
    assert len(traj.trace) >= 1
    assert np.all(np.isfinite(traj.trace.l2_sq))
    err = traj.blowup
    assert isinstance(err, BlowupError)
    assert err.t == traj.aborted_at and err.t == err.n * cfg.dt
    assert len(traj.trace) == err.n  # rows at t = 0 .. (n - 1) dt
    assert 1 <= err.node[0] <= cfg.nx and 1 <= err.node[1] <= cfg.ny
    assert err.magnitude > 1e6
    emit_artifacts(traj, out_dir=tmp_path)
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["aborted_at"] == traj.aborted_at
    assert stored["blowup"] == {"n": err.n, "t": err.t, "node": list(err.node),
                                "magnitude": err.magnitude}


def test_blowup_reports_step_and_time():
    cfg = small_config(nx=16, ny=16, dt=1e-2, t_end=0.05, initial="cos-product:300")
    stepper = Stepper(cfg)
    u1 = stepper.step(initial_field(cfg))
    with pytest.raises(BlowupError) as info:
        stepper.step(u1)
    assert info.value.n == 2 and info.value.t == 0.02
    replay = Stepper(cfg)
    replay.start(initial_field(cfg).interior)
    replay.advance()
    replay.advance()
    blown = replay.interior()
    i, j = np.unravel_index(np.argmax(np.abs(blown)), blown.shape)
    assert info.value.node == (i + 1, j + 1)
    assert info.value.magnitude == pytest.approx(abs(blown[i, j]), rel=1e-12)
    assert f"node {info.value.node}" in str(info.value)
    assert simulate(cfg).aborted_at == 0.02
    # A non-finite state names its first non-finite node (row-major order).
    state = np.ones((5, 4))
    state[1, 1] = 9.0
    state[2, 3] = np.inf
    state[3, 0] = np.nan
    err = BlowupError.at(7, 0.07, state)
    assert err.node == (3, 4) and err.magnitude == 9.0


def test_simulate_builds_no_field_per_trace_row(monkeypatch):
    # A Field is built either by its constructor (which runs __post_init__)
    # or by with_interior, which adopts its array without the constructor.
    cfg = small_config(t_end=0.05, trace_stride=1, snapshot_stride=10)
    built = []
    for name in ("__post_init__", "with_interior"):
        real = getattr(Field, name)

        def counting(self, *args, _real=real):
            built.append(self)
            return _real(self, *args)

        monkeypatch.setattr(Field, name, counting)
    traj = simulate(cfg)
    monkeypatch.undo()
    assert len(traj.trace) == cfg.n_steps + 1
    # The datum takes two and its i0 norm one; the trace rows take none.
    assert len(built) <= len(traj.snapshots) + 3


def test_linear_simulate_transforms_once_per_trace_row(monkeypatch):
    # The state stays modal between steps: one forward DST at the start and
    # one inverse DST per trace row.  The final state is the last trace row's.
    cfg = small_config(linear=True, t_end=0.023, trace_stride=5)
    calls = {"to_modes": 0, "from_modes": 0}
    for name in calls:
        real = getattr(LinearPart, name)

        def counting(self, arr, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, arr)

        monkeypatch.setattr(LinearPart, name, counting)
    traj = simulate(cfg)
    monkeypatch.undo()
    assert traj.aborted_at is None
    assert traj.trace.t[1:].tolist() == pytest.approx([0.005, 0.01, 0.015, 0.02, 0.023])
    assert calls == {"to_modes": 1, "from_modes": len(traj.trace) - 1}


def linear_stepper_after_one_step(interior_fn):
    """A linear stepper one tiny step past the interior that interior_fn(grid) gives."""
    cfg = small_config(linear=True, dt=1e-8, t_end=1e-8)
    g = cfg.grid()
    stepper = Stepper(cfg, g)
    stepper.start(interior_fn(g))
    stepper.advance()
    return stepper, g


def test_blown_up_sup_bound_is_not_the_verdict():
    # A spike next to the y = -B wall: its modes sum to ~4/pi of the peak,
    # so the sup bound exceeds the threshold while max |u| does not.
    def spike(g):
        u = np.zeros((g.nx, g.ny))
        u[:, 0] = 0.9e6 * np.sin(np.pi * g.xs()[1:-1] / g.L)
        return u

    stepper, g = linear_stepper_after_one_step(spike)
    modes = stepper._modes
    bound = np.max(np.abs(modes).sum(axis=0)) / (g.ny + 1)
    true_max = np.max(np.abs(stepper.linear_part.from_modes(modes)))
    assert bound > 1e6 > true_max > 0.85e6
    assert not stepper.blown_up()
    # Past the threshold, the same spike does abort.
    stepper, _ = linear_stepper_after_one_step(lambda g: spike(g) * (1.2 / 0.9))
    assert stepper.blown_up()
    # A small state is cleared by the bound alone, with no inverse DST.
    stepper, _ = linear_stepper_after_one_step(lambda g: spike(g) * 1e-3)
    assert not stepper.blown_up()
    assert stepper._interior is None


def test_blown_up_names_first_non_finite_node():
    stepper, g = linear_stepper_after_one_step(lambda g: np.ones((g.nx, g.ny)))
    stepper._modes[4, 6] = np.nan
    assert stepper.blown_up()
    err = BlowupError.at(stepper.steps, stepper.config.dt, stepper.interior())
    # A NaN in mode 4 of x column 6 spoils that whole column in physical space.
    assert err.node == (7, 1)
    assert np.isfinite(err.magnitude) and err.magnitude > 0


def test_sweep_zero_datum_all_distances_zero():
    cfg = small_config(initial="zero", t_end=0.01)
    res = simulate_regularized_sweep(cfg, [1e-2, 5e-3, 0.0])
    assert res.pairwise_distances == [0.0, 0.0]
    assert res.distances_to_limit == [0.0, 0.0]


def test_sweep_validates_epsilons():
    cfg = small_config(t_end=0.01)
    with pytest.raises(ValueError):
        simulate_regularized_sweep(cfg, [1e-3, 1e-3])
    with pytest.raises(ValueError):
        simulate_regularized_sweep(cfg, [1e-3])


def test_snapshot_round_trip(tmp_path):
    g = build_grid(2.0, 1.0, 16, 12)
    rng = np.random.default_rng(9)
    fld = enforce_dirichlet(sample_field(g, lambda x, y: np.sin(x + y)))
    path = tmp_path / "state.zks"
    write_snapshot(path, 1.25, fld)
    t, back = read_snapshot(path)
    assert t == 1.25
    assert back.grid.L == g.L and back.grid.nx == g.nx
    assert np.array_equal(back.values, fld.values)


@pytest.mark.parametrize("case, cause", [
    ("truncated", "payload is"),
    ("trailing", "payload is"),
    ("negative_nx", "nx must be"),
    ("huge_nx", "payload is"),
    ("nan_value", "non-finite"),
])
def test_read_snapshot_rejects_malformed_file(tmp_path, case, cause):
    g = build_grid(2.0, 1.0, 16, 12)
    path = tmp_path / "state.zks"
    write_snapshot(path, 0.5, zero_field(g))
    raw = bytearray(path.read_bytes())
    if case == "truncated":
        del raw[-8:]
    elif case == "trailing":
        raw += b"\0" * 8
    elif case == "nan_value":
        raw[-8:] = struct.pack("<d", math.nan)
    else:
        # nx is the int64 after the magic and the two float64 L, B.
        raw[24:32] = struct.pack("<q", -5 if case == "negative_nx" else 2 ** 40)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=cause) as info:
        read_snapshot(path)
    assert str(path) in str(info.value)


def test_initial_from_snapshot(tmp_path):
    cfg = small_config(nx=16, ny=12, t_end=0.01)
    fld = initial_field(cfg)
    path = tmp_path / "u0.zks"
    write_snapshot(path, 0.0, fld)
    cfg2 = small_config(nx=16, ny=12, t_end=0.01,
                        initial={"file": str(path)})
    fld2 = initial_field(cfg2)
    assert np.array_equal(fld.values, fld2.values)
