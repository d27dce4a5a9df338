import numpy as np
import pytest

from zklab import (Field, Grid, SimConfig, apply_operator, build_grid, check_gn,
                   check_poincare, check_sup_bound, enforce_dirichlet, initial_field,
                   initial_regularity, integrate, norms, sample_field, simulate,
                   stationary_mode, trace_flux, trace_row, weighted_energy,
                   zero_field)
from zklab.calculus import (_CENTERED, _D3_LEFT, _D4_LEFT, _d1_full, fd_weights,
                            gradient_full, trapezoid_weights)
from zklab.harness import random_clean_field


def test_fd_weights_reproduce_closures():
    centered = fd_weights([-2, -1, 0, 1, 2], 3)
    assert np.allclose(centered, [-0.5, 1.0, 0.0, -1.0, 0.5], atol=1e-12)
    biased = fd_weights([-1, 0, 1, 2, 3], 3)
    assert np.allclose(2.0 * biased, _D3_LEFT, atol=1e-11)
    assert np.allclose(fd_weights(range(-1, 5), 4), _D4_LEFT, atol=1e-10)
    # The centered rows are the narrowest: three points for order 1, five else.
    for order, (weights, divisor) in _CENTERED.items():
        r = 1 if order == 1 else 2
        assert not weights[:2 - r].any() and not weights[3 + r:].any()
        assert np.allclose(divisor * fd_weights(range(-r, r + 1), order),
                           weights[2 - r:3 + r], atol=1e-11)


def test_dxyy_exact_on_polynomial():
    g = build_grid(1.5, 1.0, 32, 24)
    f = sample_field(g, lambda x, y: x * y ** 2)
    d = apply_operator(f, "dxyy")
    assert np.max(np.abs(d.interior - 2.0)) < 1e-10


def test_dxxx_on_sine_second_order():
    errs = {}
    for nx in (63, 127):
        g = build_grid(2 * np.pi, 1.0, nx, 8)
        f = sample_field(g, lambda x, y: np.sin(x) + 0.0 * y)
        d = apply_operator(f, "dxxx")
        exact = -np.cos(g.xs_interior())[:, None]
        errs[nx] = np.max(np.abs(d.interior - exact))
    assert 3.0 < errs[63] / errs[127] < 5.0


def test_linearized_operator_on_mode_refines():
    mode = stationary_mode(1, 1, 1, np.pi)
    errs = {}
    for nx in (63, 127):
        g = build_grid(mode.triple.L, np.pi, nx, nx)
        f = sample_field(g, mode)
        resid = (apply_operator(f, "dx").values
                 + apply_operator(f, "dxxx").values
                 + apply_operator(f, "dxyy").values)
        errs[nx] = np.max(np.abs(resid))
    assert 3.0 < errs[63] / errs[127] < 5.0


def test_every_operator_second_order():
    f_exact = {
        "dx": lambda x, y: np.cos(x) * np.sin(y),
        "dy": lambda x, y: np.sin(x) * np.cos(y),
        "dxx": lambda x, y: -np.sin(x) * np.sin(y),
        "dyy": lambda x, y: -np.sin(x) * np.sin(y),
        "dxxx": lambda x, y: -np.cos(x) * np.sin(y),
        "dxyy": lambda x, y: -np.cos(x) * np.sin(y),
        "dx4": lambda x, y: np.sin(x) * np.sin(y),
        "dy4": lambda x, y: np.sin(x) * np.sin(y),
    }
    for kind, exact in f_exact.items():
        errs = []
        for nx in (47, 95):
            g = build_grid(2.0, 1.0, nx, nx)
            f = sample_field(g, lambda x, y: np.sin(x) * np.sin(y))
            d = apply_operator(f, kind)
            X, Y = np.meshgrid(g.xs_interior(), g.ys()[1:-1], indexing="ij")
            errs.append(np.max(np.abs(d.interior - exact(X, Y))))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5, f"{kind}: ratio {ratio}"


def test_unknown_kind_and_coarse_grid():
    g = build_grid(1.0, 1.0, 8, 8)
    f = sample_field(g, lambda x, y: x)
    with pytest.raises(ValueError):
        apply_operator(f, "d5x")
    # No grid below the stencils' reach exists to differentiate: the Grid
    # constructor applies the config's rules, also when called directly.
    with pytest.raises(ValueError, match="^nx must"):
        Grid(1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="^L must"):
        build_grid(True, 1.0, 16, 16)
    with pytest.raises(ValueError, match="^nx must"):
        build_grid(1.0, 1.0, 16.0, 16)
    with pytest.raises(ValueError, match="^domain_kind must"):
        Grid(1.0, 1.0, 16, 16, "disk")


def test_norms_constant_field():
    L, B, c = 2.0, 1.0, 3.0
    g = build_grid(L, B, 32, 32)
    f = sample_field(g, lambda x, y: np.full_like(x, c))
    rep = norms(f)
    assert np.isclose(rep.l2, c * np.sqrt(2 * L * B), rtol=1e-13)


def test_norms_sine_exact_quadrature():
    # uncleaned constant extension in y: trapezoid integrates it exactly
    L, B = 2.0, 1.0
    g = build_grid(L, B, 255, 255)
    f = sample_field(g, lambda x, y: np.sin(np.pi * x / L) + 0.0 * y)
    rep = norms(f)
    assert abs(rep.l2 ** 2 - L * B) < 1e-6
    # cleaning the y-walls cuts one trapezoid row: O(1/ny) deficit, not 1e-6
    rep_clean = norms(enforce_dirichlet(f))
    assert abs(rep_clean.l2 ** 2 - L * B) / (L * B) < 1e-2


def test_weighted_energy_analytic():
    L, B = 2.0, 1.0
    g = build_grid(L, B, 255, 255)
    f = sample_field(g, lambda x, y: np.sin(np.pi * x / L) + 0.0 * y)
    rep = norms(f)
    expected = 2 * B * (L / 2 + L ** 2 / 4)
    assert abs(rep.weighted_l2 - expected) / expected < 1e-5


def test_norm_sandwich():
    g = build_grid(2.5, 1.0, 64, 64)
    rng = np.random.default_rng(11)
    f = random_clean_field(g, rng)
    rep = norms(f)
    l2sq = rep.l2 ** 2
    assert l2sq <= rep.weighted_l2 * (1 + 1e-12)
    assert rep.weighted_l2 <= (1 + g.L) * l2sq * (1 + 1e-12)


def test_trace_flux_analytic():
    L, B = 2.0, 1.0
    g = build_grid(L, B, 128, 128)
    f = sample_field(g, lambda x, y: x * np.cos(np.pi * y / (2 * B)))
    assert abs(trace_flux(f) - B) < 1e-12
    g0 = build_grid(1.0, 1.0, 8, 8)
    zero = sample_field(g0, lambda x, y: 0.0 * x)
    assert trace_flux(zero) == 0.0


def test_trace_flux_vanishes_for_mode():
    mode = stationary_mode(1, 1, 1, np.pi)
    g = build_grid(mode.triple.L, np.pi, 127, 127)
    f = sample_field(g, mode)
    assert trace_flux(f) < 1e-8


def test_i0_finite_and_dominates_h1():
    g = build_grid(2.0, 1.0, 127, 127)
    L, B = g.L, g.B
    f = sample_field(g, lambda x, y: (1 - np.cos(2 * np.pi * x / L))
                     * np.cos(np.pi * y / (2 * B)))
    i0 = initial_regularity(f)
    rep = norms(f)
    assert np.isfinite(i0) and i0 > 0
    assert i0 >= rep.l2 ** 2 + rep.h1_semi ** 2


def test_initial_regularity_is_the_norms_i0():
    # The i0 that simulate records is initial_regularity of the datum, bit for bit.
    cfg = SimConfig(L=2.0, B=1.0, nx=31, ny=31, dt=1e-3, t_end=2e-3,
                    initial="cos-product:0.4")
    assert simulate(cfg).trace.i0_initial == initial_regularity(initial_field(cfg))


def test_check_gn_examples():
    g = build_grid(2.0, 1.0, 127, 127)
    zero = sample_field(g, lambda x, y: 0.0 * x)
    assert check_gn(zero, 3) == 0.0
    f = sample_field(g, lambda x, y: np.sin(np.pi * x / g.L)
                     * np.sin(np.pi * (y + g.B) / (2 * g.B)))
    assert check_gn(f, 3) <= 1.0
    with pytest.raises(ValueError):
        check_gn(f, 5)


def test_check_gn_random_property():
    g = build_grid(2.0, 1.0, 63, 63)
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = random_clean_field(g, rng)
        assert check_gn(f, 4) <= 1.0


def test_check_sup_bound_examples():
    g = build_grid(2.0, 1.0, 63, 63)
    zero = sample_field(g, lambda x, y: 0.0 * x)
    assert check_sup_bound(zero) == 0.0
    mode = stationary_mode(1, 1, 1, np.pi)
    gm = build_grid(mode.triple.L, np.pi, 127, 127)
    assert check_sup_bound(sample_field(gm, mode)) <= 1.0
    rng = np.random.default_rng(6)
    for _ in range(100):
        assert check_sup_bound(random_clean_field(g, rng)) <= 1.0


def test_check_poincare_analytic_values():
    L, B = 2.0, 1.0
    g = build_grid(L, B, 255, 255)
    fy = enforce_dirichlet(sample_field(
        g, lambda x, y: np.sin(np.pi * (y + B) / (2 * B)) + 0.0 * x))
    ry = check_poincare(fy, "y")
    assert abs(ry - (4 * B ** 2 / np.pi ** 2) / (B ** 2 / 2)) < 0.02
    assert ry <= 1.0
    fx = enforce_dirichlet(sample_field(
        g, lambda x, y: np.sin(np.pi * x / L) + 0.0 * y))
    rx = check_poincare(fx, "x")
    assert abs(rx - (L ** 2 / np.pi ** 2) / (L ** 2 / 8)) < 0.02
    assert rx <= 1.0
    zero = sample_field(g, lambda x, y: 0.0 * x)
    assert check_poincare(zero, "x") == 0.0
    with pytest.raises(ValueError):
        check_poincare(fx, "z")


def _certificates(fld):
    return [check_gn(fld, 3), check_gn(fld, 4), check_sup_bound(fld),
            check_poincare(fld, "x"), check_poincare(fld, "y")]


def _inline_certificates(fld):
    """The five certificates from a fresh gradient, each in its own arithmetic form."""
    g, v = fld.grid, fld.values
    ux, uy = gradient_full(fld)
    uxy = _d1_full(ux.T, g.hy).T
    l2 = np.sqrt(integrate(v * v, g))
    gn = np.sqrt(integrate(ux * ux + uy * uy, g))
    out = []
    for q in (3, 4):
        theta = 2.0 * (0.5 - 1.0 / q)
        lq = integrate(np.abs(v) ** q, g) ** (1.0 / q)
        out.append(float(lq / (2.0 ** theta * gn ** theta * l2 ** (1.0 - theta))))
    out.append(float(np.max(v * v)) / (integrate(v * v + ux * ux + uy * uy, g)
                                       + integrate(uxy * uxy, g)))
    out.append(float(integrate(v * v, g) / (g.L ** 2 / 8.0 * integrate(ux * ux, g))))
    out.append(float(integrate(v * v, g) / (g.B ** 2 / 2.0 * integrate(uy * uy, g))))
    return out


def test_certificates_equal_inline_recomputation():
    # Each new field may take the address of the one dropped before it, so
    # this also checks that a dead field's shared terms are never reused.
    rng = np.random.default_rng(11)
    for g in (build_grid(2.0, 1.0, 63, 63), build_grid(3.0, 0.7, 63, 31)):
        for _ in range(12):
            fld = random_clean_field(g, rng)
            assert _certificates(fld) == _inline_certificates(fld)


def test_certificates_interleaved_fields():
    rng = np.random.default_rng(12)
    g = build_grid(2.0, 1.0, 63, 63)
    a, b = random_clean_field(g, rng), random_clean_field(g, rng)
    want_a, want_b = _inline_certificates(a), _inline_certificates(b)
    assert want_a != want_b
    assert [_certificates(f) for f in (a, b, a)] == [want_a, want_b, want_a]
    # Interleaved one certificate at a time, too.
    for k, cert in enumerate((lambda f: check_gn(f, 3), lambda f: check_gn(f, 4),
                              check_sup_bound, lambda f: check_poincare(f, "x"),
                              lambda f: check_poincare(f, "y"))):
        assert [cert(a), cert(b), cert(a)] == [want_a[k], want_b[k], want_a[k]]


def test_dead_field_terms_are_not_reused():
    # Each temporary Field dies after its call, so the next one is usually
    # allocated at the same address: identity alone (id) would match it.
    rng = np.random.default_rng(14)
    g = build_grid(2.0, 1.0, 63, 63)
    values = [random_clean_field(g, rng).values for _ in range(8)]
    want = [_inline_certificates(Field(g, v)) for v in values]
    assert [_certificates(Field(g, v)) for v in values] == want


def test_certificates_of_equal_fields():
    rng = np.random.default_rng(13)
    g = build_grid(2.0, 1.0, 63, 63)
    a = random_clean_field(g, rng)
    twin = Field(g, a.values)
    other = random_clean_field(g, rng)
    want = _inline_certificates(a)
    assert _certificates(a) == want
    assert _certificates(other) == _inline_certificates(other)
    assert _certificates(twin) == want
    assert _certificates(a) == want


def test_trapezoid_weights_are_read_only():
    g = build_grid(2.0, 1.0, 32, 16)
    wx, wy = trapezoid_weights(g)
    for w in (wx, wy):
        with pytest.raises(ValueError):
            w[0] = 1.0
    # Built once per grid: an equal grid gets the same arrays back.
    assert all(a is b for a, b in zip(trapezoid_weights(build_grid(2.0, 1.0, 32, 16)), (wx, wy)))
    assert wx.sum() == pytest.approx(g.L) and wy.sum() == pytest.approx(2 * g.B)


def test_gradient_full_matches_interior():
    g = build_grid(2.0, 1.0, 63, 63)
    f = sample_field(g, lambda x, y: np.sin(x) * np.cos(y))
    ux, uy = gradient_full(f)
    dx = apply_operator(f, "dx")
    assert np.allclose(ux[1:-1, 1:-1], dx.interior, atol=1e-14)
    X, Y = g.meshgrid()
    assert np.max(np.abs(ux - np.cos(X) * np.cos(Y))) < 5e-3


def test_integrate_full_trapezoid():
    g = build_grid(2.0, 1.0, 32, 32)
    ones = np.ones(g.shape)
    assert np.isclose(integrate(ones, g), 2 * g.L * g.B, rtol=1e-14)


def _general_row(fld):
    g, v = fld.grid, fld.values
    ux, uy = gradient_full(fld)
    return (integrate(v * v, g), weighted_energy(fld), trace_flux(fld),
            integrate(ux * ux, g), integrate(uy * uy, g), integrate(v ** 3, g))


@pytest.mark.parametrize("case", ["strip_127x383", "rectangle_63x31", "random_interior"])
def test_trace_row_matches_general_functions(case):
    rng = np.random.default_rng(8)
    if case == "strip_127x383":
        cfg = SimConfig(L=2.0, B=12.0, nx=127, ny=383, dt=1e-3, t_end=0.2,
                        domain_kind="truncated_strip", initial="cos-bump:1.0,2.0")
        g = cfg.grid()
        fld = initial_field(cfg, g)
    elif case == "rectangle_63x31":
        g = build_grid(3.0, 0.7, 63, 31)
        fld = random_clean_field(g, rng)
    else:
        g = build_grid(2.0, 1.5, 40, 23)
        fld = zero_field(g).with_interior(rng.normal(size=(g.nx, g.ny)))
    want = np.array(_general_row(fld))
    # Any memory layout of the interior: the simulate loop hands in a transposed view.
    for interior in (fld.interior, np.asfortranarray(fld.interior), fld.interior.copy()):
        got = np.array(trace_row(interior, g))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (got - want) / want
