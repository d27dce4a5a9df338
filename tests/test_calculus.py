import math

import numpy as np
import pytest

from zklab import (Field, SimConfig, build_grid, check_gn, check_poincare,
                   check_sup_bound, initial_field,
                   initial_regularity, integrate, resonant_family, sample_field,
                   simulate, stationary_mode, trace_row)
from zklab import dynamics
from zklab.calculus import (_ROWS, _apply, _d1_full, _d1_zero_walls, _shared_terms, _wall_lines,
                            gradient_full, trapezoid_weights)
from zklab.harness import random_clean_field


def fd_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on integer offsets.

    Solves the Vandermonde moment system; weights are per h**order.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    A = np.vander(offsets, n, increasing=True).T
    b = np.zeros(n)
    b[order] = float(math.factorial(order))
    return np.linalg.solve(A, b)


# The ghost each folding closure eliminates from the centered row of its
# order: (ghost offset, image offset, sign) for u(ghost) = sign * u(image).
GHOST_RULES = {
    "d4_left": (-2, 0, -1.0),    # u_xx(0) = 0: u(-h) = -u(h)
    "d3_right": (2, 0, 1.0),     # u_x(L) = 0: u(L+h) = u(L-h)
    "d4_right": (2, 0, 1.0),
}


def test_fd_weights_reproduce_closures():
    # Every row of the table: a row that folds a ghost is the centered row
    # folded by its ghost rule; any other row is divisor * fd_weights on
    # its span of offsets, the centered rows on the narrowest span.
    assert set(GHOST_RULES) < set(_ROWS)
    for name, row in _ROWS.items():
        if name in GHOST_RULES:
            centered = _ROWS[f"d{row.order}"]
            ghost, image, sign = GHOST_RULES[name]
            folded = dict(centered.weights)
            folded[image] = folded.get(image, 0.0) + sign * folded.pop(ghost)
            assert (row.divisor, sorted(row.weights.items())) == (
                centered.divisor, sorted(folded.items())), name
            continue
        span = range(min(row.weights), max(row.weights) + 1)
        weights = [row.weights.get(k, 0.0) for k in span]
        assert np.allclose(row.divisor * fd_weights(span, row.order), weights,
                           atol=1e-11), name
        if name == f"d{row.order}":
            r = (row.order + 1) // 2
            assert list(span) == list(range(-r, r + 1)), name
    # trace_row scales the sums of both D1 rows by one divisor.
    assert _ROWS["d1"].divisor == _ROWS["d1_wall"].divisor


def test_table_rows_equal_the_sliced_expressions():
    # The sliced expressions the table replaced, written out: every path
    # that reads the table must reproduce them bit for bit.  The order in
    # which a row's terms are summed is part of that: D2 summed from the
    # lowest offset moves initial_regularity by an ulp on the smooth datum
    # below (on noise with nonzero walls, its sums hide such an ulp).
    rng = np.random.default_rng(21)
    fields = [Field(g, rng.normal(size=g.shape))
              for g in (build_grid(2.0, 1.5, 40, 23), build_grid(3.0, 0.7, 63, 31))]
    fields.append(initial_field(SimConfig(L=2.0, B=1.0, nx=31, ny=31, t_end=0.01,
                                          initial="cos-product:0.4")))
    for fld in fields:
        g, v = fld.grid, fld.values
        hx, hy = g.hx, g.hy

        def wall(v, h):
            return (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)

        def d1_full(v, h):
            out = np.empty_like(v)
            out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            out[0] = wall(v, h)
            out[-1] = -wall(v[::-1], h)
            return out

        def d2(v, h):
            return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2

        ux, uy = gradient_full(fld)
        assert np.array_equal(ux, d1_full(v, hx)) and np.array_equal(uy, d1_full(v.T, hy).T)
        for e, h in ((v, hx), (v.T, hy), (ux, hx)):
            assert np.array_equal(_apply(_ROWS["d2"], e, 1, len(e) - 1, h), d2(e, h))
        uyy = np.zeros(g.shape)
        uyy[1:-1, 1:-1] = d2(v[1:-1, :].T, hy).T
        nl = np.zeros(g.shape)
        nl[1:-1, 1:-1] = v[1:-1, 1:-1] * ux[1:-1, 1:-1] + (d2(ux[:, 1:-1], hx)
                                                           + d2(ux[1:-1, :].T, hy).T)
        assert initial_regularity(fld) == (integrate(v * v, g) + integrate(ux * ux + uy * uy, g)
                                           + integrate(uyy ** 2, g) + integrate(nl * nl, g))
        # trace_row's gradient sums, of (2h u')^2 on the zero walls.

        def sq_sums(e):
            d = np.empty_like(e)
            d[1:-1] = e[2:] - e[:-2]
            d[0], d[-1] = e[1], e[-2]
            lo, hi = 4.0 * e[0] - e[1], 4.0 * e[-1] - e[-2]
            return float((d * d).sum()), float(lo @ lo), float(hi @ hi)

        for u in (fld.interior.copy(), np.asfortranarray(fld.interior)):
            (ix, lx, rx), (iy, ly, ry) = sq_sums(u), sq_sums(u.T)
            assert trace_row(u, g)[2:5] == (hy * lx / (4.0 * hx * hx),
                                            hy * (ix + 0.5 * (lx + rx)) / (4.0 * hx),
                                            hx * (iy + 0.5 * (ly + ry)) / (4.0 * hy))
        # The same sums from the lower half of a y-even state: each column
        # below the centre counts twice, the centre once, and the y
        # difference at the centre, between mirror images, is zero.
        half = fld.interior[:, :(g.ny + 1) // 2]
        for u in (half.copy(), np.ascontiguousarray(half.T).T):
            d = np.empty_like(u)
            d[1:-1] = u[2:] - u[:-2]
            d[0], d[-1] = u[1], -u[-2]
            dd = d * d
            ix = 2.0 * float(dd.sum()) - float(dd[:, -1].sum())
            lx, rx = (2.0 * float(e @ e) - e[-1] * e[-1] for e in (4.0 * u[0] - u[1],
                                                                 4.0 * u[-1] - u[-2]))
            e = u.T
            d = np.empty_like(e)
            d[1:-1] = e[2:] - e[:-2]
            d[0], d[-1] = e[1], 0.0
            iy = 2.0 * float((d * d).sum())
            ly = float((4.0 * e[0] - e[1]) @ (4.0 * e[0] - e[1]))
            assert trace_row(u, g)[2:5] == (hy * lx / (4.0 * hx * hx),
                                            hy * (ix + 0.5 * (lx + rx)) / (4.0 * hx),
                                            hx * (iy + ly) / (4.0 * hy))
        # The stepper's nonlinear term and x-operators.
        cfg = SimConfig(L=g.L, B=g.B, nx=g.nx, ny=g.ny, t_end=0.01)
        for u in (fld.interior.copy(), np.asfortranarray(fld.interior)):
            u2 = u * u
            want = np.empty_like(u)
            want[0], want[-1] = u2[1], -u2[-2]
            want[1:-1] = u2[2:] - u2[:-2]
            assert np.array_equal(dynamics.Stepper(cfg)._nonlin(u), want)
        centered = {1: ([0.0, -1.0, 0.0, 1.0, 0.0], 2.0), 3: ([-1.0, 2.0, 0.0, -2.0, 1.0], 2.0),
                    4: ([1.0, -4.0, 6.0, -4.0, 1.0], 1.0)}
        n = g.nx
        for order, (w, div) in centered.items():
            b = np.zeros((6, n))
            for k, c in zip(range(-2, 3), w):
                b[3 - k, max(k, 0):n + min(k, 0)] = c
            if order == 3:
                b[3 - np.arange(4), np.arange(4)] = [10.0, -12.0, 6.0, -1.0]
            if order == 4:
                b[3, 0] -= w[0]
            if order >= 3:
                b[3, n - 1] += w[4]
            assert np.array_equal(dynamics._x_bands(order, n, hx), b / (div * hx ** order))


def test_hot_paths_equal_the_table_rows():
    # The zero-wall D1 of trace_row and of the stepper's nonlinear term is
    # written out as slices; applied by _apply to the field with its zero
    # walls, the table's d1 and d1_wall rows must give the same bits.  D1
    # takes one flat difference when v and out are both contiguous along
    # axis 0 and axis-0 slices otherwise; each case below names its path.
    rng = np.random.default_rng(22)
    g = build_grid(2.0, 1.5, 40, 23)
    cfg = SimConfig(L=g.L, B=g.B, nx=g.nx, ny=g.ny, t_end=0.01)
    flat_cases = 0
    for u in (rng.normal(size=(g.nx, g.ny)), np.asfortranarray(rng.normal(size=(g.nx, g.ny)))):
        # The array and its transpose, a slice that stays contiguous in
        # Fortran order only, a non-contiguous slice of each, and an out
        # whose layout differs from v's.
        for e, out in ((u, np.empty_like(u)), (u.T, np.empty_like(u.T)),
                       (u[:, 2:], np.empty_like(u[:, 2:])),
                       (u[:, ::2], np.empty_like(u[:, ::2])), (u.T[::2], np.empty_like(u.T[::2])),
                       (u, np.empty(u.shape, order="F" if u.flags.c_contiguous else "C"))):
            flat = e.flags.f_contiguous and out.flags.f_contiguous
            flat_cases += flat
            n = len(e)
            walled = np.pad(e, ((1, 1), (0, 0)))
            d1 = _apply(_ROWS["d1"], walled, 1, n + 1)
            assert np.array_equal(_d1_zero_walls(e, out), d1), flat
            lo, hi = (_apply(_ROWS["d1_wall"], w, 0) for w in (walled, walled[::-1]))
            got = _wall_lines(e)
            assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)
        # The raw sums: the stepper divides by divisor * hx in its one constant.
        walled = np.pad(u * u, ((1, 1), (0, 0)))
        assert np.array_equal(dynamics.Stepper(cfg)._nonlin(u),
                              _apply(_ROWS["d1"], walled, 1, g.nx + 1))
    assert flat_cases == 3


def l2(fld):
    return math.sqrt(integrate(fld.values ** 2, fld.grid))


def trace_flux(fld):
    """Oracle of trace_row's flux0: int u_x(0,y)^2 dy on the full field's wall row."""
    ux0 = gradient_full(fld)[0][0]
    return float(trapezoid_weights(fld.grid)[1] @ (ux0 * ux0))


def weighted(fld):
    """trace_row's weighted column, the Lyapunov functional ((1+x), u^2)."""
    return trace_row(fld.interior, fld.grid)[1]


def test_l2_of_constant_field():
    L, B, c = 2.0, 1.0, 3.0
    g = build_grid(L, B, 32, 32)
    f = sample_field(g, lambda x, y: np.full_like(x, c))
    assert np.isclose(l2(f), c * np.sqrt(2 * L * B), rtol=1e-13)


def test_l2_of_sine_exact_quadrature():
    # uncleaned constant extension in y: trapezoid integrates it exactly
    L, B = 2.0, 1.0
    g = build_grid(L, B, 255, 255)
    f = sample_field(g, lambda x, y: np.sin(np.pi * x / L) + 0.0 * y)
    assert abs(l2(f) ** 2 - L * B) < 1e-6
    # cleaning the y-walls cuts one trapezoid row: O(1/ny) deficit, not 1e-6
    assert abs(l2(f.with_interior(f.interior)) ** 2 - L * B) / (L * B) < 1e-2


def test_weighted_energy_analytic():
    L, B = 2.0, 1.0
    g = build_grid(L, B, 255, 255)
    f = sample_field(g, lambda x, y: np.sin(np.pi * x / L) * np.cos(np.pi * y / (2 * B)))
    expected = B * (L / 2 + L ** 2 / 4)
    assert abs(weighted(f) - expected) / expected < 1e-5


def test_weighted_energy_sandwiches_l2():
    g = build_grid(2.5, 1.0, 64, 64)
    rng = np.random.default_rng(11)
    f = random_clean_field(g, rng)
    l2sq = l2(f) ** 2
    w = weighted(f)
    assert l2sq <= w * (1 + 1e-12)
    assert w <= (1 + g.L) * l2sq * (1 + 1e-12)


def test_trace_flux_analytic():
    L, B = 2.0, 1.0
    g = build_grid(L, B, 128, 128)
    f = sample_field(g, lambda x, y: x * np.cos(np.pi * y / (2 * B)))
    assert abs(trace_flux(f) - B) < 1e-12
    # The y walls are clean and flux0 reads no x = L data, so trace_row agrees.
    assert abs(trace_row(f.interior, g)[2] - B) < 1e-12
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
    ux, uy = gradient_full(f)
    assert np.isfinite(i0) and i0 > 0
    assert i0 >= integrate(f.values ** 2, g) + integrate(ux * ux + uy * uy, g)


def test_initial_regularity_is_the_simulate_i0():
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
    fy = sample_field(g, lambda x, y: np.sin(np.pi * (y + B) / (2 * B)) + 0.0 * x)
    fy = fy.with_interior(fy.interior)
    ry = check_poincare(fy, "y")
    assert abs(ry - (4 * B ** 2 / np.pi ** 2) / (B ** 2 / 2)) < 0.02
    assert ry <= 1.0
    fx = sample_field(g, lambda x, y: np.sin(np.pi * x / L) + 0.0 * y)
    fx = fx.with_interior(fx.interior)
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
    """The five certificates from a fresh gradient, in the library's arithmetic."""
    g, v = fld.grid, fld.values
    ux, uy = gradient_full(fld)
    uxy = _d1_full(ux.T, g.hy).T
    v2 = v * v
    l2_sq = integrate(v2, g)
    ux_sq, uy_sq = integrate(ux * ux, g), integrate(uy * uy, g)
    grad_sq = ux_sq + uy_sq
    l2, gn = np.sqrt(l2_sq), np.sqrt(grad_sq)
    out = []
    for q, vq in ((3, v2 * np.abs(v)), (4, v2 * v2)):
        theta = 2.0 * (0.5 - 1.0 / q)
        lq = integrate(vq, g) ** (1.0 / q)
        out.append(float(lq / (2.0 ** theta * gn ** theta * l2 ** (1.0 - theta))))
    out.append(float(np.max(v2)) / (l2_sq + grad_sq + integrate(uxy * uxy, g)))
    out.append(float(l2_sq / (g.L ** 2 / 8.0 * ux_sq)))
    out.append(float(l2_sq / (g.B ** 2 / 2.0 * uy_sq)))
    return out


def _defining_certificates(fld):
    """The five certificates in their defining forms: |v|**q, and the H1 norm
    of the sup bound as one integral of v*v + ux*ux + uy*uy."""
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


def test_certificates_match_their_defining_forms():
    # The library builds |v|^3 as v2*|v| and v^4 as v2*v2 from the shared
    # v*v, and sums the sup bound's H1 norm from the shared integrals; those
    # reorder round-off only.  The fields of the inline test, plus a mode.
    rng = np.random.default_rng(11)
    fields = [random_clean_field(g, rng)
              for g in (build_grid(2.0, 1.0, 63, 63), build_grid(3.0, 0.7, 63, 31))
              for _ in range(12)]
    crit_L = resonant_family(1, 1, 1, math.pi).L
    fields.append(initial_field(SimConfig(L=crit_L, B=math.pi, nx=63, ny=63, t_end=0.01,
                                          initial="mode:1,1,1")))
    for fld in fields:
        got, want = np.array(_certificates(fld)), np.array(_defining_certificates(fld))
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-13


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


def test_shared_terms_hold_two_grid_arrays():
    # The memo's arrays are freed when the next field replaces them.  Keeping
    # v*v and u_x only, with the squared gradient as integrals, keeps that
    # churn small: with u_x^2 and u_y^2 held too, glibc trimmed the heap and
    # re-faulted ~32 MB per verify-inequalities run in some processes.
    fld = random_clean_field(build_grid(2.0, 1.0, 63, 63), np.random.default_rng(15))
    arrays = [a for a in _shared_terms(fld) if isinstance(a, np.ndarray)]
    assert len(arrays) == 2
    assert not any(a.flags.writeable for a in arrays)


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
    v = f.values
    centered = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * g.hx)
    assert np.allclose(ux[1:-1, 1:-1], centered, atol=1e-14)
    assert np.max(np.abs(ux - np.cos(g.xs()[:, None]) * np.cos(g.ys()))) < 5e-3


def test_integrate_full_trapezoid():
    g = build_grid(2.0, 1.0, 32, 32)
    ones = np.ones(g.shape)
    assert np.isclose(integrate(ones, g), 2 * g.L * g.B, rtol=1e-14)


def _general_row(fld):
    g, v = fld.grid, fld.values
    ux, uy = gradient_full(fld)
    x = g.xs()[:, None]
    return (integrate(v * v, g), integrate((1.0 + x) * v * v, g), trace_flux(fld),
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
        fld = Field(g, np.zeros(g.shape)).with_interior(rng.normal(size=(g.nx, g.ny)))
    want = np.array(_general_row(fld))
    # Any memory layout of the interior: the simulate loop hands in a transposed view.
    for interior in (fld.interior, np.asfortranarray(fld.interior), fld.interior.copy()):
        got = np.array(trace_row(interior, g))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (got - want) / want


@pytest.mark.parametrize("ny", [9, 31, 63])
def test_trace_row_on_the_even_half_equals_the_mirrored_state(ny):
    # The lower (ny+1)/2 columns of a y-even state give the trace row of
    # the whole state, column by column, in either memory layout.
    g = build_grid(2.0, 1.5, 40, ny)
    rng = np.random.default_rng(ny)
    for _ in range(5):
        half = rng.normal(size=(g.nx, (ny + 1) // 2))
        full = np.concatenate((half, half[:, -2::-1]), axis=1)
        want = np.array(trace_row(full, g))
        for u in (half, np.ascontiguousarray(half.T).T):
            got = np.array(trace_row(u, g))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (got - want) / want


def test_trace_row_names_both_column_counts():
    g = build_grid(2.0, 1.5, 40, 31)
    for n in (15, 17, 30):
        with pytest.raises(ValueError, match=r"fit neither ny=31 nor its even half \(ny\+1\)/2=16"):
            trace_row(np.zeros((g.nx, n)), g)
