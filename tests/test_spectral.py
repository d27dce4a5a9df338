import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import (build_profile, critical_length, critical_residual,
                   cubic_roots, enumerate_critical, kdv_critical_set,
                   minimal_critical_rectangle, mode_xi, resonant_family,
                   stationary_mode)
from zklab.spectral import ResonantTriple, _unit_amplitude

TWO_PI = 2 * math.pi


def test_mode_xi_values():
    assert mode_xi(1, math.pi) == 0.25
    assert mode_xi(2, math.pi) == 1.0
    assert mode_xi(1, math.pi / 2) == 1.0
    with pytest.raises(ValueError):
        mode_xi(0, 1.0)
    with pytest.raises(ValueError):
        mode_xi(1, -1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: mode_xi(True, 1.0), "n"),
    (lambda: mode_xi(1.0, 1.0), "n"),
    (lambda: mode_xi(np.int64(1), 1.0), "n"),
    (lambda: critical_length(True, 1, 0.0), "k"),
    (lambda: critical_length(1, 2.0, 0.0), "l"),
    (lambda: critical_length(1, -1, 0.0), "l"),
    (lambda: resonant_family(True, 1, 1, math.pi), "k"),
    (lambda: resonant_family(2.0, 1, 1, math.pi), "k"),
    (lambda: resonant_family(1, 1, True, math.pi), "n"),
    (lambda: critical_residual(7.0, math.pi, 1, True, 1), "l"),
])
def test_indices_must_be_ints(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        call()


@pytest.mark.parametrize("alpha", [True, False, 1.0, 0.0, 2, -1, "1", None])
def test_enumerate_critical_rejects_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be 0 or 1"):
        enumerate_critical(10.0, 10.0, 1, 1, 1, alpha)


def test_cubic_roots_golden():
    r = cubic_roots(0.0, 0.0)
    assert np.allclose(sorted(r.real), [-1.0, 0.0, 1.0], atol=1e-14)
    assert np.all(r.imag == 0.0)
    r = cubic_roots(0.25, 0.0)
    assert np.allclose(sorted(r.real), [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2],
                       atol=1e-14)


def test_cubic_roots_residuals_random():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(300):
        xi = rng.uniform(0.0, 2.0)   # xi > 1 exercises the complex branch
        beta = rng.normal() * 2.0
        roots = cubic_roots(xi, beta)
        res = np.abs(roots ** 3 - (1 - xi) * roots + beta)
        worst = max(worst, float(res.max()))
        # elementary symmetric functions match the coefficients
        assert abs(roots.sum()) < 1e-12
        e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        assert abs(e2 + (1 - xi)) < 1e-12
        assert abs(roots.prod() + beta) < 1e-12
    assert worst < 1e-10


def test_cubic_roots_near_double_root_does_not_raise():
    # disc rounds to -7.3e-12 and the separately rounded Cardano radicand to
    # -1.1e-13; an unclamped sqrt raised "math domain error" here.
    xi, beta = -23.861801141184486, 47.714128538255174
    roots = cubic_roots(xi, beta)
    assert roots.shape == (3,)
    res = np.abs(roots ** 3 - (1.0 - xi) * roots + beta)
    assert float(res.max()) / (np.abs(roots).max() + 1.0) ** 3 <= 1e-10


@settings(max_examples=300, deadline=None)
@given(xi=st.floats(-50.0, 0.999),
       delta=st.one_of(st.just(0.0), st.floats(1e-18, 1e-3)),
       beta_sign=st.sampled_from([-1.0, 1.0]),
       delta_sign=st.sampled_from([-1.0, 1.0]))
def test_cubic_roots_near_double_root_curve(xi, delta, beta_sign, delta_sign):
    # On beta = +-2((1 - xi)/3)^(3/2) the cubic has a double root; the branch
    # choice and the Newton polish both sit on a knife edge near it.
    beta = beta_sign * 2.0 * ((1.0 - xi) / 3.0) ** 1.5 * (1.0 + delta_sign * delta)
    roots = cubic_roots(xi, beta)
    assert roots.shape == (3,)
    res = np.abs(roots ** 3 - (1.0 - xi) * roots + beta)
    assert float(res.max()) / (np.abs(roots).max() + 1.0) ** 3 <= 1e-10


def test_critical_length_golden():
    assert abs(critical_length(1, 1, 0.0).L - TWO_PI) < 1e-12
    assert abs(critical_length(1, 1, 0.25).L - 4 * math.pi / math.sqrt(3)) < 1e-12
    assert abs(critical_length(1, 2, 0.0).L
               - TWO_PI / math.sqrt(3) * math.sqrt(7)) < 1e-12
    L, s1 = critical_length(2, 1, 0.1)
    assert abs(s1 + TWO_PI / (3 * L) * 5) < 1e-14
    with pytest.raises(ValueError):
        critical_length(1, 1, 1.0)
    with pytest.raises(ValueError):
        critical_length(0, 1, 0.5)


def test_resonant_family_golden():
    t = resonant_family(1, 1, 1, math.pi)
    root3 = math.sqrt(3)
    assert np.allclose([t.s1, t.s2, t.s3], [-root3 / 2, 0.0, root3 / 2], atol=1e-14)
    assert t.beta == 0.0
    assert abs(t.L - 4 * math.pi / root3) < 1e-12


def test_resonant_family_rejects_stiff_mode():
    with pytest.raises(ValueError):
        resonant_family(1, 1, 2, math.pi)


def test_resonant_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k, l, n = (int(rng.integers(1, 6)) for _ in range(3))
        B = math.pi * n / 2 * (1.1 + 2 * rng.random())
        t = resonant_family(k, l, n, B)
        assert max(t.identity_residuals().values()) < 1e-12
        assert float(t.cubic_residuals().max()) < 1e-10


def test_critical_residual_golden():
    assert abs(critical_residual(4 * math.pi / math.sqrt(3), math.pi, 1, 1, 1)) < 1e-14
    assert abs(critical_residual(TWO_PI * math.sqrt(2), math.pi / math.sqrt(2),
                                 1, 1, 1)) < 1e-14
    assert critical_residual(10.0, 10.0, 1, 1, 1) < 0.0


def test_formula_consistency_over_indices():
    # the closed-form length always zeroes the critical residual
    for k in range(1, 6):
        for l in range(1, 6):
            for n in range(1, 6):
                for B in (math.pi * n / 2 * 1.3, math.pi * n / 2 * 2.7):
                    xi = mode_xi(n, B)
                    L = critical_length(k, l, xi).L
                    assert abs(critical_residual(L, B, k, l, n)) < 1e-12


def test_enumerate_critical_alpha0_empty():
    assert enumerate_critical(100.0, 100.0, 3, 3, 3, alpha=0) == []


def test_enumerate_critical_contains_counterexample():
    rects = enumerate_critical(8.0, 4.0, 2, 2, 2, alpha=1)
    hits = [r for r in rects
            if (r.k, r.l, r.n) == (1, 1, 1)
            and abs(r.L - 4 * math.pi / math.sqrt(3)) < 1e-12
            and abs(r.B - math.pi) < 1e-12]
    assert hits and hits[0].is_critical


def test_enumerate_critical_small_bounds_empty():
    assert enumerate_critical(2.0, 2.0, 2, 2, 2, alpha=1) == []


@pytest.mark.parametrize("call, name", [
    (lambda: enumerate_critical(10.0, 10.0, 1.5, 1, 1, 1), "k_max"),
    (lambda: enumerate_critical(10.0, 10.0, True, 1, 1, 1), "k_max"),
    (lambda: enumerate_critical(10.0, 10.0, 1, 2.0, 1, 1), "l_max"),
    (lambda: enumerate_critical(10.0, 10.0, 1, 1, 0, 1), "n_max"),
    (lambda: enumerate_critical(10.0, 10.0, 1, 1, True, 0), "n_max"),
    (lambda: kdv_critical_set(1.5, 1), "k_max"),
    (lambda: kdv_critical_set(True, 1), "k_max"),
    (lambda: kdv_critical_set(1, True), "l_max"),
    (lambda: kdv_critical_set(1, 0), "l_max"),
])
def test_index_bounds_must_be_ints(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        call()


@pytest.mark.parametrize("L_max, B_max, name", [
    (math.nan, 10.0, "L_max"),
    (math.inf, 10.0, "L_max"),
    (-1.0, 10.0, "L_max"),
    (True, 10.0, "L_max"),
    (10.0, math.nan, "B_max"),
    (10.0, -math.inf, "B_max"),
    (10.0, 0.0, "B_max"),
])
def test_enumerate_critical_rejects_length_bounds(L_max, B_max, name):
    for alpha in (0, 1):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            enumerate_critical(L_max, B_max, 1, 1, 1, alpha)


def test_minimal_critical_rectangle():
    assert abs(minimal_critical_rectangle(math.pi)
               - 4 * math.pi / math.sqrt(3)) < 1e-12
    assert abs(minimal_critical_rectangle(1e9) - TWO_PI) < 1e-9
    assert abs(minimal_critical_rectangle(math.pi / math.sqrt(2))
               - TWO_PI * math.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        minimal_critical_rectangle(math.pi / 2)


def test_kdv_critical_set():
    assert np.allclose(kdv_critical_set(1, 1), [TWO_PI], atol=1e-14)
    got = kdv_critical_set(2, 2)
    expected = [TWO_PI, TWO_PI / math.sqrt(3) * math.sqrt(7), 4 * math.pi]
    assert np.allclose(got, expected, atol=1e-12)
    assert any(abs(v - TWO_PI) < 1e-12 for v in got)


def test_kdv_set_matches_critical_length_at_xi0():
    vals = kdv_critical_set(5, 5)
    lengths = sorted({round(critical_length(k, l, 0.0).L, 12)
                      for k in range(1, 6) for l in range(1, 6)})
    assert np.allclose(vals, lengths, atol=1e-11)


def test_build_profile_counterexample_form():
    t = resonant_family(1, 1, 1, math.pi)
    p = build_profile(t)
    xs = np.linspace(0.0, t.L, 501)
    target = (1 - np.cos(math.sqrt(3) * xs / 2)) / 2.0
    assert p.is_real
    assert np.max(np.abs(p(xs) - target)) < 1e-12


def test_build_profile_kdv_mode():
    t = ResonantTriple(s1=-1.0, s2=0.0, s3=1.0, beta=0.0, xi=0.0,
                       k=1, l=1, L=TWO_PI)
    p = build_profile(t)
    xs = np.linspace(0.0, TWO_PI, 501)
    assert np.max(np.abs(p(xs) - (1 - np.cos(xs)) / 2.0)) < 1e-12


def test_build_profile_rejects_repeated_roots():
    t = ResonantTriple(s1=0.0, s2=0.0, s3=1.0, beta=0.0, xi=0.0,
                       k=1, l=1, L=TWO_PI)
    with pytest.raises(ValueError):
        build_profile(t)


def test_profile_boundary_constraints_dense():
    for (k, l, n, B) in [(1, 1, 1, math.pi), (2, 2, 1, 2.0), (1, 2, 1, math.pi),
                         (3, 1, 2, 2 * math.pi)]:
        t = resonant_family(k, l, n, B)
        p = build_profile(t)
        ends = np.array([0.0, t.L])
        assert np.max(np.abs(p(ends))) < 1e-10
        assert np.max(np.abs(p.derivative(ends))) < 1e-10
        xs = np.linspace(0.0, t.L, 10_000)
        assert np.max(np.abs(p(xs))) <= 1.0 + 1e-10


def test_stationary_mode_matches_closed_form():
    mode = stationary_mode(1, 1, 1, math.pi)
    xs = np.linspace(0.0, mode.triple.L, 41)
    ys = np.linspace(-math.pi, math.pi, 31)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    target = np.cos(Y / 2) * (1 - np.cos(math.sqrt(3) * X / 2)) / 2.0
    assert np.max(np.abs(mode(X, Y) - target)) < 1e-12


def test_stationary_mode_walls_vanish():
    for (k, l, n, B) in [(1, 1, 1, math.pi), (1, 1, 2, 4.0)]:
        mode = stationary_mode(k, l, n, B)
        L = mode.triple.L
        ys = np.linspace(-B, B, 17)
        xs = np.linspace(0.0, L, 17)
        assert np.max(np.abs(mode(np.zeros_like(ys), ys))) < 1e-12
        assert np.max(np.abs(mode(np.full_like(ys, L), ys))) < 1e-12
        assert np.max(np.abs(mode(xs, np.full_like(xs, B)))) < 1e-12
        assert np.max(np.abs(mode(xs, np.full_like(xs, -B)))) < 1e-12


def _direct_coeffs(triple):
    """Reference normaliser: max |p| of the complex profile on 8193 samples of
    [0, L], refined by a parabola through the grid maximum and its neighbours."""
    s = triple.roots
    raw = np.array([s[1] - s[2], s[2] - s[0], s[0] - s[1]])
    xs = np.linspace(0.0, triple.L, 8193)
    p = np.zeros(xs.shape, dtype=complex)
    for sj, cj in zip(s, raw):
        p += cj * np.exp(1j * sj * xs)
    mag = np.abs(p)
    i = int(np.argmax(mag))
    amp = float(mag[i])
    if 0 < i < mag.size - 1:
        ym, y0, yp = mag[i - 1], mag[i], mag[i + 1]
        denom = ym - 2.0 * y0 + yp
        if denom < 0.0:
            amp = float(y0 - (yp - ym) ** 2 / (8.0 * denom))
    return raw / amp


def test_profile_amplitude_matches_direct_sampling():
    worst = 0.0
    for k in range(1, 13):
        for l in range(1, 13):
            for n, B in ((1, math.pi), (2, 2.7 * math.pi)):
                t = resonant_family(k, l, n, B)
                got = np.array(build_profile(t).coeffs)
                want = _direct_coeffs(t)
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst < 1e-12


def test_build_profile_rejects_inconsistent_spacing():
    t = resonant_family(1, 2, 1, math.pi)
    with pytest.raises(ValueError, match="spacing s2 - s1"):
        build_profile(replace(t, k=2, l=1))
    with pytest.raises(ValueError, match="spacing s2 - s1"):
        build_profile(replace(t, L=t.L * (1 + 1e-9)))
    with pytest.raises(ValueError, match="spacing s3 - s2"):
        build_profile(replace(t, s3=t.s3 + 1e-9))
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        build_profile(replace(t, k=True))


def test_profile_amplitude_cache_is_order_free():
    triples = [resonant_family(k, l, n, B)
               for k in range(1, 5) for l in range(1, 5)
               for n, B in ((1, math.pi), (1, 2.0), (2, 5.0))]
    _unit_amplitude.cache_clear()
    first = [build_profile(t).coeffs for t in triples]
    _unit_amplitude.cache_clear()
    order = np.random.default_rng(7).permutation(len(triples))
    again = {int(i): build_profile(triples[i]).coeffs for i in order}
    assert all(again[i] == first[i] for i in range(len(triples)))
