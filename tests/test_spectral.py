import math
from dataclasses import replace

import numpy as np
import pytest

from zklab import (build_grid, build_profile, critical_length, critical_residual,
                   minimal_critical_rectangle, mode_xi, resonant_family, stationary_mode)
from zklab.spectral import ResonantTriple, _parabolic_peak, _unit_amplitude

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


def test_critical_length_golden():
    assert abs(critical_length(1, 1, 0.0).L - TWO_PI) < 1e-12
    assert abs(critical_length(1, 1, 0.25).L - 4 * math.pi / math.sqrt(3)) < 1e-12
    assert abs(critical_length(1, 2, 0.0).L
               - TWO_PI / math.sqrt(3) * math.sqrt(7)) < 1e-12
    assert abs(critical_length(2, 2, 0.0).L - 4 * math.pi) < 1e-12
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


def test_stationary_family_has_zero_beta_and_real_profiles():
    # s1 s2 s3 rounds to -8.06e-17 here; the closed-form beta is exactly 0.
    t = resonant_family(2, 2, 1, 3.0)
    assert t.beta == 0.0
    assert build_profile(t).is_real


def test_product_identity_is_not_zero_by_construction():
    # C02's tuples: beta is not stored as -s1 s2 s3, so the product
    # residual measures the roots' rounding instead of reading 0.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        k, l, n = (int(rng.integers(1, 6)) for _ in range(3))
        B = math.pi * n / 2 * (1.05 + 2.95 * rng.random())
        worst = max(worst, resonant_family(k, l, n, B).identity_residuals()["product"])
    assert 0.0 < worst <= 1e-12


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


def test_minimal_critical_rectangle():
    assert abs(minimal_critical_rectangle(math.pi)
               - 4 * math.pi / math.sqrt(3)) < 1e-12
    assert abs(minimal_critical_rectangle(1e9) - TWO_PI) < 1e-9
    assert abs(minimal_critical_rectangle(math.pi / math.sqrt(2))
               - TWO_PI * math.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        minimal_critical_rectangle(math.pi / 2)


def test_kdv_critical_set():
    # At xi = 0 the critical lengths are the KdV critical set of Rosier.
    def kdv_set(k_max, l_max):
        return sorted({round(critical_length(k, l, 0.0).L, 12)
                       for k in range(1, k_max + 1) for l in range(1, l_max + 1)})
    assert np.allclose(kdv_set(1, 1), [TWO_PI], atol=1e-12)
    expected = [TWO_PI, TWO_PI / math.sqrt(3) * math.sqrt(7), 4 * math.pi]
    assert np.allclose(kdv_set(2, 2), expected, atol=1e-12)


def test_kdv_set_matches_critical_length_at_xi0():
    # (2 pi / sqrt 3) sqrt(k^2 + kl + l^2) for every k, l <= 5.
    for k in range(1, 6):
        for l in range(1, 6):
            want = TWO_PI / math.sqrt(3) * math.sqrt(k * k + k * l + l * l)
            assert abs(critical_length(k, l, 0.0).L - want) < 1e-11


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
        # The scalar end sums agree with the profile's own array evaluator,
        # real (k = l) and complex alike.
        assert p.is_real == (k == l)

        def oracle(x):
            at = np.array([0.0, x])
            return np.concatenate([np.abs(p(at)), np.abs(p.derivative(at))])

        residuals = p.boundary_residuals(t.L)
        assert len(residuals) == 4 and all(type(r) is float for r in residuals)
        np.testing.assert_allclose(residuals, oracle(t.L), rtol=0, atol=1e-15)
        # At x = L the three phases are equal, so |p(L)| = |p(0)| for any
        # coefficients; an end away from the period checks the phases.
        np.testing.assert_allclose(p.boundary_residuals(0.3 * t.L), oracle(0.3 * t.L),
                                   rtol=1e-12, atol=1e-15)
        # A profile off the constraints reads well above the suite's 1e-10.
        c1, c2, c3 = p.coeffs
        off = replace(p, coeffs=(c1 * (1.0 + 1e-6), c2, c3))
        assert max(off.boundary_residuals(t.L)) > 1e-10


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
    s = np.array([triple.s1, triple.s2, triple.s3])
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


def _per_root_series(profile, x, weights):
    """Oracle: sum_j w_j exp(i s_j x), accumulated one root at a time."""
    x = np.asarray(x, dtype=float)
    p = np.zeros(x.shape, dtype=complex)
    for sj, wj in zip(profile.s, weights):
        p += wj * np.exp(1j * sj * x)
    return p.real if profile.is_real else p


def test_profile_evaluation_matches_the_per_root_sum():
    for k, l in ((2, 2), (1, 3)):   # beta = 0 gives a real profile, k != l a complex one
        t = resonant_family(k, l, 1, math.pi)
        prof = build_profile(t)
        assert prof.is_real == (k == l)
        line = np.linspace(0.0, t.L, 257)
        X = build_grid(t.L, math.pi, 63, 31).xs()[:, None]  # the column sample_field passes
        slopes = [1j * sj * cj for sj, cj in zip(prof.s, prof.coeffs)]
        for evaluate, weights in ((prof, prof.coeffs), (prof.derivative, slopes)):
            scale = np.max(np.abs(_per_root_series(prof, line, weights)))
            for x in (0.3 * t.L, line, X):
                got, want = evaluate(x), _per_root_series(prof, x, weights)
                assert np.shape(got) == np.shape(x)
                assert np.isrealobj(got) == prof.is_real
                assert np.max(np.abs(got - want)) <= 1e-14 * scale


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


# Flat or convex samples have no interior vertex above the grid maximum.
@pytest.mark.parametrize("samples", [(1.0, 1.0, 1.0), (2.0, 1.0, 3.0), (0.5, 1.0, 1.5)])
def test_parabolic_peak_keeps_the_sample_unless_strictly_concave(samples):
    peak = _parabolic_peak(*samples)
    assert type(peak) is float and peak == samples[1]
