import copy
import pickle
import warnings

import numpy as np
import pytest

from zklab import build_grid, sample_field, stationary_mode
from zklab.geometry import Field, Grid, check_int


def test_spacings_match_definition():
    g = build_grid(2 * np.pi, np.pi, 63, 63)
    assert g.hx == 2 * np.pi / 64
    assert g.hy == 2 * np.pi / 64


def test_nx_below_minimum_rejected():
    with pytest.raises(ValueError, match="nx"):
        build_grid(1.0, 1.0, 7, 8)


def test_grid_rejects_coarse_float_and_bool():
    # No grid below the stencils' reach exists to differentiate: the Grid
    # constructor applies the config's rules, also when called directly.
    with pytest.raises(ValueError, match="^nx must"):
        Grid(1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="^L must"):
        build_grid(True, 1.0, 16, 16)
    with pytest.raises(ValueError, match="^nx must"):
        build_grid(1.0, 1.0, 16.0, 16)


@pytest.mark.parametrize("v", [0, -3, True, 2.0, "3", None])
def test_check_int_rejects_with_one_message(v):
    with pytest.raises(ValueError, match=rf"^k must be an integer >= 1, got {v!r}$"):
        check_int("k", v, 1)


def test_check_int_accepts_ints_from_lo():
    for lo, v in ((1, 1), (1, 10 ** 30), (8, 8), (-2, -2)):
        check_int("n", v, lo)


@pytest.mark.parametrize("L,B", [(0.0, 1.0), (-1.0, 1.0), (1.0, np.inf), (1.0, np.nan)])
def test_bad_dimensions_rejected(L, B):
    with pytest.raises(ValueError):
        build_grid(L, B, 16, 16)


def test_is_half_tells_every_column_from_the_even_half():
    g = build_grid(2.0, 1.0, 16, 31)
    assert not g.is_half(31) and g.is_half(16)
    with pytest.raises(ValueError, match=r"^30 columns or modes fit neither ny=31 nor its even "
                                         r"half \(ny\+1\)/2=16$"):
        g.is_half(30)
    # An even ny has no centre column, so no count but ny fits.
    with pytest.raises(ValueError, match=r"ny=32 nor its even half \(ny\+1\)/2=16.5$"):
        build_grid(2.0, 1.0, 16, 32).is_half(16)


def test_counterexample_rectangle_grid():
    g = build_grid(4 * np.pi / np.sqrt(3), np.pi, 127, 127)
    assert g.nx == 127
    assert np.isclose(g.hx * 128, 4 * np.pi / np.sqrt(3), rtol=0, atol=1e-15)


def test_node_coordinates_no_drift():
    g = build_grid(3.7, 1.3, 200, 50)
    xs = g.xs()
    for i in (0, 1, 37, 123, 201):
        assert xs[i] == i * g.hx
    # y is measured from the centre line, so the nodes are exactly
    # antisymmetric for odd and even ny alike, B = pi at ny = 127 included.
    for g in (g, build_grid(3.7, 1.3, 200, 51), build_grid(1.0, np.pi, 8, 127)):
        ys = g.ys()
        for j in (0, 5, 25, g.ny + 1):
            assert ys[j] == (j - (g.ny + 1) / 2) * g.hy
        assert np.array_equal(ys, -ys[::-1])


def test_sample_zero_field():
    g = build_grid(1.0, 1.0, 8, 8)
    f = sample_field(g, lambda x, y: np.zeros_like(x))
    assert not f.values.any()


def test_sample_counterexample_mode_boundary():
    g = build_grid(4 * np.pi / np.sqrt(3), np.pi, 63, 63)
    f = sample_field(g, stationary_mode(1, 1, 1, np.pi))
    # the closed form vanishes on the walls up to rounding, so zeroing them
    # changes only that rounding
    assert np.max(np.abs(f.values - f.with_interior(f.interior).values)) < 1e-14


def test_sample_constant_not_clean():
    g = build_grid(1.0, 1.0, 8, 8)
    f = sample_field(g, lambda x, y: np.ones_like(x))
    # the sampled boundary layer is kept, not zeroed
    assert np.all(f.values[[0, -1], :] == 1.0) and np.all(f.values[:, [0, -1]] == 1.0)


def test_sample_rejects_non_finite():
    g = build_grid(1.0, 1.0, 8, 8)
    with pytest.raises(ValueError):
        sample_field(g, lambda x, y: np.where(x > 0.5, np.inf, 0.0))


def test_sample_rejects_complex_values():
    # numpy would keep the real part with only a ComplexWarning.
    g = build_grid(1.0, 1.0, 8, 8)
    for f in (lambda x, y: (1 + 1j) * np.sin(x) * np.cos(y), lambda x, y: 2j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^field values are complex \(complex128\)"):
                sample_field(g, f)


def test_field_rejects_complex_values():
    g = build_grid(1.0, 1.0, 8, 8)
    f = Field(g, np.zeros(g.shape))
    for values in (np.ones(g.shape) * (1 + 0j), np.zeros(g.shape, dtype=np.complex64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^field values are complex"):
                Field(g, values)
            with pytest.raises(ValueError, match="^field values are complex"):
                f.with_interior(values[1:-1, 1:-1])


def test_with_interior_zeroes_sampled_boundary():
    g = build_grid(1.0, 1.0, 8, 8)
    f = sample_field(g, lambda x, y: np.ones_like(x))
    f = f.with_interior(f.interior)
    assert not f.values[[0, -1], :].any() and not f.values[:, [0, -1]].any()
    assert np.all(f.interior == 1.0)


def test_with_interior_idempotent_bitwise():
    g = build_grid(2.0, 1.0, 16, 12)
    rng = np.random.default_rng(3)
    f = Field(g, rng.normal(size=g.shape))
    once = f.with_interior(f.interior)
    twice = once.with_interior(once.interior)
    assert np.array_equal(once.values, twice.values)


def test_enforce_on_sampled_mode_changes_only_rounding():
    g = build_grid(4 * np.pi / np.sqrt(3), np.pi, 63, 63)
    f = sample_field(g, stationary_mode(1, 1, 1, np.pi))
    clean = f.with_interior(f.interior)
    # the interior is kept bitwise; only the walls' rounding is zeroed
    assert np.array_equal(clean.interior, f.interior)
    assert np.max(np.abs(clean.values - f.values)) < 1e-14


def test_field_shape_and_immutability():
    g = build_grid(1.0, 1.0, 8, 8)
    with pytest.raises(ValueError):
        Field(g, np.zeros((5, 5)))
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_values_cannot_be_made_writeable_again():
    g = build_grid(1.0, 1.0, 8, 8)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="WRITEABLE"):
        f.values.flags.writeable = True
    with pytest.raises(ValueError, match="read-only"):
        f.values[3, 3] = 5.0
    assert not f.values.any()
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert np.array_equal(clone.values, f.values)
        with pytest.raises(ValueError, match="WRITEABLE"):
            clone.values.flags.writeable = True


def test_fields_built_on_their_own_array_are_frozen_too():
    # sample_field and with_interior hand the Field the array they built,
    # uncopied; it is frozen like a copy.
    g = build_grid(1.0, 1.0, 8, 8)
    for f in (sample_field(g, lambda x, y: x + y), Field(g, np.ones(g.shape)).with_interior(
            np.ones((g.nx, g.ny)))):
        with pytest.raises(ValueError, match="WRITEABLE"):
            f.values.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            f.values[3, 3] = 5.0


def test_field_compares_and_hashes_by_identity():
    g = build_grid(1.0, 1.0, 8, 8)
    a, b = Field(g, np.zeros(g.shape)), Field(g, np.zeros(g.shape))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_with_interior_copies_once_and_checks():
    g = build_grid(1.0, 2.0, 9, 12)
    interior = np.random.default_rng(5).normal(size=(9, 12))
    f = Field(g, np.zeros(g.shape)).with_interior(interior)
    assert not f.values[[0, -1], :].any() and not f.values[:, [0, -1]].any()
    assert np.array_equal(f.interior, interior)
    assert not np.shares_memory(f.values, interior)
    interior[0, 0] = 7.0
    assert f.values[1, 1] != 7.0
    with pytest.raises(ValueError):
        f.values[1, 1] = 1.0
    bad = interior.copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        f.with_interior(bad)
    with pytest.raises(ValueError, match="shape"):
        f.with_interior(interior[:, :-1])
    with pytest.raises(ValueError, match="shape"):
        f.with_interior(interior[0])
