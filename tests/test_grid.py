import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfamalgam import (
    AliasingWarning,
    ExtendedExponent,
    TailTruncationWarning,
    as_exponent,
    inner_product,
    make_grid,
    make_signal,
    max_alias_free_lambda,
    modulate,
    sample,
    translate,
)
from tfamalgam.families import bump, chirp_family, gaussian_family, indicator
from tfamalgam.norms import lp_norm


# --- grids ---------------------------------------------------------------


def test_make_grid_small_points():
    g = make_grid(2, 2)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5])
    assert np.allclose(g.freqs, [-1.0, -0.5, 0.0, 0.5])


def test_make_grid_arithmetic():
    g = make_grid(16, 16)
    assert g.N == 256
    assert g.h == 1 / 16
    assert g.freq_step == 1 / 16


@pytest.mark.parametrize("L,m", [(3, 2), (0, 2), (-4, 2), (4, 0)])
def test_make_grid_rejects(L, m):
    with pytest.raises(ValueError):
        make_grid(L, m)


def test_unit_cube_partition():
    g = make_grid(6, 5)
    blocks = g.points.reshape(g.L, g.m)
    # each block starts at an integer and spans one unit
    assert np.allclose(blocks[:, 0], np.arange(-3, 3))
    assert np.all(blocks[:, -1] < blocks[:, 0] + 1)


def test_dual_grid_roundtrip():
    g = make_grid(4, 6)
    assert g.dual == make_grid(6, 4)
    assert g.dual.dual == g
    with pytest.raises(ValueError):
        make_grid(4, 5).dual  # odd density: frequency cubes not aligned


# --- exponents -----------------------------------------------------------


def test_exponent_parse():
    assert as_exponent("inf").is_inf
    assert as_exponent("4/3").value == pytest.approx(4 / 3)
    assert as_exponent(2).value == 2.0
    assert float(as_exponent("1.5")) == 1.5


@pytest.mark.parametrize("bad", [0.5, 0, -1, "half"])
def test_exponent_rejects(bad):
    with pytest.raises(ValueError):
        as_exponent(bad)


def test_string_exponents_are_parsed_once_and_errors_still_raise():
    assert as_exponent("4/3") == as_exponent(4 / 3)
    assert as_exponent(" INF ") == as_exponent(math.inf)
    assert as_exponent("4/3") is as_exponent("4/3")  # frozen, so shared
    for bad in ("half", "1/2", "2/x", "1/0", "0.5"):
        for _ in range(2):  # a failure is not memoised
            with pytest.raises(ValueError):
                as_exponent(bad)


def test_exponent_conjugates():
    assert as_exponent(1).conjugate.is_inf
    assert as_exponent("inf").conjugate.value == 1.0
    assert as_exponent(2).conjugate.value == 2.0
    assert as_exponent("4/3").conjugate.value == pytest.approx(4.0)


@given(st.one_of(st.floats(min_value=1.0, max_value=1e6), st.just(math.inf)))
@settings(max_examples=50, deadline=None)
def test_conjugate_involution(p):
    e = ExtendedExponent(p)
    back = e.conjugate.conjugate
    if e.is_inf:
        assert back.is_inf
    else:
        # reciprocals are the numerically stable coordinates near p = 1 or inf
        assert back.reciprocal == pytest.approx(e.reciprocal, abs=1e-9)
    assert e.reciprocal + e.conjugate.reciprocal == pytest.approx(1.0)


# --- sampling ------------------------------------------------------------


def test_sample_gaussian(grid16):
    f = sample(gaussian_family(1.0), grid16)
    assert f.samples[grid16.N // 2] == 1.0
    assert f.tail_mass < 1e-12


def test_sample_indicator(grid16):
    f = sample(indicator(0.0, 1.0), grid16)
    assert int(np.count_nonzero(f.samples)) == grid16.m
    assert np.all(f.samples[np.nonzero(f.samples)] == 1.0)


def test_sample_tail_warning():
    wide = gaussian_family(0.05)
    with pytest.warns(TailTruncationWarning):
        sample(wide, make_grid(4, 16))


def test_sample_chirp_alias_warning(grid16):
    lam_max = max_alias_free_lambda(grid16, 1.0)
    with pytest.warns(AliasingWarning):
        sample(chirp_family(bump(0.0, 1.0), 2 * lam_max), grid16)


def test_alias_guard_values():
    assert max_alias_free_lambda(make_grid(2, 64), 1.0, margin=8.0) == 24.0
    g1, g2 = make_grid(2, 64), make_grid(2, 128)
    assert max_alias_free_lambda(g2, 1.0) == 2 * max_alias_free_lambda(g1, 1.0)
    with pytest.raises(ValueError):
        max_alias_free_lambda(g1, 0.0)


def test_alias_guard_not_vacuous():
    """A chirp at twice the guard rate pushes spectral mass past half-Nyquist."""
    from tfamalgam.transforms import fourier

    g = make_grid(4, 64)
    lam = 2 * max_alias_free_lambda(g, 1.0)
    with pytest.warns(AliasingWarning):
        h = sample(chirp_family(bump(0.0, 1.0), lam), g)
    spec = np.abs(fourier(h).samples)
    beyond = np.abs(g.dual.points) > g.m / 4
    assert spec[beyond].sum() / spec.sum() > 0.01


# --- shifts --------------------------------------------------------------


def test_shift_identities(phi):
    assert np.array_equal(translate(phi, 0.0).samples, phi.samples)
    assert np.array_equal(modulate(phi, 0.0).samples, phi.samples)


def test_shift_unitarity(noisy):
    f = noisy
    assert lp_norm(translate(f, 0.5), 2) == pytest.approx(lp_norm(f, 2), rel=1e-15)
    assert lp_norm(modulate(f, 0.25), 2) == pytest.approx(lp_norm(f, 2), rel=1e-15)


def test_modulate_translate_magnitude(noisy):
    lhs = modulate(translate(noisy, 0.5), 0.25)
    assert np.allclose(np.abs(lhs.samples), np.abs(translate(noisy, 0.5).samples))


@given(st.integers(min_value=-64, max_value=64), st.integers(min_value=-32, max_value=32))
@settings(max_examples=25, deadline=None)
def test_commutation_phase(jx, kw):
    g = make_grid(4, 8)
    f = make_signal(g, np.exp(-np.pi * g.points**2) * (1 + 0.7j))
    x, w = jx * g.h, kw * g.freq_step
    lhs = modulate(translate(f, x), w).samples
    rhs = np.exp(2j * np.pi * w * x) * translate(modulate(f, w), x).samples
    # pure rearrangement up to rounding of the (possibly large) phase argument
    assert np.abs(lhs - rhs).max() < 1e-12


def test_off_lattice_rejected(phi):
    with pytest.raises(ValueError):
        translate(phi, 0.001)
    with pytest.raises(ValueError):
        modulate(phi, 0.001)


# --- inner product -------------------------------------------------------


def test_inner_product_gaussian(phi):
    val = inner_product(phi, phi)
    assert val.imag == 0.0
    assert val.real == pytest.approx(2**-0.5, abs=1e-10)


def test_inner_product_shift_invariance(phi):
    shifted_l = modulate(translate(phi, 1.5), 0.5)
    assert inner_product(shifted_l, shifted_l).real == pytest.approx(
        inner_product(phi, phi).real, rel=1e-14
    )


def test_inner_product_grid_mismatch(phi):
    other = sample(gaussian_family(1.0), make_grid(8, 16))
    with pytest.raises(ValueError):
        inner_product(phi, other)


def test_inner_product_determinism(noisy):
    vals = {inner_product(noisy, noisy) for _ in range(5)}
    assert len(vals) == 1
