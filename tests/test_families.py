import copy
import pickle

import numpy as np
import pytest

from tfamalgam import (
    SampledSymbol,
    amalgam_norm,
    as_exponent,
    gaussian_stft_symbol,
    inverse_fourier,
    lp_norm,
    make_grid,
    sample,
    stft,
)
from tfamalgam.experiments import fit_scaling
from tfamalgam.families import (
    bump,
    chirp_family,
    chirped_gaussian,
    gaussian_family,
    indicator,
    predicted_exponent,
    sharpness_symbol,
)


def test_gaussian_family_basics():
    w = gaussian_family(1.0)
    assert w.evaluator(np.array([0.0]))[0] == 1.0
    with pytest.raises(ValueError):
        gaussian_family(0.0)


def test_chirp_has_profile_magnitude(grid16):
    prof = bump(0.0, 1.0)
    h = sample(prof, grid16)
    h4 = sample(chirp_family(prof, 4.0), grid16)
    assert np.allclose(np.abs(h4.samples), np.abs(h.samples))
    # and the chirp is exactly the profile times the quadratic phase
    phase = np.exp(-1j * np.pi * 4.0 * grid16.points**2)
    assert np.array_equal(h4.samples, h.samples * phase)


def test_chirped_gaussian_reduces_to_gaussian(grid16):
    a = sample(chirped_gaussian(1.0, 0.0), grid16)
    b = sample(gaussian_family(1.0), grid16)
    assert np.abs(a.samples - b.samples).max() < 1e-15
    with pytest.raises(ValueError):
        chirped_gaussian(0.0, 1.0)


def test_bump_properties():
    w = bump(0.0, 1.0)
    t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    v = w.evaluator(t)
    assert v[2] == 1.0
    assert v[0] == v[4] == v[5] == 0.0
    assert np.all(v >= 0)
    assert w.support_radius == 1.0
    with pytest.raises(ValueError):
        bump(0.0, -1.0)


def test_indicator_flags():
    w = indicator(0.0, 1.0)
    assert w.evaluator(np.array([0.0, 0.5, 1.0]))[2] == 0.0
    with pytest.raises(ValueError):
        indicator(1.0, 1.0)


# --- sharpness symbol -------------------------------------------------------


def test_sharpness_symbol_parseval():
    g = make_grid(8, 64)
    prof = bump(0.0, 1.0)
    h = sample(prof, g)
    a = sharpness_symbol(prof, 4.0, g)
    assert lp_norm(a, 2) == pytest.approx(lp_norm(h, 2) ** 2, abs=1e-8)


def test_sharpness_symbol_guard():
    g = make_grid(8, 16)
    with pytest.raises(ValueError):
        sharpness_symbol(bump(0.0, 1.0), 100.0, g)


def test_sharpness_symbol_separable_structure():
    g = make_grid(8, 32)
    prof = bump(0.0, 1.0)
    a = sharpness_symbol(prof, 2.0, g)
    h = sample(prof, g)
    w_factor = inverse_fourier(sample(chirp_family(prof, 2.0), g))
    assert np.abs(a.samples - np.outer(h.samples, w_factor.samples)).max() < 1e-14


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))])
def test_a_copy_of_a_sharpness_symbol_is_a_plain_symbol_of_its_samples(duplicate):
    a = sharpness_symbol(bump(0.0, 1.0), 2.0, make_grid(8, 32))
    b = duplicate(a)
    assert type(b) is SampledSymbol
    assert (b.x_grid, b.w_grid) == (a.x_grid, a.w_grid)
    assert np.array_equal(b.samples, a.samples)


def test_sharpness_symbol_no_chirp():
    # at rate zero the frequency factor is just the inverse transform of h
    g = make_grid(8, 32)
    prof = bump(0.0, 1.0)
    a0 = sharpness_symbol(prof, 0.0, g)
    h = sample(prof, g)
    expected = np.outer(h.samples, inverse_fourier(h).samples)
    assert np.abs(a0.samples - expected).max() < 1e-14


def test_sharpness_symbol_amalgam_scaling():
    g = make_grid(8, 256)
    prof = bump(0.0, 1.0)
    for q in (2.0, 4.0):
        vals = [
            (lam, amalgam_norm(sharpness_symbol(prof, lam, g), q, q))
            for lam in (4.0, 8.0, 16.0, 32.0)
        ]
        assert fit_scaling(vals).slope == pytest.approx(1 / q - 0.5, abs=0.05)


# --- predicted exponents -----------------------------------------------------


@pytest.mark.parametrize(
    "claim,kwargs,expected",
    [
        ("chirp-ft", {"q": 2}, 0.0),
        ("chirp-ft", {"q": 1}, 0.5),
        ("gaussian-amalgam", {"p": 2}, -0.25),
        ("gaussian-amalgam", {"p": "inf"}, 0.0),
        ("stft-amalgam", {"q": 2}, -0.25),
        ("stft-amalgam", {"q": 4}, -0.375),
        ("stft-amalgam", {"q": "4/3"}, -0.125),
        ("locop-lower", {"r": 4}, -0.25),
        ("locop-sharpness-ratio", {"q": "inf", "r": 2}, 0.0),
        ("locop-sharpness-ratio", {"q": 8, "r": 8}, 0.25),
    ],
)
def test_predicted_exponent(claim, kwargs, expected):
    assert predicted_exponent(claim, **kwargs) == pytest.approx(expected)


def test_predicted_exponent_errors():
    with pytest.raises(ValueError):
        predicted_exponent("nope", q=2)
    with pytest.raises(ValueError):
        predicted_exponent("chirp-ft")


# --- invariants --------------------------------------------------------------


def test_oracle_agreement_family(grid16, phi):
    for lam in (0.5, 1.0, 2.0, 4.0):
        V = stft(sample(gaussian_family(lam), grid16), phi)
        diff = np.abs(V.samples - gaussian_stft_symbol(lam, grid16).samples).max()
        assert diff <= 1e-6


def test_chirped_gaussian_amalgam_shape():
    """Amalgam norms of real Gaussians track a^{-1/(2q)} (a+1)^{(1/q-1/p)/2}."""
    g = make_grid(32, 64)
    p, q = as_exponent(1), as_exponent(2)
    ratios, norms = [], []
    for a in (0.25, 1.0, 4.0, 16.0):
        f = sample(chirped_gaussian(a, 0.0), g)
        n = amalgam_norm(f, p, q)
        pred = a ** (-q.reciprocal / 2) * (a + 1) ** ((q.reciprocal - p.reciprocal) / 2)
        ratios.append(n / pred)
        norms.append(n)
    ratios, norms = np.array(ratios), np.array(norms)
    assert norms.max() / norms.min() >= 4.0
    assert ratios.max() / ratios.min() < 2.0
