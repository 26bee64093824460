import numpy as np
import pytest

from tfamalgam import (
    fourier,
    gaussian_stft_oracle,
    gaussian_stft_symbol,
    inner_product,
    inverse_fourier,
    make_grid,
    make_signal,
    make_symbol,
    sample,
    stft,
    synthesis,
    transforms,
    window_domination_check,
)
from tfamalgam.families import bump, chirp_family, gaussian_family
from tfamalgam.norms import lp_norm
from tfamalgam.transforms import _TASK_ELEMENTS, dft_centered


def _rand_signal(grid, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    return make_signal(grid, z * np.exp(-np.pi * (grid.points / (grid.L / 5)) ** 2))


# --- fourier -------------------------------------------------------------


def test_fourier_matches_direct_sum():
    g = make_grid(4, 4)
    f = _rand_signal(g)
    F = fourier(f)
    direct = np.array(
        [g.h * np.sum(f.samples * np.exp(-2j * np.pi * w * g.points)) for w in F.grid.points]
    )
    assert np.abs(F.samples - direct).max() <= 1e-12 * np.abs(direct).max()


def test_fourier_gaussian_fixed_point(phi):
    assert np.abs(fourier(phi).samples - phi.samples).max() < 1e-10


def test_fourier_dilated_gaussian(grid16):
    lam = 4.0
    f = sample(gaussian_family(lam), grid16)
    F = fourier(f)
    exact = lam**-0.5 * np.exp(-np.pi * F.grid.points**2 / lam)
    assert np.abs(F.samples - exact).max() < 1e-8


def test_fourier_parseval(noisy):
    assert lp_norm(fourier(noisy), 2) == pytest.approx(lp_norm(noisy, 2), rel=1e-10)


def test_fourier_inverse_roundtrip(noisy):
    back = inverse_fourier(fourier(noisy))
    assert np.abs(back.samples - noisy.samples).max() < 1e-12


def test_fourier_rejects_odd_density():
    g = make_grid(4, 5)
    f = make_signal(g, np.ones(g.N))
    with pytest.raises(ValueError):
        fourier(f)


# --- stft ----------------------------------------------------------------


def test_stft_matches_direct_sum():
    g = make_grid(4, 4)
    f, w = _rand_signal(g, 1), _rand_signal(g, 2)
    V = stft(f, w)
    n = g.N
    for j in (0, 3, 9):
        for k in (0, 7, 12):
            win = np.roll(w.samples, j - n // 2)
            direct = g.h * np.sum(
                f.samples * np.conj(win) * np.exp(-2j * np.pi * g.dual.points[k] * g.points)
            )
            assert abs(V.samples[j, k] - direct) <= 1e-10 * max(1.0, abs(direct))


def test_stft_orthogonality(grid16, phi):
    f = sample(gaussian_family(3.0), grid16)
    V = stft(f, phi)
    assert lp_norm(V, 2) == pytest.approx(lp_norm(f, 2) * lp_norm(phi, 2), rel=1e-8)


def test_stft_center_value(grid16, phi):
    V = stft(phi, phi)  # phi_1 is the lam = 1 member of the dilated family
    n = grid16.N
    assert abs(V.samples[n // 2, n // 2]) == pytest.approx(2**-0.5, abs=1e-8)


def test_stft_shift_covariance(grid16, phi, noisy):
    from tfamalgam import modulate, translate

    y, xi = 0.5, 1.25
    V0 = stft(noisy, phi).samples
    V1 = stft(modulate(translate(noisy, y), xi), phi).samples
    ky = grid16.shift_index(y)
    kxi = grid16.dual.shift_index(xi)
    shifted = np.roll(np.roll(V0, ky, axis=0), kxi, axis=1)
    assert np.abs(np.abs(V1) - np.abs(shifted)).max() < 1e-12


def test_stft_grid_mismatch(phi):
    other = sample(gaussian_family(1.0), make_grid(8, 16))
    with pytest.raises(ValueError):
        stft(phi, other)


# --- closed-form oracle ---------------------------------------------------


def test_oracle_values():
    assert gaussian_stft_oracle(1.0, 0.0, 0.0) == pytest.approx(2**-0.5)
    with pytest.raises(ValueError):
        gaussian_stft_oracle(-1.0, 0.0, 0.0)


def test_oracle_magnitude_formula():
    lam, x, w = 3.0, 0.4, -1.2
    val = gaussian_stft_oracle(lam, x, w)
    mag = (lam + 1) ** -0.5 * np.exp(-np.pi * (lam * x**2 + w**2) / (lam + 1))
    assert abs(val) == pytest.approx(mag, rel=1e-14)


def test_oracle_large_lambda_decay():
    vals = [abs(gaussian_stft_oracle(lam, 0.0, 0.0)) * lam**0.5 for lam in (1e4, 1e6, 1e8)]
    assert np.allclose(vals, 1.0, rtol=1e-3)


def test_oracle_agreement(grid16, phi):
    lam = 2.0
    V = stft(sample(gaussian_family(lam), grid16), phi)
    O = gaussian_stft_symbol(lam, grid16)
    assert np.abs(V.samples - O.samples).max() < 1e-6


# --- synthesis ------------------------------------------------------------


def test_synthesis_inversion(grid16, phi, noisy):
    rec = synthesis(stft(noisy, phi), phi)
    scale = lp_norm(phi, 2) ** 2
    err = np.abs(rec.samples - scale * noisy.samples).max() / np.abs(noisy.samples).max()
    assert err < 1e-6


def test_synthesis_zero(grid16, phi):
    F = make_symbol(grid16, grid16.dual, np.zeros((grid16.N, grid16.N)))
    assert np.all(synthesis(F, phi).samples == 0)


def test_synthesis_adjoint_on_stfts():
    g = make_grid(8, 16)
    phi8 = sample(gaussian_family(1.0), g)
    f = _rand_signal(g, 5)
    h = _rand_signal(g, 6)
    F = stft(f, phi8)
    lhs = inner_product(synthesis(F, phi8), h)
    Vh = stft(h, phi8)
    rhs = F.cell * np.sum(F.samples * np.conj(Vh.samples))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_synthesis_adjoint(grid16, phi):
    rng = np.random.default_rng(7)
    F = make_symbol(
        grid16,
        grid16.dual,
        (rng.standard_normal((grid16.N, grid16.N)) + 1j * rng.standard_normal((grid16.N, grid16.N)))
        * np.exp(-np.pi * (grid16.points[:, None] ** 2 + grid16.dual.points[None, :] ** 2) / 8),
    )
    g = _rand_signal(grid16, 3)
    lhs = inner_product(synthesis(F, phi), g)
    Vg = stft(g, phi)
    rhs = F.cell * np.sum(F.samples * np.conj(Vg.samples))
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


# --- algebraic identities -------------------------------------------------


def _neg_index(n):
    return (-(np.arange(n) - n // 2) + n // 2) % n


def test_switching_identity(grid16, phi):
    f = sample(gaussian_family(2.0), grid16)
    n = grid16.N
    Vfg = stft(phi, f).samples
    Vgf = stft(f, phi).samples
    X, W = np.meshgrid(grid16.points, grid16.dual.points, indexing="ij")
    neg = _neg_index(n)
    rhs = np.exp(-2j * np.pi * X * W) * np.conj(Vgf[np.ix_(neg, neg)])
    assert np.abs(Vfg - rhs).max() <= 1e-10 * np.abs(Vfg).max()


def test_fourier_swap_identity(grid16, phi):
    """On square grids the STFT of the transforms swaps the axes."""
    f = sample(gaussian_family(0.5), grid16)
    n = grid16.N
    V = stft(f, phi).samples
    Vhat = stft(fourier(f), fourier(phi)).samples
    X, W = np.meshgrid(grid16.points, grid16.dual.points, indexing="ij")
    neg = _neg_index(n)
    rhs = np.exp(-2j * np.pi * X * W) * Vhat[np.arange(n)[None, :], neg[:, None]]
    assert np.abs(np.abs(V) - np.abs(rhs)).max() < 1e-8
    assert np.abs(V - rhs).max() < 1e-8


def test_product_fourier_identity(grid16):
    """2-D transform of V_a f conj(V_b g) re-reads as STFT data at twisted arguments."""
    gauss = lambda lam: sample(gaussian_family(lam), grid16)
    f, g, p1, p2 = gauss(2.0), gauss(0.5), gauss(1.0), gauss(3.0)
    P = stft(f, p1).samples * np.conj(stft(g, p2).samples)
    ft = dft_centered(dft_centered(P.T, grid16.m).T, grid16.L)
    R = stft(f, g).samples * np.conj(stft(p1, p2).samples)
    neg = _neg_index(grid16.N)
    rhs = R[np.ix_(neg, np.arange(grid16.N))].T
    assert np.abs(ft - rhs).max() <= 1e-6 * np.abs(ft).max()


# --- window domination ----------------------------------------------------


def test_domination_gaussians(grid16, phi):
    f = sample(gaussian_family(2.0), grid16)
    assert window_domination_check(f, phi, phi, phi) <= 1e-6


def test_domination_chirp(grid16, phi):
    h4 = sample(chirp_family(bump(0.0, 1.0), 4.0), grid16)
    assert window_domination_check(h4, phi, phi, phi) <= 1e-5


def test_domination_homogeneity(grid16, phi):
    f = sample(gaussian_family(2.0), grid16)
    v1 = window_domination_check(f, phi, phi, phi)
    f3 = make_signal(grid16, 3.0 * f.samples)
    v3 = window_domination_check(f3, phi, phi, phi)
    assert v3 == pytest.approx(3.0 * v1, abs=1e-12)


def test_domination_near_orthogonal(grid16, phi):
    odd = make_signal(grid16, grid16.points * np.exp(-np.pi * grid16.points**2))
    with pytest.raises(ValueError):
        window_domination_check(phi, phi, phi, odd)


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
def test_domination_refuses_a_pairing_at_its_threshold_and_accepts_one_past_it(monkeypatch, grid16, phi, past):
    pairing = np.nextafter(1e-8, 1.0) if past else 1e-8
    monkeypatch.setattr(transforms, "inner_product", lambda gamma, g: pairing)
    f = sample(gaussian_family(2.0), grid16)
    if past:
        assert np.isfinite(window_domination_check(f, phi, phi, phi))
    else:
        with pytest.raises(ValueError, match="near-orthogonal"):
            window_domination_check(f, phi, phi, phi)


def test_stft_and_synthesis_match_literal_gather_over_chunks():
    # N = 2048 runs the row loop over 16 slabs of _TASK_ELEMENTS;
    # the reference gathers every window by index and transforms out of place
    grid = make_grid(16, 128)
    n = grid.N
    f = _rand_signal(grid, seed=3)
    g = make_signal(grid, np.exp(-np.pi * grid.points**2) * (1 + 0.5j * np.sin(grid.points)))
    V = stft(f, g)
    t = np.arange(n)
    s = np.where(t % 2, -1.0, 1.0)
    sign = -1.0 if (n // 2) % 2 else 1.0
    block = _TASK_ELEMENTS // n
    want_v = np.empty_like(V.samples)
    profiles = (sign * n / V.w_grid.m) * (s * np.fft.ifft(V.samples * s, axis=-1))
    want_s = np.zeros(n, dtype=np.complex128)
    for start in range(0, n, block):
        shifts = np.arange(start, min(start + block, n)) - n // 2
        idx = (t[None, :] - shifts[:, None]) % n
        # named so that numpy keeps the operand order (it may swap it to reuse a temporary)
        conj_windows, windows = np.conj(g.samples)[idx], g.samples[idx]
        product = f.samples * conj_windows
        want_v[start : start + block] = (sign / grid.m) * (s * np.fft.fft(product * s, axis=-1))
        want_s += (profiles[start : start + block] * windows).sum(axis=0)
    assert np.array_equal(V.samples, want_v)
    assert np.array_equal(synthesis(V, g).samples, V.x_grid.h * want_s)
