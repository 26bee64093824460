"""Every norm reduces through the cube table: mixed, Triebel and symbol-mixed norms, and which inputs keep tables."""

import itertools

import numpy as np
import pytest

from tfamalgam import (
    NormSpec,
    amalgam_norm,
    evaluate_norm,
    fourier,
    inverse_fourier,
    lp_norm,
    make_grid,
    make_signal,
    mixed_lpq,
    mixed_lplq,
    modulation_norm_triebel,
    phase_space_symbol,
    sample,
    standard_window,
    stft,
    symbol_mixed_norm,
)
from tfamalgam.families import bump, chirp_family, chirped_gaussian, sharpness_symbol
from tfamalgam.grid import as_exponent
from tfamalgam.norms import _BLOCK, NORM_ARITY, _cube_table, partition_window
from tfamalgam.transforms import idft_centered

LATTICE = ("1", "4/3", "2", "4", "inf")
PAIRS = list(itertools.product(LATTICE, repeat=2))


def _sequence(values, q):
    q = as_exponent(q)
    values = np.asarray(values)
    return values.max() if q.is_inf else (values**q.value).sum() ** (1.0 / q.value)


def _triebel_per_band(f, p, q):
    """The frequency-decomposition norm one band at a time: lp_norm of each band, then l^q."""
    fhat = fourier(f)
    kmax = f.grid.m // 2 + 1
    band_norms = []
    for k in range(-kmax, kmax + 1):
        window = partition_window(fhat.grid.points, k)
        piece = inverse_fourier(make_signal(fhat.grid, fhat.samples * window))
        band_norms.append(lp_norm(piece, p))
    return _sequence(band_norms, q)


def _triebel_inputs():
    signals = [sample(chirped_gaussian(2.0, 1.0), make_grid(16, m)) for m in (16, 32, 64, 128)]
    # a chirp on a box side that is not a power of two, so the band lattice is not exact
    signals.append(sample(chirp_family(bump(0.0, 1.0), 16.0), make_grid(12, 64)))
    return signals


@pytest.mark.parametrize("f", _triebel_inputs(), ids=lambda f: f"L{f.grid.L}m{f.grid.m}")
def test_triebel_matches_per_band_loop(f):
    for p, q in (("1", "inf"), ("4/3", "2"), ("2", "2"), ("2", "4"), ("4", "1"), ("inf", "4/3")):
        assert modulation_norm_triebel(f, p, q) == pytest.approx(_triebel_per_band(f, p, q), rel=1e-12)


def _power_mean(values, weight, p, axis=None):
    """(weight * sum |x|^p)^(1/p) along ``axis`` in one unblocked pass (max for p = inf)."""
    p = as_exponent(p)
    a = np.abs(values)
    if p.is_inf:
        return a.max(axis=axis)
    return (weight * (a**p.value).sum(axis=axis)) ** (1.0 / p.value)


def _amalgam_rows(rows, grid, p, q):
    local = _power_mean(rows.reshape(rows.shape[:-1] + (grid.L, grid.m)), grid.h, p, axis=-1)
    return _power_mean(local, 1.0, q, axis=-1)


def _large_symbols():
    # a 1024 x 1024 STFT (blocks of 64 rows within rows of cubes of 128) and a
    # 512 x 512 symbol: both hold more than _BLOCK samples, so every row and
    # column view is blocked
    grid = make_grid(8, 128)
    v = stft(sample(chirped_gaussian(2.0, 3.0), grid), standard_window(grid))
    wide = phase_space_symbol(
        make_grid(32, 16), lambda x, w: np.exp(-np.pi * (x**2 + w**2 / 4) + 2j * np.pi * x * w)
    )
    return v, wide


@pytest.fixture(scope="module")
def large_symbols():
    symbols = _large_symbols()
    v = symbols[0]
    assert _BLOCK // v.w_grid.N < v.x_grid.m  # rows per block < rows per cube
    assert all(a.x_grid.N * a.w_grid.N > _BLOCK for a in symbols)
    return symbols


def test_mixed_norms_match_single_pass_reference(large_symbols):
    for F in large_symbols:
        hx, hw = F.x_grid.h, F.w_grid.h
        for p, q in PAIRS:
            want_pq = _power_mean(_power_mean(F.samples, hx, p, axis=0), hw, q)
            want_plq = _power_mean(_power_mean(F.samples, hw, q, axis=1), hx, p)
            assert mixed_lpq(F, p, q) == pytest.approx(want_pq, rel=1e-12)
            assert mixed_lplq(F, p, q) == pytest.approx(want_plq, rel=1e-12)


def test_symbol_mixed_norm_matches_single_pass_reference(large_symbols):
    inner_pairs = (("1", "inf"), ("4", "4/3"), ("2", "2"))
    for a in large_symbols:
        rows_time = idft_centered(a.samples, a.w_grid.m)
        for p2, q2 in inner_pairs:
            profile = _amalgam_rows(rows_time, a.w_grid.dual, p2, q2)
            for p1, q1 in PAIRS[::3]:
                want = _amalgam_rows(profile, a.x_grid, p1, q1)
                assert symbol_mixed_norm(a, p1, q1, p2, q2) == pytest.approx(want, rel=1e-12)


_SIGNAL_ONLY = ("flp", "modulation_stft", "modulation_triebel")
_SYMBOL_ONLY = ("mixed_lpq", "mixed_lplq", "symbol_mixed")


@pytest.mark.parametrize("kind", sorted(NORM_ARITY))
def test_only_a_streamed_symbol_keeps_cube_tables(kind):
    grid = make_grid(8, 16)
    f = sample(chirped_gaussian(2.0, 1.0), grid)
    read = [stft(f, standard_window(grid)), sharpness_symbol(bump(0.0, 1.0), 4.0, grid)]
    for a in read:
        a.samples  # read before any norm: the rows are read, not streamed
    signals = [f, make_signal(grid, np.array(f.samples))]
    symbols = [phase_space_symbol(grid, lambda x, w: np.exp(-np.pi * (x**2 + w**2))), *read]
    spec = NormSpec(kind, ("4/3", "inf", "2", "1")[: NORM_ARITY[kind]])
    for g in ([] if kind in _SYMBOL_ONLY else signals) + ([] if kind in _SIGNAL_ONLY else symbols):
        evaluate_norm(spec, g)
        assert "_cube_tables" not in g.__dict__
    if kind in ("lp", "amalgam"):
        v = stft(f, standard_window(grid))
        evaluate_norm(spec, v)
        assert list(v.__dict__["_cube_tables"]) == [as_exponent("4/3").value]
        assert not v.formed


def test_lp_and_amalgam_norm_of_a_streamed_symbol_read_the_same_table():
    f = sample(chirped_gaussian(2.0, 1.0), make_grid(8, 16))
    v = stft(f, standard_window(f.grid))
    p = as_exponent("4/3")
    amalgam = amalgam_norm(v, p, "4")
    lp = lp_norm(v, p)
    assert list(v.__dict__["_cube_tables"]) == [p.value]
    # a planted table shows that both norms read it rather than the rows
    v.__dict__["_cube_tables"][p.value] = 2.0 * _cube_table(v, p)
    assert amalgam_norm(v, p, "4") == pytest.approx(2.0 * amalgam, rel=1e-14)
    assert lp_norm(v, p) == pytest.approx(2.0 * lp, rel=1e-14)
    assert not v.formed
