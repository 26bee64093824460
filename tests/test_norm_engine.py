"""The cube-table norm engine behind lp_norm and amalgam_norm on symbols, and norm scaling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfamalgam import (
    NormSpec,
    SampledSignal,
    SampledSymbol,
    amalgam_norm,
    evaluate_norm,
    lp_norm,
    make_grid,
    make_signal,
    make_symbol,
    phase_space_symbol,
    sample,
    standard_window,
    stft,
)
from tfamalgam.families import bump, chirp_family, chirped_gaussian, gaussian_family
from tfamalgam.grid import as_exponent
from tfamalgam.norms import NORM_ARITY, _cube_table
from tfamalgam.transforms import StftPlan

LATTICE = ("1", "4/3", "2", "4", "inf")
PAIRS = list(itertools.product(LATTICE, repeat=2))


def _tiles(f):
    if isinstance(f, SampledSignal):
        return f.samples.reshape(f.grid.L, 1, 1, f.grid.m), f.grid.h
    gx, gw = f.x_grid, f.w_grid
    return f.samples.reshape(gx.L, gx.m, gw.L, gw.m), f.cell


def _reference_table(f, p):
    """Per-cube sum of |f|^p (max |f| for p = inf) in one unblocked pass."""
    tiles, _ = _tiles(f)
    if p.is_inf:
        return np.abs(tiles).max(axis=(1, 3))
    return (np.abs(tiles) ** p.value).sum(axis=(1, 3))


def _reference_norms(f, p, q):
    """(amalgam_norm, lp_norm) from the single-pass table, unscaled."""
    p, q = as_exponent(p), as_exponent(q)
    table = _reference_table(f, p)
    _, weight = _tiles(f)
    local = table if p.is_inf else (weight * table) ** (1.0 / p.value)
    amalgam = local.max() if q.is_inf else (local**q.value).sum() ** (1.0 / q.value)
    lp = table.max() if p.is_inf else (weight * table.sum()) ** (1.0 / p.value)
    return amalgam, lp


def _multi_block_inputs():
    # a 4096-sample signal, its STFT on a stride-16 time lattice (256 x 4096:
    # runs of rows within one row of cubes), and a 512 x 512 symbol (several
    # rows of cubes per block)
    grid = make_grid(8, 512)
    f = sample(chirped_gaussian(2.0, 3.0), grid)
    v = stft(f, standard_window(grid), StftPlan(grid, 16))
    wide = phase_space_symbol(make_grid(32, 16), lambda x, w: np.exp(-np.pi * (x**2 + w**2 / 4)))
    return f, v, wide


@pytest.fixture(scope="module")
def multi_block():
    return _multi_block_inputs()


def test_tables_match_single_pass_reference(multi_block):
    for f in multi_block[1:]:
        for p in LATTICE:
            p = as_exponent(p)
            ref = _reference_table(f, p)
            got = _cube_table(f, p)
            if not p.is_inf:
                got = got**p.value
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_scaled_tables_are_homogeneous_over_blocks(multi_block):
    # at these amplitudes |f|^p leaves the float range for most p, so the
    # per-cube scaled pass runs; where the plain pass is kept, cubes far below
    # the largest may underflow, so the bound is relative to the largest cube
    for f in multi_block[1:]:
        for amplitude in (1e-150, 1e150):
            scaled = _scaled(f, amplitude)
            for p in LATTICE:
                p = as_exponent(p)
                want = amplitude * _cube_table(f, p)
                np.testing.assert_allclose(
                    _cube_table(scaled, p), want, rtol=1e-12, atol=1e-12 * want.max()
                )


def test_norms_match_single_pass_reference(multi_block):
    for f in multi_block:
        for p, q in PAIRS:
            want_amalgam, want_lp = _reference_norms(f, p, q)
            assert amalgam_norm(f, p, q) == pytest.approx(want_amalgam, rel=1e-12)
            assert lp_norm(f, p) == pytest.approx(want_lp, rel=1e-12)


def test_repeated_calls_match_a_fresh_instance(multi_block):
    _, v, _ = multi_block
    for p, q in PAIRS:
        first = amalgam_norm(v, p, q)
        fresh = make_symbol(v.x_grid, v.w_grid, v.samples.copy())
        assert amalgam_norm(v, p, q) == first == amalgam_norm(fresh, p, q)
        assert lp_norm(v, q) == lp_norm(make_symbol(v.x_grid, v.w_grid, v.samples.copy()), q)


def test_stft_tables_are_memoised_read_only(multi_block):
    _, v, _ = multi_block
    for p in LATTICE:
        table = _cube_table(v, as_exponent(p))
        assert _cube_table(v, as_exponent(p)) is table
        assert not table.flags.writeable


def test_symbol_on_a_view_of_a_writable_buffer_is_never_memoised():
    grid = make_grid(8, 16)
    buf = np.array(phase_space_symbol(grid, lambda x, w: np.exp(-np.pi * (x**2 + w**2))).samples)
    a = make_symbol(grid, grid.dual, buf[:])
    assert buf.flags.writeable
    for p, q in PAIRS:
        before = (amalgam_norm(a, p, q), lp_norm(a, p))
        buf *= 3.0
        after = (amalgam_norm(a, p, q), lp_norm(a, p))
        np.testing.assert_allclose(after, 3.0 * np.asarray(before), rtol=1e-13)
        buf /= 3.0


def test_writable_samples_are_never_memoised():
    grid = make_grid(8, 16)
    arr = np.array(sample(gaussian_family(2.0), grid).samples)
    f = SampledSignal(grid, arr, 0.0)
    sym_arr = np.outer(arr, arr[::-1]).astype(complex)
    a = SampledSymbol(grid, grid.dual, sym_arr)
    for p, q in PAIRS:
        before = (amalgam_norm(f, p, q), lp_norm(f, p), amalgam_norm(a, p, q), lp_norm(a, p))
        arr *= 3.0
        sym_arr *= 3.0
        after = (amalgam_norm(f, p, q), lp_norm(f, p), amalgam_norm(a, p, q), lp_norm(a, p))
        np.testing.assert_allclose(after, 3.0 * np.asarray(before), rtol=1e-13)
        arr /= 3.0
        sym_arr /= 3.0


_SMALL = make_grid(8, 16)
_SIGNAL = sample(chirped_gaussian(2.0, 1.0), _SMALL)
_SYMBOL = phase_space_symbol(
    _SMALL, lambda x, w: np.exp(-np.pi * (x**2 + w**2) + 3j * np.pi * x * w)
)


def _scaled(f, amplitude):
    if isinstance(f, SampledSignal):
        return make_signal(f.grid, amplitude * f.samples)
    return make_symbol(f.x_grid, f.w_grid, amplitude * f.samples)


@given(
    k=st.integers(-150, 150),
    p=st.sampled_from(LATTICE),
    q=st.sampled_from(LATTICE),
    on_symbol=st.booleans(),
)
def test_lp_and_amalgam_homogeneous_at_any_amplitude(k, p, q, on_symbol):
    base = _SYMBOL if on_symbol else _SIGNAL
    f = _scaled(base, 10.0**k)
    for norm, args in ((amalgam_norm, (p, q)), (lp_norm, (p,))):
        value = norm(f, *args)
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(10.0**k * norm(base, *args), rel=1e-9, abs=0.0)


_43_SIGNALS = {
    "chirp": sample(chirp_family(bump(0.0, 1.0), 8.0), make_grid(8, 32)),
    "gaussian": sample(gaussian_family(2.0), make_grid(8, 32)),
    "chirped gaussian": sample(chirped_gaussian(2.0, 3.0), make_grid(8, 32)),
}


@pytest.mark.parametrize("amplitude", [2e115, 1e150, 1e-120])
@pytest.mark.parametrize("name", sorted(_43_SIGNALS))
def test_p43_norms_homogeneous_to_round_off_at_extreme_amplitudes(name, amplitude):
    # a power of the rounded exponent 4/3 drifts by about ln|a| * 7e-17 in each
    # root, some 4e-14 here; |x| * cbrt|x| keeps the drift at round-off
    base = _43_SIGNALS[name]
    scaled = _scaled(base, amplitude)
    for norm, args in (
        (lp_norm, ("4/3",)),
        *((amalgam_norm, pair) for pair in PAIRS if "4/3" in pair),
    ):
        assert norm(scaled, *args) == pytest.approx(amplitude * norm(base, *args), rel=1e-15, abs=0.0), args


def _kind_exponents(kind):
    arity = NORM_ARITY[kind]
    if arity == 4:  # outer pair over the lattice, inner pair over its corners
        return [(p1, q1, p2, q2) for p1, q1 in PAIRS for p2, q2 in (("1", "inf"), ("4", "4/3"))]
    return list(itertools.product(LATTICE, repeat=arity))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [1e-150, 1e-100, 1e100, 1e150])
@pytest.mark.parametrize("kind", sorted(NORM_ARITY))
def test_every_norm_kind_homogeneous_at_extreme_amplitudes(kind, amplitude):
    base = _SYMBOL if kind in ("mixed_lpq", "mixed_lplq", "symbol_mixed") else _SIGNAL
    scaled = _scaled(base, amplitude)
    for exponents in _kind_exponents(kind):
        spec = NormSpec(kind, exponents)
        unit = evaluate_norm(spec, base)
        assert evaluate_norm(spec, scaled) == pytest.approx(amplitude * unit, rel=1e-9, abs=0.0), exponents
