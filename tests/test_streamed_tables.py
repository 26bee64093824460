"""Cube tables streamed from the rows of an STFT that is never formed whole.

``stft`` returns a symbol whose rows are formed on demand.  Its cube tables
are reduced a block of rows at a time, each block formed in the buffer of
the worker that reduces it; every table must equal, bit for bit, the dense
``_roots`` of the formed samples.
"""

import copy
import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from tfamalgam import families, norms, transforms
from tfamalgam.families import bump, chirp_family, gaussian_family, sharpness_symbol
from tfamalgam.grid import SampledSymbol, as_exponent, make_grid, make_signal, make_symbol, sample
from tfamalgam.norms import _fill_cube_tables, _roots, amalgam_norm, lp_norm, mixed_lplq, mixed_lpq, standard_window
from tfamalgam.transforms import _stft, stft

EXPONENTS = [as_exponent(p) for p in ("1", "4/3", "2", "4", "inf")]
RUNS = ((0, 5), (9, 40), (50, 64))

# (grid, _BLOCK, _TASK_ELEMENTS, (rows of cubes per block, rows per block)):
# the block shapes each setting makes, asserted by ``_set_layout``
LAYOUTS = {
    # rows of cubes of 8 x 128 samples: blocks of 3 whole rows of cubes, tasks of 4,
    # so every task ends in a block of 1
    "band > 1": (make_grid(16, 8), 3 << 10, 1 << 12, (3, 8)),
    # rows of cubes of 8 x 256 samples: blocks of 5 whole rows of cubes, the last of 2
    "band > 1, short last band": (make_grid(32, 8), 5 << 11, 1 << 12, (5, 8)),
    # blocks of one whole row of cubes of 8 x 128 samples, two per task
    "band = 1": (make_grid(16, 8), 1 << 10, 1 << 11, (1, 8)),
    # blocks of two whole rows of cubes of 8 x 256 samples
    "band = 2": (make_grid(32, 8), 1 << 12, 1 << 11, (2, 8)),
    # rows of cubes of 32 x 128 samples in blocks of 3 rows: 32 = 10 * 3 + 2
    "short last step": (make_grid(4, 32), 3 << 7, 1 << 13, (1, 3)),
    # rows of cubes of 16 x 128 samples in blocks of 3 rows: 16 = 5 * 3 + 1
    "last step of 1": (make_grid(8, 16), 3 << 7, 1 << 13, (1, 3)),
}


def _set_layout(monkeypatch, layout, workers):
    """Patch the block and task sizes of ``layout``, check the blocks it stands for and return its grid."""
    grid, block, task, shape = LAYOUTS[layout]
    # as norms._tile_reduce cuts the N x N table of an STFT on ``grid``
    assert (max(1, block // (grid.m * grid.N)), min(grid.m, max(1, block // grid.N))) == shape
    monkeypatch.setattr(norms, "_BLOCK", block)
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", task)
    monkeypatch.setattr(transforms, "_workers", lambda: workers)
    return grid


def _signal(grid, amplitude=1.0):
    return make_signal(grid, amplitude * sample(chirp_family(bump(0.0, 1.0), 3.0), grid).samples)


def _dense_tables(v, exponents=EXPONENTS):
    """The tables of the formed samples, reduced from the dense cube view."""
    gx, gw = v.x_grid, v.w_grid
    return _roots(v.samples.reshape(gx.L, gx.m, gw.L, gw.m), exponents)


def _streamed_then_dense(v, exponents=EXPONENTS):
    assert not v.formed
    streamed = _fill_cube_tables(v, exponents)
    assert not v.formed
    return streamed, _dense_tables(v, exponents)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_streamed_tables_equal_the_dense_tables(monkeypatch, layout, workers):
    grid = _set_layout(monkeypatch, layout, workers)
    v = stft(_signal(grid), standard_window(grid))
    streamed, dense = _streamed_then_dense(v)
    for p, got, want in zip(EXPONENTS, streamed, dense):
        assert np.array_equal(got, want), p
        assert got.max() > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_tables_of_a_row_restricted_stft(monkeypatch, workers):
    # runs that start and stop inside rows of cubes, and blocks that straddle their gaps
    grid = _set_layout(monkeypatch, "short last step", workers)
    v = _stft(_signal(grid), standard_window(grid), RUNS)
    streamed, dense = _streamed_then_dense(v)
    for got, want in zip(streamed, dense):
        assert np.array_equal(got, want)
    assert not v.samples[5:9].any() and not v.samples[40:50].any()


def test_streamed_tables_at_the_default_block_sizes():
    grid = make_grid(16, 32)  # N = 512: rows of cubes of 2^14 samples, 4 per block
    v = stft(sample(gaussian_family(8.0), grid), standard_window(grid))
    streamed, dense = _streamed_then_dense(v)
    for got, want in zip(streamed, dense):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("amplitude", [1e150, 1e-150])
def test_streamed_tables_stay_finite_and_homogeneous_at_extreme_amplitudes(monkeypatch, amplitude):
    # |x|^2 and |x|^4 leave the float range here, so p = 2, 4 take the rescaled
    # path, which forms the rows again; a worker without the caller's
    # np.errstate warns, and the RuntimeWarning fails the test
    grid = _set_layout(monkeypatch, "short last step", 2)
    window = standard_window(grid)
    base = _fill_cube_tables(stft(_signal(grid), window), EXPONENTS)
    v = stft(_signal(grid, amplitude), window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        streamed, dense = _streamed_then_dense(v)
    for got, want, unit in zip(streamed, dense, base):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got, amplitude * unit, rtol=1e-12, atol=1e-12 * amplitude * unit.max())


def test_streamed_tables_hold_no_block_of_the_symbol(monkeypatch):
    # two workers hold one block buffer each, and the block temporaries; the
    # 2048^2 STFT itself is 64 MiB
    grid = make_grid(16, 128)
    f = sample(gaussian_family(32.0), grid)
    window = standard_window(grid)
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    tracemalloc.start()
    try:
        v = stft(f, window)
        tables = _fill_cube_tables(v, EXPONENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(table.max() > 0.0 for table in tables)
    assert peak < 0.1 * grid.N**2 * 16


def test_a_symbol_of_one_block_is_streamed():
    grid = make_grid(16, 16)  # N = 256: 2^16 samples, one block
    v = stft(_signal(grid), standard_window(grid))
    streamed, dense = _streamed_then_dense(v)
    for got, want in zip(streamed, dense):
        assert np.array_equal(got, want)


def test_norms_of_a_formed_stft_read_its_samples(monkeypatch):
    # its rows are paid for: forming them again would repeat their FFTs
    grid = make_grid(8, 64)  # N = 512: more than one block
    v = stft(_signal(grid), standard_window(grid))
    dense = SampledSymbol(v.x_grid, v.w_grid, np.array(v.samples))
    fills = []
    monkeypatch.setattr(transforms._StftSymbol, "_fill_rows", lambda self, rows, out: fills.append(rows))
    values = [(amalgam_norm(v, p, "2"), lp_norm(v, p)) for p in EXPONENTS]
    assert fills == []
    assert values == [(amalgam_norm(dense, p, "2"), lp_norm(dense, p)) for p in EXPONENTS]


def test_norms_read_no_sample_on_a_memo_hit():
    grid = make_grid(8, 64)  # N = 512: tables streamed over several blocks
    v = stft(_signal(grid), standard_window(grid))
    _fill_cube_tables(v, EXPONENTS)
    values = [(amalgam_norm(v, p, "2"), lp_norm(v, p)) for p in EXPONENTS]
    assert not v.formed
    dense = SampledSymbol(v.x_grid, v.w_grid, np.array(v.samples))
    assert values == [(amalgam_norm(dense, p, "2"), lp_norm(dense, p)) for p in EXPONENTS]


def _eager_stft(f, g, rows):
    """The STFT as a filled array: each run of rows signed, windowed, transformed and signed."""
    grid = f.grid
    n = grid.N
    t = np.arange(n)
    s = np.where(t % 2, -1.0, 1.0)
    fs = f.samples * (s * ((-1.0 if (n // 2) % 2 else 1.0) / grid.m))
    shifts = np.arange(n)[:, None] - n // 2
    windows = np.conj(g.samples)[(t[None, :] - shifts) % n]
    out = np.zeros((n, n), dtype=np.complex128)
    for start, stop in rows or ((0, n),):
        block = out[start:stop]
        np.multiply(fs, windows[start:stop], out=block)
        np.fft.fft(block, axis=-1, out=block)
        block *= s
    return out


@pytest.mark.parametrize("rows", [None, RUNS], ids=["all-rows", "runs"])
def test_lazy_samples_equal_the_eager_fill(rows):
    grid = make_grid(4, 32)
    f, g = _signal(grid), standard_window(grid)
    v = stft(f, g) if rows is None else _stft(f, g, rows)
    assert not v.formed
    assert np.array_equal(v.samples, _eager_stft(f, g, rows))
    assert v.formed and not v.samples.flags.writeable


@pytest.mark.parametrize(
    "symbol",
    [
        lambda grid: _stft(_signal(grid), standard_window(grid), RUNS),
        lambda grid: sharpness_symbol(bump(0.0, 1.0), 3.0, grid),
    ],
    ids=["stft", "sharpness"],
)
def test_forming_any_rows_equals_those_rows_of_the_samples(symbol):
    # unsigned: each row of the samples times the column sign, which is +-1
    grid = make_grid(4, 32)
    a = symbol(grid)
    nx = a.x_grid.N
    slices = [slice(0, nx), slice(3, 7), slice(5, 9), slice(7, 45), slice(40, 50), slice(45, 48), slice(nx - 1, nx)]
    formed = []
    for rows in slices:
        out = np.full((rows.stop - rows.start, a.w_grid.N), np.nan, dtype=np.complex128)
        a._form_unsigned(rows, out)
        formed.append(out)
    assert not a.formed
    for rows, out in zip(slices, formed):
        assert np.array_equal(out, a.samples[rows] if a.sign is None else a.samples[rows] * a.sign)


@pytest.mark.parametrize(
    ("duplicate", "scale"),
    [
        (dataclasses.replace, 1.0),
        (lambda v: dataclasses.replace(v, samples=2.0 * v.samples), 2.0),
        (copy.copy, 1.0),
        (copy.deepcopy, 1.0),
        (lambda v: pickle.loads(pickle.dumps(v)), 1.0),
    ],
    ids=["replace", "replace-samples", "copy", "deepcopy", "pickle"],
)
def test_a_copy_of_an_stft_is_a_dense_symbol_of_its_samples(duplicate, scale):
    grid = make_grid(4, 32)
    v = stft(_signal(grid), standard_window(grid))
    b = duplicate(v)
    assert type(b) is SampledSymbol
    assert (b.x_grid, b.w_grid) == (v.x_grid, v.w_grid)
    assert np.array_equal(b.samples, scale * v.samples)


@pytest.mark.parametrize("amplitude", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("symbol", ["stft", "sharpness"])
@pytest.mark.parametrize("norm", [mixed_lpq, mixed_lplq])
def test_mixed_norms_stream_a_lazy_symbol(monkeypatch, norm, symbol, amplitude):
    # N = 512: mixed_lpq's one row of cubes (a column each) splits into 4 blocks
    # of 128 rows, mixed_lplq's rows make 4 bands; at 1e+-150 the rescale pass
    # forms the rows again, and the values stay those of the dense copy
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    grid = make_grid(16, 32)
    for p, q in zip(EXPONENTS, EXPONENTS[1:] + EXPONENTS[:1]):
        if symbol == "stft":
            v = stft(_signal(grid, amplitude), standard_window(grid))
        else:
            a = sharpness_symbol(bump(0.0, 1.0), 3.0, grid)
            v = families._SeparableSymbol._of(a.x_grid, a.w_grid, rows=a.rows, h=amplitude * a.h, freq=a.freq)
        dense = make_symbol(v.x_grid, v.w_grid, v._form_whole(v.sign))
        got = norm(v, p, q)
        assert not v.formed
        assert np.isfinite(got) and got > 0.0
        assert np.array_equal(got, norm(dense, p, q)), (p, q)
