"""Phase-space symbols made and read a block of rows at a time.

``phase_space_symbol`` evaluates a(x, w) on one block of rows after another
into one array, and ``symbol_mixed_norm`` streams the inverse DFT of the
rows of its symbol through the blocked reduction.  Both must give the bits
of the whole-array computation, and neither may hold a symbol-sized
temporary.
"""

import tracemalloc

import numpy as np
import pytest

from tfamalgam import grid as grid_module
from tfamalgam import transforms
from tfamalgam.families import SYMBOL_EVALUATORS, _SeparableSymbol, bump, gaussian_family, sharpness_symbol
from tfamalgam.grid import as_exponent, make_grid, make_signal, make_symbol, phase_space_symbol, sample
from tfamalgam.norms import _row_amalgam, standard_window, symbol_mixed_norm
from tfamalgam.transforms import gaussian_stft_oracle, gaussian_stft_symbol, idft_centered, stft

EVALUATORS = {
    **SYMBOL_EVALUATORS,
    "gaussian stft": lambda x, w: gaussian_stft_oracle(2.5, x, w),
    "chirp": lambda x, w: np.exp(-np.pi * (x**2 + w**2) + 1j * np.pi * 3.7 * x * w),
}

AMPLITUDES = (1.0, 1e140, 1e-140)

# (p1, q1, p2, q2): the first rescales its inner sums at 1e140 and 1e-140, the second never does
EXPONENTS = (("2", "1", "4", "4/3"), ("inf", "4/3", "1", "inf"))


def _whole(grid, evaluator):
    """The parent of the blocked factory: one call of the evaluator on the full meshgrid."""
    return np.asarray(evaluator(grid.points[:, None], grid.dual.points[None, :]), dtype=np.complex128)


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize(
    ("grid", "block"),
    [
        (make_grid(16, 64), None),  # 16 rows per block at N = 1024
        (make_grid(6, 20), 3 * 120 + 7),  # 3 rows per block, the last of 1
        (make_grid(8, 8), 17),  # less than a row: one row per block
    ],
    ids=["N1024", "short last block", "one row"],
)
def test_blocked_factory_gives_the_whole_meshgrid_evaluation(monkeypatch, grid, block, name):
    if block is not None:
        monkeypatch.setattr(grid_module, "_SYMBOL_BLOCK", block)
    a = phase_space_symbol(grid, EVALUATORS[name])
    assert type(a) is grid_module.SampledSymbol
    assert not a.samples.flags.writeable
    assert np.array_equal(a.samples, _whole(grid, EVALUATORS[name]))


def test_gaussian_stft_symbol_is_the_oracle_on_the_whole_meshgrid():
    grid = make_grid(16, 64)
    want = _whole(grid, lambda x, w: gaussian_stft_oracle(2.0, x, w))
    assert np.array_equal(gaussian_stft_symbol(2.0, grid).samples, want)


@pytest.mark.parametrize(
    "evaluator",
    [
        lambda x, w: np.ones(w.shape),  # one row for the whole block
        lambda x, w: x + 0.0 * x,  # one column
        lambda x, w: 1.0,  # a scalar
        lambda x, w: np.ones((x.shape[0] + 1, w.shape[1])),  # a row too many
    ],
    ids=["row", "column", "scalar", "taller"],
)
def test_factory_refuses_a_value_without_the_block_shape(evaluator):
    with pytest.raises(ValueError, match="shape"):
        phase_space_symbol(make_grid(8, 16), evaluator)


def _whole_array_mixed_norm(a, p1, q1, p2, q2):
    """``symbol_mixed_norm`` on the whole transformed array, as it was computed before it streamed its rows."""
    p1, q1, p2, q2 = (as_exponent(e) for e in (p1, q1, p2, q2))
    time = a.w_grid.dual
    rows = idft_centered(a.samples, a.w_grid.m)
    profile = _row_amalgam(rows.reshape(len(rows), 1, time.L, time.m), time, p2, q2)
    return float(_row_amalgam(profile.reshape(1, 1, a.x_grid.L, a.x_grid.m), a.x_grid, p1, q1)[0])


def _symbols(grid, amplitude):
    """Fresh symbols of every kind ``symbol_mixed_norm`` reads, scaled by ``amplitude``, by name."""
    f = make_signal(grid, amplitude * sample(gaussian_family(2.0), grid).samples)
    window = standard_window(grid)
    sharp = sharpness_symbol(bump(0.0, 1.0), 4.0, grid)
    formed = stft(f, window)
    formed.samples
    return {
        "plain": make_symbol(grid, grid.dual, amplitude * gaussian_stft_symbol(2.0, grid).samples),
        "unformed stft": stft(f, window),
        "formed stft": formed,
        "sharpness": _SeparableSymbol._of(
            grid, grid.dual, rows=sharp.rows, h=amplitude * sharp.h, freq=sharp.freq
        ),
        "cube": phase_space_symbol(grid, lambda x, w: amplitude * SYMBOL_EVALUATORS["cube"](x, w)),
        "zero": make_symbol(grid, grid.dual, np.zeros((grid.N, grid.N))),
    }


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize("grid", [make_grid(16, 16), make_grid(16, 64)], ids=["N256", "N1024"])
def test_streamed_mixed_norm_is_the_whole_array_one_bit_for_bit(grid, amplitude):
    for name, a in _symbols(grid, amplitude).items():
        lazy = getattr(a, "formed", None) is False
        got = [symbol_mixed_norm(a, *exponents) for exponents in EXPONENTS]
        if lazy:
            assert not a.formed, name
        # the reference reads the samples, which forms a lazy symbol
        assert got == [_whole_array_mixed_norm(a, *exponents) for exponents in EXPONENTS], name
        if name == "zero":
            assert got == [0.0, 0.0]
        else:
            assert all(np.isfinite(got)) and min(got) > 0.0, name


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gaussian_stft_symbol_peak_allocation_n1024():
    # the samples and one block of evaluator temporaries: a whole meshgrid took 2.5 symbol sizes
    grid = make_grid(16, 64)
    assert _peak(lambda: gaussian_stft_symbol(2.0, grid)) <= 1.25 * grid.N**2 * 16


@pytest.mark.parametrize("kind", ["plain", "unformed stft"])
def test_symbol_mixed_norm_peak_allocation_n1024(monkeypatch, kind):
    # two workers hold one block buffer each, four rows of 2^16 floats; the whole
    # transformed array alone was 16 MiB, and an unformed STFT was formed first
    grid = make_grid(16, 64)
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    if kind == "plain":
        a = gaussian_stft_symbol(2.0, grid)
    else:
        a = stft(sample(gaussian_family(2.0), grid), standard_window(grid))
    assert _peak(lambda: symbol_mixed_norm(a, 2, 1, "4/3", 4)) <= 8 * 2**20
