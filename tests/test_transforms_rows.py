"""Row-pruned transforms: StftPlan.rows, zero-row skipping, folded sign passes.

Every pruned result is compared with a full computation written out here
from the centered DFTs, so the reference does not share the pruning code.
"""

import numpy as np
import pytest

from tfamalgam.grid import make_grid, make_signal, make_symbol
from tfamalgam.locop import apply_locop, weak_pairing
from tfamalgam.transforms import StftPlan, dft_centered, idft_centered, stft, synthesis

REL = 1e-13


def _windows(g, stride):
    """Row j: the window translated to time position j*stride, centered lattice."""
    n = g.grid.N
    return np.stack([np.roll(g.samples, j * stride - n // 2) for j in range(n // stride)])


def _full_stft(f, g, stride):
    # one centered DFT of all rows at once: the unfolded sign and scale passes
    return dft_centered(f.samples * np.conj(_windows(g, stride)), f.grid.m)


def _full_synthesis(F, g):
    stride = g.grid.m // F.x_grid.m
    rows = idft_centered(F.samples, F.w_grid.m) * _windows(g, stride)
    return F.x_grid.h * rows.sum(axis=0)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _setup(stride, grid=(4, 32), seed=0):
    g = make_grid(*grid)
    rng = np.random.default_rng(seed)
    x_grid = make_grid(g.L, g.m // stride)

    def signal():
        return make_signal(g, rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N))

    phi1, phi2, f, h = signal(), signal(), signal(), signal()
    a = rng.standard_normal((x_grid.N, g.N)) + 1j * rng.standard_normal((x_grid.N, g.N))
    return g, x_grid, phi1, phi2, f, h, a


def _scattered_zero_rows(a):
    a = a.copy()
    nx = a.shape[0]
    # the first and last rows, a run of three and two isolated rows
    for j in (0, 1, nx // 3, nx // 3 + 1, nx // 3 + 2, nx // 2 + 1, nx - 1):
        a[j] = 0.0
    return a


@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("zero_rows", [True, False], ids=["scattered-zero-rows", "no-zero-row"])
def test_pruned_operator_matches_the_full_computation(stride, zero_rows):
    g, x_grid, phi1, phi2, f, h, a = _setup(stride)
    if zero_rows:
        a = _scattered_zero_rows(a)
    a = make_symbol(x_grid, g.dual, a)
    v1 = _full_stft(f, phi1, stride)
    weighted = make_symbol(x_grid, g.dual, a.samples * v1)
    expect = _full_synthesis(weighted, phi2)

    assert _rel(synthesis(weighted, phi2).samples, expect) <= REL
    assert _rel(apply_locop(a, phi1, phi2, f).samples, expect) <= REL
    pairing = a.cell * np.sum(a.samples * v1 * np.conj(_full_stft(h, phi2, stride)))
    assert abs(weak_pairing(a, phi1, phi2, f, h) - pairing) <= REL * abs(pairing)


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_all_zero_symbol_gives_exact_zeros(stride):
    g, x_grid, phi1, phi2, f, h, _ = _setup(stride)
    a = make_symbol(x_grid, g.dual, np.zeros((x_grid.N, g.N)))
    assert not synthesis(a, phi2).samples.any()
    assert not apply_locop(a, phi1, phi2, f).samples.any()
    assert weak_pairing(a, phi1, phi2, f, h) == 0.0


@pytest.mark.parametrize("stride", [1, 4])
def test_plan_rows_give_the_full_rows_bit_for_bit_and_zeros_elsewhere(stride):
    g, x_grid, phi1, _, f, _, _ = _setup(stride)
    nx = x_grid.N
    runs = ((0, 2), (5, 6), (6, 9), (nx - 3, nx))
    full = stft(f, phi1, StftPlan(g, stride)).samples
    pruned = stft(f, phi1, StftPlan(g, stride, rows=runs)).samples
    kept = np.zeros(nx, dtype=bool)
    for start, stop in runs:
        kept[start:stop] = True
    assert pruned.shape == full.shape
    assert np.array_equal(pruned[kept], full[kept])
    assert np.all(pruned[~kept] == 0.0)
    assert not np.signbit(pruned[~kept].view(np.float64)).any()


def test_plan_with_no_rows_gives_exact_zeros():
    g, _, phi1, _, f, _, _ = _setup(1)
    out = stft(f, phi1, StftPlan(g, rows=())).samples
    assert out.shape == (g.N, g.N) and not out.any()


def test_plan_rows_are_hashable_and_normalised():
    g = make_grid(4, 32)
    plan = StftPlan(g, 2, rows=[[1, 3], (4, 6)])
    assert plan.rows == ((1, 3), (4, 6))
    assert plan == StftPlan(g, 2, rows=((1, 3), (4, 6)))
    assert hash(plan) == hash(StftPlan(g, 2, rows=((1, 3), (4, 6))))
    assert StftPlan(g, 2).rows is None


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 4), (3, 6)),  # overlapping
        ((5, 6), (0, 2)),  # not sorted
        ((-1, 2),),  # starts before 0
        ((60, 65),),  # ends past nx = 64
        ((3, 3),),  # empty run
        ((4, 2),),  # reversed run
    ],
)
def test_plan_rejects_bad_row_runs(rows):
    with pytest.raises(ValueError):
        StftPlan(make_grid(4, 32), 2, rows=rows)


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_full_row_transforms_are_bit_identical_when_m_is_a_power_of_two(stride):
    g, x_grid, phi1, phi2, f, _, a = _setup(stride)
    v = stft(f, phi1, StftPlan(g, stride)).samples
    assert np.array_equal(v, _full_stft(f, phi1, stride))
    F = make_symbol(x_grid, g.dual, a)
    assert np.array_equal(synthesis(F, phi2).samples, _full_synthesis(F, phi2))


def test_full_row_transforms_agree_to_round_off_when_m_is_not_a_power_of_two():
    stride = 3
    g, x_grid, phi1, phi2, f, _, a = _setup(stride, grid=(6, 12))
    v = stft(f, phi1, StftPlan(g, stride)).samples
    assert _rel(v, _full_stft(f, phi1, stride)) <= REL
    F = make_symbol(x_grid, g.dual, a)
    assert _rel(synthesis(F, phi2).samples, _full_synthesis(F, phi2)) <= REL
