"""Row-pruned transforms: the row runs of ``_stft``, zero-row skipping, folded sign passes.

Every pruned result is compared with a full computation written out here
from the centered DFTs, so the reference does not share the pruning code.
"""

import numpy as np
import pytest

from tfamalgam.grid import make_grid, make_signal, make_symbol
from tfamalgam.locop import apply_locop, weak_pairing
from tfamalgam.transforms import _stft, dft_centered, idft_centered, stft, synthesis

REL = 1e-13


def _windows(g):
    """Row j: the window translated to time position j, centered lattice."""
    n = g.grid.N
    return np.stack([np.roll(g.samples, j - n // 2) for j in range(n)])


def _full_stft(f, g):
    # one centered DFT of all rows at once: the unfolded sign and scale passes
    return dft_centered(f.samples * np.conj(_windows(g)), f.grid.m)


def _full_synthesis(F, g):
    rows = idft_centered(F.samples, F.w_grid.m) * _windows(g)
    return F.x_grid.h * rows.sum(axis=0)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _setup(grid=(4, 32), seed=0):
    g = make_grid(*grid)
    rng = np.random.default_rng(seed)

    def signal():
        return make_signal(g, rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N))

    phi1, phi2, f, h = signal(), signal(), signal(), signal()
    a = rng.standard_normal((g.N, g.N)) + 1j * rng.standard_normal((g.N, g.N))
    return g, phi1, phi2, f, h, a


def _scattered_zero_rows(a):
    a = a.copy()
    nx = a.shape[0]
    # the first and last rows, a run of three and two isolated rows
    for j in (0, 1, nx // 3, nx // 3 + 1, nx // 3 + 2, nx // 2 + 1, nx - 1):
        a[j] = 0.0
    return a


@pytest.mark.parametrize("zero_rows", [True, False], ids=["scattered-zero-rows", "no-zero-row"])
def test_pruned_operator_matches_the_full_computation(zero_rows):
    g, phi1, phi2, f, h, a = _setup()
    if zero_rows:
        a = _scattered_zero_rows(a)
    a = make_symbol(g, g.dual, a)
    v1 = _full_stft(f, phi1)
    weighted = make_symbol(g, g.dual, a.samples * v1)
    expect = _full_synthesis(weighted, phi2)

    assert _rel(synthesis(weighted, phi2).samples, expect) <= REL
    assert _rel(apply_locop(a, phi1, phi2, f).samples, expect) <= REL
    pairing = a.cell * np.sum(a.samples * v1 * np.conj(_full_stft(h, phi2)))
    assert abs(weak_pairing(a, phi1, phi2, f, h) - pairing) <= REL * abs(pairing)


def test_all_zero_symbol_gives_exact_zeros():
    g, phi1, phi2, f, h, _ = _setup()
    a = make_symbol(g, g.dual, np.zeros((g.N, g.N)))
    assert not synthesis(a, phi2).samples.any()
    assert not apply_locop(a, phi1, phi2, f).samples.any()
    assert weak_pairing(a, phi1, phi2, f, h) == 0.0


def test_plan_rows_give_the_full_rows_bit_for_bit_and_zeros_elsewhere():
    g, phi1, _, f, _, _ = _setup()
    n = g.N
    runs = ((0, 2), (5, 6), (6, 9), (n - 3, n))
    full = stft(f, phi1).samples
    pruned = _stft(f, phi1, runs).samples
    kept = np.zeros(n, dtype=bool)
    for start, stop in runs:
        kept[start:stop] = True
    assert pruned.shape == full.shape
    assert np.array_equal(pruned[kept], full[kept])
    assert np.all(pruned[~kept] == 0.0)
    assert not np.signbit(pruned[~kept].view(np.float64)).any()


def test_plan_with_no_rows_gives_exact_zeros():
    g, phi1, _, f, _, _ = _setup()
    out = _stft(f, phi1, ()).samples
    assert out.shape == (g.N, g.N) and not out.any()


def test_full_row_transforms_are_bit_identical_when_m_is_a_power_of_two():
    g, phi1, phi2, f, _, a = _setup()
    v = stft(f, phi1).samples
    assert np.array_equal(v, _full_stft(f, phi1))
    F = make_symbol(g, g.dual, a)
    assert np.array_equal(synthesis(F, phi2).samples, _full_synthesis(F, phi2))


def test_full_row_transforms_agree_to_round_off_when_m_is_not_a_power_of_two():
    g, phi1, phi2, f, _, a = _setup(grid=(6, 12))
    v = stft(f, phi1).samples
    assert _rel(v, _full_stft(f, phi1)) <= REL
    F = make_symbol(g, g.dual, a)
    assert _rel(synthesis(F, phi2).samples, _full_synthesis(F, phi2)) <= REL
