import dataclasses
import tracemalloc

import numpy as np
import pytest

from tfamalgam import (
    KernelMatrix,
    SampledSymbol,
    apply_locop,
    build_kernel,
    build_kernel_direct,
    inner_product,
    kernel_action,
    locop,
    lp_norm,
    make_grid,
    make_signal,
    make_symbol,
    opnorm_l2,
    opnorm_lr_bounds,
    phase_space_symbol,
    sample,
    schur_report,
    standard_window,
    weak_pairing,
)
from tfamalgam.experiments import _suite_cases, random_bandlimited, random_tf_localized
from tfamalgam.families import bump, chirp_family, gaussian_family, sharpness_symbol
from tfamalgam import transforms
from tfamalgam.transforms import stft


@pytest.fixture(scope="module")
def grid128():
    return make_grid(8, 16)


@pytest.fixture(scope="module")
def unit_window(grid128):
    w = standard_window(grid128)
    return make_signal(grid128, w.samples / lp_norm(w, 2))


@pytest.fixture(scope="module")
def ones_symbol(grid128):
    return phase_space_symbol(
        grid128, lambda x, w: np.ones(np.broadcast_shapes(x.shape, w.shape))
    )


@pytest.fixture(scope="module")
def gauss_symbol(grid128):
    return phase_space_symbol(grid128, lambda x, w: np.exp(-np.pi * (x**2 + w**2)))


def _probe(grid, seed=0):
    return random_tf_localized(grid, 4.0, np.random.default_rng(seed))


# --- operator application ---------------------------------------------------


def test_identity_symbol(grid128, unit_window, ones_symbol):
    f = _probe(grid128)
    out = apply_locop(ones_symbol, unit_window, unit_window, f)
    assert np.abs(out.samples - f.samples).max() / np.abs(f.samples).max() < 1e-6


def test_zero_symbol(grid128, unit_window):
    z = make_symbol(grid128, grid128.dual, np.zeros((grid128.N, grid128.N)))
    out = apply_locop(z, unit_window, unit_window, _probe(grid128))
    assert np.all(out.samples == 0)


def test_linearity(grid128, unit_window, gauss_symbol):
    f, g = _probe(grid128, 1), _probe(grid128, 2)
    fg = make_signal(grid128, 2.0 * f.samples - 1.5j * g.samples)
    out = apply_locop(gauss_symbol, unit_window, unit_window, fg)
    ref = (
        2.0 * apply_locop(gauss_symbol, unit_window, unit_window, f).samples
        - 1.5j * apply_locop(gauss_symbol, unit_window, unit_window, g).samples
    )
    assert np.abs(out.samples - ref).max() <= 1e-12 * np.abs(ref).max()


def test_weak_pairing_matches_apply(grid128, unit_window, gauss_symbol):
    f, g = _probe(grid128, 3), _probe(grid128, 4)
    lhs = inner_product(apply_locop(gauss_symbol, unit_window, unit_window, f), g)
    rhs = weak_pairing(gauss_symbol, unit_window, unit_window, f, g)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_weak_pairing_identity_case(grid128, unit_window, ones_symbol):
    f, g = _probe(grid128, 5), _probe(grid128, 6)
    assert weak_pairing(ones_symbol, unit_window, unit_window, f, g) == pytest.approx(
        inner_product(f, g), rel=1e-8
    )


def test_weak_pairing_nonnegative(grid128, unit_window, gauss_symbol):
    f = _probe(grid128, 7)
    val = weak_pairing(gauss_symbol, unit_window, unit_window, f, f)
    assert abs(val.imag) < 1e-12
    assert val.real >= -1e-12


def test_weak_pairing_conjugation_symmetry(grid128, unit_window):
    grid = grid128
    rng = np.random.default_rng(11)
    a = make_symbol(
        grid,
        grid.dual,
        (rng.standard_normal((grid.N, grid.N)) + 1j * rng.standard_normal((grid.N, grid.N)))
        * np.exp(-np.pi * (grid.points[:, None] ** 2 + grid.dual.points[None, :] ** 2) / 4),
    )
    a_conj = make_symbol(grid, grid.dual, np.conj(a.samples))
    w2 = sample(gaussian_family(2.0), grid)
    f, g = _probe(grid, 8), _probe(grid, 9)
    lhs = weak_pairing(a, unit_window, w2, f, g)
    rhs = weak_pairing(a_conj, w2, unit_window, g, f)
    assert lhs == pytest.approx(np.conj(rhs), rel=1e-12)


@pytest.mark.filterwarnings("ignore::tfamalgam.TailTruncationWarning")
def test_adjoint_identity(grid128, unit_window):
    grid = grid128
    a = phase_space_symbol(grid, lambda x, w: np.exp(-np.pi * (x**2 + w**2)) * (1 + 0.5j))
    a_conj = make_symbol(grid, grid.dual, np.conj(a.samples))
    w2 = sample(gaussian_family(0.5), grid)
    f, g = _probe(grid, 10), _probe(grid, 11)
    lhs = inner_product(apply_locop(a, unit_window, w2, f), g)
    rhs = inner_product(f, apply_locop(a_conj, w2, unit_window, g))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_shape_mismatch(grid128, unit_window, gauss_symbol):
    other = standard_window(make_grid(4, 16))
    with pytest.raises(ValueError):
        apply_locop(gauss_symbol, unit_window, unit_window, other)


@pytest.mark.parametrize("off_grid", ["f", "g"])
def test_weak_pairing_shape_mismatch(grid128, unit_window, gauss_symbol, off_grid):
    other = standard_window(make_grid(4, 16))
    f = other if off_grid == "f" else _probe(grid128)
    g = other if off_grid == "g" else _probe(grid128, 1)
    with pytest.raises(ValueError, match="same grid"):
        weak_pairing(gauss_symbol, unit_window, unit_window, f, g)


def test_strided_symbol_consistency(grid128, unit_window):
    """A symbol on a coarsened time lattice drives the same three routes."""
    from tfamalgam.transforms import StftPlan, stft

    grid = grid128
    plan = StftPlan(grid, 4)
    sub = stft(unit_window, unit_window, plan)
    a = make_symbol(
        sub.x_grid,
        sub.w_grid,
        np.exp(-np.pi * (sub.x_grid.points[:, None] ** 2 + sub.w_grid.points[None, :] ** 2)),
    )
    f, g = _probe(grid, 21), _probe(grid, 22)
    out = apply_locop(a, unit_window, unit_window, f)
    assert abs(
        inner_product(out, g) - weak_pairing(a, unit_window, unit_window, f, g)
    ) <= 1e-12 * abs(inner_product(out, g))
    K = build_kernel(a, unit_window, unit_window)
    assert np.abs(kernel_action(K, f).samples - out.samples).max() <= 1e-10


# --- kernels -----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::tfamalgam.TailTruncationWarning")
def test_kernel_fast_matches_direct():
    g = make_grid(4, 8)
    w1 = sample(gaussian_family(1.0), g)
    w2 = sample(gaussian_family(2.0), g)
    a = phase_space_symbol(g, lambda x, w: np.exp(-np.pi * (x**2 + w**2)) * (1 + 0.3j))
    K = build_kernel(a, w1, w2)
    Kd = build_kernel_direct(a, w1, w2)
    assert np.abs(K.entries - Kd.entries).max() <= 1e-10


def test_kernel_action_matches_apply(grid128, unit_window, gauss_symbol):
    K = build_kernel(gauss_symbol, unit_window, unit_window)
    f = random_bandlimited(grid128, 4.0, np.random.default_rng(12))
    lhs = kernel_action(K, f).samples
    rhs = apply_locop(gauss_symbol, unit_window, unit_window, f).samples
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()


def test_kernel_identity_case(grid128, unit_window, ones_symbol):
    K = build_kernel(ones_symbol, unit_window, unit_window)
    f = _probe(grid128, 13)
    out = kernel_action(K, f)
    assert np.abs(out.samples - f.samples).max() < 1e-6


def test_kernel_compact_support():
    g = make_grid(8, 16)
    w = sample(bump(0.0, 1.0), g)
    a = sharpness_symbol(bump(0.0, 1.0), 2.0, g)
    K = build_kernel(a, w, w)
    X, Y = np.meshgrid(g.points, g.points, indexing="ij")
    assert np.abs(K.entries[np.abs(X - Y) >= 2.0]).max() == 0.0


# --- Schur quantities ----------------------------------------------------------


def test_schur_rank_one(grid128, phi):
    phi8 = standard_window(grid128)
    K = KernelMatrix(grid128, np.outer(phi8.samples, phi8.samples), "rank-one")
    rep = schur_report(K)
    assert rep.c_sup_y == pytest.approx(1.0, abs=1e-8)  # ||phi||_1 * ||phi||_inf
    assert rep.c_sup_x == pytest.approx(1.0, abs=1e-8)
    assert rep.amalgam_a > 0 and rep.amalgam_b > 0


def test_schur_zero_kernel(grid128):
    K = KernelMatrix(grid128, np.zeros((grid128.N, grid128.N)), "zero")
    rep = schur_report(K)
    assert (rep.c_sup_y, rep.c_sup_x, rep.amalgam_a, rep.amalgam_b) == (0, 0, 0, 0)


def test_schur_identity_symmetry(grid128, unit_window, ones_symbol):
    K = build_kernel(ones_symbol, unit_window, unit_window)
    rep = schur_report(K)
    vals = [rep.c_sup_y, rep.c_sup_x, rep.amalgam_a, rep.amalgam_b]
    assert all(np.isfinite(vals))
    assert max(vals) / min(vals) < 1.1


# --- operator norms -------------------------------------------------------------


def test_opnorm_rank_one(grid128):
    phi8 = standard_window(grid128)
    K = KernelMatrix(grid128, np.outer(phi8.samples, phi8.samples), "rank-one")
    assert opnorm_l2(K) == pytest.approx(2**-0.5, abs=1e-6)


def test_opnorm_identity(grid128, unit_window, ones_symbol):
    K = build_kernel(ones_symbol, unit_window, unit_window)
    assert opnorm_l2(K) == pytest.approx(1.0, abs=1e-4)


def test_opnorm_schur_dominance(grid128, unit_window, gauss_symbol):
    for a in (gauss_symbol,):
        K = build_kernel(a, unit_window, unit_window)
        rep = schur_report(K)
        assert opnorm_l2(K) <= np.sqrt(rep.c_sup_y * rep.c_sup_x) * (1 + 1e-6)


def test_opnorm_odd_top_singular_vector(grid128):
    # rank two: singular value 1 on an even vector, 3 on an odd one; a
    # symmetric start vector never sees the odd direction
    t = grid128.points
    even = np.exp(-np.pi * t**2)
    odd = np.where(t == t[0], 0.0, t) * np.exp(-np.pi * t**2)
    even, odd = even / np.linalg.norm(even), odd / np.linalg.norm(odd)
    h = grid128.h
    K = KernelMatrix(grid128, (np.outer(even, even) + 3.0 * np.outer(odd, odd)) / h, "rank-two")
    assert opnorm_l2(K) == pytest.approx(np.linalg.norm(h * K.entries, 2), rel=1e-6)


def test_opnorm_zero(grid128):
    K = KernelMatrix(grid128, np.zeros((grid128.N, grid128.N)), "zero")
    assert opnorm_l2(K) == 0.0


def test_opnorm_nonconvergence_reports(grid128, monkeypatch):
    monkeypatch.setattr(locop, "_POWER_ITER_CAP", 3)
    rng = np.random.default_rng(20)
    K = KernelMatrix(grid128, rng.standard_normal((grid128.N, grid128.N)), "noise")
    with pytest.raises(RuntimeError, match="iterations"):
        opnorm_l2(K)


def test_lr_bounds(grid128, unit_window, gauss_symbol):
    K = build_kernel(gauss_symbol, unit_window, unit_window)
    rep = schur_report(K)
    probes = [standard_window(grid128)] + [_probe(grid128, s) for s in range(4)]
    b2 = opnorm_lr_bounds(K, 2, probes)
    norm2 = opnorm_l2(K)
    assert b2.lower <= norm2 * (1 + 1e-6)
    assert norm2 <= b2.upper * (1 + 1e-6)
    assert probes[b2.best_probe] is not None
    # interpolation endpoints: column sums at r = 1, row sums at r = inf
    assert opnorm_lr_bounds(K, 1, probes).upper == pytest.approx(rep.c_sup_y, rel=1e-12)
    assert opnorm_lr_bounds(K, "inf", probes).upper == pytest.approx(rep.c_sup_x, rel=1e-12)


def test_sufficiency_no_growth_inside_region():
    """Symbols normalized in an admissible amalgam norm must not produce growing
    operator-norm lower bounds as the chirp rate climbs (the boundedness
    theorem caps them); outside the region the same family grows."""
    from tfamalgam import make_symbol
    from tfamalgam.families import chirp_family
    from tfamalgam.norms import amalgam_norm

    g = make_grid(4, 64)
    phi = standard_window(g)
    prof = bump(0.0, 1.0)
    rng = np.random.default_rng(3)
    probes = [phi] + [random_tf_localized(g, 8.0, rng) for _ in range(6)]
    lowers = []
    for lam in (2.0, 4.0, 8.0, 16.0):
        a = sharpness_symbol(prof, lam, g)
        a_n = make_symbol(a.x_grid, a.w_grid, a.samples / amalgam_norm(a, 1, 2))
        K = build_kernel(a_n, phi, phi)
        extremal = make_signal(g, np.conj(sample(chirp_family(prof, lam), g).samples))
        lowers.append(opnorm_lr_bounds(K, 2, probes + [extremal]).lower)
    for prev, cur in zip(lowers, lowers[1:]):
        assert cur <= prev * 1.25  # one octave of lambda, < 25% upward drift


def test_lr_bounds_probe_validation(grid128, unit_window, gauss_symbol):
    K = build_kernel(gauss_symbol, unit_window, unit_window)
    with pytest.raises(ValueError):
        opnorm_lr_bounds(K, 2, [])
    zero = make_signal(grid128, np.zeros(grid128.N))
    with pytest.raises(ValueError):
        opnorm_lr_bounds(K, 2, [zero])


@pytest.mark.parametrize("grid", [make_grid(8, 16), make_grid(16, 16)], ids=["N128", "N256"])
def test_opnorm_matches_dense_spectral_norm_on_schur_suite(grid):
    for name, a, w1, w2 in _suite_cases(grid):
        K = build_kernel(a, w1, w2)
        expect = np.linalg.norm(K.grid.h * K.entries, 2)
        assert opnorm_l2(K) == pytest.approx(expect, rel=1e-6), name


def test_opnorm_matches_dense_spectral_norm_on_schur_suite_n512():
    for name, a, w1, w2 in _suite_cases(make_grid(16, 32)):
        K = build_kernel(a, w1, w2)
        expect = np.linalg.norm(K.grid.h * K.entries, 2)
        assert opnorm_l2(K) == pytest.approx(expect, rel=1e-6), name


# --- the FFT kernel against the direct sum and the operator route -------------


def _chirped_symbol(x, w):
    return np.exp(-np.pi * (x**2 + 0.5 * w**2)) * np.exp(1j * (x + 0.3 * w))


def _strided_symbol(grid, stride):
    """The complex symbol sampled on every ``stride``-th time position of ``grid``."""
    x_grid = make_grid(grid.L, grid.m // stride)
    values = _chirped_symbol(x_grid.points[:, None], grid.dual.points[None, :])
    return make_symbol(x_grid, grid.dual, values)


@pytest.mark.filterwarnings("ignore::tfamalgam.TailTruncationWarning")
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("L, m", [(4, 8), (8, 16)], ids=["N32", "N128"])
def test_fft_kernel_matches_direct_sum_on_strides(L, m, stride):
    g = make_grid(L, m)
    w1 = sample(gaussian_family(1.0), g)
    w2 = sample(gaussian_family(2.5), g)
    a = _strided_symbol(g, stride)
    K = build_kernel(a, w1, w2)
    Kd = build_kernel_direct(a, w1, w2)
    assert K.provenance == f"stride={stride}"
    assert np.abs(K.entries - Kd.entries).max() <= 1e-10


@pytest.mark.parametrize("stride", [1, 4])
def test_fft_kernel_action_matches_apply_locop_n512(stride):
    g = make_grid(16, 32)
    phi = standard_window(g)
    a = _strided_symbol(g, stride)
    f = random_tf_localized(g, 4.0, np.random.default_rng(stride))
    lhs = kernel_action(build_kernel(a, phi, phi), f).samples
    rhs = apply_locop(a, phi, phi, f).samples
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


@pytest.mark.parametrize("stride", [1, 2])
def test_fft_kernel_is_exactly_zero_outside_the_support(stride):
    g = make_grid(8, 16)
    w = sample(bump(0.0, 1.0), g)
    full = sharpness_symbol(bump(0.0, 1.0), 2.0, g)
    a = make_symbol(make_grid(g.L, g.m // stride), full.w_grid, full.samples[::stride])
    K = build_kernel(a, w, w).entries
    X, Y = np.meshgrid(g.points, g.points, indexing="ij")
    outside = np.abs(X - Y) >= 2.0
    assert outside.any() and not (K[~outside] == 0.0).all()
    assert (K[outside] == 0.0).all()


def test_fft_kernel_peak_allocation_n1024():
    g = make_grid(32, 32)
    phi = standard_window(g)
    a = phase_space_symbol(g, _chirped_symbol)
    tracemalloc.start()
    try:
        build_kernel(a, phi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * g.N**2 * 16


@pytest.mark.parametrize("stride", [1, 4])
def test_apply_locop_holds_at_most_two_symbol_sized_arrays(stride):
    # synthesis forms the weighted STFT one slab of rows at a time, so neither
    # the STFT nor the weighted symbol is ever held whole
    g = make_grid(4, 256)
    phi = standard_window(g)
    x_grid = make_grid(4, 256 // stride)
    rng = np.random.default_rng(0)
    a = make_symbol(x_grid, g.dual, rng.standard_normal((x_grid.N, g.N)))
    f = make_signal(g, rng.standard_normal(g.N))
    tracemalloc.start()
    try:
        apply_locop(a, phi, phi, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x_grid.N * g.N * 16


@pytest.mark.parametrize(("grid", "bound"), [(make_grid(4, 256), 1.6), (make_grid(8, 128), 1.3)])
def test_apply_locop_weights_the_stft_where_it_lies(grid, bound):
    # synthesis forms and buffers only the rows of supp h of the weighted STFT:
    # half of them on the 4 x 256 grid, a quarter on the 8 x 128 grid
    window = sample(bump(0.0, 1.0), grid)
    a = sharpness_symbol(bump(0.0, 1.0), 4.0, grid)
    f = make_signal(grid, np.conj(sample(chirp_family(bump(0.0, 1.0), 4.0), grid).samples))
    tracemalloc.start()
    try:
        apply_locop(a, window, window, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid.N**2 * 16


def test_apply_locop_never_forms_the_samples_of_a_sharpness_symbol():
    # the operator holds the synthesis slabs; the dense symbol would add a
    # symbol-sized array to those
    grid = make_grid(4, 256)
    window = sample(bump(0.0, 1.0), grid)
    f = make_signal(grid, np.conj(sample(chirp_family(bump(0.0, 1.0), 4.0), grid).samples))
    tracemalloc.start()
    try:
        apply_locop(sharpness_symbol(bump(0.0, 1.0), 4.0, grid), window, window, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.N**2 * 16


def test_apply_locop_at_scan_size_holds_no_symbol_sized_array(monkeypatch):
    # the scan-locop operator at lambda 16: synthesis forms the weighted STFT a
    # slab at a time, so two workers hold one slab buffer each and no STFT
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    grid = make_grid(4, 512)
    window = sample(bump(0.0, 1.0), grid)
    f = make_signal(grid, np.conj(sample(chirp_family(bump(0.0, 1.0), 16.0), grid).samples))
    a = sharpness_symbol(bump(0.0, 1.0), 16.0, grid)
    tracemalloc.start()
    try:
        out = apply_locop(a, window, window, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not a.formed and np.abs(out.samples).max() > 0.0
    assert peak < 0.25 * grid.N**2 * 16


@pytest.mark.parametrize("amplitude", [1e-150, 1e150])
def test_a_replaced_sharpness_symbol_reads_its_new_samples(amplitude):
    # dataclasses.replace, as the benchmark scales its inputs, gives a plain
    # dense symbol: its operator and norms must not read the unscaled factors
    grid = make_grid(4, 64)
    window = sample(bump(0.0, 1.0), grid)
    f = make_signal(grid, np.conj(sample(chirp_family(bump(0.0, 1.0), 4.0), grid).samples))
    a = sharpness_symbol(bump(0.0, 1.0), 4.0, grid)
    b = dataclasses.replace(a, samples=a.samples * amplitude)
    assert type(b) is SampledSymbol
    unit = apply_locop(a, window, window, f).samples
    scaled = apply_locop(b, window, window, f).samples
    assert np.abs(scaled / amplitude - unit).max() <= 1e-9 * np.abs(unit).max()
    assert lp_norm(b, 2) == pytest.approx(amplitude * lp_norm(a, 2), rel=1e-9, abs=0.0)


def _pairing_inputs(grid):
    rng = np.random.default_rng(11)
    a = sharpness_symbol(bump(0.0, 1.0), 4.0, grid)
    f, g = (make_signal(grid, rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)) for _ in range(2))
    return a, sample(bump(0.0, 1.0), grid), standard_window(grid), f, g


@pytest.mark.parametrize("dense", [False, True])
def test_weak_pairing_is_the_sum_of_symbol_times_stft_times_conjugate(dense):
    # the in-place products keep the operand order of a * v1 * conj(v2), bit for bit
    grid = make_grid(4, 64)
    a, w1, w2, f, g = _pairing_inputs(grid)
    if dense:
        a = make_symbol(a.x_grid, a.w_grid, a.samples)
    plan = locop._symbol_rows_plan(a, w1, w2)
    v1, v2 = stft(f, w1, plan).samples, stft(g, w2, plan).samples
    want = complex(a.cell * np.sum(a.samples * v1 * np.conj(v2)))
    assert weak_pairing(a, w1, w2, f, g) == want
    assert want != 0.0


@pytest.mark.parametrize("dense", [False, True])
def test_weak_pairing_applies_no_column_sign(monkeypatch, dense):
    # (s x) conj(s y) = x conj(y) when s = +-1, so both STFTs are formed unsigned:
    # a NaN sign that reached either would make the pairing NaN
    grid = make_grid(4, 64)
    a, w1, w2, f, g = _pairing_inputs(grid)
    if dense:
        a = make_symbol(a.x_grid, a.w_grid, a.samples)
    plan = locop._symbol_rows_plan(a, w1, w2)
    v1, v2 = stft(f, w1, plan).samples, stft(g, w2, plan).samples
    want = complex(a.cell * np.sum(a.samples * v1 * np.conj(v2)))

    def nan_signed(*args):
        v = stft(*args)
        v.__dict__["sign"] = np.full_like(v.sign, np.nan)
        return v

    monkeypatch.setattr(locop, "stft", nan_signed)
    assert weak_pairing(a, w1, w2, f, g) == want
    assert want != 0.0


def test_weak_pairing_holds_its_two_stfts_and_no_other_symbol_sized_array():
    grid = make_grid(4, 256)
    a, w1, w2, f, g = _pairing_inputs(grid)
    tracemalloc.start()
    try:
        weak_pairing(a, w1, w2, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * grid.N**2 * 16
