"""Row bands on a thread pool: STFT row chunks, cube-table bands, fused tables.

The worker count and the band sizes are patched, so small inputs span
several tasks and the threaded path runs whatever the CPU count here.  Every
threaded result must be bit-identical to the single-worker one.
"""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tfamalgam import families, locop, norms, transforms
from tfamalgam.families import bump, chirp_family, gaussian_family, sharpness_symbol
from tfamalgam.grid import as_exponent, make_grid, make_signal, make_symbol, phase_space_symbol, sample
from tfamalgam.locop import apply_locop
from tfamalgam.norms import _cube_table, _fill_cube_tables, standard_window
from tfamalgam.transforms import StftPlan, _each, _nonzero_row_runs, stft, synthesis

EXPONENTS = [as_exponent(p) for p in ("1", "4/3", "2", "4", "inf")]
GRID = make_grid(4, 32)  # N = 128: the STFT has 4 rows of cubes of 4096 samples
# a profile with no zero sample on the grids below, so every row of its symbol is formed
NOWHERE_ZERO = families.WindowSpec(gaussian_family(16.0).evaluator, support_radius=2.0)


@pytest.fixture
def small_bands(monkeypatch):
    """Tasks of 512 samples and cube-table blocks of 1024, so a 128 x 128 symbol spans
    32 row tasks and its cube tables 4, one per row of cubes; a separable symbol
    weights an STFT of 128 columns in blocks of 3 rows, so a task of 4 rows
    ends in a partial block."""
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", 1 << 9)
    monkeypatch.setattr(norms, "_BLOCK", 1 << 10)
    monkeypatch.setattr(families, "_PRODUCT_ELEMENTS", 3 << 7)

    def use(workers):
        monkeypatch.setattr(transforms, "_workers", lambda: workers)

    return use


def _probe(grid=GRID):
    return stft(sample(chirp_family(bump(0.0, 1.0), 3.0), grid), standard_window(grid))


def _nan_signed(v):
    """``v`` with a column sign of NaN: a reader that applies the sign reads NaN."""
    v.__dict__["sign"] = np.full_like(v.sign, np.nan)
    return v


def _fresh_tables(f, exponents):
    """Tables of a copy of ``f``, so no memo from an earlier call is read."""
    return _fill_cube_tables(make_symbol(f.x_grid, f.w_grid, f.samples), exponents)


def test_each_calls_every_item_once_and_inline_without_a_second_worker(monkeypatch):
    seen = []

    def record(item):
        seen.append((item, threading.get_ident()))

    monkeypatch.setattr(transforms, "_workers", lambda: 1)
    _each(record, range(5))
    assert seen == [(i, threading.get_ident()) for i in range(5)]

    seen.clear()
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    _each(record, [7])
    assert seen == [(7, threading.get_ident())]

    seen.clear()
    _each(record, range(40))
    assert sorted(item for item, _ in seen) == list(range(40))


def test_each_raises_the_error_of_a_task(monkeypatch):
    monkeypatch.setattr(transforms, "_workers", lambda: 2)

    def fail_on_three(item):
        if item == 3:
            raise ValueError("task 3")

    with pytest.raises(ValueError, match="task 3"):
        _each(fail_on_three, range(6))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rows", [None, ((0, 5), (9, 40), (50, 64))])
def test_stft_is_bit_identical_for_any_worker_count(small_bands, stride, rows):
    f = sample(chirp_family(bump(0.0, 1.0), 3.0), GRID)
    g = standard_window(GRID)
    plan = StftPlan(GRID, stride, rows)
    small_bands(1)
    serial = stft(f, g, plan).samples
    small_bands(2)
    threaded = stft(f, g, plan).samples
    assert np.array_equal(serial, threaded)
    assert np.abs(threaded).max() > 0.0


def test_cube_tables_are_bit_identical_for_any_worker_count(small_bands):
    small_bands(1)
    v = _probe()
    serial = _fresh_tables(v, EXPONENTS)
    small_bands(2)
    threaded = _fresh_tables(v, EXPONENTS)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_cube_tables_do_not_depend_on_the_band_size(monkeypatch, small_bands):
    small_bands(2)
    v = _probe()
    banded = _fresh_tables(v, EXPONENTS)
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", 1 << 21)  # one task: reduced inline
    whole = _fresh_tables(v, EXPONENTS)
    for a, b in zip(whole, banded):
        assert np.array_equal(a, b)


def test_cube_tables_do_not_depend_on_a_partial_group_of_rows_of_cubes(monkeypatch):
    # 16 rows of cubes of 1024 samples: blocks of 3 rows of cubes in tasks of 4
    # leave a group of 1 at the end of every task
    monkeypatch.setattr(norms, "_BLOCK", 3 << 10)
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    v = _probe(make_grid(16, 8))
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", 1 << 12)
    grouped = _fresh_tables(v, EXPONENTS)
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", 1 << 21)  # one task: groups of 3 and a last 1
    whole = _fresh_tables(v, EXPONENTS)
    for a, b in zip(whole, grouped):
        assert np.array_equal(a, b)


def test_fused_tables_equal_one_at_a_time_tables(small_bands):
    small_bands(2)
    v = _probe()
    fused = _fresh_tables(v, EXPONENTS)
    for p, table in zip(EXPONENTS, fused):
        assert np.array_equal(table, _fresh_tables(v, [p])[0])


def test_fill_keeps_memoised_tables_and_adds_the_missing_ones():
    v = _probe()
    two = _cube_table(v, EXPONENTS[2])
    tables = _fill_cube_tables(v, EXPONENTS + EXPONENTS[:2])
    assert tables[2] is two
    assert tables[-2] is tables[0] and tables[-1] is tables[1]
    assert sorted(v.__dict__["_cube_tables"]) == sorted(p.value for p in EXPONENTS)
    assert all(not t.flags.writeable for t in tables)


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_tables_never_apply_the_column_sign(small_bands, workers):
    # |-x| = |x|, so the blocks are formed without the sign, and the tables
    # are those of the dense samples, bit for bit
    small_bands(workers)
    v = _nan_signed(_probe())
    tables = _fill_cube_tables(v, EXPONENTS)
    assert not v.formed
    for got, want in zip(tables, _fresh_tables(_probe(), EXPONENTS)):
        assert np.all(np.isfinite(got)) and np.array_equal(got, want)


def test_p4_by_squaring_stays_within_two_ulps_of_the_power():
    # one block, so the reference sums in the kernel's order and differs only by the power
    v = _probe(make_grid(4, 8))
    tiles = v.samples.reshape(4, 8, 8, 4)
    assert tiles.size <= norms._BLOCK
    reference = np.add.reduce(np.add.reduce(np.abs(tiles) ** 4.0, axis=1), axis=2) ** 0.25
    table = _fresh_tables(v, [as_exponent(4)])[0]
    assert np.abs(table - reference).max() <= 4.5e-16 * np.abs(reference).max()
    assert np.all(np.abs(table - reference) <= 4.5e-16 * reference)


def test_p43_by_cube_root_stays_within_two_ulps_of_the_exact_power():
    # |x| spans 1 down to 1e-137, where ** with the rounded exponent 4/3 is
    # off by about 1e-14 relative; the reference takes the exact 4/3 power of
    # each |x| in long double
    grid = make_grid(4, 8)
    v = phase_space_symbol(grid, lambda x, w: np.exp(-5.0 * np.pi * (x**2 + w**2) + 2j * np.pi * x * w))
    tiles = v.samples.reshape(4, 8, 8, 4)
    assert tiles.size <= norms._BLOCK
    a = np.abs(tiles).astype(np.longdouble)
    assert a.min() < 1e-100
    reference = np.add.reduce(np.add.reduce(a ** (np.longdouble(4) / 3), axis=1), axis=2) ** np.longdouble(0.75)
    table = _fresh_tables(v, [as_exponent("4/3")])[0]
    assert np.all(np.abs(table - reference) <= 4.5e-16 * reference)


@pytest.mark.parametrize("amplitude", [1e160, 1e-160])
def test_threaded_tables_stay_finite_and_homogeneous_at_extreme_amplitudes(small_bands, amplitude):
    # |x|^2 and |x|^4 leave the float range here, so every p but 1, 4/3 and inf
    # takes the rescaled path, in the workers, under the caller's np.errstate:
    # a worker without it warns, and the RuntimeWarning fails the test
    small_bands(2)
    v = _probe()
    base = _fresh_tables(v, EXPONENTS)
    scaled = make_symbol(v.x_grid, v.w_grid, amplitude * v.samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables = _fill_cube_tables(scaled, EXPONENTS)
    for got, want in zip(tables, base):
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, amplitude * want, rtol=1e-12, atol=1e-12 * amplitude * want.max())


@pytest.mark.parametrize("grid", [make_grid(4, 64), make_grid(8, 32)])
def test_sharpness_symbol_equals_the_outer_product(grid):
    profile = bump(0.0, 1.0)
    lam = 4.0
    h = sample(profile, grid).samples
    freq = transforms.inverse_fourier(sample(chirp_family(profile, lam), grid)).samples
    a = sharpness_symbol(profile, lam, grid).samples
    assert np.array_equal(a, np.outer(h, freq))
    outside = h == 0.0
    assert outside.any() and not np.any(a[outside])


def test_sharpness_symbol_of_a_profile_that_is_nowhere_zero():
    grid = make_grid(4, 16)
    h = sample(NOWHERE_ZERO, grid).samples
    freq = transforms.inverse_fourier(sample(chirp_family(NOWHERE_ZERO, 1.0), grid)).samples
    assert np.array_equal(sharpness_symbol(NOWHERE_ZERO, 1.0, grid).samples, np.outer(h, freq))


def _gapped_stft(stride):
    """An STFT with runs of zero rows, isolated zero rows and a nonzero row at each end."""
    v = stft(sample(chirp_family(bump(0.0, 1.0), 3.0), GRID), standard_window(GRID), StftPlan(GRID, stride))
    samples = v.samples.copy()
    samples[3:11] = 0.0
    samples[20::7] = 0.0
    samples[-9:-2] = 0.0
    return make_symbol(v.x_grid, v.w_grid, samples)


@pytest.mark.parametrize("stride", [1, 2])
def test_synthesis_is_bit_identical_for_any_worker_count(small_bands, stride):
    # a slab holds 4 rows here, so the runs at either stride span many slabs per worker
    v = _gapped_stft(stride)
    g = sample(bump(0.0, 1.0), GRID)
    small_bands(1)
    serial = synthesis(v, g).samples
    small_bands(2)
    threaded = synthesis(v, g).samples
    assert np.array_equal(serial, threaded)
    assert np.abs(threaded).max() > 0.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_synthesis_adds_row_sums_of_slabs_in_slab_order(monkeypatch, workers):
    # at N = 12 a slab holds 3 rows; row 4 is zero, so the runs (0, 4), (5, 12)
    # make 5 slabs of 3, 1, 3, 3 and 1 rows, more than there are workers
    grid = make_grid(2, 6)
    n = grid.N
    monkeypatch.setattr(transforms, "_TASK_ELEMENTS", n * 3)
    monkeypatch.setattr(transforms, "_workers", lambda: workers)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    samples[4] = 0.0
    v = make_symbol(grid, grid.dual, samples)
    g = make_signal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    t = np.arange(n)
    s = np.where(t % 2, -1.0, 1.0)
    windows = g.samples[(t[None, :] - (t[:, None] - n // 2)) % n]
    profiles = np.fft.ifft(samples * s, axis=-1) * windows
    total = None
    for start, stop in [(0, 3), (3, 4), (5, 8), (8, 11), (11, 12)]:
        slab = profiles[start]
        for row in profiles[start + 1 : stop]:
            slab = slab + row
        total = slab if total is None else total + slab
    sign = -1.0 if (n // 2) % 2 else 1.0
    want = total * (s * (sign * n / grid.dual.m * grid.h))
    assert np.array_equal(synthesis(v, g).samples, want)


def test_synthesis_holds_no_block_of_the_symbol(monkeypatch):
    # two workers hold one slab buffer each: the peak must stay below three
    # slabs plus the slab sums and the output, about 12.5 MB at N = 2048
    grid = make_grid(16, 128)
    n = grid.N
    f = make_signal(grid, np.random.default_rng(5).standard_normal(n))
    g = standard_window(grid)
    v = stft(f, g)
    v.samples  # formed before the window, so the peak is synthesis alone
    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    rows = transforms._task_rows(n)
    bound = (3 * rows + n // rows + 1) * n * 16  # slabs, then one row per slab sum and the output
    tracemalloc.start()
    try:
        out = synthesis(v, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(out.samples).max() > 0.0
    assert peak < bound


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(("stride", "rows"), [(1, None), (2, ((3, 21), (25, 60)))])
def test_synthesis_of_an_unformed_stft_equals_it_of_the_dense_copy(small_bands, workers, stride, rows):
    # the lazy STFT's slabs cut the runs of its rows, as the dense copy's cut its
    # nonzero runs: the same slabs, so the same sums, and the STFT is never
    # formed; its post-sign is synthesis's pre-sign, so neither is applied
    small_bands(workers)
    f, g = sample(chirp_family(bump(0.0, 1.0), 3.0), GRID), standard_window(GRID)
    plan = StftPlan(GRID, stride, rows)
    v = _nan_signed(stft(f, g, plan))
    dense = stft(f, g, plan).samples
    out = synthesis(v, g).samples
    assert not v.formed
    assert np.array_equal(out, synthesis(make_symbol(v.x_grid, v.w_grid, dense), g).samples)
    assert np.abs(out).max() > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_synthesis_of_an_unformed_sharpness_symbol_equals_it_of_the_dense_copy(small_bands, workers):
    # a sharpness symbol's rows carry no column sign, so synthesis applies its
    # own pre-sign to the rows it forms
    small_bands(workers)
    a = sharpness_symbol(bump(0.0, 1.0), 3.0, GRID)
    dense = sharpness_symbol(bump(0.0, 1.0), 3.0, GRID).samples
    g = sample(bump(0.0, 1.0), GRID)
    out = synthesis(a, g).samples
    assert not a.formed
    assert np.array_equal(out, synthesis(make_symbol(a.x_grid, a.w_grid, dense), g).samples)
    assert np.abs(out).max() > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_synthesis_of_a_lazy_symbol_sums_a_zero_row_inside_its_runs(small_bands, workers):
    # row 9 of the weighted STFT is zero inside its one run: its slab holds the
    # zero row where the dense copy's slabs split at it, so the sums regroup
    small_bands(workers)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((GRID.N, GRID.N)) + 1j * rng.standard_normal((GRID.N, GRID.N))
    samples[9] = 0.0
    a = make_symbol(GRID, GRID.dual, samples)
    f, g = sample(chirp_family(bump(0.0, 1.0), 3.0), GRID), standard_window(GRID)
    plan = StftPlan(GRID, rows=((0, GRID.N),))
    F = locop._weighted_stft(a, f, g, plan)
    dense = locop._weighted_stft(a, f, g, plan).samples
    assert _nonzero_row_runs(dense) == ((0, 9), (10, GRID.N))
    out = synthesis(F, g).samples
    want = synthesis(make_symbol(GRID, GRID.dual, dense), g).samples
    assert not F.formed
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()


def _sharpness_operator(grid=GRID, lam=3.0):
    window = sample(bump(0.0, 1.0), grid)
    f = make_signal(grid, np.conj(sample(chirp_family(bump(0.0, 1.0), lam), grid).samples))
    return sharpness_symbol(bump(0.0, 1.0), lam, grid), window, f


def test_apply_locop_is_bit_identical_for_any_worker_count(small_bands):
    a, window, f = _sharpness_operator()
    small_bands(1)
    serial = apply_locop(a, window, window, f).samples
    small_bands(2)
    threaded = apply_locop(a, window, window, f).samples
    assert np.array_equal(serial, threaded)
    assert np.abs(threaded).max() > 0.0


def _dense_operator(stride):
    # a random symbol with zero rows, so its runs end part-way through a slab
    x_grid = make_grid(GRID.L, GRID.m // stride)
    rng = np.random.default_rng(13)
    samples = rng.standard_normal((x_grid.N, GRID.N)) + 1j * rng.standard_normal((x_grid.N, GRID.N))
    samples[5:7] = 0.0
    samples[-3:] = 0.0
    f = make_signal(GRID, rng.standard_normal(GRID.N) + 1j * rng.standard_normal(GRID.N))
    return make_symbol(x_grid, GRID.dual, samples), standard_window(GRID), f


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("operator", ["separable", "dense", "dense at stride 4"])
def test_streamed_operator_equals_synthesis_of_the_dense_weighted_stft(monkeypatch, small_bands, workers, operator):
    # the slabs synthesis forms of a . V are the rows of the dense product a * V,
    # bit for bit, with product blocks and slabs that end part-way; a . V
    # carries V's sign, and synthesis applies neither it nor its pre-sign
    small_bands(workers)
    if operator == "separable":
        a, window, f = _sharpness_operator()
    else:
        a, window, f = _dense_operator(4 if operator.endswith("4") else 1)
    monkeypatch.setattr(locop, "stft", lambda *args: _nan_signed(stft(*args)))
    out = apply_locop(a, window, window, f).samples
    v = stft(f, window, StftPlan(GRID, GRID.m // a.x_grid.m)).samples
    assert np.array_equal(out, synthesis(make_symbol(a.x_grid, a.w_grid, a.samples * v), window).samples)
    assert np.abs(out).max() > 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    ("grid", "profile", "lam", "window_of"),
    [
        (make_grid(4, 32), bump(0.0, 1.0), 3.0, lambda g: sample(bump(0.0, 1.0), g)),
        (make_grid(8, 16), bump(0.0, 1.0), 3.0, standard_window),
        (make_grid(4, 16), NOWHERE_ZERO, 1.0, lambda g: sample(bump(0.0, 1.0), g)),
    ],
)
def test_apply_locop_on_the_factors_equals_it_on_the_samples(small_bands, workers, grid, profile, lam, window_of):
    # the weighted STFT forms h(x) freq(w) a block of rows at a time: the same
    # products, in the same operand order, as the formed samples give
    small_bands(workers)
    window = window_of(grid)
    f = make_signal(grid, np.conj(sample(chirp_family(profile, lam), grid).samples))
    a = sharpness_symbol(profile, lam, grid)
    factored = apply_locop(a, window, window, f).samples
    dense = apply_locop(make_symbol(a.x_grid, a.w_grid, a.samples), window, window, f).samples
    assert np.array_equal(factored, dense)
    assert np.abs(factored).max() > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_apply_locop_on_an_unformed_stft_symbol_equals_it_on_the_samples(small_bands, workers):
    # the symbol's rows are formed unsigned, so the operator signs them itself;
    # a Gaussian window leaves no row of it zero, so both take the same runs
    small_bands(workers)
    _, window, f = _sharpness_operator()
    probe, gauss = sample(chirp_family(bump(0.0, 1.0), 2.0), GRID), standard_window(GRID)
    b = stft(probe, gauss)
    formed = apply_locop(make_symbol(b.x_grid, b.w_grid, stft(probe, gauss).samples), window, window, f).samples
    out = apply_locop(b, window, window, f).samples
    assert not b.formed
    assert np.array_equal(out, formed)
    assert np.abs(out).max() > 0.0


@pytest.mark.parametrize("symbol", ["sharpness", "stft"])
def test_apply_locop_reads_the_samples_of_a_formed_lazy_symbol(small_bands, symbol):
    # its rows are paid for: forming them again would repeat the products or FFTs
    small_bands(2)
    a, window, f = _sharpness_operator()
    if symbol == "stft":
        a = stft(sample(chirp_family(bump(0.0, 1.0), 2.0), GRID), standard_window(GRID))
    want = apply_locop(make_symbol(a.x_grid, a.w_grid, a.samples), window, window, f).samples
    fills = []
    a.__dict__["_fill_rows"] = lambda rows, out: fills.append(rows)
    assert np.array_equal(apply_locop(a, window, window, f).samples, want)
    assert fills == []


@pytest.mark.parametrize("grid", [make_grid(4, 32), make_grid(8, 16)])
def test_sharpness_symbol_is_bit_identical_for_any_worker_count(small_bands, grid):
    small_bands(1)
    serial = sharpness_symbol(bump(0.0, 1.0), 3.0, grid).samples
    small_bands(2)
    threaded = sharpness_symbol(bump(0.0, 1.0), 3.0, grid).samples
    assert np.array_equal(serial, threaded)
    assert np.abs(threaded).max() > 0.0


def test_nonzero_row_runs_are_the_same_for_any_worker_count(small_bands):
    samples = _gapped_stft(1).samples
    nonzero = [bool(row.any()) for row in samples]
    want = []
    for i, keep in enumerate(nonzero):
        if keep and (i == 0 or not nonzero[i - 1]):
            want.append([i, i + 1])
        elif keep:
            want[-1][1] = i + 1
    small_bands(1)
    serial = _nonzero_row_runs(samples)
    small_bands(2)
    assert _nonzero_row_runs(samples) == serial == tuple(map(tuple, want))
    assert len(serial) > 3


def test_small_inputs_start_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a small input started a thread pool")

    monkeypatch.setattr(transforms, "_workers", lambda: 2)
    monkeypatch.setattr(transforms, "ThreadPoolExecutor", no_pool)
    grid = make_grid(16, 16)
    a, window, f = _sharpness_operator(grid, 4.0)
    v = stft(f, window)
    assert np.abs(synthesis(v, window).samples).max() > 0.0
    assert np.abs(apply_locop(a, window, window, f).samples).max() > 0.0

