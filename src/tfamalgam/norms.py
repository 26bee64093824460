"""Lebesgue, mixed, Wiener amalgam, Fourier-image, and modulation norms.

All norms are quadrature norms on the sampled box.  Amalgam norms use the
sharp-cutoff window: local L^p on each unit cube of the lattice, then a plain
l^q sum over cube indices (sup for infinite exponents).  Because the cubes
have measure one, the classical inclusion and Hoelder relations hold here
with constant exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    INFINITY,
    ExtendedExponent,
    Grid1D,
    SampledSignal,
    SampledSymbol,
    as_exponent,
    make_signal,
)
from .families import UNIT_BUMP
from .transforms import (
    _LazySymbol, _alternating, _each_slab, _forms_rows, _idft_scale, _row_runs,
    fourier, idft_centered, inverse_fourier, stft,
)

#: norm kind -> the norm of f at the kind's exponents; each entry looks its
#: function up when called, so a wrapper installed on the module later is used
_NORMS = {
    "lp": lambda f, p: lp_norm(f, p),
    "flp": lambda f, p: flp_norm(f, p),
    "mixed_lpq": lambda f, p, q: mixed_lpq(f, p, q),
    "mixed_lplq": lambda f, p, q: mixed_lplq(f, p, q),
    "amalgam": lambda f, p, q: amalgam_norm(f, p, q),
    "modulation_stft": lambda f, p, q: modulation_norm(f, p, q),
    "modulation_triebel": lambda f, p, q: modulation_norm_triebel(f, p, q),
    "symbol_mixed": lambda f, p1, q1, p2, q2: symbol_mixed_norm(f, p1, q1, p2, q2),
}

#: norm kind -> number of exponents it takes: the parameters of its entry after f
NORM_ARITY = {kind: norm.__code__.co_argcount - 1 for kind, norm in _NORMS.items()}


@dataclass(frozen=True)
class NormSpec:
    """A named norm together with its exponent tuple.

    Convenience record for driving norm evaluation from configuration; the
    exponent count must match the kind (1 for lp/flp, 4 for symbol_mixed,
    2 for the rest).
    """

    kind: str
    exponents: tuple

    def __post_init__(self):
        if self.kind not in NORM_ARITY:
            raise ValueError(f"unknown norm kind {self.kind!r}; known: {sorted(NORM_ARITY)}")
        exps = tuple(as_exponent(e) for e in self.exponents)
        if len(exps) != NORM_ARITY[self.kind]:
            raise ValueError(
                f"norm kind {self.kind!r} takes {NORM_ARITY[self.kind]} exponents, "
                f"got {len(exps)}"
            )
        object.__setattr__(self, "exponents", exps)


def evaluate_norm(spec: NormSpec, f) -> float:
    """Apply the norm described by ``spec`` to a signal or symbol."""
    return _NORMS[spec.kind](f, *spec.exponents)


#: elements per row block of a cube-table pass, so the block temporaries stay in cache
_BLOCK = 1 << 16

# below this a sum of p-th powers has lost digits to underflow
_TINY_OVER_EPS = np.finfo(float).tiny / np.finfo(float).eps

_SUP = ExtendedExponent(INFINITY)


def _roots(tiles: np.ndarray, exponents) -> list[np.ndarray]:
    """(sum |x|^p)^(1/p) over each cube of a 4-D cube view, for each p (max |x| for p = inf).

    One pass of ``_tile_reduce`` gives the plain sums for every exponent.  A p
    whose sums overflow, or whose largest sum underflows, is recomputed on |x|
    divided by its max per cube (Blue's scaling, as in LAPACK dnrm2), so the
    result stays finite and homogeneous far beyond the amplitudes where |x|^p
    leaves the float range.
    """
    if all(p.is_inf or p.value == 1.0 for p in exponents):
        return _tile_reduce(tiles, exponents)
    with np.errstate(over="ignore", under="ignore"):
        tables = _tile_reduce(tiles, exponents)
        scale = None
        for k, p in enumerate(exponents):
            if p.is_inf or p.value == 1.0:
                continue
            if _TINY_OVER_EPS <= tables[k].max() < INFINITY:
                tables[k] = tables[k] ** (1.0 / p.value)
                continue
            if scale is None:
                scale = _tile_reduce(tiles, (_SUP,))[0]
                scale = np.where((scale > 0.0) & (scale < INFINITY), scale, 1.0)
            tables[k] = _tile_reduce(tiles, (p,), scale)[0] ** (1.0 / p.value) * scale
    return tables


def _tile_reduce(tiles, exponents, scale=None) -> list[np.ndarray]:
    """Per cube of a 4-D cube view, the sum of |x|^p for each p (the max of |x| for p = inf).

    ``tiles`` is (time cube, row in cube, frequency cube, column in cube):
    an array, or the ``_FormedCubes`` of a symbol whose rows each block
    forms in the buffer of the worker that reduces it, without their column
    sign, which |x| does not see.  ``scale``, one value per cube, divides |x|
    first.  An array of at most ``_BLOCK`` elements is reduced in one go; a
    larger view in blocks of at most ``_BLOCK`` elements that never straddle
    a row of cubes (whole rows of cubes when they fit, else runs of rows
    within one), so the temporaries stay in cache.  Each block is a task of
    ``_each_slab``, folded into the tables in block order: the first of a
    band of rows of cubes sets it, later ones add to it.  So each cube is
    summed the same way for any CPU count, whether its rows are formed or read.
    """
    lazy = isinstance(tiles, _FormedCubes)
    if not lazy and tiles.size <= _BLOCK:
        return _block_reduce(tiles, exponents, scale)
    n_rows, tile_rows, n_cols, tile_cols = tiles.shape
    row = n_cols * tile_cols
    band = max(1, _BLOCK // (tile_rows * row))  # rows of cubes per block
    step = min(tile_rows, max(1, _BLOCK // row))  # rows per block within a row of cubes
    blocks = [(slice(i, min(i + band, n_rows)), r) for i in range(0, n_rows, band) for r in range(0, tile_rows, step)]
    tables = [np.empty((n_rows, n_cols)) for _ in exponents]

    def reduce_block(block: tuple, scratch: np.ndarray) -> list[np.ndarray]:
        cubes, r = block
        rows = min(step, tile_rows - r)
        if lazy:
            # a block is one run of sample rows: band > 1 only where step is tile_rows
            formed = scratch[:2].reshape(-1).view(np.complex128)[: (cubes.stop - cubes.start) * rows * row]
            formed = formed.reshape(-1, row)
            start = cubes.start * tile_rows + r
            tiles.symbol._form_unsigned(slice(start, start + len(formed)), formed)  # |-x| = |x|
            view = formed.reshape(-1, rows, n_cols, tile_cols)
        else:
            view = tiles[cubes, r : r + rows]
        return _block_reduce(view, exponents, None if scale is None else scale[cubes], scratch)

    def fold(i: int, sums: list[np.ndarray]) -> None:
        cubes, r = blocks[i]
        for p, table, block_sums in zip(exponents, tables, sums):
            if r == 0:
                table[cubes] = block_sums
            else:
                (np.maximum if p.is_inf else np.add)(table[cubes], block_sums, out=table[cubes])

    _each_slab(reduce_block, blocks, (4, min(band, n_rows) * step * row), fold, float)
    return tables


def _block_reduce(block: np.ndarray, exponents, scale, scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Per cube of a 4-D block, the sum of (|x| / scale)^p for each p (the max for p = inf).

    |x| is taken once for every exponent.  p = 2 is one square, as ``**`` does
    it, and p = 4 squares the squares: ``**`` is much slower there, most of
    all where the powers are subnormal.  p = 4/3 is |x| * cbrt|x|, about
    twice as fast as ``**`` and closer to the exact power: ``**`` raises to
    the rounded exponent, 7.4e-17 below 4/3, so its relative error grows
    with |ln |x||, to about 1.7e-14 at |x| = 1e-100.  A pool task passes
    ``scratch``, four rows of floats of at least the block's size, and
    allocates no temporary: the rows hold the squares, the other powers, |x|
    and the sums over the rows in each cube.  The first two rows may hold
    ``block`` itself, which |x| is taken from before they are written.  An
    inline call allocates its own.
    """
    shape = block.shape
    if scratch is None:
        squares = power = a = row_sums = None
    else:
        squares, power, a = (buf[: block.size].reshape(shape) for buf in scratch[:3])
        row_sums = scratch[3, : block.size // shape[1]].reshape(shape[0], shape[2], shape[3])
    a = np.abs(block, out=a)
    if scale is not None:
        a /= scale[:, None, :, None]
    squares_of = None
    sums = []
    for p in exponents:
        if p.is_inf or p.value == 1.0:
            x = a
        elif p.value in (2.0, 4.0):
            if squares_of is None:
                squares_of = np.square(a, out=squares)
            x = squares_of if p.value == 2.0 else np.square(squares_of, out=power)
        elif p.value == 4.0 / 3.0:
            x = np.cbrt(a, out=power)
            x *= a
        else:
            x = np.power(a, p.value, out=power)
        # reduce over the rows in each cube first, along contiguous memory, then
        # over the short runs of columns
        reduce = np.maximum.reduce if p.is_inf else np.add.reduce
        sums.append(reduce(reduce(x, axis=1, out=row_sums) if shape[1] > 1 else x[:, 0], axis=2))
    return sums


def _root(tiles: np.ndarray, p: ExtendedExponent) -> np.ndarray:
    """Unweighted local L^p norm (sum |x|^p)^(1/p) of each cube of a 4-D view, overflow-safe."""
    return _roots(tiles, (p,))[0]


def _sequence_norm(values: np.ndarray, q: ExtendedExponent) -> float:
    # l^q with the counting measure over all the values, taken as one cube
    return float(_root(values.reshape(1, 1, 1, -1), q)[0, 0])


def _row_amalgam(tiles, grid: Grid1D, p: ExtendedExponent, q: ExtendedExponent):
    """W(L^p, L^q) norm on ``grid`` of each row of a cube view (rows, 1, grid.L, grid.m): one row of cubes per row.

    ``tiles`` is an array or ``_FormedCubes``, as ``_tile_reduce`` takes.
    """
    local = _root(tiles, p)
    return grid.h**p.reciprocal * _root(local.reshape(len(local), 1, 1, grid.L), q)[:, 0]


def _cube_shape(a: SampledSymbol) -> tuple[int, int, int, int]:
    return (a.x_grid.L, a.x_grid.m, a.w_grid.L, a.w_grid.m)


@dataclass(frozen=True)
class _FormedCubes:
    """The cube view ``shape`` of a symbol whose rows ``_tile_reduce`` forms a block at a time."""

    symbol: _LazySymbol
    shape: tuple[int, int, int, int]


def _cubes(f, shape=None):
    """Cube view of a sampled object: (L, 1, 1, m) for a signal, ``shape`` or (Lx, mx, Lw, mw) for a symbol.

    A symbol whose rows are formed rather than read (``_forms_rows``) gives
    its ``_FormedCubes``, for ``_tile_reduce`` to form its rows a block at
    a time.
    """
    if isinstance(f, SampledSignal):
        g = f.grid
        return f.samples.reshape(g.L, 1, 1, g.m)
    if not isinstance(f, SampledSymbol):
        raise TypeError(f"expected SampledSignal or SampledSymbol, got {type(f)!r}")
    shape = _cube_shape(f) if shape is None else shape
    return _FormedCubes(f, shape) if _forms_rows(f) else f.samples.reshape(shape)


def _fill_cube_tables(f, exponents) -> list[np.ndarray]:
    """Unweighted local L^p norm (sum |f|^p)^(1/p) of each unit cube, for each p; max |f| for p = inf.

    The distinct exponents share one blocked pass (``_roots``); only one whose
    sums leave the float range takes two more passes to rescale.  A symbol
    whose rows are formed (``_cubes``) stays unformed and keeps its tables,
    read-only, per exponent on the instance: its rows are streamed from the
    library's own copies of its inputs, so nothing can change them.  Norms
    that share its local exponent then share the pass, a caller that knows
    every exponent it will ask for fills their tables in one pass, and a
    later norm of it forms no sample.  Every other signal or symbol, a lazy
    one whose samples have been read included, is reduced afresh on every
    call: no table of it is kept or read.
    """
    tiles = _cubes(f)
    memo = f.__dict__.setdefault("_cube_tables", {}) if isinstance(tiles, _FormedCubes) else {}
    missing = list({p.value: p for p in exponents if p.value not in memo}.values())
    if missing:
        for p, table in zip(missing, _roots(tiles, missing)):
            table.flags.writeable = False
            memo[p.value] = table
    return [memo[p.value] for p in exponents]


def _cube_table(f, p: ExtendedExponent) -> np.ndarray:
    """The local L^p table of ``f`` (see ``_fill_cube_tables``)."""
    return _fill_cube_tables(f, (p,))[0]


def _amalgam(f, p: ExtendedExponent, q: ExtendedExponent) -> float:
    # l^q over the cube table, with the quadrature weight of the local L^p norms
    table = _cube_table(f, p)
    return f.cell ** p.reciprocal * _sequence_norm(table, q)


def lp_norm(f, p) -> float:
    """L^p quadrature norm of a signal (weight h) or symbol (weight h_x * h_w)."""
    p = as_exponent(p)
    return _amalgam(f, p, p)


def mixed_lpq(F: SampledSymbol, p, q) -> float:
    """Inner L^p over the time axis for each frequency, then L^q over frequency."""
    p, q = as_exponent(p), as_exponent(q)
    nx, nw = F.x_grid.N, F.w_grid.N
    columns = _root(_cubes(F, (1, nx, nw, 1)), p)  # one cube per frequency
    return F.x_grid.h**p.reciprocal * F.w_grid.h**q.reciprocal * _sequence_norm(columns, q)


def mixed_lplq(F: SampledSymbol, p, q) -> float:
    """Inner L^q over the frequency axis for each time, then L^p over time."""
    p, q = as_exponent(p), as_exponent(q)
    nx, nw = F.x_grid.N, F.w_grid.N
    rows = _root(_cubes(F, (nx, 1, 1, nw)), q)  # one cube per time
    return F.w_grid.h**q.reciprocal * F.x_grid.h**p.reciprocal * _sequence_norm(rows, p)


def amalgam_norm(f, p, q) -> float:
    """Wiener amalgam norm W(L^p, L^q) with unit-cube cutoff windows.

    1-D signals split into L cubes of m samples; phase-space symbols split
    into (L time-cubes) x (as many frequency-cubes as the frequency axis
    spans), each cube carrying a local L^p quadrature norm.
    """
    return _amalgam(f, as_exponent(p), as_exponent(q))


def flp_norm(f: SampledSignal, p) -> float:
    """Norm of the Fourier pre-image: ||f||_{FL^p} = ||h||_p where h^ = f."""
    return lp_norm(inverse_fourier(f), p)


def standard_window(grid: Grid1D) -> SampledSignal:
    """The unit Gaussian e^{-pi t^2} sampled on ``grid``.

    Fixed as the analysis window of every modulation norm so equivalence
    constants never drift between experiments.
    """
    return make_signal(grid, np.exp(-np.pi * grid.points**2))


def unit_standard_window(grid: Grid1D) -> SampledSignal:
    """The standard window scaled to unit L^2 norm on ``grid``."""
    w = standard_window(grid)
    return make_signal(grid, w.samples / lp_norm(w, 2))


def modulation_norm(f: SampledSignal, p, q) -> float:
    """STFT modulation norm ||V_phi f||_{L^{p,q}} with the fixed Gaussian window."""
    return mixed_lpq(stft(f, standard_window(f.grid)), p, q)


def partition_window(omega, k: int = 0) -> np.ndarray:
    """Translate by k of the bump-based partition of unity on the frequency axis.

    psi is supported in (-1, 1) and the integer translates of psi sum to 1.
    """
    omega = np.asarray(omega, dtype=float) - k
    base = np.floor(omega)
    denom = np.zeros_like(omega)
    for off in (-1.0, 0.0, 1.0):
        denom += UNIT_BUMP.evaluator(omega - (base + off))
    return UNIT_BUMP.evaluator(omega) / denom


def modulation_norm_triebel(f: SampledSignal, p, q) -> float:
    """Frequency-decomposition modulation norm (sum_k ||psi(D-k) f||_p^q)^{1/q}.

    psi(D-k) f is the inverse transform of fhat * T_k psi; k runs over the
    integers whose translated window can meet the sampled frequency band.
    All bands are transformed at once, one row per band.
    """
    p, q = as_exponent(p), as_exponent(q)
    fhat = fourier(f)
    n, d = f.grid.N, fhat.grid.m  # d frequency samples per unit
    kmax = f.grid.m // 2
    # row k + kmax is T_k psi on the frequency lattice, for |k| <= kmax: a view
    # of psi on a lattice 2 * kmax units longer, read from (kmax - k) units in
    psi = partition_window((np.arange(n + 2 * kmax * d) - n // 2 - kmax * d) / d)
    windows = np.lib.stride_tricks.sliding_window_view(psi, n)[2 * kmax * d :: -d]
    bands = idft_centered(fhat.samples * windows, d)
    local = _root(bands.reshape(len(windows), 1, 1, n), p)
    return f.grid.h**p.reciprocal * _sequence_norm(local, q)


class _InverseRows(_LazySymbol):
    """``idft_centered(source.samples, source.w_grid.m)`` on (x_grid, dual of w_grid), its rows formed on demand.

    A row is the row of ``source``, formed or read by ``_forms_rows``, times
    ``pre``, the sign (-1)^k, then transformed in place and multiplied by
    ``post``, that sign times the scale: the passes of ``idft_centered``, in
    its order.  A lazy source whose rows carry that sign (its ``sign``, as an
    STFT's do) forms them unsigned and skips both sign passes, which is
    exact, as in ``synthesis``.  ``rows`` are ``_row_runs(source)``: the
    transform of a zero row is zero.
    """

    source: SampledSymbol
    pre: np.ndarray
    post: np.ndarray

    def _fill_rows(self, rows: slice, out: np.ndarray) -> None:
        a = self.source
        if not _forms_rows(a):
            np.multiply(a.samples[rows], self.pre, out=out)
        else:
            a._form_unsigned(rows, out)
            if a.sign is None:
                out *= self.pre
        np.fft.ifft(out, axis=-1, out=out)
        out *= self.post


def symbol_mixed_norm(a: SampledSymbol, p1, q1, p2, q2) -> float:
    """Amalgam-of-Fourier-image mixed norm of a phase-space symbol.

    For each time slice, take the W(L^{p2}, L^{q2}) norm of the inverse
    transform (in frequency) of a(x, .); then take the W(L^{p1}, L^{q1}) norm
    of the resulting profile in x.  The transforms are formed a block of
    rows at a time inside the reduction (``_InverseRows``), so no
    transformed copy of ``a`` is held and a lazy ``a`` is never formed.
    """
    p1, q1, p2, q2 = (as_exponent(e) for e in (p1, q1, p2, q2))
    n, time = a.w_grid.N, a.w_grid.dual  # the transformed rows live on dual(w_grid)
    s = _alternating(n)
    rows_time = _InverseRows._of(
        a.x_grid, time, rows=_row_runs(a), source=a, pre=s, post=s * _idft_scale(n, a.w_grid.m)
    )
    profile = _row_amalgam(_cubes(rows_time, (a.x_grid.N, 1, time.L, time.m)), time, p2, q2)
    return float(_row_amalgam(profile.reshape(1, 1, a.x_grid.L, a.x_grid.m), a.x_grid, p1, q1)[0])
