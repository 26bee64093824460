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
from .families import bump
from .transforms import fourier, idft_centered, inverse_fourier, stft

#: norm kind -> number of exponents it takes
NORM_ARITY = {
    "lp": 1,
    "flp": 1,
    "mixed_lpq": 2,
    "mixed_lplq": 2,
    "amalgam": 2,
    "modulation_stft": 2,
    "modulation_triebel": 2,
    "symbol_mixed": 4,
}


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
    e = spec.exponents
    if spec.kind == "lp":
        return lp_norm(f, e[0])
    if spec.kind == "flp":
        return flp_norm(f, e[0])
    if spec.kind == "mixed_lpq":
        return mixed_lpq(f, e[0], e[1])
    if spec.kind == "mixed_lplq":
        return mixed_lplq(f, e[0], e[1])
    if spec.kind == "amalgam":
        return amalgam_norm(f, e[0], e[1])
    if spec.kind == "modulation_stft":
        return modulation_norm(f, e[0], e[1])
    if spec.kind == "modulation_triebel":
        return modulation_norm_triebel(f, e[0], e[1])
    return symbol_mixed_norm(f, e[0], e[1], e[2], e[3])


#: elements per row block of a cube-table pass, so the block temporaries stay in cache
_BLOCK = 1 << 16

# below this a sum of p-th powers has lost digits to underflow
_TINY_OVER_EPS = np.finfo(float).tiny / np.finfo(float).eps

_SUP = ExtendedExponent(INFINITY)


def _scaled_root(reduce, p: ExtendedExponent) -> np.ndarray:
    """(sum |x|^p)^(1/p) per output (max |x| for p = inf).

    ``reduce(e, scale)`` gives, per output, the sum of (|x| / scale)^e (the
    max of |x| for e = inf); ``scale`` is None or holds one value per output.
    The plain sums run first; if any overflows, or the largest one underflows,
    they are recomputed on |x| divided by its max per output (Blue's scaling,
    as in LAPACK dnrm2), so the result stays finite and homogeneous far
    beyond the amplitudes where |x|^p leaves the float range.
    """
    if p.is_inf or p.value == 1.0:
        return reduce(p, None)
    with np.errstate(over="ignore", under="ignore"):
        sums = reduce(p, None)
        if _TINY_OVER_EPS <= sums.max() < INFINITY:
            return sums ** (1.0 / p.value)
        scale = reduce(_SUP, None)
        scale = np.where((scale > 0.0) & (scale < INFINITY), scale, 1.0)
        return reduce(p, scale) ** (1.0 / p.value) * scale


def _tile_reduce(tiles: np.ndarray, p: ExtendedExponent, scale=None) -> np.ndarray:
    """Sum of |x|^p (max of |x| for p = inf) over each cube of a 4-D cube view.

    ``tiles`` is (time cube, row in cube, frequency cube, column in cube);
    ``scale``, one value per cube, divides |x| first.  A view of at most
    ``_BLOCK`` elements is reduced in one go; a larger one in blocks of at
    most ``_BLOCK`` elements that never straddle a row of cubes (whole rows of
    cubes when they fit, else runs of rows within one), so the temporaries
    stay in cache.
    """
    if tiles.size <= _BLOCK:
        return _block_reduce(tiles, p, scale)
    n_rows, tile_rows, n_cols, tile_cols = tiles.shape
    row = n_cols * tile_cols
    reduce = np.maximum if p.is_inf else np.add
    table = np.empty((n_rows, n_cols))
    band = max(1, _BLOCK // (tile_rows * row))  # rows of cubes per block
    step = min(tile_rows, max(1, _BLOCK // row))  # rows per block within a row of cubes
    for i in range(0, n_rows, band):
        out = table[i : i + band]
        part_scale = None if scale is None else scale[i : i + band]
        out[...] = _block_reduce(tiles[i : i + band, :step], p, part_scale)
        for r in range(step, tile_rows, step):
            reduce(out, _block_reduce(tiles[i : i + band, r : r + step], p, part_scale), out=out)
    return table


def _block_reduce(block: np.ndarray, p: ExtendedExponent, scale) -> np.ndarray:
    # reduce over the rows in each cube first, along contiguous memory, then
    # over the short runs of columns
    a = np.abs(block)
    if scale is not None:
        a /= scale[:, None, :, None]
    if not (p.is_inf or p.value == 1.0):
        a **= p.value
    reduce = np.maximum.reduce if p.is_inf else np.add.reduce
    return reduce(reduce(a, axis=1) if a.shape[1] > 1 else a[:, 0], axis=2)


def _root(tiles: np.ndarray, p: ExtendedExponent) -> np.ndarray:
    """Unweighted local L^p norm (sum |x|^p)^(1/p) of each cube of a 4-D view, overflow-safe."""
    return _scaled_root(lambda e, scale: _tile_reduce(tiles, e, scale), p)


def _sequence_norm(values: np.ndarray, q: ExtendedExponent) -> float:
    # l^q with the counting measure over all the values, taken as one cube
    return float(_root(values.reshape(1, 1, 1, -1), q)[0, 0])


def _row_amalgam(rows: np.ndarray, grid: Grid1D, p: ExtendedExponent, q: ExtendedExponent):
    """W(L^p, L^q) norm on ``grid`` of each row of a 2-D array: one row of cubes per row."""
    n = rows.shape[0]
    local = _root(rows.reshape(n, 1, grid.L, grid.m), p)
    return grid.h**p.reciprocal * _root(local.reshape(n, 1, 1, grid.L), q)[:, 0]


def _cubes(f) -> tuple[np.ndarray, float]:
    """Cube view and quadrature cell of a sampled object.

    (L, 1, 1, m) with cell h for a signal; (Lx, mx, Lw, mw) with cell
    h_x * h_w for a symbol.
    """
    if isinstance(f, SampledSignal):
        g = f.grid
        return f.samples.reshape(g.L, 1, 1, g.m), g.h
    if isinstance(f, SampledSymbol):
        gx, gw = f.x_grid, f.w_grid
        return f.samples.reshape(gx.L, gx.m, gw.L, gw.m), f.cell
    raise TypeError(f"expected SampledSignal or SampledSymbol, got {type(f)!r}")


def _frozen(a: np.ndarray) -> bool:
    """Whether no writable array or buffer shares memory with ``a``."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


def _cube_table(f, p: ExtendedExponent) -> np.ndarray:
    """Unweighted local L^p norm (sum |f|^p)^(1/p) of each unit cube; max |f| for p = inf.

    One blocked pass computes the plain sums; only if they leave the float
    range do two more take the per-cube max and rescale (``_scaled_root``).
    The table is memoised per exponent on the instance, read-only, when no
    writable array shares the samples' memory (every ``make_signal`` or
    ``make_symbol`` result made from a fresh array), so norms that share a
    local exponent share the pass.
    """
    tiles, _ = _cubes(f)
    memo = f.__dict__.setdefault("_cube_tables", {}) if _frozen(f.samples) else {}
    table = memo.get(p.value)
    if table is None:
        table = _root(tiles, p)
        table.flags.writeable = False
        memo[p.value] = table
    return table


def _amalgam(f, p: ExtendedExponent, q: ExtendedExponent) -> float:
    # l^q over the cube table, with the quadrature weight of the local L^p norms
    return _cubes(f)[1] ** p.reciprocal * _sequence_norm(_cube_table(f, p), q)


def lp_norm(f, p) -> float:
    """L^p quadrature norm of a signal (weight h) or symbol (weight h_x * h_w)."""
    p = as_exponent(p)
    return _amalgam(f, p, p)


def mixed_lpq(F: SampledSymbol, p, q) -> float:
    """Inner L^p over the time axis for each frequency, then L^q over frequency."""
    p, q = as_exponent(p), as_exponent(q)
    nx, nw = F.samples.shape
    columns = _root(F.samples.reshape(1, nx, nw, 1), p)  # one cube per frequency
    return F.x_grid.h**p.reciprocal * F.w_grid.h**q.reciprocal * _sequence_norm(columns, q)


def mixed_lplq(F: SampledSymbol, p, q) -> float:
    """Inner L^q over the frequency axis for each time, then L^p over time."""
    p, q = as_exponent(p), as_exponent(q)
    nx, nw = F.samples.shape
    rows = _root(F.samples.reshape(nx, 1, 1, nw), q)  # one cube per time
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


_unit_bump = bump(0.0, 1.0).evaluator  # e^{1 - 1/(1-u^2)} on (-1, 1), zero outside


def partition_window(omega, k: int = 0) -> np.ndarray:
    """Translate by k of the bump-based partition of unity on the frequency axis.

    psi is supported in (-1, 1) and the integer translates of psi sum to 1.
    """
    omega = np.asarray(omega, dtype=float) - k
    base = np.floor(omega)
    denom = np.zeros_like(omega)
    for off in (-1.0, 0.0, 1.0):
        denom += _unit_bump(omega - (base + off))
    return _unit_bump(omega) / denom


def modulation_norm_triebel(f: SampledSignal, p, q) -> float:
    """Frequency-decomposition modulation norm (sum_k ||psi(D-k) f||_p^q)^{1/q}.

    psi(D-k) f is the inverse transform of fhat * T_k psi; k runs over the
    integers whose translated window can meet the sampled frequency band.
    All bands are transformed at once, one row per band.
    """
    p, q = as_exponent(p), as_exponent(q)
    fhat = fourier(f)
    n, d = f.grid.N, fhat.grid.m  # d frequency samples per unit
    kmax = f.grid.m // 2 + 1
    # row k + kmax is T_k psi on the frequency lattice, for |k| <= kmax: a view
    # of psi on a lattice 2 * kmax units longer, read from (kmax - k) units in
    psi = partition_window((np.arange(n + 2 * kmax * d) - n // 2 - kmax * d) / d)
    windows = np.lib.stride_tricks.sliding_window_view(psi, n)[2 * kmax * d :: -d]
    bands = idft_centered(fhat.samples * windows, d)
    local = _root(bands.reshape(len(windows), 1, 1, n), p)
    return f.grid.h**p.reciprocal * _sequence_norm(local, q)


def symbol_mixed_norm(a: SampledSymbol, p1, q1, p2, q2) -> float:
    """Amalgam-of-Fourier-image mixed norm of a phase-space symbol.

    For each time slice, take the W(L^{p2}, L^{q2}) norm of the inverse
    transform (in frequency) of a(x, .); then take the W(L^{p1}, L^{q1}) norm
    of the resulting profile in x.
    """
    p1, q1, p2, q2 = (as_exponent(e) for e in (p1, q1, p2, q2))
    rows_time = idft_centered(a.samples, a.w_grid.m)  # rows now live on dual(w_grid)
    profile = _row_amalgam(rows_time, a.w_grid.dual, p2, q2)
    return float(_row_amalgam(profile[None, :], a.x_grid, p1, q1)[0])
