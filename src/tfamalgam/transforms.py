"""Fourier transform, STFT, and phase-space synthesis on the periodic lattice.

Conventions: the forward transform is the quadrature sum

    fhat(w_k) = h * sum_j f(t_j) e^{-2 pi i w_k t_j},

evaluated with a centered FFT (pre/post twiddles move the origin to the middle
of both lattices), so it agrees with the direct sum to machine precision.  A
grid (L, m) maps to its dual (m, L); forward followed by inverse is exactly
the identity.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    Grid1D,
    SampledSignal,
    SampledSymbol,
    inner_product,
    make_signal,
    phase_space_symbol,
)

_TASK_ELEMENTS = 1 << 18  # samples in one pool task: rows of a transform or rows of cubes of a norm


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each(fn, items) -> None:
    """Call ``fn`` on every item, the calls spread over one thread per CPU.

    The pool lives for this call only.  Each call runs in a copy of the
    caller's context, so an enclosing ``np.errstate`` holds in the workers
    too.  With one item or one CPU the calls run inline, in order.  The calls
    must write disjoint outputs and call no public function of the library.
    """
    items = list(items)
    workers = min(len(items), _workers())
    if workers <= 1:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
        for future in futures:
            future.result()


def _alternating(n: int) -> np.ndarray:
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def _center_sign(n: int) -> float:
    # (-1)^(n/2): global phase from centering both lattices
    return -1.0 if (n // 2) % 2 else 1.0


def _centered_fft(values: np.ndarray, scale: float, transform) -> np.ndarray:
    """A new array, along the last axis: scale * s * transform(s * values), s = (-1)^j.

    The first sign pass is the complex copy and the last one folds into the
    scale; both are exact, as s = +-1.  ``stft`` and ``synthesis`` fold these
    passes into their own loops instead.
    """
    s = _alternating(values.shape[-1])
    x = np.multiply(values, s, dtype=np.complex128)
    transform(x, axis=-1, out=x)
    x *= s * scale
    return x


def dft_centered(values: np.ndarray, density: int) -> np.ndarray:
    """Centered DFT along the last axis with quadrature weight 1/density."""
    n = values.shape[-1]
    return _centered_fft(values, _center_sign(n) / density, np.fft.fft)


def idft_centered(values: np.ndarray, density: int) -> np.ndarray:
    """Inverse of dft_centered: weight 1/density sum with e^{+2 pi i w t}."""
    n = values.shape[-1]
    return _centered_fft(values, _center_sign(n) * n / density, np.fft.ifft)


def fourier(f: SampledSignal) -> SampledSignal:
    """Forward Fourier transform onto the dual grid."""
    return make_signal(f.grid.dual, dft_centered(f.samples, f.grid.m))


def inverse_fourier(f: SampledSignal) -> SampledSignal:
    """Inverse Fourier transform onto the dual grid."""
    return make_signal(f.grid.dual, idft_centered(f.samples, f.grid.m))


@dataclass(frozen=True)
class StftPlan:
    """Row layout for the STFT: keep every ``x_stride``-th time position.

    The stride must divide the sample density so every unit cube still holds a
    whole number of retained rows.  ``rows`` restricts the transform to some of
    those time rows: a tuple of sorted, disjoint, non-empty ``(start, stop)``
    runs inside ``[0, N // x_stride)``, or None for all.  Rows outside the runs
    are exact zeros in the STFT.
    """

    grid: Grid1D
    x_stride: int = 1
    rows: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.x_stride < 1 or self.grid.m % self.x_stride:
            raise ValueError(
                f"x_stride {self.x_stride} must be a positive divisor of m={self.grid.m}"
            )
        if self.rows is None:
            return
        runs = tuple((int(start), int(stop)) for start, stop in self.rows)
        nx = self.shape[0]
        end = 0
        for start, stop in runs:
            if not end <= start < stop <= nx:
                raise ValueError(
                    f"row runs {runs} must be sorted, disjoint, non-empty and inside [0, {nx})"
                )
            end = stop
        object.__setattr__(self, "rows", runs)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.N // self.x_stride, self.grid.N)


def _nonzero_row_runs(samples: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (start, stop) runs of the rows of ``samples`` that hold a nonzero entry."""
    nonzero = np.empty(samples.shape[0], dtype=bool)

    def scan(rows: slice) -> None:
        np.any(samples[rows], axis=1, out=nonzero[rows])

    _each_rows(scan, ((0, samples.shape[0]),), samples.shape[1])
    edges = np.flatnonzero(np.diff(nonzero, prepend=False, append=False))
    return tuple(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _chunks(runs, block: int):
    """Slices of at most ``block`` rows covering each run in turn."""
    for start, stop in runs:
        for lo in range(start, stop, block):
            yield slice(lo, min(lo + block, stop))


def _task_rows(width: int) -> int:
    """Rows of ``width`` samples in one pool task: about ``_TASK_ELEMENTS`` samples."""
    return max(1, _TASK_ELEMENTS // width)


def _each_rows(fn, runs, width: int) -> None:
    """``_each(fn, ...)`` over slices of the row runs, one task of rows of ``width`` samples each."""
    _each(fn, _chunks(runs, _task_rows(width)))


def _each_slab(fn, slabs, height: int, width: int) -> None:
    """Call ``fn(i, slabs[i], buf)`` for every slab, the slabs dealt out to the workers in turn.

    Worker ``w`` takes slabs ``w``, ``w + workers``, ... through ``_each``;
    ``buf`` is its own ``(height, width)`` complex buffer.  The buffers are
    made here, not in the tasks: memory a worker thread frees stays in its
    malloc arena.
    """
    workers = min(len(slabs), _workers())
    bufs = np.empty((workers, height, width), dtype=np.complex128)

    def task(worker: int) -> None:
        for i in range(worker, len(slabs), workers):
            fn(i, slabs[i], bufs[worker])

    _each(task, range(workers))


class _LazySymbol(SampledSymbol):
    """A ``SampledSymbol`` that keeps what its rows are made from and forms them on demand.

    ``rows`` holds the sorted (start, stop) runs of the rows that may be
    nonzero; every other row is zero.  A subclass fills the rows of a slice
    inside one run with ``_fill_rows(rows, out)``, without the column sign:
    ``sign``, when not None, is the sign (-1)^k over the N columns that every
    row of ``samples`` carries on top of the fill.  ``_form_unsigned``
    writes any slice of the rows without the sign, for the row readers
    (``_forms_rows``); ``_form_whole`` forms every row in a new array, times
    a sign or none: signed, it is ``samples``, formed on the first read and
    read-only.  Calling the class, as ``dataclasses.replace`` does, gives a
    plain ``SampledSymbol`` of the fields it is passed; a copy or a pickle
    is a plain ``SampledSymbol`` of the samples.
    """

    rows: tuple[tuple[int, int], ...]
    sign: np.ndarray | None = None

    def __new__(cls, *args, **kwargs):
        return SampledSymbol(*args, **kwargs)

    def __reduce__(self):
        return SampledSymbol, (self.x_grid, self.w_grid, self.samples)

    @classmethod
    def _of(cls, x_grid: Grid1D, w_grid: Grid1D, **parts):
        a = object.__new__(cls)  # calling the class would make a plain SampledSymbol
        a.__dict__.update(x_grid=x_grid, w_grid=w_grid, **parts)
        return a

    @property
    def formed(self) -> bool:
        """Whether ``samples`` has been read."""
        return "samples" in self.__dict__

    @cached_property
    def samples(self) -> np.ndarray:
        out = self._form_whole(self.sign)
        out.flags.writeable = False
        return out

    def _form_whole(self, sign: np.ndarray | None = None) -> np.ndarray:
        """Every row in a new array: the fill of each run times ``sign``, when not None."""
        out = np.zeros((self.x_grid.N, self.w_grid.N), dtype=np.complex128)

        def fill(rows: slice) -> None:
            part = out[rows]
            self._fill_rows(rows, part)
            if sign is not None:
                part *= sign

        _each_rows(fill, self.rows, self.w_grid.N)
        return out

    def _form_unsigned(self, rows: slice, out: np.ndarray) -> None:
        """Write rows ``rows`` into ``out`` without the column sign: the fill inside each run, zero elsewhere."""
        done = rows.start
        for start, stop in self.rows:
            lo, hi = max(start, done), min(stop, rows.stop)
            if lo < hi:
                out[done - rows.start : lo - rows.start] = 0.0
                self._fill_rows(slice(lo, hi), out[lo - rows.start : hi - rows.start])
                done = hi
        out[done - rows.start :] = 0.0


class _StftSymbol(_LazySymbol):
    """V_g f, its rows formed on demand: row j is ``sign * FFT(fs * windows[j])``.

    ``fs`` is the signal with the pre-sign and the scale folded in,
    ``windows`` the table of the conjugate window translated to each time
    position, and ``sign`` the post-sign (-1)^k, kept apart from the fill:
    the cube tables take |x| of the unsigned rows, and ``synthesis``, whose
    own pre-sign is the same (-1)^k, forms them unsigned and skips both.
    ``stft`` builds it.
    """

    fs: np.ndarray
    windows: np.ndarray

    def _fill_rows(self, rows: slice, out: np.ndarray) -> None:
        np.multiply(self.fs, self.windows[rows], out=out)
        np.fft.fft(out, axis=-1, out=out)


def _forms_rows(F: SampledSymbol) -> bool:
    """Whether the row readers (cube tables, ``synthesis``, the operators) form the rows of ``F``.

    A ``_LazySymbol`` whose samples are not formed is read by forming its
    rows over its ``rows``, so it is never held whole.  Any other symbol,
    a lazy one whose samples have been read included, is read from its
    samples over its ``_nonzero_row_runs``: its rows are already paid for.
    """
    return isinstance(F, _LazySymbol) and not F.formed


def _row_runs(F: SampledSymbol) -> tuple[tuple[int, int], ...]:
    """The runs of the rows of ``F`` that may be nonzero, as its readers take them (``_forms_rows``)."""
    return F.rows if _forms_rows(F) else _nonzero_row_runs(F.samples)


def _symbol_stride(F: SampledSymbol, grid: Grid1D) -> int:
    """Check that ``F`` lives on a time sublattice of ``grid``'s phase space; return the time stride."""
    if F.w_grid != grid.dual:
        raise ValueError("symbol frequency lattice does not match the window grid")
    if F.x_grid.L != grid.L or grid.m % F.x_grid.m:
        raise ValueError("symbol time axis is not a sublattice of the window grid")
    return grid.m // F.x_grid.m


def _translates(g: np.ndarray) -> np.ndarray:
    """Read-only table of the circular translates of ``g``: row i is ``g[(t + i) % n]``.

    Rows run over 0 <= i <= 2n, so the window translated to sample j,
    ``g[(t - j + n//2) % n]`` on the centered lattice, is row n + n//2 - j for
    every 0 <= j < n.  The table is a view of three copies of ``g``, so no row
    is materialised until it is read.
    """
    return np.lib.stride_tricks.sliding_window_view(np.tile(g, 3), g.shape[-1])


def stft(f: SampledSignal, g: SampledSignal, plan: StftPlan | None = None) -> SampledSymbol:
    """Short-time Fourier transform V_g f on the phase-space lattice.

    Column x_j holds the centered DFT of t -> f(t) conj(g(t - x_j)) with
    circular windowing; this matches the direct quadrature sum exactly.  Only
    the rows in ``plan.rows`` are transformed; every other row is exact zero.
    The rows are formed on demand: all of them on the first read of
    ``samples``, or a slice at a time by the row readers (``_forms_rows``).
    Rows are independent, and each task of ``_each`` transforms a slice of
    them, so the result does not depend on the CPU count.
    """
    if f.grid != g.grid:
        raise ValueError("stft requires signal and window on the same grid")
    grid = f.grid
    if plan is None:
        plan = StftPlan(grid)
    elif plan.grid != grid:
        raise ValueError("plan was built for a different grid")
    n = grid.N
    nx = plan.shape[0]
    s = _alternating(n)
    # the pre-sign and the scale +-1/m fold into the signal once; both are exact
    # when m is a power of two, so the result is the same as signing each row
    return _StftSymbol._of(
        Grid1D(grid.L, grid.m // plan.x_stride),
        grid.dual,
        rows=((0, nx),) if plan.rows is None else plan.rows,
        fs=f.samples * (s * (_center_sign(n) / grid.m)),
        windows=_translates(np.conj(g.samples))[n + n // 2 :: -plan.x_stride][:nx],
        sign=s,
    )


def synthesis(F: SampledSymbol, g: SampledSignal) -> SampledSignal:
    """Adjoint-side phase-space sum: out = sum_{j,k} F(x_j,w_k) M_{w_k} T_{x_j} g * cell.

    The quadrature cell is (x-step) * (frequency step); with F = stft(f, g) at
    full stride this inverts the STFT up to the factor ||g||_2^2.  Only the
    runs of ``_row_runs(F)`` are summed, in slabs of ``_task_rows(N)`` rows,
    each in row order on a task of ``_each``, and the slab sums in slab
    order, so the result does not depend on the CPU count.  Each worker forms
    the rows of its slab in its own buffer, or reads them (``_forms_rows``).
    Each row is signed by (-1)^k before its inverse FFT; a lazy F whose rows
    carry that sign (its ``sign``, as an STFT's do) forms them unsigned and
    skips the pre-sign, which is exact, as s * s = 1 and a * (-v) = -(a * v).
    """
    grid = g.grid
    stride = _symbol_stride(F, grid)
    n = grid.N
    lazy = _forms_rows(F)
    slabs = list(_chunks(_row_runs(F), _task_rows(n)))
    windows = _translates(g.samples)[n + n // 2 :: -stride][: F.x_grid.N]
    s = _alternating(n)
    sums = np.empty((len(slabs), n), dtype=np.complex128)

    def transform(i: int, rows: slice, buf: np.ndarray) -> None:
        slab = buf[: rows.stop - rows.start]
        if not lazy:
            np.multiply(F.samples[rows], s, out=slab)
        else:
            F._form_unsigned(rows, slab)
            if F.sign is None:
                slab *= s
        np.fft.ifft(slab, axis=-1, out=slab)
        slab *= windows[rows]
        slab.sum(axis=0, out=sums[i])

    _each_slab(transform, slabs, max((rows.stop - rows.start for rows in slabs), default=0), n)
    out = sums.sum(axis=0)
    # the post-sign and the scale are the same for every row: apply them to the sum
    out *= s * (_center_sign(n) * n / F.w_grid.m * F.x_grid.h)
    return make_signal(grid, out)


def gaussian_stft_oracle(lam: float, x, omega):
    """Closed form of V_phi phi_lam for the unit Gaussian window (dimension 1).

    phi(t) = e^{-pi t^2}, phi_lam(t) = e^{-pi lam t^2}:

        V_phi phi_lam(x, w) = (lam+1)^{-1/2}
                              e^{-pi (lam x^2 + w^2)/(lam+1)}
                              e^{-2 pi i x w / (lam+1)}.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    denom = lam + 1.0
    mag = denom ** -0.5 * np.exp(-np.pi * (lam * x**2 + omega**2) / denom)
    phase = np.exp(-2j * np.pi * x * omega / denom)
    out = mag * phase
    return complex(out) if out.ndim == 0 else out


def gaussian_stft_symbol(lam: float, grid: Grid1D) -> SampledSymbol:
    """The Gaussian STFT closed form evaluated on the full phase-space lattice."""
    return phase_space_symbol(grid, lambda x, w: gaussian_stft_oracle(lam, x, w))


def _circular_conv2(a: np.ndarray, b: np.ndarray, cell: float) -> np.ndarray:
    """Quadrature of the phase-space convolution (a * b)(z) on centered lattices."""
    nx, nw = b.shape
    b_shift = np.roll(b, (-(nx // 2), -(nw // 2)), axis=(0, 1))
    return cell * np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b_shift)).real


def window_domination_check(
    f: SampledSignal,
    g: SampledSignal,
    g0: SampledSignal,
    gamma: SampledSignal,
) -> float:
    """Largest violation of the window-change domination inequality.

    Checks pointwise on the phase-space lattice that

        |V_{g0} f| <= (1/|<gamma, g>|) (|V_g f| * |V_{g0} gamma|),

    where * is the phase-space convolution; returns max(lhs - rhs), which
    should not exceed the quadrature tolerance.  Requires |<gamma, g>| > 1e-8.
    """
    pairing = inner_product(gamma, g)
    if abs(pairing) <= 1e-8:
        raise ValueError("gamma and g are near-orthogonal; the bound degenerates")
    lhs = np.abs(stft(f, g0).samples)
    vf = np.abs(stft(f, g).samples)
    vg = np.abs(stft(gamma, g0).samples)
    cell = f.grid.h * f.grid.freq_step
    rhs = _circular_conv2(vf, vg, cell) / abs(pairing)
    return float((lhs - rhs).max())
