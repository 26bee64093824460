"""Fourier transform, STFT, and phase-space synthesis on the periodic lattice.

Conventions: the forward transform is the quadrature sum

    fhat(w_k) = h * sum_j f(t_j) e^{-2 pi i w_k t_j},

evaluated with a centered FFT (pre/post twiddles move the origin to the middle
of both lattices), so it agrees with the direct sum to machine precision.  A
grid (L, m) maps to its dual (m, L); forward followed by inverse is exactly
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid1D,
    SampledSignal,
    SampledSymbol,
    inner_product,
    make_signal,
    make_symbol,
)

_CHUNK_ELEMENTS = 1 << 21  # rows are processed in blocks of about this many samples


def _alternating(n: int) -> np.ndarray:
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def _center_sign(n: int) -> float:
    # (-1)^(n/2): global phase from centering both lattices
    return -1.0 if (n // 2) % 2 else 1.0


def _centered_fft(x: np.ndarray, scale: float, transform) -> np.ndarray:
    """In place along the last axis: x <- scale * s * transform(s * x), s = (-1)^j.

    Working in place keeps block-sized temporaries out of the transform loops.
    """
    s = _alternating(x.shape[-1])
    x *= s
    transform(x, axis=-1, out=x)
    x *= s
    x *= scale
    return x


def dft_centered(values: np.ndarray, density: int) -> np.ndarray:
    """Centered DFT along the last axis with quadrature weight 1/density."""
    n = values.shape[-1]
    return _centered_fft(np.array(values, dtype=np.complex128), _center_sign(n) / density, np.fft.fft)


def idft_centered(values: np.ndarray, density: int) -> np.ndarray:
    """Inverse of dft_centered: weight 1/density sum with e^{+2 pi i w t}."""
    n = values.shape[-1]
    scale = _center_sign(n) * n / density
    return _centered_fft(np.array(values, dtype=np.complex128), scale, np.fft.ifft)


def fourier(f: SampledSignal) -> SampledSignal:
    """Forward Fourier transform onto the dual grid."""
    return make_signal(f.grid.dual, dft_centered(f.samples, f.grid.m))


def inverse_fourier(f: SampledSignal) -> SampledSignal:
    """Inverse Fourier transform onto the dual grid."""
    return make_signal(f.grid.dual, idft_centered(f.samples, f.grid.m))


@dataclass(frozen=True)
class StftPlan:
    """Column layout for the STFT: keep every ``x_stride``-th time position.

    The stride must divide the sample density so every unit cube still holds a
    whole number of retained columns.
    """

    grid: Grid1D
    x_stride: int = 1

    def __post_init__(self):
        if self.x_stride < 1 or self.grid.m % self.x_stride:
            raise ValueError(
                f"x_stride {self.x_stride} must be a positive divisor of m={self.grid.m}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.N // self.x_stride, self.grid.N)


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
    circular windowing; this matches the direct quadrature sum exactly.
    """
    if f.grid != g.grid:
        raise ValueError("stft requires signal and window on the same grid")
    grid = f.grid
    if plan is not None and plan.grid != grid:
        raise ValueError("plan was built for a different grid")
    stride = plan.x_stride if plan is not None else 1
    n = grid.N
    nx = n // stride
    out = np.empty((nx, n), dtype=np.complex128)
    fs = f.samples
    windows = _translates(np.conj(g.samples))[n + n // 2 :: -stride][:nx]
    block = max(1, _CHUNK_ELEMENTS // n)
    scale = _center_sign(n) / grid.m
    for start in range(0, nx, block):
        rows = out[start : start + block]
        np.multiply(fs, windows[start : start + block], out=rows)
        _centered_fft(rows, scale, np.fft.fft)
    return make_symbol(Grid1D(grid.L, grid.m // stride), grid.dual, out)


def synthesis(F: SampledSymbol, g: SampledSignal) -> SampledSignal:
    """Adjoint-side phase-space sum: out = sum_{j,k} F(x_j,w_k) M_{w_k} T_{x_j} g * cell.

    The quadrature cell is (x-step) * (frequency step); with F = stft(f, g) at
    full stride this inverts the STFT up to the factor ||g||_2^2.
    """
    grid = g.grid
    if F.w_grid != grid.dual:
        raise ValueError("symbol frequency lattice does not match the window grid")
    if F.x_grid.L != grid.L or grid.m % F.x_grid.m:
        raise ValueError("symbol time axis is not a sublattice of the window grid")
    stride = grid.m // F.x_grid.m
    n = grid.N
    rows_total = F.samples.shape[0]
    profiles = idft_centered(F.samples, F.w_grid.m)
    out = np.zeros(n, dtype=np.complex128)
    windows = _translates(g.samples)[n + n // 2 :: -stride][:rows_total]
    block = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, rows_total, block):
        rows = profiles[start : start + block]
        rows *= windows[start : start + block]
        out += rows.sum(axis=0)
    return make_signal(grid, F.x_grid.h * out)


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
    dual = grid.dual
    vals = gaussian_stft_oracle(lam, grid.points[:, None], dual.points[None, :])
    return make_symbol(grid, dual, vals)


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
