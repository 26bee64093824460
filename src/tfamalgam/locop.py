"""Localization operators: application, weak pairing, kernels, and Schur bounds.

An operator with phase-space symbol a and windows (phi1, phi2) acts as

    A f = synthesis(a . stft(f, phi1), phi2),

where the weighted STFT a . stft(f, phi1) is formed a slab of rows at a
time by the workers of ``synthesis`` and never held whole; equivalently as
the integral operator with kernel

    K(x, y) = sum_{j,k} a(t_j, w_k) M_{w_k} T_{t_j} phi2(x)
                          conj(M_{w_k} T_{t_j} phi1(y)) * cell.

The two routes are the same quadrature re-associated, so they agree to
round-off; the kernel route feeds the Schur-type bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Grid1D,
    SampledSignal,
    SampledSymbol,
    as_exponent,
    make_signal,
)
from . import families
from .norms import lp_norm
from .transforms import (
    StftPlan,
    _LazySymbol,
    _forms_rows,
    _row_runs,
    _symbol_stride,
    _translates,
    dft_centered,
    stft,
    synthesis,
)

# power iteration: relative change of the estimate that ends it, and its iteration cap
_POWER_TOL = 1e-8
_POWER_ITER_CAP = 5000


def _check_operator_shapes(a: SampledSymbol, phi1: SampledSignal, phi2: SampledSignal) -> StftPlan:
    """Validate the operator data; return the STFT layout of the symbol's time axis."""
    if phi1.grid != phi2.grid:
        raise ValueError("both windows must live on the same grid")
    return StftPlan(phi1.grid, _symbol_stride(a, phi1.grid))


def _symbol_rows_plan(a: SampledSymbol, phi1: SampledSignal, phi2: SampledSignal) -> StftPlan:
    """The operator's STFT layout, restricted to the rows where the symbol can be nonzero (``_row_runs``)."""
    return replace(_check_operator_shapes(a, phi1, phi2), rows=_row_runs(a))


class _WeightedStft(_LazySymbol):
    """The weighted STFT a . V, its rows formed on demand: each row of V times that row of a.

    ``v`` is the lazy STFT on the rows of ``rows``, outside which ``a`` is
    zero.  Each row is filled from the unsigned row of ``v``, and ``sign`` is
    ``v``'s: a * (-x) = -(a * x), so the signed rows are those of a * v.  The
    product keeps the operand order of ``a * v`` (``v *= a`` rounds
    differently in the complex product).  An ``a`` whose rows are formed
    (``_forms_rows``) forms ``families._PRODUCT_ELEMENTS`` samples at a time.
    """

    a: SampledSymbol
    v: SampledSymbol

    def _fill_rows(self, rows: slice, out: np.ndarray) -> None:
        self.v._fill_rows(rows, out)
        if not _forms_rows(self.a):
            np.multiply(self.a.samples[rows], out, out=out)
            return
        step = max(1, families._PRODUCT_ELEMENTS // out.shape[1])
        product = np.empty_like(out[:step])
        for lo in range(0, len(out), step):
            hi = min(lo + step, len(out))
            part = product[: hi - lo]
            self.a._fill_rows(slice(rows.start + lo, rows.start + hi), part)
            if self.a.sign is not None:
                part *= self.a.sign
            np.multiply(part, out[lo:hi], out=out[lo:hi])


def _weighted_stft(a: SampledSymbol, f: SampledSignal, phi1: SampledSignal, plan: StftPlan) -> _WeightedStft:
    """a . V_{phi1} f on the rows of ``plan``, formed on demand."""
    v = stft(f, phi1, plan)
    return _WeightedStft._of(a.x_grid, a.w_grid, rows=plan.rows, a=a, v=v, sign=v.sign)


def apply_locop(
    a: SampledSymbol,
    phi1: SampledSignal,
    phi2: SampledSignal,
    f: SampledSignal,
) -> SampledSignal:
    """Apply the localization operator with symbol ``a`` and windows (phi1, phi2).

    Rows where ``a`` vanishes add nothing, so they are neither transformed nor
    synthesised.  ``synthesis`` receives the weighted STFT a . V_{phi1} f
    unformed, and each of its workers forms a slab of rows of it in its own
    buffer, so the operator holds no symbol-sized array.
    """
    return synthesis(_weighted_stft(a, f, phi1, _symbol_rows_plan(a, phi1, phi2)), phi2)


def weak_pairing(
    a: SampledSymbol,
    phi1: SampledSignal,
    phi2: SampledSignal,
    f: SampledSignal,
    g: SampledSignal,
) -> complex:
    """Phase-space quadrature of a * V_{phi1} f * conj(V_{phi2} g).

    Equals <A f, g> exactly (same sum re-associated).  Both STFTs skip the
    rows where ``a`` vanishes.  ``v1`` is the weighted STFT ``apply_locop``
    synthesises, and the conjugate is taken in place, in the operand order
    of ``a * v1 * conj(v2)``, so the pairing holds the two STFTs and no
    other symbol-sized array.  Both are formed without their column sign
    (-1)^k: (s x) conj(s y) = x conj(y) exactly when s = +-1.
    """
    plan = _symbol_rows_plan(a, phi1, phi2)
    v1, v2 = _weighted_stft(a, f, phi1, plan)._form_whole(), stft(g, phi2, plan)._form_whole()
    v1 *= np.conjugate(v2, out=v2)
    return complex(a.cell * np.sum(v1))


@dataclass(frozen=True)
class KernelMatrix:
    """Dense integral kernel K(x_j, y_k) of a localization operator."""

    grid: Grid1D
    entries: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        n = self.grid.N
        if self.entries.shape != (n, n):
            raise ValueError(f"kernel must be {n} x {n}, got {self.entries.shape}")


def kernel_action(K: KernelMatrix, f: SampledSignal) -> SampledSignal:
    """Integral-operator action out(x) = h * sum_y K(x, y) f(y)."""
    if f.grid != K.grid:
        raise ValueError("signal grid does not match the kernel grid")
    return make_signal(K.grid, K.grid.h * (K.entries @ f.samples))


def build_kernel(a: SampledSymbol, phi1: SampledSignal, phi2: SampledSignal) -> KernelMatrix:
    """Assemble the dense kernel by FFT convolution, at O(N^2 log N) cost.

    With a2 the centered DFT of a in frequency, s = the time stride of a and
    d = y - x, every term of the phase-space sum has the form

        K(x, x + d) = h * sum_j a2[j, v] U_v(x - j*s),  v = d + N/2,
        U_v(t) = phi2(t + N/2) conj(phi1(t + v))          (indices mod N),

    so each diagonal v is one circular convolution over window positions:
    the FFT of U_v times that of the column a2[:, v] upsampled by s (the
    length N/s FFT of the column, tiled s times).  An entry no term reaches
    is set to exactly zero rather than left at FFT round-off: the same
    convolution of the two nonzero patterns counts the terms, and a count is
    a small integer, far from the threshold 1/2 at any feasible N.
    ``build_kernel_direct`` is the reference; the two agree to round-off.
    """
    plan = _check_operator_shapes(a, phi1, phi2)
    grid, stride = plan.grid, plan.x_stride
    n = grid.N
    half, nx = n // 2, a.x_grid.N
    # row v: the FT of a in its second variable at value index v, along j; the
    # FFT reads the transposed view, so no transposed copy is made
    a_w = dft_centered(a.samples, a.w_grid.m)
    a2_nonzero = (a_w != 0).T
    a2 = np.empty((n, nx), dtype=np.complex128)
    np.fft.fft(a_w.T, axis=-1, out=a2)
    del a_w
    a2 *= a.x_grid.h
    # row v of U is U_v, built from the translates of conj(phi1)
    U = _translates(np.conj(phi1.samples))[:n] * np.roll(phi2.samples, -half)
    pattern = (U != 0).astype(np.float64)
    counts = np.fft.rfft(pattern, axis=-1)
    np.fft.fft(U, axis=-1, out=U)
    U.reshape(n, stride, nx)[...] *= a2[:, None, :]
    del a2
    np.fft.ifft(U, axis=-1, out=U)
    # term counts: the same convolution of the two nonzero patterns
    pattern[...] = 0.0
    pattern[:, ::stride] = a2_nonzero
    counts *= np.fft.rfft(pattern, axis=-1)
    np.fft.irfft(counts, n, axis=-1, out=pattern)
    del counts
    np.copyto(U, 0.0, where=pattern < 0.5)
    del pattern
    # U[v, x] = K(x, x + v - N/2): rotate column x of U into row x of K
    K = np.empty((n, n), dtype=np.complex128)
    for x in range(n):
        shift = (x - half) % n
        K[x, shift:] = U[: n - shift, x]
        K[x, :shift] = U[n - shift :, x]
    return KernelMatrix(grid, K, provenance=f"stride={stride}")


def build_kernel_direct(a: SampledSymbol, phi1: SampledSignal, phi2: SampledSignal) -> KernelMatrix:
    """Reference kernel via the literal double phase-space sum (small grids only)."""
    plan = _check_operator_shapes(a, phi1, phi2)
    grid, stride = plan.grid, plan.x_stride
    n = grid.N
    cell = a.cell
    omegas = a.w_grid.points
    x = grid.points
    K = np.zeros((n, n), dtype=np.complex128)
    p1c = np.conj(phi1.samples)
    p2 = phi2.samples
    phases = np.exp(2j * np.pi * np.outer(x, omegas))  # e^{2 pi i w x}
    for j in range(a.x_grid.N):
        shift = j * stride - n // 2
        w2 = np.roll(p2, shift)
        w1c = np.roll(p1c, shift)
        mod2 = phases * (w2[:, None] * a.samples[j][None, :])  # (x, w)
        row = mod2 @ np.conj(phases).T  # sum over w of e^{2pi i w (x-y)} a phi2
        K += cell * row * w1c[None, :]
    return KernelMatrix(grid, K, provenance=f"direct stride={stride}")


@dataclass(frozen=True)
class SchurReport:
    """Classical and amalgam Schur quantities of an integral kernel.

    c_sup_y / c_sup_x are the sup-column / sup-row integrals of |K|; the two
    amalgam quantities are the cube-blocked refinements controlling the
    endpoint amalgam spaces W(L^1, L^inf) and W(L^inf, L^1).
    """

    c_sup_y: float
    c_sup_x: float
    amalgam_a: float
    amalgam_b: float


def schur_report(K: KernelMatrix) -> SchurReport:
    grid = K.grid
    h = grid.h
    absk = np.abs(K.entries)
    c_sup_y = float(h * absk.sum(axis=0).max())
    c_sup_x = float(h * absk.sum(axis=1).max())
    blocks = absk.reshape(grid.L, grid.m, grid.L, grid.m)
    # column integrals over an x-cube, then sup over y within each y-cube
    col = h * blocks.sum(axis=1)            # (x-cube, y-cube, y-in-cube)
    amalgam_a = float(col.max(axis=2).sum(axis=1).max())
    # row integrals over a y-cube, then sup over x within each x-cube
    row = h * blocks.sum(axis=3)            # (x-cube, x-in-cube, y-cube)
    amalgam_b = float(row.max(axis=1).sum(axis=0).max())
    return SchurReport(c_sup_y, c_sup_x, amalgam_a, amalgam_b)


def opnorm_l2(K: KernelMatrix) -> float:
    """Largest singular value of the scaled matrix h*K by power iteration.

    The start vector is seeded random rather than structured: a symmetric
    start such as all-ones is orthogonal to every odd singular vector, and
    the iteration then settles on a smaller singular value.
    """
    M = K.grid.h * K.entries
    B = M.conj().T @ M
    n = B.shape[0]
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    prev = np.inf
    for _ in range(_POWER_ITER_CAP):
        w = B @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        est = np.sqrt(norm_w)
        if abs(est - prev) <= _POWER_TOL * max(est, 1e-300):
            return float(est)
        prev = est
        v = w / norm_w
    raise RuntimeError(
        f"power iteration did not converge to rel. tol {_POWER_TOL:g} in {_POWER_ITER_CAP} iterations"
    )


@dataclass(frozen=True)
class LrBounds:
    """Bracket for the L^r operator norm: probe lower bound, Schur upper bound."""

    lower: float
    upper: float
    best_probe: int


def opnorm_lr_bounds(K: KernelMatrix, r, probes) -> LrBounds:
    """Bracket the L^r -> L^r norm of the kernel operator.

    Upper bound: interpolated Schur bound c_sup_y^(1/r) * c_sup_x^(1/r');
    at r = 1 this is the sup-column-integral, at r = inf the sup-row-integral.
    Lower bound: the best Rayleigh-type ratio over the supplied probes.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe signal")
    r = as_exponent(r)
    rep = schur_report(K)
    inv_r = r.reciprocal
    upper = rep.c_sup_y**inv_r * rep.c_sup_x ** (1.0 - inv_r)
    lower = 0.0
    best = -1
    for i, p in enumerate(probes):
        denom = lp_norm(p, r)
        if denom == 0.0:
            raise ValueError(f"probe {i} is identically zero")
        ratio = lp_norm(kernel_action(K, p), r) / denom
        if ratio > lower:
            lower, best = ratio, i
    if lower > upper * (1.0 + 1e-9):
        raise RuntimeError(
            f"probe ratio {lower:.6e} exceeds the Schur upper bound {upper:.6e}"
        )
    return LrBounds(float(lower), float(upper), best)
