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


def _power_mean(abs_values: np.ndarray, weight: float, p: ExtendedExponent, axis) -> np.ndarray:
    if p.is_inf:
        return abs_values.max(axis=axis)
    if p.value == 1.0:
        return weight * abs_values.sum(axis=axis)
    return (weight * (abs_values**p.value).sum(axis=axis)) ** (1.0 / p.value)


def _sequence_norm(values: np.ndarray, q: ExtendedExponent, axis=None) -> np.ndarray:
    # counting measure over cube indices
    if q.is_inf:
        return values.max(axis=axis)
    if q.value == 1.0:
        return values.sum(axis=axis)
    return (values**q.value).sum(axis=axis) ** (1.0 / q.value)


def lp_norm(f, p) -> float:
    """L^p quadrature norm of a signal (weight h) or symbol (weight h_x * h_w)."""
    p = as_exponent(p)
    if isinstance(f, SampledSignal):
        return float(_power_mean(np.abs(f.samples), f.grid.h, p, axis=None))
    if isinstance(f, SampledSymbol):
        return float(_power_mean(np.abs(f.samples), f.cell, p, axis=None))
    raise TypeError(f"expected SampledSignal or SampledSymbol, got {type(f)!r}")


def mixed_lpq(F: SampledSymbol, p, q) -> float:
    """Inner L^p over the time axis for each frequency, then L^q over frequency."""
    p, q = as_exponent(p), as_exponent(q)
    inner = _power_mean(np.abs(F.samples), F.x_grid.h, p, axis=0)
    return float(_power_mean(inner, F.w_grid.h, q, axis=None))


def mixed_lplq(F: SampledSymbol, p, q) -> float:
    """Inner L^q over the frequency axis for each time, then L^p over time."""
    p, q = as_exponent(p), as_exponent(q)
    inner = _power_mean(np.abs(F.samples), F.w_grid.h, q, axis=1)
    return float(_power_mean(inner, F.x_grid.h, p, axis=None))


def _amalgam_1d(abs_samples: np.ndarray, grid: Grid1D, p: ExtendedExponent, q: ExtendedExponent):
    blocks = abs_samples.reshape(abs_samples.shape[:-1] + (grid.L, grid.m))
    local = _power_mean(blocks, grid.h, p, axis=-1)
    return _sequence_norm(local, q, axis=-1)


def amalgam_norm(f, p, q) -> float:
    """Wiener amalgam norm W(L^p, L^q) with unit-cube cutoff windows.

    1-D signals split into L cubes of m samples; phase-space symbols split
    into (L time-cubes) x (as many frequency-cubes as the frequency axis
    spans), each cube carrying a local L^p quadrature norm.
    """
    p, q = as_exponent(p), as_exponent(q)
    if isinstance(f, SampledSignal):
        return float(_amalgam_1d(np.abs(f.samples), f.grid, p, q))
    if isinstance(f, SampledSymbol):
        gx, gw = f.x_grid, f.w_grid
        blocks = np.abs(f.samples).reshape(gx.L, gx.m, gw.L, gw.m)
        local = _power_mean(blocks.transpose(0, 2, 1, 3), f.cell, p, axis=(-2, -1))
        return float(_sequence_norm(local.reshape(-1), q, axis=None))
    raise TypeError(f"expected SampledSignal or SampledSymbol, got {type(f)!r}")


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
    """
    p, q = as_exponent(p), as_exponent(q)
    fhat = fourier(f)
    omegas = fhat.grid.points
    kmax = f.grid.m // 2 + 1
    band_norms = []
    for k in range(-kmax, kmax + 1):
        w = partition_window(omegas, k)
        if not w.any():
            band_norms.append(0.0)
            continue
        piece = inverse_fourier(make_signal(fhat.grid, fhat.samples * w))
        band_norms.append(lp_norm(piece, p))
    return float(_sequence_norm(np.asarray(band_norms), q, axis=None))


def symbol_mixed_norm(a: SampledSymbol, p1, q1, p2, q2) -> float:
    """Amalgam-of-Fourier-image mixed norm of a phase-space symbol.

    For each time slice, take the W(L^{p2}, L^{q2}) norm of the inverse
    transform (in frequency) of a(x, .); then take the W(L^{p1}, L^{q1}) norm
    of the resulting profile in x.
    """
    p1, q1, p2, q2 = (as_exponent(e) for e in (p1, q1, p2, q2))
    rows_time = idft_centered(a.samples, a.w_grid.m)  # rows now live on dual(w_grid)
    row_grid = a.w_grid.dual
    profile = _amalgam_1d(np.abs(rows_time), row_grid, p2, q2)
    return float(_amalgam_1d(np.abs(profile), a.x_grid, p1, q1))
