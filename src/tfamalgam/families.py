"""Test-function families: Gaussians, chirps, bumps, and the sharpness symbol.

These are the one-parameter families whose norm growth (or decay) in the
parameter drives every scaling-law experiment: dilated Gaussians, quadratic
chirps carried by a compactly supported bump, and the separable phase-space
symbol h(x) (F^{-1} h_lam)(w).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    Grid1D,
    SampledSymbol,
    as_exponent,
    max_alias_free_lambda,
    sample,
)
from .transforms import _LazySymbol, _nonzero_row_runs, inverse_fourier


@dataclass(frozen=True)
class WindowSpec:
    """Analytic descriptor of a test function with a pointwise evaluator."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    support_radius: float | None = None
    chirp_rate: float | None = None


def gaussian_family(lam: float) -> WindowSpec:
    """Dilated Gaussian e^{-pi lam t^2}, lam > 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return WindowSpec(
        evaluator=lambda t: np.exp(-np.pi * lam * np.asarray(t, dtype=float) ** 2),
        label=f"gaussian(lam={lam:g})",
    )


def chirped_gaussian(a: float, b: float) -> WindowSpec:
    """Complex Gaussian e^{-pi (a + i b) t^2}, a > 0."""
    if a <= 0:
        raise ValueError("a must be positive")
    coeff = a + 1j * b
    return WindowSpec(
        evaluator=lambda t: np.exp(-np.pi * coeff * np.asarray(t, dtype=float) ** 2),
        label=f"chirped_gaussian(a={a:g}, b={b:g})",
        chirp_rate=b if b else None,
    )


def chirp_family(profile: WindowSpec, lam: float) -> WindowSpec:
    """Quadratic chirp profile(t) e^{-i pi lam t^2}; |h_lam| = |profile|."""
    base = profile.evaluator
    return WindowSpec(
        evaluator=lambda t: base(t) * np.exp(-1j * np.pi * lam * np.asarray(t, dtype=float) ** 2),
        label=f"chirp(lam={lam:g}, profile={profile.label})",
        support_radius=profile.support_radius,
        chirp_rate=lam,
    )


def bump(center: float = 0.0, radius: float = 1.0) -> WindowSpec:
    """C^inf bump supported in [center-radius, center+radius], value 1 at center."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def evaluate(t):
        u = (np.asarray(t, dtype=float) - center) / radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    return WindowSpec(
        evaluator=evaluate,
        label=f"bump(center={center:g}, radius={radius:g})",
        support_radius=abs(center) + radius,
    )


UNIT_BUMP = bump(0.0, 1.0)  #: e^{1 - 1/(1-u^2)} on (-1, 1), zero outside: the profile the commands share


def indicator(left: float, right: float) -> WindowSpec:
    """Sharp cutoff of the half-open interval [left, right)."""
    if not right > left:
        raise ValueError("need right > left")
    return WindowSpec(
        evaluator=lambda t: ((np.asarray(t) >= left) & (np.asarray(t) < right)).astype(float),
        label=f"indicator[{left:g},{right:g})",
        support_radius=max(abs(left), abs(right)),
    )


#: pointwise evaluators a(x, w) of the fixed phase-space symbols, by name
SYMBOL_EVALUATORS = {
    "unit": lambda x, w: np.ones(np.broadcast_shapes(x.shape, w.shape)),
    "gaussian": lambda x, w: np.exp(-np.pi * (x**2 + w**2)),
    "cube": lambda x, w: ((x >= 0) & (x < 1) & (w >= 0) & (w < 1)).astype(float),
}


#: samples of h(x) freq(w) a worker forms at once when it weights its slab of
#: an STFT by them (``locop._WeightedStft``): blocks of rows, not single rows,
#: so each pair of ufunc calls has work enough that the threads do not queue
#: for the interpreter lock between them
_PRODUCT_ELEMENTS = 1 << 14


class _SeparableSymbol(_LazySymbol):
    """The phase-space symbol h(x) freq(w), kept as its two factors.

    ``sharpness_symbol`` builds it.  Its rows are formed on demand (see
    ``transforms._LazySymbol``), each as the products ``np.outer`` makes;
    they carry no column sign.  ``rows`` are the runs where h is nonzero.
    """

    h: np.ndarray  # the time factor, on x_grid
    freq: np.ndarray  # the frequency factor, on w_grid

    def _fill_rows(self, rows: slice, out: np.ndarray) -> None:
        np.multiply(self.h[rows, None], self.freq, out=out)


def sharpness_symbol(profile: WindowSpec, lam: float, grid: Grid1D) -> SampledSymbol:
    """Separable phase-space symbol profile(x) * (F^{-1} chirp)(w).

    This is the extremal symbol family of the localization-operator sharpness
    argument: its W(L^p, L^q) norm decays like lam^{1/q - 1/2} while the
    operator it generates retains unit-size output near the origin.  The
    symbol keeps its two factors, and its samples are formed when first read.
    """
    radius = profile.support_radius
    if radius is None:
        raise ValueError("profile must have a known support radius")
    if abs(lam) > max_alias_free_lambda(grid, radius):
        raise ValueError(
            f"lam={lam} exceeds the alias-free bound "
            f"{max_alias_free_lambda(grid, radius):g} on grid (L={grid.L}, m={grid.m})"
        )
    h = sample(profile, grid).samples
    return _SeparableSymbol._of(
        grid,
        grid.dual,
        rows=_nonzero_row_runs(h[:, None]),
        h=h,
        freq=inverse_fourier(sample(chirp_family(profile, lam), grid)).samples,
    )


#: claim -> the dimension-1 exponent of its power law lam^e, as a function of
#: the reciprocals of the exponents it names (parameter inv_q takes 1/q)
_LAWS = {
    "chirp-ft": lambda inv_q: inv_q - 0.5,  # ||FT of chirp||_q
    "gaussian-amalgam": lambda inv_p: -0.5 * inv_p,  # ||gaussian_lam||_W(Lp,Lq)
    "stft-amalgam": lambda inv_q: -0.5 * (1.0 - inv_q),  # ||V_phi gaussian_lam||_W(Lp,Lq)
    "locop-lower": lambda inv_r: -inv_r,  # ||chi A f||_r
    "locop-sharpness-ratio": lambda inv_q, inv_r: abs(inv_r - 0.5) - inv_q,  # operator sharpness ratio
}


def predicted_exponent(claim: str, p=None, q=None, r=None) -> float:
    """Dimension-1 scaling exponent of a named claim: its law in ``_LAWS``.

    The law's parameters name the exponents the claim needs.
    """
    if claim not in _LAWS:
        raise ValueError(f"unknown claim id {claim!r}; known: {sorted(_LAWS)}")
    law = _LAWS[claim]
    code = law.__code__
    need = [name.removeprefix("inv_") for name in code.co_varnames[: code.co_argcount]]
    given = {"p": p, "q": q, "r": r}
    for name in need:
        if given[name] is None:
            raise ValueError(f"claim {claim!r} needs exponent {name!r}")
    inv = {k: as_exponent(v).reciprocal for k, v in given.items() if v is not None}
    return law(*(inv[name] for name in need))
