"""Uniform periodic grids, extended Lebesgue exponents, and exact time-frequency shifts.

Signals are complex samples over the periodic box [-L/2, L/2) with m samples
per unit interval, i.e. N = L*m points spaced h = 1/m.  The matching frequency
lattice has spacing 1/L and spans [-m/2, m/2).  Both axes therefore split into
whole unit cubes (L of them in time, m in frequency), which is the block
structure all amalgam norms rely on.

Translations by multiples of h and modulations by multiples of 1/L are exact
on the lattice (circular shifts / unimodular factors); off-lattice shifts are
rejected rather than interpolated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

INFINITY = math.inf

#: Bound on the relative L^1 mass allowed in the outermost unit cube
#: on each side before sampling warns about truncation.
EPS_TAIL = 1e-12

_LATTICE_RTOL = 1e-9


class TailTruncationWarning(UserWarning):
    """A sampled window carries non-negligible mass near the box boundary."""


class AliasingWarning(UserWarning):
    """A sampled chirp sweeps past the alias-free frequency band."""


@dataclass(frozen=True)
class ExtendedExponent:
    """A Lebesgue exponent in [1, inf], with conjugation.

    ``value`` is a float; ``math.inf`` encodes the sup norm.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (v >= 1.0):
            raise ValueError(f"exponent must be >= 1 or inf, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def reciprocal(self) -> float:
        """1/p, with 1/inf = 0."""
        return 0.0 if self.is_inf else 1.0 / self.value

    @property
    def conjugate(self) -> "ExtendedExponent":
        if self.is_inf:
            return ExtendedExponent(1.0)
        if self.value == 1.0:
            return ExtendedExponent(INFINITY)
        return ExtendedExponent(self.value / (self.value - 1.0))

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return "inf" if self.is_inf else f"{self.value:g}"


@lru_cache(maxsize=256)
def _parse_exponent_text(text: str) -> ExtendedExponent:
    """Parse a string exponent once; the result is frozen, so it can be shared."""
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return ExtendedExponent(INFINITY)
    if "/" in s:
        try:
            return ExtendedExponent(float(Fraction(s)))
        except ZeroDivisionError as exc:
            raise ValueError(f"exponent {text!r} divides by zero") from exc
    return ExtendedExponent(float(s))


def as_exponent(p) -> ExtendedExponent:
    """Coerce a number, a string ('inf', a fraction 'a/b' or a plain number),
    or an ExtendedExponent to an ExtendedExponent."""
    if isinstance(p, ExtendedExponent):
        return p
    if isinstance(p, (int, float)):
        return ExtendedExponent(float(p))
    return _parse_exponent_text(str(p))


@dataclass(frozen=True)
class Grid1D:
    """N = L*m points t_j = -L/2 + j/m over the periodic box [-L/2, L/2).

    L must be even so unit-cube boundaries and the origin land on the lattice.
    """

    L: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.L, int) and self.L > 0 and self.L % 2 == 0):
            raise ValueError(f"box side L must be a positive even integer, got {self.L!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"sample density m must be a positive integer, got {self.m!r}")

    @property
    def N(self) -> int:
        return self.L * self.m

    @property
    def h(self) -> float:
        """Sample spacing 1/m (also the quadrature weight)."""
        return 1.0 / self.m

    @property
    def freq_step(self) -> float:
        return 1.0 / self.L

    @cached_property
    def points(self) -> np.ndarray:
        t = (np.arange(self.N) - self.N // 2) / self.m
        t.flags.writeable = False
        return t

    @cached_property
    def dual(self) -> "Grid1D":
        """The frequency lattice, reinterpreted as a grid over [-m/2, m/2)."""
        if self.m % 2:
            raise ValueError(
                f"grid (L={self.L}, m={self.m}) has an odd density; its frequency "
                "lattice is not aligned with integer unit cubes"
            )
        return Grid1D(self.m, self.L)

    def shift_index(self, x: float) -> int:
        """Sample index of a translation by x; x must be a multiple of h."""
        return _lattice_index(x, self.m, "shift x={} is not a multiple of the grid step 1/{}")

    def freq_index(self, omega: float) -> int:
        """Lattice index of a modulation frequency; must be a multiple of 1/L."""
        return _lattice_index(omega, self.L, "frequency {} is not a multiple of 1/{}")


def _lattice_index(value: float, density: int, error: str) -> int:
    """``value * density`` as an int; raises ``error.format(value, density)`` if it is not one."""
    rel = value * density
    k = round(rel)
    if abs(rel - k) > _LATTICE_RTOL * max(1.0, abs(rel)):
        raise ValueError(error.format(value, density))
    return int(k)


def make_grid(L: int, m: int) -> Grid1D:
    """Build the periodic grid with box side L (even) and m samples per unit; both integral."""
    if not (float(L).is_integer() and float(m).is_integer()):
        raise ValueError(f"grid sizes must be integral, got L={L!r}, m={m!r}")
    return Grid1D(int(L), int(m))


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on a Grid1D, plus a truncation diagnostic.

    ``tail_mass`` is the relative L^1 mass sitting in the outermost unit cube
    on each side of the box; analytic test functions are expected to decay so
    this stays below EPS_TAIL.
    """

    grid: Grid1D
    samples: np.ndarray
    tail_mass: float

    def __post_init__(self):
        if self.samples.shape != (self.grid.N,):
            raise ValueError(
                f"samples have shape {self.samples.shape}, expected ({self.grid.N},)"
            )

    @property
    def cell(self) -> float:
        return self.grid.h


def _tail_mass(grid: Grid1D, samples: np.ndarray) -> float:
    a = np.abs(samples)
    total = float(a.sum())
    if total == 0.0:
        return 0.0
    m = grid.m
    return float(a[:m].sum() + a[-m:].sum()) / total


def make_signal(grid: Grid1D, samples) -> SampledSignal:
    """Wrap raw samples as an immutable SampledSignal (computes tail_mass)."""
    arr = np.ascontiguousarray(samples, dtype=np.complex128)
    arr.flags.writeable = False
    return SampledSignal(grid, arr, _tail_mass(grid, arr))


def max_alias_free_lambda(grid: Grid1D, support_radius: float) -> float:
    """Largest chirp rate whose instantaneous frequency stays below Nyquist.

    A chirp h(t)e^{-i pi lam t^2} supported in |t| <= support_radius sweeps up
    to |lam|*support_radius; the returned bound keeps that below the Nyquist
    frequency m/2 minus a margin of m/8 reserved for the bandwidth of the
    envelope h.
    """
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    return (grid.m / 2.0 - grid.m / 8.0) / support_radius


def sample(window, grid: Grid1D) -> SampledSignal:
    """Evaluate a window spec pointwise on the grid.

    Warns (does not fail) when the tail mass exceeds ``EPS_TAIL`` or when the
    window is a chirp whose rate exceeds the alias-free bound for this grid.
    """
    values = np.asarray(window.evaluator(grid.points), dtype=np.complex128)
    sig = make_signal(grid, values)
    if sig.tail_mass > EPS_TAIL:
        warnings.warn(
            f"sampled window {getattr(window, 'label', '?')} keeps relative tail mass "
            f"{sig.tail_mass:.3e} > {EPS_TAIL:.1e} in the outermost cubes",
            TailTruncationWarning,
            stacklevel=2,
        )
    rate = getattr(window, "chirp_rate", None)
    radius = getattr(window, "support_radius", None)
    if rate is not None and radius is not None:
        lam_max = max_alias_free_lambda(grid, radius)
        if abs(rate) > lam_max:
            warnings.warn(
                f"chirp rate {rate} exceeds the alias-free bound {lam_max} "
                f"on grid (L={grid.L}, m={grid.m})",
                AliasingWarning,
                stacklevel=2,
            )
    return sig


def translate(f: SampledSignal, x: float) -> SampledSignal:
    """Circular translation (T_x f)(t) = f(t - x); x must be grid-aligned."""
    k = f.grid.shift_index(x)
    return make_signal(f.grid, np.roll(f.samples, k))


def modulate(f: SampledSignal, omega: float) -> SampledSignal:
    """Modulation (M_w f)(t) = e^{2 pi i w t} f(t); w must be on the frequency lattice."""
    f.grid.freq_index(omega)
    phase = np.exp(2j * np.pi * omega * f.grid.points)
    return make_signal(f.grid, f.samples * phase)


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Quadrature inner product h * sum f(t_j) conj(g(t_j))."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires both signals on the same grid")
    return complex(f.grid.h * np.vdot(g.samples, f.samples))


@dataclass(frozen=True)
class SampledSymbol:
    """Complex samples on the phase-space lattice (x_j, w_k).

    Rows index time positions (on ``x_grid``), columns index frequencies (on
    ``w_grid``, normally the dual of the signal grid).  The quadrature cell
    has area x_grid.h * w_grid.h.
    """

    x_grid: Grid1D
    w_grid: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != (self.x_grid.N, self.w_grid.N):
            raise ValueError(
                f"symbol samples have shape {self.samples.shape}, expected "
                f"({self.x_grid.N}, {self.w_grid.N})"
            )

    @property
    def cell(self) -> float:
        return self.x_grid.h * self.w_grid.h


def make_symbol(x_grid: Grid1D, w_grid: Grid1D, samples) -> SampledSymbol:
    arr = np.ascontiguousarray(samples, dtype=np.complex128)
    arr.flags.writeable = False
    return SampledSymbol(x_grid, w_grid, arr)


#: lattice points per call of a symbol's evaluator: whole rows, so its temporaries stay in cache
_SYMBOL_BLOCK = 1 << 14


def phase_space_symbol(grid: Grid1D, evaluator) -> SampledSymbol:
    """Sample a function a(x, w) on the full phase-space lattice of ``grid``.

    ``evaluator`` must be pointwise: it is called on one block of rows after
    another, ``x[rows, None]`` against ``w[None, :]``, and its value must
    have the block's full shape.  Each block is written into the one output
    array, so no temporary is the size of the symbol.
    """
    dual = grid.dual
    x, w = grid.points[:, None], dual.points[None, :]
    out = np.empty((grid.N, dual.N), dtype=np.complex128)
    step = max(1, _SYMBOL_BLOCK // dual.N)
    for lo in range(0, grid.N, step):
        block = out[lo : lo + step]
        value = np.asarray(evaluator(x[lo : lo + step], w))
        if value.shape != block.shape:
            raise ValueError(f"symbol evaluator gave shape {value.shape} on a block of shape {block.shape}")
        block[...] = value
    out.flags.writeable = False
    return SampledSymbol(grid, dual, out)
