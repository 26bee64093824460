"""The seeded stream of one-off library evaluations behind ``point-queries``.

Queries come in blocks of 40: each of the eight ``NormSpec`` kinds plus
``stft`` and ``apply_locop`` four times.  The 1-D kinds (``lp``, ``flp``,
``amalgam``, ``modulation_triebel``) run on the grids (L, m) = (16, 16),
(16, 32), (16, 64) and (16, 128); the kinds that build a phase-space array
of N^2 cells run on (16, 16) twice, (16, 32) and (16, 64), so that no single
query dominates a block.  Within a block the seed draws the order, the
exponents, the family parameters, which family goes with which grid (each
family once per kind, so call counts do not depend on the seed) and which
four queries are scaled by an amplitude drawn log-uniformly from
[1e-150, 1e150].  Block ``i`` of seed ``s`` depends on (s, i) only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

NORM_KINDS = (
    "lp",
    "flp",
    "amalgam",
    "modulation_stft",
    "modulation_triebel",
    "mixed_lpq",
    "mixed_lplq",
    "symbol_mixed",
)
KINDS = NORM_KINDS + ("stft", "apply_locop")
ARITY = {"lp": 1, "flp": 1, "symbol_mixed": 4, "stft": 0, "apply_locop": 0}  # default 2
SYMBOL_KINDS = frozenset(("mixed_lpq", "mixed_lplq", "symbol_mixed"))
LINE_KINDS = frozenset(("lp", "flp", "amalgam", "modulation_triebel"))
GRID_L = 16
LINE_GRID_M = (16, 32, 64, 128)
PHASE_GRID_M = (16, 16, 32, 64)
EXPONENTS = ("1", "4/3", "2", "4", "inf")
SIGNAL_FAMILIES = ("gaussian", "chirp", "chirped_gaussian", "bump")
SYMBOL_FAMILIES = ("gaussian_stft", "sharpness", "phase_gaussian", "phase_chirp")
BLOCK = len(KINDS) * len(LINE_GRID_M)
SCALED_PER_BLOCK = BLOCK // 10
LOG10_AMPLITUDE = 150.0


@dataclass(frozen=True)
class Query:
    kind: str
    m: int
    exponents: tuple
    signal: tuple | None  # (family, parameters)
    symbol: tuple | None
    amplitude: float = 1.0


def _chirp_bound(m: int) -> float:
    # alias-free chirp rate for a unit-radius profile: m/2 - m/8 (see grid.max_alias_free_lambda)
    return 0.9 * 3.0 * m / 8.0


def _signal(rng, family: str, m: int) -> tuple:
    if family == "gaussian":
        return (family, (float(np.exp(rng.uniform(0.0, math.log(16.0)))),))
    if family == "chirp":
        return (family, (float(rng.uniform(1.0, _chirp_bound(m))),))
    if family == "chirped_gaussian":
        a = float(np.exp(rng.uniform(0.0, math.log(16.0))))
        return (family, (a, float(rng.uniform(-a, a))))
    return (family, (float(rng.uniform(0.5, 4.0)),))


def _symbol(rng, family: str, m: int) -> tuple:
    if family == "sharpness":
        return (family, (float(rng.uniform(1.0, _chirp_bound(m))),))
    if family == "phase_chirp":
        return (family, (float(rng.uniform(1.0, 8.0)),))
    return (family, (float(np.exp(rng.uniform(0.0, math.log(16.0)))),))


def query_block(seed: int, index: int) -> list[Query]:
    rng = np.random.default_rng([seed, index])
    queries = []
    for kind in KINDS:
        signals = rng.permutation(len(SIGNAL_FAMILIES))
        symbols = rng.permutation(len(SYMBOL_FAMILIES))
        for slot, m in enumerate(LINE_GRID_M if kind in LINE_KINDS else PHASE_GRID_M):
            arity = ARITY.get(kind, 2)
            exps = tuple(str(e) for e in rng.choice(EXPONENTS, size=arity))
            needs_symbol = kind in SYMBOL_KINDS or kind == "apply_locop"
            needs_signal = kind not in SYMBOL_KINDS
            queries.append(
                Query(
                    kind=kind,
                    m=m,
                    exponents=exps,
                    signal=_signal(rng, SIGNAL_FAMILIES[signals[slot]], m) if needs_signal else None,
                    symbol=_symbol(rng, SYMBOL_FAMILIES[symbols[slot]], m) if needs_symbol else None,
                )
            )
    for i in rng.choice(BLOCK, size=SCALED_PER_BLOCK, replace=False):
        amplitude = float(10.0 ** rng.uniform(-LOG10_AMPLITUDE, LOG10_AMPLITUDE))
        queries[i] = dataclasses.replace(queries[i], amplitude=amplitude)
    return [queries[i] for i in rng.permutation(BLOCK)]


# ---------------------------------------------------------------------------
# building inputs and evaluating


def make_signal_input(lib, grid, signal: tuple):
    family, params = signal
    fam = lib.families
    if family == "gaussian":
        spec = fam.gaussian_family(params[0])
    elif family == "chirp":
        spec = fam.chirp_family(fam.bump(0.0, 1.0), params[0])
    elif family == "chirped_gaussian":
        spec = fam.chirped_gaussian(params[0], params[1])
    else:
        spec = fam.bump(0.0, params[0])
    return lib.grid.sample(spec, grid)


def make_symbol_input(lib, grid, symbol: tuple):
    family, (lam,) = symbol
    if family == "gaussian_stft":
        return lib.transforms.gaussian_stft_symbol(lam, grid)
    if family == "sharpness":
        return lib.families.sharpness_symbol(lib.families.bump(0.0, 1.0), lam, grid)
    if family == "phase_gaussian":
        return lib.grid.phase_space_symbol(grid, lambda x, w: np.exp(-np.pi * lam * (x**2 + w**2)))
    return lib.grid.phase_space_symbol(
        grid, lambda x, w: np.exp(-np.pi * (x**2 + w**2) + 1j * np.pi * lam * x * w)
    )


def make_inputs(lib, q: Query) -> dict:
    """Fresh input objects for one query, at unit amplitude."""
    grid = lib.grid.make_grid(GRID_L, q.m)
    inputs = {}
    if q.signal is not None:
        inputs["f"] = make_signal_input(lib, grid, q.signal)
    if q.symbol is not None:
        inputs["a"] = make_symbol_input(lib, grid, q.symbol)
    if q.kind in ("stft", "apply_locop"):
        inputs["window"] = lib.norms.standard_window(grid)
    return inputs


def scaled(inputs: dict, q: Query) -> dict:
    """The inputs with the scaled argument multiplied by the amplitude.

    Built with the dataclass constructor, not a library function, so the
    traced call counts do not depend on which queries are scaled.
    """
    key = "a" if q.kind in SYMBOL_KINDS else "f"
    target = inputs[key]
    out = dict(inputs)
    out[key] = dataclasses.replace(target, samples=target.samples * q.amplitude)
    return out


def evaluate(lib, q: Query, inputs: dict):
    """Run the query: a float for norms, the output samples for stft / apply_locop."""
    if q.kind == "stft":
        return lib.transforms.stft(inputs["f"], inputs["window"]).samples
    if q.kind == "apply_locop":
        w = inputs["window"]
        return lib.locop.apply_locop(inputs["a"], w, w, inputs["f"]).samples
    spec = lib.norms.NormSpec(q.kind, q.exponents)
    target = inputs["a"] if q.kind in SYMBOL_KINDS else inputs["f"]
    return lib.norms.evaluate_norm(spec, target)


def digest(value) -> float:
    """A scalar for reference comparison: the value, or the l2 norm of the samples."""
    if isinstance(value, np.ndarray):
        return float(np.linalg.norm(value))
    return float(value)


def finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return math.isfinite(value)


def homogeneous(scaled_value, unit_value, amplitude: float, rtol: float) -> bool:
    """value(a * x) / |a| matches value(x) within rtol, relative to the size of value(x)."""
    if isinstance(unit_value, np.ndarray):
        err = np.abs(scaled_value / amplitude - unit_value).max()
        return bool(err <= rtol * np.abs(unit_value).max())
    return abs(scaled_value / abs(amplitude) - unit_value) <= rtol * abs(unit_value)
