"""lp_norm and amalgam_norm against an mpmath reference, from amplitude 1e-300 to 1e300.

The other norm tests compare against float references and homogeneity, so an
error that both float paths share would pass them.  Here each norm is summed
in 30-digit arithmetic over the very samples the engine reads, at the exact
exponent (4/3, not its float), and the engine must agree to 1e-13 relative.
"""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from tfamalgam import amalgam_norm, lp_norm, make_grid, make_signal

GRID = make_grid(16, 16)
LP = ("1", "4/3", "2", "3", "4", "inf")
AMALGAM = (("2", "1"), ("4/3", "4"), ("inf", "2"), ("1", "inf"))
AMPLITUDES = (1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300)


def _signals():
    rng = np.random.default_rng(7)
    noise = [rng.standard_normal(GRID.N) + 1j * rng.standard_normal(GRID.N) for _ in range(2)]
    t = GRID.points
    return {
        "noise-a": noise[0],
        "noise-b": noise[1],
        "modulated-gaussian": np.exp(-np.pi * t**2) * np.exp(2j * np.pi * 3.0 * t),
    }


def _exact(p: str):
    """The exponent ``p`` as an mpf at the working precision (inf for "inf")."""
    if p == "inf":
        return mp.inf
    p = Fraction(p)
    return mp.mpf(p.numerator) / p.denominator


def _reference(moduli, powers, p: str, q: str):
    """W(L^p, L^q) norm on GRID of the samples with |x| ``moduli``; L^p when q = p.

    ``powers`` memoises |x|^p per exponent, as the ten norms share five.
    """
    if p not in powers:
        e = _exact(p)
        powers[p] = moduli if e == mp.inf else [a**e for a in moduli]
    m = GRID.m
    cubes = [powers[p][k * m : (k + 1) * m] for k in range(GRID.L)]
    p, q = _exact(p), _exact(q)
    h = mp.mpf(GRID.h)
    local = [max(c) if p == mp.inf else (h * mp.fsum(c)) ** (1 / p) for c in cubes]
    return max(local) if q == mp.inf else mp.fsum(x**q for x in local) ** (1 / q)


@pytest.mark.parametrize("name", sorted(_signals()))
def test_lp_and_amalgam_norms_match_a_30_digit_reference(name):
    samples = _signals()[name]
    worst = 0.0
    with mp.workdps(30):
        for amplitude in AMPLITUDES:
            f = make_signal(GRID, amplitude * samples)
            moduli = [mp.hypot(mp.mpf(z.real), mp.mpf(z.imag)) for z in f.samples.tolist()]
            powers = {}
            cases = [(lp_norm(f, p), p, p) for p in LP]
            cases += [(amalgam_norm(f, p, q), p, q) for p, q in AMALGAM]
            for got, p, q in cases:
                want = _reference(moduli, powers, p, q)
                error = float(abs(mp.mpf(got) - want) / want)
                assert error <= 1e-13, (amplitude, p, q, got, want)
                worst = max(worst, error)
    assert worst > 0.0  # the reference is finer than a float: some norm rounds
