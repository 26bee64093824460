"""Scaling-law fits, the sharp STFT inequality check, and boundedness-region scans.

Every asymptotic claim is tested the same way: evaluate a norm (or norm
ratio) along a geometric parameter sweep, fit a line in log-log coordinates,
and compare the slope against the predicted exponent.  Region scans predict
an exponent pair bounded exactly where the growth law of its extremal family
(``families._LAWS``) is <= 0, and classify it as unbounded when the fitted
growth exceeds a small margin, and as bounded otherwise; pairs whose predicted
growth is positive but below twice the margin cannot be resolved at finite
parameter range and are flagged as boundary cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import (
    SYMBOL_EVALUATORS,
    bump,
    chirp_family,
    gaussian_family,
    predicted_exponent,
    sharpness_symbol,
)
from .grid import (
    ExtendedExponent,
    Grid1D,
    SampledSignal,
    SampledSymbol,
    as_exponent,
    inner_product,
    make_grid,
    make_signal,
    max_alias_free_lambda,
    modulate,
    phase_space_symbol,
    sample,
    translate,
)
from .locop import (
    apply_locop,
    build_kernel,
    kernel_action,
    opnorm_l2,
    schur_report,
    weak_pairing,
)
from .norms import _fill_cube_tables, amalgam_norm, flp_norm, lp_norm, standard_window, unit_standard_window
from .transforms import fourier, gaussian_stft_symbol, inverse_fourier, stft, synthesis

_REGION_TOL = 1e-12

#: analysis window name -> the window sampled on a grid; each entry looks its
#: function up when called, so a wrapper installed on the module later is used
WINDOWS = {
    "gaussian": lambda grid: standard_window(grid),
    "gaussian-unit": lambda grid: unit_standard_window(grid),
    "bump": lambda grid: sample(bump(0.0, 1.0), grid),
}

INVERSE_LATTICE = (0.0, 0.25, 0.5, 0.75, 1.0)


def exponent_from_inverse(inv: float) -> ExtendedExponent:
    """Map a point 1/p of the unit interval back to the exponent p."""
    if not 0.0 <= inv <= 1.0:
        raise ValueError(f"inverse exponent must lie in [0, 1], got {inv}")
    return ExtendedExponent(math.inf if inv == 0.0 else 1.0 / inv)


def default_lattice(inverse=INVERSE_LATTICE) -> list[tuple[ExtendedExponent, ExtendedExponent]]:
    """All exponent pairs whose reciprocals lie in ``inverse`` (default: the 5x5 grid
    with reciprocals in {0, 1/4, 1/2, 3/4, 1})."""
    return [(exponent_from_inverse(a), exponent_from_inverse(b)) for a in inverse for b in inverse]


# ---------------------------------------------------------------------------
# log-log fitting


@dataclass(frozen=True)
class ScalingFitResult:
    """Least-squares slope of log(value) against log(lambda)."""

    lambdas: tuple
    values: tuple
    slope: float
    intercept: float
    max_residual: float


def fit_scaling(points) -> ScalingFitResult:
    """Ordinary least squares in log-log coordinates over a parameter sweep."""
    pts = [(float(l), float(v)) for l, v in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 sweep points, got {len(pts)}")
    lams = np.array([l for l, _ in pts])
    vals = np.array([v for _, v in pts])
    if not np.all(np.diff(lams) > 0):
        raise ValueError("sweep parameters must be strictly increasing")
    if not np.all(vals > 0):
        raise ValueError("fitted values must be strictly positive")
    x = np.log(lams)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.abs(y - (slope * x + intercept)).max()
    return ScalingFitResult(tuple(lams.tolist()), tuple(vals.tolist()), float(slope), float(intercept), float(resid))


# ---------------------------------------------------------------------------
# random probe signals


def random_bandlimited(grid: Grid1D, radius: float, rng: np.random.Generator) -> SampledSignal:
    """Seeded signal whose transform is supported in |w| <= radius (exactly)."""
    dual = grid.dual
    mask = np.abs(dual.points) <= radius
    coeff = np.zeros(dual.N, dtype=np.complex128)
    n_active = int(mask.sum())
    if n_active == 0:
        raise ValueError("radius keeps no frequency inside the band")
    coeff[mask] = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    return inverse_fourier(make_signal(dual, coeff))


def random_tf_localized(grid: Grid1D, radius: float, rng: np.random.Generator) -> SampledSignal:
    """Band-limited noise under a Gaussian envelope, so it decays like a line signal."""
    base = random_bandlimited(grid, radius, rng)
    sigma = grid.L / 4.0
    envelope = np.exp(-np.pi * (grid.points / sigma) ** 2)
    return make_signal(grid, base.samples * envelope)


def bandlimited_profile(grid: Grid1D, radius: float) -> SampledSignal:
    """Deterministic band-limited signal: inverse transform of a bump of the given radius."""
    dual = grid.dual
    spectrum = bump(0.0, radius).evaluator(dual.points)
    return inverse_fourier(make_signal(dual, spectrum))


# ---------------------------------------------------------------------------
# sharp STFT L^p inequality


#: relative excess over the sharp constant that the ``lieb-p4`` check allows
_LIEB_SLACK = 1e-3


@dataclass(frozen=True)
class LiebReport:
    max_ratio: float
    constant: float


def lieb_constant(p) -> float:
    """Sharp constant sqrt(p'^(1/p') / p^(1/p)) of the L^p STFT bound (d = 1)."""
    p = as_exponent(p)

    def self_power(e: ExtendedExponent) -> float:
        return 1.0 if e.is_inf else e.value ** (1.0 / e.value)

    return math.sqrt(self_power(p.conjugate) / self_power(p))


def lieb_check(p, r, trials) -> LiebReport:
    """Test ||V_g f||_p <= C ||g||_{r'} ||f||_r over a list of (f, g) pairs.

    Requires p >= 2 and p' <= min(r, r'); reports the largest trial ratio and
    the sharp constant, which the battery's ``lieb-p4`` check compares.
    """
    p, r = as_exponent(p), as_exponent(r)
    if p.value < 2.0:
        raise ValueError("the bound needs p >= 2")
    p_conj, r_conj = p.conjugate, r.conjugate
    if p_conj.value > min(r.value, r_conj.value) + _REGION_TOL:
        raise ValueError("the bound needs p' <= min(r, r')")
    constant = lieb_constant(p)
    ratios = []
    for f, g in trials:
        denom = lp_norm(g, r_conj) * lp_norm(f, r)
        if denom == 0.0:
            raise ValueError("trial pair with zero norm")
        ratios.append(lp_norm(stft(f, g), p) / denom)
    return LiebReport(max_ratio=float(max(ratios)), constant=float(constant))


# ---------------------------------------------------------------------------
# check records: each named check has one builder, whose record the battery,
# the Schur suite, the region scans and the command line report


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    measured: float
    expected: float
    tolerance: float


def _record(name, measured, expected, tolerance, mode="abs") -> CheckRecord:
    if mode == "abs":
        ok = abs(measured - expected) <= tolerance
    elif mode == "le":
        ok = measured <= expected + tolerance
    else:
        raise ValueError(mode)
    return CheckRecord(name, "pass" if ok else "fail", float(measured), float(expected), tolerance)


# ---------------------------------------------------------------------------
# region scans


@dataclass(frozen=True)
class RegionVerdict:
    """Outcome of a boundedness probe at one exponent pair.

    ``point`` holds the figure coordinates (reciprocal exponents) and
    ``exponents`` the (name, value) pairs of the scan.  The pair is predicted
    bounded where the growth law of the extremal family is <= 0, and
    classified unbounded when the family's fitted growth exceeds the margin.
    Pairs with predicted growth in (0, 2*margin) are boundary cases: the sweep
    cannot distinguish them from bounded, so they are excluded from pass/fail
    comparisons.  ``check`` is the pair's ``region[...]`` record: the steepest
    fitted slope against the predicted growth, within the margin.
    """

    point: tuple
    exponents: tuple
    predicted: str
    classified: str
    boundary_excluded: bool
    check: CheckRecord
    fits: dict = field(default_factory=dict, compare=False)


def _verdict(point, names, exponents, growth, fits, margin) -> RegionVerdict:
    """The verdict at one exponent pair: bounded where the law's growth is <= 0,
    classified unbounded where the steepest probe outgrows the margin; its
    check passes where the two agree or the pair is a boundary case."""
    measured = max(fit.slope for fit in fits.values())
    named = tuple((name, str(e)) for name, e in zip(names, exponents))
    predicted = "bounded" if growth <= _REGION_TOL else "unbounded"
    classified = "unbounded" if measured > margin else "bounded"
    excluded = 0.0 < growth < 2.0 * margin
    name = "region[" + ",".join(f"{key}={value}" for key, value in named) + "]"
    status = "pass" if excluded or predicted == classified else "fail"
    check = CheckRecord(name, status, float(measured), float(growth), margin)
    return RegionVerdict(point, named, predicted, classified, excluded, check, fits)


@dataclass(frozen=True)
class StftScanSettings:
    """Grids and sweeps for the STFT amalgam-boundedness scan.

    The smooth grid carries the dilated-Gaussian probe; its sweep sits one
    octave higher than the chirp sweep because the Gaussian ratio approaches
    its power law like 1/lambda and the margin is tight at region-edge pairs.
    The chirp grid is finer so the quadratic chirp stays well below Nyquist.
    """

    lambdas_smooth: tuple = (8.0, 16.0, 32.0, 64.0, 128.0)
    lambdas_chirp: tuple = (4.0, 8.0, 16.0, 32.0, 64.0)
    smooth_grid: Grid1D = make_grid(16, 128)
    chirp_grid: Grid1D = make_grid(8, 512)
    margin: float = 0.05


def _guarded(lambdas, grid: Grid1D):
    # the chirp profiles are unit bumps
    bound = max_alias_free_lambda(grid, 1.0)
    kept = tuple(l for l in lambdas if l <= bound)
    if len(kept) < 4:
        raise ValueError(
            f"only {len(kept)} sweep values pass the alias guard {bound:g}; need >= 4"
        )
    return kept


def scan_stft(points, settings: StftScanSettings | None = None) -> list[RegionVerdict]:
    """Probe STFT boundedness on W(L^p, L^q) at each (p, q) pair.

    Probe A fits the ratio ||V_phi phi_lam||_W / ||phi_lam||_W (detects the
    failure of p >= q'); probe B, run when p > q, fits the plain L^q norm of
    the STFT of a chirp against its lambda-independent amalgam norm (detects
    the failure of q >= 2).
    """
    settings = settings or StftScanSettings()
    pts = [(as_exponent(p), as_exponent(q)) for p, q in points]
    lams_a = tuple(float(l) for l in settings.lambdas_smooth)
    lams_b = _guarded(settings.lambdas_chirp, settings.chirp_grid)
    runs_b = [p.reciprocal < q.reciprocal - _REGION_TOL for p, q in pts]

    vals_a = np.empty((len(pts), len(lams_a)))
    vals_b = np.full((len(pts), len(lams_b)), np.nan)
    window_a = standard_window(settings.smooth_grid)
    window_b = standard_window(settings.chirp_grid)
    profile = bump(0.0, 1.0)

    for li, lam in enumerate(lams_a):
        phil = sample(gaussian_family(lam), settings.smooth_grid)
        v = stft(phil, window_a)
        _fill_cube_tables(v, [p for p, _ in pts])
        for pi, (p, q) in enumerate(pts):
            vals_a[pi, li] = amalgam_norm(v, p, q) / amalgam_norm(phil, p, q)
        del v

    if any(runs_b):
        for li, lam in enumerate(lams_b):
            h_lam = sample(chirp_family(profile, lam), settings.chirp_grid)
            v = stft(h_lam, window_b)
            _fill_cube_tables(v, [q for (_, q), run in zip(pts, runs_b) if run])
            for pi, (p, q) in enumerate(pts):
                if runs_b[pi]:
                    vals_b[pi, li] = lp_norm(v, q) / amalgam_norm(h_lam, p, q)
            del v

    verdicts = []
    for pi, (p, q) in enumerate(pts):
        fits = {"stft_amalgam_ratio": fit_scaling(zip(lams_a, vals_a[pi]))}
        growth = predicted_exponent("stft-amalgam", q=q) - predicted_exponent("gaussian-amalgam", p=p)
        if runs_b[pi]:
            fits["chirp_lq_ratio"] = fit_scaling(zip(lams_b, vals_b[pi]))
            growth = max(growth, predicted_exponent("chirp-ft", q=q))
        verdicts.append(_verdict((q.reciprocal, p.reciprocal), ("p", "q"), (p, q), growth, fits, settings.margin))
    return verdicts


@dataclass(frozen=True)
class LocopScanSettings:
    """Grid, windows, and sweep for the localization-operator sharpness scan.

    The density keeps >= 8 samples inside the 1/lambda neighbourhood where
    the extremal operator output stays of unit size, and the alias guard of
    the chirp is satisfied for every sweep value.
    """

    lambdas: tuple = (4.0, 8.0, 16.0, 32.0, 64.0)
    grid: Grid1D = make_grid(4, 512)
    window: str = "bump"  # a key of WINDOWS
    margin: float = 0.05

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValueError(f"unknown window {self.window!r}; known: {sorted(WINDOWS)}")


@dataclass(frozen=True)
class _LocopSweepData:
    lam: float
    chi_af: SampledSignal
    x_factor: SampledSignal
    w_factor: SampledSignal
    probe_in: SampledSignal


def _locop_sweep(settings: LocopScanSettings) -> list[_LocopSweepData]:
    grid = settings.grid
    profile = bump(0.0, 1.0)  # also the cutoff chi of the operator output
    lams = _guarded(settings.lambdas, grid)
    window = WINDOWS[settings.window](grid)
    h_sig = sample(profile, grid)
    data = []
    for lam in lams:
        h_lam = sample(chirp_family(profile, lam), grid)
        f = make_signal(grid, np.conj(h_lam.samples))
        a = sharpness_symbol(profile, lam, grid)
        out = apply_locop(a, window, window, f)
        del a
        data.append(
            _LocopSweepData(
                lam=lam,
                chi_af=make_signal(grid, h_sig.samples * out.samples),
                x_factor=h_sig,
                w_factor=inverse_fourier(h_lam),
                probe_in=f,
            )
        )
    return data


def scan_locop(points, settings: LocopScanSettings | None = None) -> list[RegionVerdict]:
    """Sharpness scan, by default with compactly supported bump windows.

    Each symbol factor is measured in W(L^q, L^q) = L^q, here and in
    ``scan_locop_lq``, which differs only in its default settings.
    """
    settings = settings or LocopScanSettings()
    pts = [(as_exponent(q), as_exponent(r)) for q, r in points]
    sweep = _locop_sweep(settings)
    lams = [d.lam for d in sweep]
    verdicts = []
    for q, r in pts:
        # operators and their adjoints have identical output magnitudes here
        # (real windows), so exponents below 2 are probed at the conjugate
        r_eff = r if r.reciprocal <= 0.5 + _REGION_TOL else r.conjugate
        values = []
        for d in sweep:
            symbol_norm = amalgam_norm(d.x_factor, q, q) * amalgam_norm(d.w_factor, q, q)
            input_norm = amalgam_norm(d.probe_in, r_eff, r_eff)
            values.append(lp_norm(d.chi_af, r_eff) / (symbol_norm * input_norm))
        fits = {"sharpness_ratio": fit_scaling(zip(lams, values))}
        growth = predicted_exponent("locop-sharpness-ratio", q=q, r=r)
        verdicts.append(_verdict((r.reciprocal, q.reciprocal), ("q", "r"), (q, r), growth, fits, settings.margin))
    return verdicts


DEFAULT_LQ_SETTINGS = LocopScanSettings(
    lambdas=(4.0, 8.0, 16.0, 32.0),
    grid=make_grid(8, 256),
    window="gaussian",
)


def scan_locop_lq(points, settings: LocopScanSettings | None = None) -> list[RegionVerdict]:
    """Same scan, by default with Gaussian (L^q cap L^q') windows on a coarser grid."""
    return scan_locop(points, settings or DEFAULT_LQ_SETTINGS)


# ---------------------------------------------------------------------------
# Bernstein-type dilation fit


def bernstein_ratio_fit(p, q, radii, grid: Grid1D) -> ScalingFitResult:
    """Fit of ||f_R||_q / ||f_R||_p for spectrally dilated band-limited signals.

    f_R has transform bump(w/R); the ratio should scale like R^(1/p - 1/q)
    for p <= q.
    """
    p, q = as_exponent(p), as_exponent(q)
    values = []
    for radius in radii:
        f = bandlimited_profile(grid, float(radius))
        values.append(lp_norm(f, q) / lp_norm(f, p))
    return fit_scaling(zip([float(r) for r in radii], values))


# ---------------------------------------------------------------------------
# Schur consistency suite


@dataclass(frozen=True)
class SchurCaseResult:
    name: str
    report: object
    opnorm: float
    checks: tuple  # the schur-dominance and schur-amalgam-budget records of the case


_SUITE_EXPONENT_PAIRS = ((1, 1), (2, 2), ("inf", "inf"), (1, "inf"), ("inf", 1), (2, 4))


def _suite_cases(grid: Grid1D):
    phi = standard_window(grid)
    phi_unit = unit_standard_window(grid)
    ones, gauss, cube = (
        phase_space_symbol(grid, SYMBOL_EVALUATORS[name]) for name in ("unit", "gaussian", "cube")
    )
    bump_window = sample(bump(0.0, 1.0), grid)
    lam_small = min(4.0, max_alias_free_lambda(grid, 1.0))
    sharp = sharpness_symbol(bump(0.0, 1.0), lam_small, grid)
    return [
        ("gaussian-symbol", gauss, phi, phi),
        ("unit-symbol", ones, phi_unit, phi_unit),
        ("cube-indicator", cube, phi_unit, phi_unit),
        ("sharpness-symbol", sharp, bump_window, bump_window),
    ]


def schur_consistency_suite(
    grid: Grid1D | None = None,
    seed: int = 0,
    cases=None,
) -> list[SchurCaseResult]:
    """Check Schur quantities, L^2 dominance, and amalgam action budgets.

    For every constructed kernel the L^2 norm must sit below the classical
    Schur bound, and the measured W(L^r, L^s) action ratios over probes must
    stay below the largest of the four Schur quantities (the interpolation
    budget; every cube-blocked inequality involved has constant one here).
    Each case carries both checks as records, passing within 1e-6 times the bound.
    ``cases`` replaces the default (name, symbol, window, window) list.
    """
    grid = grid or make_grid(8, 16)
    rng = np.random.default_rng(seed)
    phi = standard_window(grid)
    probes = [phi, translate(phi, 1.0), modulate(phi, 1.0)]
    probes += [random_tf_localized(grid, min(4.0, grid.m / 4.0), rng) for _ in range(8)]
    results = []
    for name, a, w1, w2 in cases if cases is not None else _suite_cases(grid):
        K = build_kernel(a, w1, w2)
        rep = schur_report(K)
        norm2 = opnorm_l2(K)
        bound = math.sqrt(rep.c_sup_y * rep.c_sup_x)
        budget = max(rep.c_sup_y, rep.c_sup_x, rep.amalgam_a, rep.amalgam_b)
        worst = 0.0
        for probe in probes:
            out = kernel_action(K, probe)
            for rr, ss in _SUITE_EXPONENT_PAIRS:
                denom = amalgam_norm(probe, rr, ss)
                if denom > 0:
                    worst = max(worst, amalgam_norm(out, rr, ss) / denom)
        checks = (
            _record(f"schur-dominance[{name}]", norm2, bound, 1e-6 * bound, mode="le"),
            _record(f"schur-amalgam-budget[{name}]", worst, budget, 1e-6 * budget, mode="le"),
        )
        results.append(SchurCaseResult(name=name, report=rep, opnorm=float(norm2), checks=checks))
    return results


# ---------------------------------------------------------------------------
# the verification battery


def stft_orthogonality_check(v: SampledSymbol, f: SampledSignal, g: SampledSignal) -> CheckRecord:
    """``stft-orthogonality``: ||V_g f||_2 = ||f||_2 ||g||_2 for ``v`` = V_g f, to 1e-6."""
    return _record("stft-orthogonality", lp_norm(v, 2) / (lp_norm(f, 2) * lp_norm(g, 2)), 1.0, 1e-6)


def locop_identity_check(out: SampledSignal, f: SampledSignal) -> CheckRecord:
    """``locop-identity``: an operator that should be the identity maps ``f`` to ``out``
    within 1e-6 of max |f|."""
    residual = float(np.abs(out.samples - f.samples).max() / np.abs(f.samples).max())
    return _record("locop-identity", residual, 0.0, 1e-6)


def verification_suite(seed: int = 0) -> list[CheckRecord]:
    """Deterministic battery over the transform, norm, and operator invariants."""
    rng = np.random.default_rng(seed)
    grid = make_grid(16, 16)
    phi = standard_window(grid)
    phi_unit = unit_standard_window(grid)
    f = random_tf_localized(grid, 4.0, rng)
    g = random_tf_localized(grid, 4.0, rng)
    records = []

    v = stft(f, phi)
    records.append(stft_orthogonality_check(v, f, phi))
    records.append(
        _record(
            "gaussian-stft-oracle",
            float(
                np.abs(
                    stft(sample(gaussian_family(2.0), grid), phi).samples
                    - gaussian_stft_symbol(2.0, grid).samples
                ).max()
            ),
            0.0,
            1e-6,
        )
    )
    records.append(
        _record("fourier-parseval", lp_norm(fourier(f), 2) / lp_norm(f, 2), 1.0, 1e-10)
    )
    rec = synthesis(v, phi)
    records.append(
        _record(
            "stft-inversion",
            float(np.abs(rec.samples - lp_norm(phi, 2) ** 2 * f.samples).max())
            / float(np.abs(f.samples).max()),
            0.0,
            1e-6,
        )
    )
    records.append(
        _record("flp-parseval", flp_norm(f, 2) / lp_norm(f, 2), 1.0, 1e-10)
    )
    records.append(
        _record(
            "amalgam-diagonal",
            abs(amalgam_norm(f, 3, 3) / lp_norm(f, 3) - 1.0),
            0.0,
            1e-12,
        )
    )
    records.append(
        _record(
            "amalgam-inclusion",
            amalgam_norm(f, 2, 4) / amalgam_norm(f, 4, 2),
            1.0,
            1e-12,
            mode="le",
        )
    )
    records.append(
        _record(
            "amalgam-hoelder",
            amalgam_norm(make_signal(grid, f.samples * g.samples), 1, 1)
            / (amalgam_norm(f, 3, 2) * amalgam_norm(g, 1.5, 2)),
            1.0,
            1e-12,
            mode="le",
        )
    )
    ones = phase_space_symbol(grid, SYMBOL_EVALUATORS["unit"])
    records.append(locop_identity_check(apply_locop(ones, phi_unit, phi_unit, f), f))
    a_gauss = phase_space_symbol(grid, SYMBOL_EVALUATORS["gaussian"])
    K = build_kernel(a_gauss, phi, phi)
    records.append(
        _record(
            "kernel-vs-operator",
            float(
                np.abs(
                    kernel_action(K, f).samples - apply_locop(a_gauss, phi, phi, f).samples
                ).max()
            )
            / float(np.abs(apply_locop(a_gauss, phi, phi, f).samples).max()),
            0.0,
            1e-8,
        )
    )
    lhs = inner_product(apply_locop(a_gauss, phi, phi, f), g)
    rhs = weak_pairing(a_gauss, phi, phi, f, g)
    records.append(
        _record("weak-pairing", abs(lhs - rhs) / abs(rhs), 0.0, 1e-10)
    )
    for case in schur_consistency_suite(seed=seed):
        records.extend(case.checks)
    trials = [(random_tf_localized(grid, 4.0, rng), random_tf_localized(grid, 4.0, rng)) for _ in range(20)]
    rep = lieb_check(4, 2, trials)
    records.append(_record("lieb-p4", rep.max_ratio, rep.constant, rep.constant * _LIEB_SLACK, mode="le"))
    rep2 = lieb_check(2, 2, [(phi, phi)])
    records.append(_record("lieb-equality", rep2.max_ratio, 1.0, 1e-6))
    fit = bernstein_ratio_fit(1, 2, (2.0, 4.0, 8.0, 16.0), make_grid(16, 256))
    records.append(_record("bernstein-exponent", fit.slope, 0.5, 0.05))
    return records
