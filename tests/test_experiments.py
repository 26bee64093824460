import inspect
import math
import sys

import numpy as np
import pytest

from tfamalgam import as_exponent, experiments, fourier, lp_norm, make_grid, make_signal, make_symbol, norms, stft
from tfamalgam.experiments import (
    CheckRecord,
    LiebReport,
    LocopScanSettings,
    ScalingFitResult,
    StftScanSettings,
    _verdict,
    bernstein_ratio_fit,
    default_lattice,
    exponent_from_inverse,
    fit_scaling,
    lieb_check,
    lieb_constant,
    locop_identity_check,
    random_bandlimited,
    random_tf_localized,
    scan_locop,
    scan_locop_lq,
    scan_stft,
    schur_consistency_suite,
    stft_orthogonality_check,
    verification_suite,
)
from tfamalgam.families import predicted_exponent
from tfamalgam.locop import SchurReport


# --- fitting -----------------------------------------------------------------


def test_fit_exact_power_law():
    lams = [2.0, 4.0, 8.0, 16.0]
    fit = fit_scaling([(l, l**0.5) for l in lams])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_constant_absorbed():
    lams = [2.0, 4.0, 8.0, 16.0]
    fit = fit_scaling([(l, 7.3 * l**-0.25) for l in lams])
    assert fit.slope == pytest.approx(-0.25, abs=1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, -1.0), (4.0, 1.0), (8.0, 1.0)])


def test_fit_chirp_l1():
    from tfamalgam.families import bump, chirp_family
    from tfamalgam import sample

    g = make_grid(8, 256)
    vals = [
        (lam, lp_norm(fourier(sample(chirp_family(bump(0.0, 1.0), lam), g)), 1))
        for lam in (4.0, 8.0, 16.0, 32.0)
    ]
    assert fit_scaling(vals).slope == pytest.approx(0.5, abs=0.05)


# --- sharp STFT inequality ------------------------------------------------------


def test_lieb_constants():
    assert lieb_constant(2) == pytest.approx(1.0)
    assert lieb_constant(4) == pytest.approx(((4 / 3) ** 0.75 / 4**0.25) ** 0.5)
    assert lieb_constant("inf") == pytest.approx(1.0)


def test_lieb_equality_case(grid16, phi):
    rep = lieb_check(2, 2, [(phi, phi)])
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-6)


def test_lieb_gaussian_p4(grid16, phi):
    rep = lieb_check(4, 2, [(phi, phi)])
    assert rep.max_ratio == pytest.approx(8**-0.25 / 2**-0.5, abs=1e-8)
    assert rep.max_ratio <= rep.constant


def test_lieb_validation(grid16, phi):
    with pytest.raises(ValueError):
        lieb_check(1.5, 2, [(phi, phi)])  # p < 2
    with pytest.raises(ValueError):
        lieb_check(2, 8, [(phi, phi)])  # p' > min(r, r')


# --- probe signals ----------------------------------------------------------------


def test_random_bandlimited_support(grid16, rng):
    f = random_bandlimited(grid16, 3.0, rng)
    spec = fourier(f)
    outside = np.abs(spec.grid.points) > 3.0
    assert np.abs(spec.samples[outside]).max() < 1e-12


def test_random_tf_localized_decays(grid16, rng):
    f = random_tf_localized(grid16, 3.0, rng)
    assert f.tail_mass < 1e-4


# --- region scans -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_stft_scan():
    settings = StftScanSettings(
        lambdas_smooth=(8.0, 16.0, 32.0, 64.0),
        lambdas_chirp=(2.0, 4.0, 8.0, 16.0),
        smooth_grid=make_grid(8, 64),
        chirp_grid=make_grid(8, 128),
    )
    points = [(2, 2), (1, 2), ("inf", 1), (1, "inf")]
    return dict(zip(points, scan_stft(points, settings)))


def test_stft_scan_bounded_point(small_stft_scan):
    v = small_stft_scan[(2, 2)]
    assert v.predicted == "bounded"
    assert v.classified == "bounded"
    assert abs(v.check.measured) < 0.05


def test_stft_scan_unbounded_local(small_stft_scan):
    v = small_stft_scan[(1, 2)]
    assert v.predicted == "unbounded"
    assert v.classified == "unbounded"
    assert v.fits["stft_amalgam_ratio"].slope == pytest.approx(0.25, abs=0.05)


def test_stft_scan_unbounded_global(small_stft_scan):
    v = small_stft_scan[("inf", 1)]
    assert v.predicted == "unbounded"
    assert v.classified == "unbounded"
    # detection comes from the chirp probe at this corner
    assert v.fits["chirp_lq_ratio"].slope > 0.3


def test_stft_scan_edge_bounded(small_stft_scan):
    v = small_stft_scan[(1, "inf")]
    assert v.predicted == "bounded"
    assert v.classified == "bounded"
    assert not v.boundary_excluded


def test_scan_verdict_fields(small_stft_scan):
    v = small_stft_scan[(2, 2)]
    assert v.point == (0.5, 0.5)
    assert v.exponents == (("p", "2"), ("q", "2"))
    assert v.check.tolerance == 0.05
    assert (v.check.measured > v.check.tolerance) == (v.classified == "unbounded")


@pytest.fixture(scope="module")
def small_locop_settings():
    return LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 16.0), grid=make_grid(4, 128))


def test_locop_scan_points(small_locop_settings):
    points = [(8, 8), (2, 2), (8, "8/7")]
    verdicts = dict(zip(points, scan_locop(points, small_locop_settings)))
    v88 = verdicts[(8, 8)]
    assert v88.predicted == "unbounded" and v88.classified == "unbounded"
    assert v88.check.measured == pytest.approx(0.25, abs=0.07)
    v22 = verdicts[(2, 2)]
    assert v22.predicted == "bounded" and v22.classified == "bounded"
    # r < 2 probes through the conjugate exponent and matches its mirror point
    vdual = verdicts[(8, "8/7")]
    assert vdual.check.measured == pytest.approx(v88.check.measured, rel=1e-12)


def test_locop_lq_scan_point():
    settings = LocopScanSettings(
        lambdas=(2.0, 4.0, 8.0, 16.0), grid=make_grid(8, 128), window="gaussian"
    )
    v = scan_locop_lq([(4, "inf")], settings)[0]
    assert v.predicted == "unbounded"
    assert v.classified == "unbounded"


def test_scan_guard_needs_four_points():
    settings = LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 1024.0), grid=make_grid(4, 128))
    with pytest.raises(ValueError, match="guard"):
        scan_locop([(2, 2)], settings)


def _assert_paper_region(v, bounded):
    # the paper's region, written from the reciprocals alone; every growth on the
    # default lattice is a multiple of 1/8, so none falls in the boundary band (0, 0.1)
    assert v.predicted == ("bounded" if bounded else "unbounded")
    assert not v.boundary_excluded


def test_predicted_growth_is_the_law_of_the_probes_that_ran():
    # the warm-up grids of the benchmark: the laws depend on the exponents alone
    lattice = default_lattice()
    stft_settings = StftScanSettings(
        lambdas_smooth=(1.0, 2.0, 4.0, 8.0),
        lambdas_chirp=(2.0, 4.0, 8.0, 16.0),
        smooth_grid=make_grid(16, 16),
        chirp_grid=make_grid(8, 64),
    )
    raised_by_chirp = 0
    for (p, q), v in zip(lattice, scan_stft(lattice, stft_settings)):
        law = predicted_exponent("stft-amalgam", q=q) - predicted_exponent("gaussian-amalgam", p=p)
        # probe B runs where p > q and the growth is the larger of the two laws
        assert ("chirp_lq_ratio" in v.fits) == (p.reciprocal < q.reciprocal)
        if "chirp_lq_ratio" in v.fits:
            raised_by_chirp += predicted_exponent("chirp-ft", q=q) > law
            law = max(law, predicted_exponent("chirp-ft", q=q))
        assert v.check.expected == law
        _assert_paper_region(v, q.reciprocal <= 0.5 and p.reciprocal <= 1.0 - q.reciprocal)
    assert raised_by_chirp > 0
    locop_settings = (
        (scan_locop, LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 16.0), grid=make_grid(4, 64))),
        (scan_locop_lq, LocopScanSettings(lambdas=(1.0, 2.0, 4.0, 8.0), grid=make_grid(8, 32), window="gaussian")),
    )
    for scan, settings in locop_settings:
        for (q, r), v in zip(lattice, scan(lattice, settings)):
            assert v.check.expected == predicted_exponent("locop-sharpness-ratio", q=q, r=r)
            _assert_paper_region(v, q.reciprocal >= abs(r.reciprocal - 0.5))


def _hand_verdict(slope, growth, margin=0.05):
    # one fit of the given slope at (p, q) = (2, inf); the rule reads nothing else of it
    fit = ScalingFitResult((1.0, 2.0, 4.0, 8.0), (1.0, 1.0, 1.0, 1.0), slope, 0.0, 0.0)
    exponents = (as_exponent(2), as_exponent("inf"))
    return _verdict((0.0, 0.5), ("p", "q"), exponents, growth, {"probe": fit}, margin)


@pytest.mark.parametrize("growth, status", [(0.06, "pass"), (0.1, "fail")])
def test_region_check_passes_a_boundary_pair_whose_slope_disagrees(growth, status):
    # predicted unbounded, classified bounded: only a growth below 2 * margin excuses it
    v = _hand_verdict(0.0, growth)
    assert (v.predicted, v.classified) == ("unbounded", "bounded")
    assert v.boundary_excluded == (status == "pass")
    assert v.check == CheckRecord("region[p=2,q=inf]", status, 0.0, growth, 0.05)


def test_region_slope_exactly_at_the_margin_is_classified_bounded():
    v = _hand_verdict(0.05, 0.0)
    assert v.classified == "bounded" and v.check.status == "pass"
    assert _hand_verdict(np.nextafter(0.05, 1.0), 0.0).classified == "unbounded"


def test_region_growth_exactly_at_the_tolerance_is_predicted_bounded():
    tol = experiments._REGION_TOL
    assert _hand_verdict(0.0, tol).predicted == "bounded"
    assert _hand_verdict(0.0, np.nextafter(tol, 1.0)).predicted == "unbounded"


def test_default_lattice_shape():
    lat = default_lattice()
    assert len(lat) == 25
    assert exponent_from_inverse(0.0).is_inf
    assert exponent_from_inverse(0.25).value == 4.0
    with pytest.raises(ValueError):
        exponent_from_inverse(1.5)


# --- dilation fit -------------------------------------------------------------------


def test_bernstein_fit():
    fit = bernstein_ratio_fit(1, 2, (2.0, 4.0, 8.0, 16.0), make_grid(16, 256))
    assert fit.slope == pytest.approx(0.5, abs=0.05)


# --- suites ------------------------------------------------------------------------


def test_schur_consistency_suite():
    results = schur_consistency_suite()
    assert {r.name for r in results} == {
        "gaussian-symbol",
        "unit-symbol",
        "cube-indicator",
        "sharpness-symbol",
    }
    for r in results:
        assert all(c.status == "pass" for c in r.checks), r
        rep = r.report
        assert all(
            np.isfinite([rep.c_sup_y, rep.c_sup_x, rep.amalgam_a, rep.amalgam_b])
        )


def test_schur_suite_custom_case():
    from tfamalgam import phase_space_symbol, standard_window

    g = make_grid(4, 16)
    phi = standard_window(g)
    sym = phase_space_symbol(g, lambda x, w: np.exp(-np.pi * (x**2 + 2 * w**2)))
    results = schur_consistency_suite(grid=g, cases=[("custom", sym, phi, phi)])
    assert len(results) == 1 and results[0].name == "custom"
    assert all(c.status == "pass" for c in results[0].checks)


SCHUR_CASES = ("gaussian-symbol", "unit-symbol", "cube-indicator", "sharpness-symbol")

BATTERY = (
    "stft-orthogonality",
    "gaussian-stft-oracle",
    "fourier-parseval",
    "stft-inversion",
    "flp-parseval",
    "amalgam-diagonal",
    "amalgam-inclusion",
    "amalgam-hoelder",
    "locop-identity",
    "kernel-vs-operator",
    "weak-pairing",
    *(f"schur-{check}[{case}]" for case in SCHUR_CASES for check in ("dominance", "amalgam-budget")),
    "lieb-p4",
    "lieb-equality",
    "bernstein-exponent",
)


def test_verification_suite_passes():
    records = verification_suite(seed=0)
    failed = [r for r in records if r.status != "pass"]
    assert not failed, failed
    # every check once, in order: the benchmark's verify-battery counts on 22
    assert tuple(r.name for r in records) == BATTERY and len(BATTERY) == 22


@pytest.mark.parametrize("excess, status", [(2e-6, "fail"), (0.5e-6, "pass")])
def test_schur_dominance_allows_a_relative_excess_of_1e_6(monkeypatch, excess, status):
    # every default bound is below 1, so an absolute 1e-6 would pass an excess
    # of 2e-6 of the gaussian-symbol bound (0.447), about 0.89e-6
    def past_the_bound(K):
        rep = experiments.schur_report(K)
        return math.sqrt(rep.c_sup_y * rep.c_sup_x) * (1.0 + excess)

    monkeypatch.setattr(experiments, "opnorm_l2", past_the_bound)
    records = verification_suite(0)
    dominance = [r for r in records if r.name.startswith("schur-dominance[")]
    assert [r.status for r in dominance] == [status] * len(SCHUR_CASES)
    assert all(r.status == "pass" for r in records if r not in dominance)


@pytest.mark.parametrize("excess, status", [(2e-6, "fail"), (0.5e-6, "pass")])
def test_schur_amalgam_budget_allows_a_relative_excess_of_1e_6(monkeypatch, excess, status):
    # the budget is set just below each case's largest ratio, which the
    # gaussian-symbol case keeps near 0.35
    worst = [case.checks[1].measured for case in schur_consistency_suite()]
    assert min(worst) < 0.5
    budgets = iter([w / (1.0 + excess) for w in worst])
    monkeypatch.setattr(experiments, "schur_report", lambda K: SchurReport(*[next(budgets)] * 4))
    for case, measured in zip(schur_consistency_suite(), worst):
        budget = case.checks[1]
        assert budget.measured == measured and budget.status == status, budget


@pytest.mark.parametrize("excess, status", [(2e-6, "fail"), (0.5e-6, "pass")])
def test_stft_orthogonality_allows_an_excess_of_1e_6(grid16, phi, excess, status):
    f = random_tf_localized(grid16, 4.0, np.random.default_rng(1))
    v = stft(f, phi)
    check = stft_orthogonality_check(make_symbol(v.x_grid, v.w_grid, (1.0 + excess) * v.samples), f, phi)
    assert check.measured == pytest.approx(1.0 + excess, abs=1e-12)
    assert check.status == status


@pytest.mark.parametrize("excess, status", [(2e-6, "fail"), (0.5e-6, "pass")])
def test_locop_identity_allows_a_residual_of_1e_6(grid16, excess, status):
    f = random_tf_localized(grid16, 4.0, np.random.default_rng(1))
    samples = f.samples.copy()
    samples[0] += excess * np.abs(f.samples).max()
    check = locop_identity_check(make_signal(grid16, samples), f)
    assert check.measured == pytest.approx(excess, rel=1e-9)
    assert check.status == status


@pytest.mark.parametrize("slack, status", [(2e-3, "fail"), (1e-3, "pass")])
def test_lieb_p4_allows_a_relative_excess_of_1e_3(monkeypatch, slack, status):
    # a ratio of exactly the constant plus its slack passes: the rule is <=
    def past_the_constant(p, r, trials):
        rep = lieb_check(p, r, trials)
        return LiebReport(rep.constant + rep.constant * slack, rep.constant) if p == 4 else rep

    monkeypatch.setattr(experiments, "lieb_check", past_the_constant)
    [record] = [r for r in verification_suite(0) if r.name == "lieb-p4"]
    assert record.status == status


def _count_norm_calls(monkeypatch):
    """Wrap every public function of ``tfamalgam.norms`` wherever a library module holds it.

    Returns the per-name call counts and the list of calls made while another
    public norm was running.
    """
    calls, nested, depth = {}, [], [0]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                nested.append(name)
            calls[name] = calls.get(name, 0) + 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    holders = [m for n, m in sys.modules.items() if n == "tfamalgam" or n.startswith("tfamalgam.")]
    for attr, fn in list(vars(norms).items()):
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != norms.__name__:
            continue
        wrapper = wrap(attr, fn)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    monkeypatch.setattr(holder, key, wrapper)
    return calls, nested


def test_stft_scan_calls_each_public_norm_once_per_ratio_term(monkeypatch):
    # the benchmark's traced run pins these counts; batching norms would change them
    settings = StftScanSettings(
        lambdas_smooth=(1.0, 2.0, 4.0, 8.0),
        lambdas_chirp=(2.0, 4.0, 8.0, 16.0),
        smooth_grid=make_grid(16, 16),
        chirp_grid=make_grid(8, 64),
    )
    pairs = default_lattice()
    calls, nested = _count_norm_calls(monkeypatch)
    scan_stft(pairs, settings)
    n_chirp_pairs = sum(p.reciprocal < q.reciprocal for p, q in pairs)
    n_smooth, n_chirp = len(settings.lambdas_smooth), len(settings.lambdas_chirp)
    assert calls.pop("standard_window") == 2
    assert calls == {
        "amalgam_norm": 2 * len(pairs) * n_smooth + n_chirp_pairs * n_chirp,
        "lp_norm": n_chirp_pairs * n_chirp,
    }
    assert nested == []
