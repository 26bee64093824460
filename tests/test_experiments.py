import inspect
import sys

import numpy as np
import pytest

from tfamalgam import fourier, lp_norm, make_grid, norms
from tfamalgam.experiments import (
    LocopScanSettings,
    StftScanSettings,
    bernstein_ratio_fit,
    default_lattice,
    exponent_from_inverse,
    fit_scaling,
    lieb_check,
    lieb_constant,
    random_bandlimited,
    random_tf_localized,
    scan_locop,
    scan_locop_lq,
    scan_stft,
    schur_consistency_suite,
    verification_suite,
)


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
    assert rep.passed


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
    assert abs(v.measured_slope) < 0.05


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
    assert v.exponents == ("2", "2")
    assert v.margin == 0.05
    assert (v.measured_slope > v.margin) == (v.classified == "unbounded")


@pytest.fixture(scope="module")
def small_locop_settings():
    return LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 16.0), grid=make_grid(4, 128))


def test_locop_scan_points(small_locop_settings):
    points = [(8, 8), (2, 2), (8, "8/7")]
    verdicts = dict(zip(points, scan_locop(points, small_locop_settings)))
    v88 = verdicts[(8, 8)]
    assert v88.predicted == "unbounded" and v88.classified == "unbounded"
    assert v88.measured_slope == pytest.approx(0.25, abs=0.07)
    v22 = verdicts[(2, 2)]
    assert v22.predicted == "bounded" and v22.classified == "bounded"
    # r < 2 probes through the conjugate exponent and matches its mirror point
    vdual = verdicts[(8, "8/7")]
    assert vdual.measured_slope == pytest.approx(v88.measured_slope, rel=1e-12)


def test_locop_lq_scan_point():
    settings = LocopScanSettings(
        lambdas=(2.0, 4.0, 8.0, 16.0), grid=make_grid(8, 128), window="gaussian"
    )
    v = scan_locop_lq([(4, "inf")], settings)[0]
    assert v.predicted == "unbounded"
    assert v.classified == "unbounded"


def test_locop_lq_rejects_symbol_override():
    with pytest.raises(ValueError):
        scan_locop_lq([(2, 2)], LocopScanSettings(symbol_p=1))


def test_scan_guard_needs_four_points():
    settings = LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 1024.0), grid=make_grid(4, 128))
    with pytest.raises(ValueError, match="guard"):
        scan_locop([(2, 2)], settings)


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
        assert r.dominance_ok, r
        assert r.ratios_ok, r
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
    assert results[0].dominance_ok and results[0].ratios_ok


def test_verification_suite_passes():
    records = verification_suite(seed=0)
    failed = [r for r in records if r.status != "pass"]
    assert not failed, failed
    assert len(records) >= 15


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
