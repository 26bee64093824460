"""Acceptance gate: every criterion of the verification programme, one test each.

Each test prints one PASS/FAIL line (run with `pytest -s` or `-rA` to see all
of them).  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

import conftest

from tfamalgam import (
    amalgam_norm,
    apply_locop,
    as_exponent,
    build_kernel,
    fourier,
    gaussian_stft_symbol,
    inner_product,
    kernel_action,
    lp_norm,
    make_grid,
    make_signal,
    make_symbol,
    modulation_norm,
    modulation_norm_triebel,
    phase_space_symbol,
    sample,
    standard_window,
    stft,
)
from tfamalgam.experiments import (
    bernstein_ratio_fit,
    default_lattice,
    fit_scaling,
    lieb_check,
    random_bandlimited,
    random_tf_localized,
    scan_locop,
    scan_locop_lq,
    scan_stft,
    schur_consistency_suite,
)
from tfamalgam.families import (
    bump,
    chirp_family,
    gaussian_family,
    predicted_exponent,
)
from tfamalgam.cli import main as cli_main


def _report(num, ok, detail):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# -------------------------------------------------------------------------


def test_criterion_01_orthogonality():
    grid = make_grid(16, 16)
    phi = standard_window(grid)
    pairs = []
    gaussians = [sample(gaussian_family(l), grid) for l in (0.5, 1.0, 2.0, 4.0, 8.0)]
    bumps = [sample(bump(0.0, r), grid) for r in (0.5, 1.0, 2.0)]
    chirps = [sample(chirp_family(bump(0.0, 1.0), l), grid) for l in (2.0, 4.0)]
    pool = gaussians + bumps + chirps
    for i in range(20):
        pairs.append((pool[i % len(pool)], pool[(3 * i + 1) % len(pool)]))
    worst = 0.0
    for f, g in pairs:
        v = lp_norm(stft(f, g), 2)
        denom = lp_norm(f, 2) * lp_norm(g, 2)
        worst = max(worst, abs(v - denom) / denom)
    _report(1, worst < 1e-6, f"orthogonality relation over 20 pairs: max rel err {worst:.2e}")


def test_criterion_02_gaussian_stft_oracle():
    grid = make_grid(16, 16)
    phi = standard_window(grid)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        v = stft(sample(gaussian_family(lam), grid), phi)
        worst = max(worst, float(np.abs(v.samples - gaussian_stft_symbol(lam, grid).samples).max()))
    _report(2, worst < 1e-6, f"closed-form Gaussian STFT: max lattice error {worst:.2e}")


def test_criterion_03_lieb():
    grid = make_grid(16, 16)
    phi = standard_window(grid)
    eq = lieb_check(2, 2, [(phi, phi)])
    ok_eq = abs(eq.max_ratio - 1.0) < 1e-6
    rng = np.random.default_rng(1234)
    trials = [
        (random_tf_localized(grid, 4.0, rng), random_tf_localized(grid, 4.0, rng))
        for _ in range(100)
    ]
    rep = lieb_check(4, 2, trials)
    ok_p4 = rep.max_ratio <= rep.constant * (1 + 1e-3)
    _report(
        3,
        ok_eq and ok_p4,
        f"sharp L^p bound: equality ratio {eq.max_ratio:.8f}, "
        f"p=4 max ratio {rep.max_ratio:.4f} <= {rep.constant:.4f}",
    )


def test_criterion_04_amalgam_identities():
    grid = make_grid(16, 16)
    rng = np.random.default_rng(99)
    worst_diag = 0.0
    ok_incl = ok_hoelder = True
    for _ in range(100):
        f = random_tf_localized(grid, 4.0, rng)
        g = random_tf_localized(grid, 4.0, rng)
        p = as_exponent(float(rng.uniform(1, 6)))
        q = as_exponent(float(rng.uniform(1, 6)))
        worst_diag = max(
            worst_diag, abs(amalgam_norm(f, p, p) / lp_norm(f, p) - 1.0)
        )
        pa, pb = sorted((p.value, q.value))
        ok_incl &= amalgam_norm(f, pa, pb) <= amalgam_norm(f, pb, pa) * (1 + 1e-12)
        prod = make_signal(grid, f.samples * g.samples)
        ok_hoelder &= amalgam_norm(prod, 1, 1) <= amalgam_norm(f, p, q) * amalgam_norm(
            g, p.conjugate, q.conjugate
        ) * (1 + 1e-12)
    _report(
        4,
        worst_diag < 1e-12 and ok_incl and ok_hoelder,
        f"amalgam diagonal/inclusion/Hoelder with constant one: diag err {worst_diag:.1e}",
    )


def test_criterion_05_chirp_scaling():
    grid = make_grid(16, 512)
    prof = bump(0.0, 1.0)
    lams = (4.0, 8.0, 16.0, 32.0, 64.0)
    spectra = {lam: fourier(sample(chirp_family(prof, lam), grid)) for lam in lams}
    details, ok = [], True
    for q in (1, "4/3", 4, "inf"):
        fit = fit_scaling([(lam, lp_norm(spectra[lam], q)) for lam in lams])
        pred = predicted_exponent("chirp-ft", q=q)
        ok &= abs(fit.slope - pred) <= 0.05
        details.append(f"q={q}: {fit.slope:+.3f}~{pred:+.3f}")
    fit2 = fit_scaling([(lam, lp_norm(spectra[lam], 2)) for lam in lams])
    ok &= abs(fit2.slope) <= 0.01
    details.append(f"q=2: {fit2.slope:+.4f}~0")
    _report(5, ok, "chirp transform norms " + ", ".join(details))


def test_criterion_06_gaussian_amalgam_scaling():
    grid = make_grid(16, 512)
    lams = (4.0, 8.0, 16.0, 32.0, 64.0)
    sigs = {lam: sample(gaussian_family(lam), grid) for lam in lams}
    details, ok = [], True
    for p, q in [(1, 2), (2, 2), ("inf", 2), (2, 1)]:
        fit = fit_scaling([(lam, amalgam_norm(sigs[lam], p, q)) for lam in lams])
        pred = predicted_exponent("gaussian-amalgam", p=p)
        ok &= abs(fit.slope - pred) <= 0.05
        details.append(f"({p},{q}): {fit.slope:+.3f}~{pred:+.3f}")
    _report(6, ok, "dilated-Gaussian amalgam norms " + ", ".join(details))


def test_criterion_07_stft_amalgam_scaling():
    grid = make_grid(16, 128)
    window = standard_window(grid)
    lams = (8.0, 16.0, 32.0, 64.0, 128.0)
    symbols = {lam: stft(sample(gaussian_family(lam), grid), window) for lam in lams}
    details, ok = [], True
    for p, q in [(2, 2), ("inf", 2), (2, 4)]:
        fit = fit_scaling([(lam, amalgam_norm(symbols[lam], p, q)) for lam in lams])
        pred = predicted_exponent("stft-amalgam", q=q)
        ok &= abs(fit.slope - pred) <= 0.07
        details.append(f"({p},{q}): {fit.slope:+.3f}~{pred:+.3f}")
    _report(7, ok, "Gaussian STFT amalgam norms " + ", ".join(details))


def test_criterion_08_stft_region_scan():
    start = time.time()
    verdicts = scan_stft(default_lattice())
    elapsed = time.time() - start
    mismatched = [
        v for v in verdicts if not v.boundary_excluded and v.predicted != v.classified
    ]
    excluded = sum(v.boundary_excluded for v in verdicts)
    _report(
        8,
        not mismatched and elapsed < 600,
        f"STFT boundedness region: {len(verdicts) - excluded} definite points agree, "
        f"{excluded} boundary-excluded, {elapsed:.0f}s",
    )


def test_criterion_09_locop_identity_consistency():
    grid = make_grid(8, 16)  # N = 128
    phi = standard_window(grid)
    unit = make_signal(grid, phi.samples / lp_norm(phi, 2))
    ones = phase_space_symbol(grid, lambda x, w: np.ones(np.broadcast_shapes(x.shape, w.shape)))
    rng = np.random.default_rng(17)
    f = random_tf_localized(grid, 4.0, rng)
    residual = apply_locop(ones, unit, unit, f).samples - f.samples
    ident = lp_norm(make_signal(grid, residual), 2) / lp_norm(f, 2)

    a = phase_space_symbol(grid, lambda x, w: np.exp(-np.pi * (x**2 + w**2)) * (1 + 0.4j))
    K = build_kernel(a, unit, phi)
    g = random_bandlimited(grid, 4.0, rng)
    lhs = kernel_action(K, g).samples
    rhs = apply_locop(a, unit, phi, g).samples
    consistency = np.abs(lhs - rhs).max() / np.abs(rhs).max()

    a_conj = make_symbol(grid, grid.dual, np.conj(a.samples))
    h = random_tf_localized(grid, 4.0, rng)
    pair_lhs = inner_product(apply_locop(a, unit, phi, g), h)
    pair_rhs = inner_product(g, apply_locop(a_conj, phi, unit, h))
    adjoint = abs(pair_lhs - pair_rhs) / abs(pair_lhs)
    _report(
        9,
        ident < 1e-6 and consistency < 1e-8 and adjoint < 1e-10,
        f"unit-symbol identity {ident:.1e}, kernel consistency {consistency:.1e}, "
        f"adjoint {adjoint:.1e}",
    )


def test_criterion_10_schur_dominance():
    results = schur_consistency_suite()
    ok = True
    for case in results:
        rep = case.report
        ok &= case.opnorm <= np.sqrt(rep.c_sup_y * rep.c_sup_x) * (1 + 1e-6)
        ok &= bool(
            np.all(np.isfinite([rep.c_sup_y, rep.c_sup_x, rep.amalgam_a, rep.amalgam_b]))
        )
    _report(10, ok, f"Schur dominance and finite block quantities on {len(results)} kernels")


def test_criterion_11_sharpness_exponents():
    points = [(8, 8), (4, 4), (4, 2)]
    verdicts = scan_locop(points)
    details, ok = [], True
    for (q, r), v in zip(points, verdicts):
        pred = predicted_exponent("locop-sharpness-ratio", q=q, r=r)
        ok &= abs(v.check.measured - pred) <= 0.07
        inside = 1 / q >= abs(1 / r - 0.5) - 1e-12
        ok &= (v.check.measured <= v.check.tolerance) == inside
        details.append(f"(q={q},r={r}): {v.check.measured:+.3f}~{pred:+.3f}")
    _report(11, ok, "operator sharpness ratios " + ", ".join(details))


def test_criterion_12_locop_region_scans():
    start = time.time()
    lattice = default_lattice()
    mismatch = 0
    excluded = 0
    for scanner in (scan_locop, scan_locop_lq):
        for v in scanner(lattice):
            if v.boundary_excluded:
                excluded += 1
            elif v.predicted != v.classified:
                mismatch += 1
    elapsed = time.time() - start
    _report(
        12,
        mismatch == 0 and elapsed < 1200,
        f"operator boundedness region, both window classes: 0 mismatches expected, "
        f"got {mismatch}; {excluded} excluded; {elapsed:.0f}s",
    )


def test_criterion_13_triebel_equivalence():
    grid = make_grid(48, 32)
    lams = [2.0**k for k in range(-5, 5)]  # 1/32 .. 16
    details, ok = [], True
    for p, q in [(1, 1), (2, 2), (2, 4)]:
        mods, bands = [], []
        for lam in lams:
            f = sample(gaussian_family(lam), grid)
            mods.append(modulation_norm(f, p, q))
            bands.append(modulation_norm_triebel(f, p, q))
        mods, bands = np.array(mods), np.array(bands)
        ratio = bands / mods
        spread = ratio.max() / ratio.min()
        var_m = mods.max() / mods.min()
        var_b = bands.max() / bands.min()
        ok &= spread < 2.0 and var_m >= 4.0 and var_b >= 4.0
        details.append(f"({p},{q}): spread {spread:.2f}, norms vary {var_m:.1f}x/{var_b:.1f}x")
    _report(13, ok, "frequency-decomposition norm equivalence " + "; ".join(details))


def test_criterion_14_bernstein():
    grid = make_grid(16, 256)
    radii = (2.0, 4.0, 8.0, 16.0)
    details, ok = [], True
    for p, q in [(1, 2), (2, "inf")]:
        fit = bernstein_ratio_fit(p, q, radii, grid)
        pred = as_exponent(p).reciprocal - as_exponent(q).reciprocal
        ok &= abs(fit.slope - pred) <= 0.05
        details.append(f"({p},{q}): {fit.slope:+.3f}~{pred:+.3f}")
    _report(14, ok, "band-limit dilation exponents " + ", ".join(details))


def test_criterion_15_reproducibility(tmp_path):
    runs = {
        "verify": ["verify", "--seed", "1"],
        "scan-stft": ["scan-stft", "--lattice", "0.5", "--lambdas", "4 8 16 32"],
        "scan-locop": ["scan-locop", "--lattice", "0.25 0.5", "--lambdas", "4 8 16 32"],
        "scan-locop-lq": ["scan-locop-lq", "--lattice", "0.5", "--lambdas", "4 8 16 32"],
    }
    identical = True
    for name, args in runs.items():
        out = tmp_path / name
        first = cli_main(args + ["--out", str(out)])
        snapshot = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()
        }
        second = cli_main(args + ["--out", str(out)])
        assert first == 0 and second == 0
        for fname, blob in snapshot.items():
            identical &= (out / fname).read_bytes() == blob
    _report(15, identical, "verify and all three scans re-run byte-identical")
