#!/usr/bin/env python3
"""Print the measured vs predicted exponents of the main scaling laws.

Covers the chirp transform norms, the dilated-Gaussian amalgam norms, the
STFT amalgam norms, and the operator sharpness ratios, each fitted over a
geometric parameter sweep.  Exits 1 when any measured exponent is off its
prediction by more than 0.07, 0 otherwise.
"""

import sys

from tfamalgam import (
    amalgam_norm,
    fourier,
    lp_norm,
    make_grid,
    sample,
    standard_window,
    stft,
)
from tfamalgam.experiments import fit_scaling, scan_locop
from tfamalgam.families import bump, chirp_family, gaussian_family, predicted_exponent


def main():
    off = []

    def show(label, slope, predicted):
        flag = "ok " if abs(slope - predicted) <= 0.07 else "OFF"
        if flag == "OFF":
            off.append(label)
        print(f"  [{flag}] {label}: measured {slope:+.4f}  predicted {predicted:+.4f}")

    lams = (4.0, 8.0, 16.0, 32.0, 64.0)

    print("chirp transform norms (grid 16x512):")
    g = make_grid(16, 512)
    spectra = {l: fourier(sample(chirp_family(bump(0.0, 1.0), l), g)) for l in lams}
    for q in (1, "4/3", 2, 4, "inf"):
        fit = fit_scaling([(l, lp_norm(spectra[l], q)) for l in lams])
        show(f"q={q}", fit.slope, predicted_exponent("chirp-ft", q=q))

    print("dilated-Gaussian amalgam norms (grid 16x512):")
    sigs = {l: sample(gaussian_family(l), g) for l in lams}
    for p, q in [(1, 2), (2, 2), ("inf", 2), (2, 1)]:
        fit = fit_scaling([(l, amalgam_norm(sigs[l], p, q)) for l in lams])
        show(f"W(L^{p},L^{q})", fit.slope, predicted_exponent("gaussian-amalgam", p=p))

    print("Gaussian STFT amalgam norms (grid 16x128):")
    ga = make_grid(16, 128)
    w = standard_window(ga)
    lams_hi = (8.0, 16.0, 32.0, 64.0, 128.0)
    symbols = {l: stft(sample(gaussian_family(l), ga), w) for l in lams_hi}
    for p, q in [(2, 2), ("inf", 2), (2, 4)]:
        fit = fit_scaling([(l, amalgam_norm(symbols[l], p, q)) for l in lams_hi])
        show(f"W(L^{p},L^{q})", fit.slope, predicted_exponent("stft-amalgam", q=q))

    print("operator sharpness ratios (grid 4x512):")
    points = [(8, 8), (4, 4), (4, 2), (2, 2)]
    for (q, r), verdict in zip(points, scan_locop(points)):
        show(
            f"q={q}, r={r}",
            verdict.measured_slope,
            predicted_exponent("locop-sharpness-ratio", q=q, r=r),
        )
    if off:
        print(f"{len(off)} fits OFF: {', '.join(off)}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
