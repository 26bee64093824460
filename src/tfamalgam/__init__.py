"""Numerical short-time Fourier analysis on periodic grids.

Sampled signals over a periodic box, the STFT and its synthesis adjoint,
Wiener amalgam / mixed / modulation norms, localization operators with
Schur-type bounds, and a verification harness that fits the scaling laws of
the standard extremal families (dilated Gaussians, quadratic chirps) against
their predicted exponents.
"""

from .grid import (
    INFINITY,
    AliasingWarning,
    ExtendedExponent,
    Grid1D,
    SampledSignal,
    SampledSymbol,
    TailTruncationWarning,
    as_exponent,
    inner_product,
    make_grid,
    make_signal,
    make_symbol,
    max_alias_free_lambda,
    modulate,
    phase_space_symbol,
    sample,
    translate,
)
from .transforms import (
    fourier,
    gaussian_stft_oracle,
    gaussian_stft_symbol,
    inverse_fourier,
    stft,
    synthesis,
    window_domination_check,
)
from .norms import (
    NormSpec,
    amalgam_norm,
    evaluate_norm,
    flp_norm,
    lp_norm,
    mixed_lplq,
    mixed_lpq,
    modulation_norm,
    modulation_norm_triebel,
    standard_window,
    symbol_mixed_norm,
    unit_standard_window,
)
from .families import (
    WindowSpec,
    bump,
    chirp_family,
    chirped_gaussian,
    gaussian_family,
    indicator,
    predicted_exponent,
    sharpness_symbol,
)
from .locop import (
    KernelMatrix,
    LrBounds,
    SchurReport,
    apply_locop,
    build_kernel,
    build_kernel_direct,
    kernel_action,
    opnorm_l2,
    opnorm_lr_bounds,
    schur_report,
    weak_pairing,
)
from .experiments import (
    LiebReport,
    LocopScanSettings,
    RegionVerdict,
    ScalingFitResult,
    SchurCaseResult,
    StftScanSettings,
    bandlimited_profile,
    bernstein_ratio_fit,
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

__version__ = "0.1.0"
