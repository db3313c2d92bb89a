"""Third-order frequency-domain analysis of Poisson branching-cluster processes.

Closed-form Bartlett spectra and third-order transforms for subcritical
Poisson branching clusters, reversible matched nulls (per-cluster sign
randomization and the monotone-kernel spectral match), lag-domain cumulant
reconstruction, finite-window odd orientation contrasts, small-frequency
asymptotics, and Monte-Carlo oracles validating every closed form.
"""

__version__ = "0.1.0"

from .kernels import (
    Exponential,
    Kernel,
    Lomax,
    Refused,
    SymmetricLaplace,
    TabulatedSymmetric,
    kernel_from_spec,
)
from .simulate import (
    EventSeries,
    ModelParams,
    ingest_events,
    simulate_window,
)
from .spectra import (
    b_complete,
    b_factorial,
    bartlett,
    borel_factorial3,
    envelope,
    im_b_diagonal,
)
from .match import MatchSpec, build_matched_kernel, phi_transform, pn_weights, rho_density
from .cumulant3 import CumulantGrid, contrast_mass_DH, invert_bispectrum, mu_g_freq, mu_g_time, odd_part
from .contrasts import (
    OddTestFunction,
    antisymmetrize,
    contrast_statistic,
    contrast_statistics,
    exact_mean,
    linearity_scan,
    smooth_quadrant_bump,
)
from .montecarlo import McEstimate, mc_b_complete, mc_cluster_m2, mean_periodogram, periodogram
from .asymptotics import MixtureZ, chi_alpha, delta_m, diag_limit_check, z_from_kernel

__all__ = [
    "__version__",
    "Refused",
    "Kernel", "Exponential", "Lomax", "SymmetricLaplace", "TabulatedSymmetric",
    "kernel_from_spec",
    "ModelParams", "EventSeries", "simulate_window", "ingest_events",
    "bartlett", "b_complete", "b_factorial", "im_b_diagonal",
    "borel_factorial3", "envelope",
    "MatchSpec", "rho_density", "pn_weights", "phi_transform", "build_matched_kernel",
    "CumulantGrid", "invert_bispectrum", "odd_part", "contrast_mass_DH",
    "mu_g_time", "mu_g_freq",
    "OddTestFunction", "antisymmetrize", "smooth_quadrant_bump",
    "contrast_statistic", "contrast_statistics", "exact_mean", "linearity_scan",
    "McEstimate", "mc_b_complete", "mc_cluster_m2", "periodogram", "mean_periodogram",
    "MixtureZ", "chi_alpha", "delta_m", "z_from_kernel", "diag_limit_check",
]
