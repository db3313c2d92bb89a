"""Small-frequency constants and limit checks for the diagonal orientation signal.

The kernel family sets how |Im B_fac(t, t)| behaves as t -> 0:

  * Lomax with alpha <= 2 (regularly varying survival with index alpha and
    slowly varying level 1):  |Im B(t,t)| / t^alpha -> lam m^2 chi_alpha
    / (1-m)^5, with chi_alpha = 2(2 - 2^alpha) C(alpha) away from {1, 2},
    4 log 2 at alpha = 1 and 2 pi at alpha = 2;
  * Lomax with 2 < alpha <= 3 (finite second, infinite third moment):
    |Im B(t,t)| / t^3 diverges;
  * every other exp, lomax or uhalf kernel (monotone, finite third moment):
    |Im B(t,t)| / t^3 -> lam m^2 Delta_m(Z) / (2 (1-m)^6), where X = Y Z is
    the scale-mixture representation (Y uniform on (0,1)) and
    Delta_m(Z) = (1-m){E Z^3 - E Z E Z^2} + m E Z Var(Z), zero for uhalf.

Any other kernel (symmetric, tabulated or matched) has no limit here and is
refused with NonMonotoneKernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Exponential, Kernel, Lomax, UniformHalf
from .simulate import ModelParams
from .spectra import im_b_diagonal

__all__ = [
    "MixtureZ",
    "AlphaOutOfRange",
    "NonMonotoneKernel",
    "c_alpha",
    "s_alpha",
    "chi_alpha",
    "delta_m",
    "z_from_kernel",
    "DiagLimitReport",
    "diag_limit_check",
    "mixture_moment_check",
]

_UNDERFLOW = 1e-14
DIAG_REL_TOL = 0.05    # smallest-t ratio within this of 1 counts as converged
MOMENT_K_SIGMA = 4.0   # z-score band of mixture_moment_check
# the monotone one-sided families, the bases the spectral match accepts too
_MONOTONE_FAMILIES = (Exponential, Lomax, UniformHalf)


class AlphaOutOfRange(ValueError):
    """Tail index outside the domain of a small-frequency constant."""


class NonMonotoneKernel(ValueError):
    """Scale-mixture representation needs a nonincreasing one-sided density."""


@dataclass(frozen=True)
class MixtureZ:
    """Raw moments E Z, E Z^2, E Z^3 (possibly inf) of the mixing scale Z of X = Y Z."""

    ez: float
    ez2: float
    ez3: float

    def moments(self) -> tuple[float, float, float]:
        return self.ez, self.ez2, self.ez3

    def __post_init__(self):
        if not (self.ez > 0 and self.ez2 > 0):
            raise ValueError("mixing moments must be positive")
        if self.ez2 < self.ez**2 * (1.0 - 1e-12):
            raise ValueError("E Z^2 < (E Z)^2 violates Jensen")


def c_alpha(alpha: float) -> float:
    """C(alpha) = (pi/2) / (Gamma(alpha) cos(pi alpha / 2)), alpha in (0,2) \\ {1}."""
    if not (0.0 < alpha < 2.0 and alpha != 1.0):
        raise AlphaOutOfRange(f"C(alpha) needs alpha in (0, 1) or (1, 2), got {alpha}")
    return (math.pi / 2.0) / (math.gamma(alpha) * math.cos(math.pi * alpha / 2.0))


def s_alpha(alpha: float) -> float:
    """S(alpha) = (pi/2) / (Gamma(alpha) sin(pi alpha / 2)), alpha in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"S(alpha) needs alpha in (0, 2), got {alpha}")
    return (math.pi / 2.0) / (math.gamma(alpha) * math.sin(math.pi * alpha / 2.0))


def chi_alpha(alpha: float) -> float:
    """Diagonal small-frequency constant; continuous across the case split."""
    if not (0.0 < alpha <= 2.0):
        raise AlphaOutOfRange(f"tail index must lie in (0, 2], got {alpha}")
    if alpha == 1.0:
        return 4.0 * math.log(2.0)
    if alpha == 2.0:
        return 2.0 * math.pi
    return 2.0 * (2.0 - 2.0**alpha) * c_alpha(alpha)


def delta_m(z: MixtureZ, m: float) -> float:
    """(1-m){E Z^3 - E Z E Z^2} + m E Z Var(Z); +inf when E Z^3 = inf.

    Vanishes only for deterministic Z, i.e. only for the one-sided uniform
    kernel; always at least m E Z Var(Z).
    """
    if not (0.0 < m < 1.0):
        raise ValueError(f"branching ratio m must lie in (0, 1), got {m}")
    ez, ez2, ez3 = z.moments()
    if not math.isfinite(ez3):
        return math.inf
    return (1.0 - m) * (ez3 - ez * ez2) + m * ez * (ez2 - ez * ez)


def z_from_kernel(kernel: Kernel) -> MixtureZ:
    """Mixing law of the uniform scale mixture for a monotone one-sided kernel.

    Uses E Z^p = (p+1) E X^p; exponential kernels map to Gamma(2, beta), the
    one-sided uniform to the deterministic scale, and Lomax to its closed-form
    moments.  Any kernel outside these families raises NonMonotoneKernel.
    """
    if not isinstance(kernel, _MONOTONE_FAMILIES):
        raise NonMonotoneKernel(
            f"scale mixture needs an exp, lomax or uhalf kernel, got {type(kernel).__name__}")
    if isinstance(kernel, UniformHalf):
        a = kernel.a   # products, not powers: E Z^3 - E Z E Z^2 cancels to exactly 0
        return MixtureZ(a, a * a, a * a * a)
    if isinstance(kernel, Exponential):
        b = kernel.beta
        return MixtureZ(2.0 / b, 6.0 / b**2, 24.0 / b**3)
    ex = [kernel.moment(p) for p in (1, 2, 3)]
    if not all(math.isfinite(v) for v in ex[:2]):
        raise ValueError("mixture moments need a finite second kernel moment")
    return MixtureZ(2.0 * ex[0], 3.0 * ex[1], 4.0 * ex[2] if math.isfinite(ex[2]) else math.inf)


@dataclass(frozen=True)
class DiagLimitReport:
    """Per-t diagonal ratios against the predicted small-frequency limit."""

    t_values: np.ndarray
    im_values: np.ndarray
    ratios: np.ndarray          # |Im B(t,t)| / t^p over the limit
    power: float
    limit: float                # predicted lim |Im B| / t^p; inf in the divergent band
    regime: str                 # 'regularly_varying' | 'finite_third_moment' | 'divergent'
    underflow: np.ndarray       # per-t flag: |Im B| below the underflow floor
    converged: bool

    def summary(self) -> str:
        lines = [f"regime={self.regime} power={self.power:g} limit={self.limit:g} "
                 f"converged={self.converged}"]
        for t, v, r, u in zip(self.t_values, self.im_values, self.ratios, self.underflow):
            tag = " (underflow)" if u else ""
            lines.append(f"  t={t:<10g} ImB={v:+.6e} ratio={r:.6f}{tag}")
        return "\n".join(lines)


def diag_limit_check(params: ModelParams, t_list=None) -> DiagLimitReport:
    """Check |Im B_fac(t, t)| against its predicted small-t behavior.

    The kernel family sets the regime and its power (module docstring); a
    kernel outside exp, lomax and uhalf raises NonMonotoneKernel.  In the
    divergent band only the growth of |Im B| / t^3 is checked; otherwise
    ``converged`` requires a monotone approach with the smallest-t ratio
    within DIAG_REL_TOL of 1.
    """
    kernel = params.kernel
    if not isinstance(kernel, _MONOTONE_FAMILIES):
        raise NonMonotoneKernel(f"no diagonal limit for kernel {kernel.spec_string()}: "
                                "it needs an exp, lomax or uhalf kernel")
    t = np.asarray([1e-1, 1e-2, 1e-3, 1e-4] if t_list is None else t_list, dtype=float)
    if np.any(np.diff(t) >= 0) or np.any(t <= 0):
        raise ValueError("t_list must be positive and strictly decreasing")
    imb = np.asarray([float(im_b_diagonal(params, ti)) for ti in t])
    under = np.abs(imb) < _UNDERFLOW
    lam, m = params.lam, params.m

    alpha = kernel.alpha if isinstance(kernel, Lomax) else math.inf
    if alpha <= 2.0:
        power, regime = alpha, "regularly_varying"
        limit = lam * m**2 * chi_alpha(alpha) / (1.0 - m) ** 5
    elif alpha <= 3.0:
        power, limit, regime = 3.0, math.inf, "divergent"
    else:
        power, regime = 3.0, "finite_third_moment"
        limit = lam * m**2 * delta_m(z_from_kernel(kernel), m) / (2.0 * (1.0 - m) ** 6)

    normalized = np.abs(imb) / t**power
    if regime == "divergent":
        ratios = normalized
        converged = bool(np.all(np.diff(normalized) > 0))
    elif limit == 0.0:
        ratios = normalized
        converged = bool(np.all(under))
    else:
        ratios = normalized / limit
        gaps = np.abs(ratios - 1.0)
        converged = bool(gaps[-1] <= DIAG_REL_TOL and np.all(np.diff(gaps) <= 1e-9)
                         and not under[-1])
    return DiagLimitReport(t, imb, ratios, power, limit, regime, under, converged)


def mixture_moment_check(kernel: Kernel, p_exponent: int, n_samples, seed) -> dict:
    """Monte-Carlo check of E X^p = E Z^p / (p + 1) for a monotone kernel, to MOMENT_K_SIGMA."""
    z = z_from_kernel(kernel)
    target = z.moments()[p_exponent - 1] / (p_exponent + 1.0)
    if not math.isfinite(target):
        raise ValueError(f"E X^{p_exponent} is infinite for this kernel")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = kernel.sample(rng, int(n_samples)) ** p_exponent
    est = float(draws.mean())
    se = float(draws.std(ddof=1) / math.sqrt(len(draws)))
    zscore = (est - target) / se
    return {
        "kernel": kernel.spec_string(),
        "p": int(p_exponent),
        "estimate": est,
        "target": float(target),
        "stderr": se,
        "z": float(zscore),
        "k": MOMENT_K_SIGMA,
        "pass": bool(abs(zscore) <= MOMENT_K_SIGMA),
    }
