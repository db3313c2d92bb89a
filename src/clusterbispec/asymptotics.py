"""Small-frequency constants and limit checks for the diagonal orientation signal.

Two regimes govern |Im B_fac(t, t)| as t -> 0 for one-sided kernels:

  * regularly varying survival with index alpha in (0, 2] and constant
    slowly varying level c:  |Im B(t,t)| / (c t^alpha) -> lam m^2 chi_alpha
    / (1-m)^5, with chi_alpha = 2(2 - 2^alpha) C(alpha) away from {1, 2},
    4 log 2 at alpha = 1 and 2 pi at alpha = 2;
  * monotone kernels with finite third mixing moment:  |Im B(t,t)| / t^3 ->
    lam m^2 Delta_m(Z) / (2 (1-m)^6), where X = Y Z is the scale-mixture
    representation (Y uniform on (0,1)) and
    Delta_m(Z) = (1-m){E Z^3 - E Z E Z^2} + m E Z Var(Z).

Only constant slowly varying levels are representable here; genuinely
non-constant L is refused rather than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Exponential, Kernel, Lomax, TailClass, UniformHalf
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
# the monotone one-sided families, the bases the spectral match accepts too
_MONOTONE_FAMILIES = (Exponential, Lomax, UniformHalf)


class AlphaOutOfRange(ValueError):
    """Tail index outside (0, 2]."""


class NonMonotoneKernel(ValueError):
    """Scale-mixture representation needs a nonincreasing one-sided density."""


@dataclass(frozen=True)
class MixtureZ:
    """Mixing scale Z of the representation X = Y Z, Y ~ Unif(0,1).

    kind: 'deterministic' (Z = a), 'gamma2' (Z ~ Gamma(2, rate beta), the
    exponential-kernel case), or 'moments' (first three raw moments, the
    third possibly infinite).
    """

    kind: str
    a: float | None = None
    beta: float | None = None
    ez: float | None = None
    ez2: float | None = None
    ez3: float | None = None

    def moments(self) -> tuple[float, float, float]:
        if self.kind == "deterministic":
            return self.a, self.a**2, self.a**3
        if self.kind == "gamma2":
            b = self.beta
            return 2.0 / b, 6.0 / b**2, 24.0 / b**3
        return self.ez, self.ez2, self.ez3

    def __post_init__(self):
        ez, ez2, _ = self.moments()
        if not (ez > 0 and ez2 > 0):
            raise ValueError("mixing moments must be positive")
        if ez2 < ez**2 * (1.0 - 1e-12):
            raise ValueError("E Z^2 < (E Z)^2 violates Jensen")


def c_alpha(alpha: float) -> float:
    """C(alpha) = (pi/2) / (Gamma(alpha) cos(pi alpha / 2)), alpha in (0,2) \\ {1}."""
    return (math.pi / 2.0) / (math.gamma(alpha) * math.cos(math.pi * alpha / 2.0))


def s_alpha(alpha: float) -> float:
    """S(alpha) = (pi/2) / (Gamma(alpha) sin(pi alpha / 2))."""
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
    return (1.0 - m) * (ez3 - ez * ez2) + m * ez * (ez2 - ez**2)


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
        return MixtureZ("deterministic", a=kernel.a)
    if isinstance(kernel, Exponential):
        return MixtureZ("gamma2", beta=kernel.beta)
    ex = [kernel.moment(p) for p in (1, 2, 3)]
    if not all(math.isfinite(v) for v in ex[:2]):
        raise ValueError("mixture moments need a finite second kernel moment")
    return MixtureZ("moments", ez=2.0 * ex[0], ez2=3.0 * ex[1],
                    ez3=4.0 * ex[2] if math.isfinite(ex[2]) else math.inf)


@dataclass(frozen=True)
class DiagLimitReport:
    """Per-t diagonal ratios against the predicted small-frequency limit."""

    t_values: np.ndarray
    im_values: np.ndarray
    ratios: np.ndarray          # |Im B(t,t)| / (t^p * level) over the limit
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


def diag_limit_check(params: ModelParams, tail: TailClass | None = None,
                     t_list=None, rel_tol: float = 0.05) -> DiagLimitReport:
    """Check |Im B_fac(t, t)| against its predicted small-t behavior.

    The limit and normalizing power come from the kernel's tail class:
    regularly varying tails use the chi_alpha route, finite-third-moment
    monotone kernels the Delta_m route, and the finite-second/infinite-third
    band only checks divergence of |Im B| / t^3.  ``converged`` requires a
    monotone approach with the smallest-t ratio within ``rel_tol`` of 1.
    """
    tail = tail or params.kernel.tail_class()
    t = np.asarray([1e-1, 1e-2, 1e-3, 1e-4] if t_list is None else t_list, dtype=float)
    if np.any(np.diff(t) >= 0) or np.any(t <= 0):
        raise ValueError("t_list must be positive and strictly decreasing")
    imb = np.asarray([float(im_b_diagonal(params, ti)) for ti in t])
    under = np.abs(imb) < _UNDERFLOW
    lam, m = params.lam, params.m

    if tail.kind == "regularly_varying":
        power = tail.index
        level = tail.level if tail.level is not None else 1.0
        limit = lam * m**2 * chi_alpha(tail.index) / (1.0 - m) ** 5 * level
        regime = "regularly_varying"
    elif tail.kind == "finite_third_moment" and isinstance(params.kernel, _MONOTONE_FAMILIES):
        power = 3.0
        z = z_from_kernel(params.kernel)
        limit = lam * m**2 * delta_m(z, m) / (2.0 * (1.0 - m) ** 6)
        regime = "finite_third_moment"
    elif tail.kind == "finite_second_moment":
        power = 3.0
        limit = math.inf
        regime = "divergent"
    else:
        raise ValueError(
            f"no diagonal limit available for tail class {tail.kind!r}; "
            "only constant slowly varying levels are supported")

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
        converged = bool(gaps[-1] <= rel_tol and np.all(np.diff(gaps) <= 1e-9)
                         and not under[-1])
    return DiagLimitReport(t, imb, ratios, power, limit, regime, under, converged)


def mixture_moment_check(kernel: Kernel, p_exponent: int, n_samples, seed,
                         k_sigma: float = 4.0) -> dict:
    """Monte-Carlo check of E X^p = E Z^p / (p + 1) for a monotone kernel."""
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
        "k": k_sigma,
        "pass": bool(abs(zscore) <= k_sigma),
    }
