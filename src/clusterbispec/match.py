"""Reversible spectral match for monotone one-sided kernels.

A nonincreasing one-sided density h with branching ratio m admits an even
offspring density phi_h whose branching model reproduces the full Bartlett
spectrum of the one-sided model.  The construction runs through

    rho_h(x)   = (h(|x|) - m (h * hcheck)(x)) / (2 - m),
    p_n        = (2n-2)! / (2^{2n-1} n! (n-1)!) * [m(2-m)]^n / m,
    phihat(w)  = (1 - sqrt(1 - m(2-m) rhohat(w))) / m,

with rhohat(w) = (2 Re hhat(w) - m |hhat(w)|^2) / (2 - m) and the positive
real square root; the radicand equals |1 - m hhat(w)|^2 >= (1-m)^2.  A draw
from phi_h is a p_n-sized random sum of rho_h draws.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad, trapezoid

from .kernels import Exponential, InvalidKernel, Kernel, TailClass, array_key, readonly

__all__ = [
    "MatchSpec",
    "MatchedKernel",
    "NegativeDensity",
    "BranchViolation",
    "RejectionStall",
    "rho_density",
    "pn_weights",
    "phi_transform",
    "sample_match",
    "build_matched_kernel",
    "save_matched_kernel",
    "load_matched_kernel",
]

REJECTION_STALL_LIMIT = 10**4
_MONOTONE_SLACK = 1e-12


class NegativeDensity(RuntimeError):
    """rho_h went negative: a non-monotone base slipped past validation."""


class BranchViolation(RuntimeError):
    """Radicand fell below (1-m)^2 beyond numerical tolerance."""


class RejectionStall(RuntimeError):
    """Rejection sampler made no progress; signals a density bug."""


@dataclass(frozen=True)
class MatchSpec:
    """Inputs of the spectral match: monotone one-sided base kernel and m."""

    base: Kernel
    m: float
    pn_truncation_eps: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.m < 1.0):
            raise ValueError(f"branching ratio m must lie in (0, 1), got {self.m}")
        if not (0.0 < self.pn_truncation_eps < 1.0):
            raise ValueError("pn_truncation_eps must lie in (0, 1)")
        if not self.base.one_sided:
            raise InvalidKernel("spectral match requires a one-sided base kernel")
        # monotonicity probe on a quantile-spanning grid, small slack for ties
        xs = np.linspace(0.0, self.base.tail_quantile(1e-9), 1000)[1:]
        dens = self.base.density(xs)
        if np.any(np.diff(dens) > _MONOTONE_SLACK):
            raise InvalidKernel("base density must be nonincreasing on (0, inf)")
        object.__setattr__(self, "_pn", pn_weights(self.m, self.pn_truncation_eps))
        object.__setattr__(self, "_pn_cum", np.cumsum(self._pn))
        object.__setattr__(self, "_accept", _AcceptTable(self))

    _pn: np.ndarray = field(init=False, repr=False, compare=False)
    _pn_cum: np.ndarray = field(init=False, repr=False, compare=False)
    _accept: "_AcceptTable" = field(init=False, repr=False, compare=False)


def pn_weights(m: float, eps: float = 1e-12) -> np.ndarray:
    """Random-sum size distribution p_n, truncated at tail mass eps.

    Computed by the stable ratio recurrence
    p_{n+1} = p_n (2n-1) m(2-m) / (2(n+1)) from p_1 = (2-m)/2; the final
    entry absorbs the truncated residual so the vector sums to one.
    """
    if not (0.0 < m < 1.0 and 0.0 < eps < 1.0):
        raise ValueError("need 0 < m < 1 and 0 < eps < 1")
    p = [(2.0 - m) / 2.0]
    total = p[0]
    factor = m * (2.0 - m)
    while total < 1.0 - eps:
        n = len(p)
        p.append(p[-1] * (2 * n - 1) * factor / (2 * (n + 1)))
        total += p[-1]
        if len(p) > 10**6:
            raise RuntimeError("p_n truncation did not converge")
    out = np.asarray(p)
    out[-1] += 1.0 - out.sum()
    return out


def _convolution(base: Kernel, x: float) -> float:
    """(h * hcheck)(x) = int_0^inf h(|x|+u) h(u) du for a one-sided base.

    The semi-infinite QAGI transform handles the heavy tails; mass beyond
    the 1e-12 survival quantile is below the 1e-10 tolerance by monotone
    domination of the integrand.
    """
    ax = abs(x)

    def integrand(u):
        return base.density(ax + u) * base.density(u)

    with warnings.catch_warnings():
        # far-tail evaluations trip quad's roundoff heuristic at values far
        # below the absolute tolerance; the error estimate is still checked
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(integrand, 0.0, np.inf, epsabs=1e-10, limit=300)
    if err > 1e-8:
        raise RuntimeError(f"convolution quadrature error {err:.2e} at x={ax:g}")
    return val


def rho_density(spec: MatchSpec, x):
    """Even symmetric building block rho_h; closed form for exponential bases."""
    x = np.asarray(x, dtype=float)
    base, m = spec.base, spec.m
    if isinstance(base, Exponential):
        out = 0.5 * base.beta * np.exp(-base.beta * np.abs(x))
        return out if x.ndim else float(out)
    h_abs = base.density(np.abs(x))
    conv = np.array([_convolution(base, xi) for xi in np.atleast_1d(x)]).reshape(x.shape)
    out = (h_abs - m * conv) / (2.0 - m)
    if np.any(out < -1e-12):
        raise NegativeDensity(
            f"rho_h < 0 at |x|={float(np.abs(x).flat[int(np.argmin(out))]):g}"
        )
    out = np.clip(out, 0.0, None)
    return out if x.ndim else float(out)


def phi_transform(spec: MatchSpec, omega):
    """Transform of the matched even density; real with magnitude <= 1."""
    hh = np.asarray(spec.base.transform(omega))
    m = spec.m
    rho_hat = (2.0 * hh.real - m * np.abs(hh) ** 2) / (2.0 - m)
    radicand = 1.0 - m * (2.0 - m) * rho_hat
    floor = (1.0 - m) ** 2 * (1.0 - 1e-9)
    if np.any(radicand < floor):
        raise BranchViolation(
            f"radicand {float(np.min(radicand)):.3e} below (1-m)^2 guard"
        )
    out = (1.0 - np.sqrt(np.clip(radicand, (1.0 - m) ** 2, None))) / m
    return out if np.ndim(omega) else float(out)


class _AcceptTable:
    """Acceptance probability rho(x)(2-m)/h(|x|) for the rejection sampler.

    Exponential bases have the constant ratio (2-m)/2; other bases get a
    quad-backed table on a half-linear/half-geometric grid, clamped at the
    far tail (mass below 1e-13).
    """

    def __init__(self, spec: MatchSpec):
        self.constant = None
        if isinstance(spec.base, Exponential):
            self.constant = (2.0 - spec.m) / 2.0
            return
        base, m = spec.base, spec.m
        x_mid = max(base.tail_quantile(0.5), 1e-6)
        x_max = base.tail_quantile(1e-13)
        grid = np.concatenate([
            np.linspace(0.0, x_mid, 512, endpoint=False),
            np.geomspace(x_mid, x_max, 512),
        ])
        conv = np.array([_convolution(base, x) for x in grid])
        dens = base.density(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dens > 0, 1.0 - m * conv / np.where(dens > 0, dens, 1.0), 1.0 - m)
        if np.any(ratio < -1e-9):
            raise NegativeDensity("acceptance ratio went negative")
        self.x = grid
        self.ratio = np.clip(ratio, 0.0, 1.0)

    def __call__(self, x):
        if self.constant is not None:
            return np.full(np.shape(x), self.constant)
        return np.interp(np.abs(x), self.x, self.ratio)


def _sample_rho(spec: MatchSpec, rng, n: int) -> np.ndarray:
    """n draws from rho_h: symmetric two-sided base proposal plus thinning."""
    out = np.empty(n)
    filled = 0
    rejected_run = 0
    while filled < n:
        need = n - filled
        mag = spec.base.sample(rng, need)
        sign = np.where(rng.random(need) < 0.5, -1.0, 1.0)
        accept = rng.random(need) < spec._accept(mag)
        got = int(accept.sum())
        if got == 0:
            rejected_run += need
            if rejected_run >= REJECTION_STALL_LIMIT:
                raise RejectionStall(
                    f"{rejected_run} consecutive rejections; expected rate >= 1/2"
                )
            continue
        rejected_run = 0
        vals = (sign * mag)[accept]
        take = min(got, need)
        out[filled:filled + take] = vals[:take]
        filled += take
    return out


def sample_match(spec: MatchSpec, rng, size=None):
    """Draw from the matched density phi_h as a p_n-sized sum of rho_h draws."""
    n = 1 if size is None else int(size)
    K = np.searchsorted(spec._pn_cum, rng.random(n), side="right") + 1
    total = int(K.sum())
    draws = _sample_rho(spec, rng, total)
    bounds = np.concatenate([[0], np.cumsum(K)])
    csum = np.concatenate([[0.0], np.cumsum(draws)])
    sums = csum[bounds[1:]] - csum[bounds[:-1]]
    return float(sums[0]) if size is None else sums


# ---------------------------------------------------------------------------
# the matched kernel object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedKernel(Kernel):
    """Even offspring kernel realizing the reversible spectral match.

    Built from a live MatchSpec (exact transform from the base kernel,
    rejection sampler) or reloaded from a saved rho/p_n table (trapezoid
    transform, inverse-CDF sampler).  Density and survival come from a
    lazily built lattice inversion table; the build step is single-threaded,
    after which the object is immutable and safe to share.
    """

    m: float
    pn: np.ndarray = field(compare=False)
    spec: MatchSpec | None = None
    rho_x: np.ndarray | None = field(default=None, compare=False)  # uniform half-grid, table mode
    rho_vals: np.ndarray | None = field(default=None, compare=False)
    base_label: str = ""
    symmetric = True
    _key: tuple = field(init=False, repr=False)   # == and hash see the tables

    def __post_init__(self):
        for name in ("pn", "rho_x", "rho_vals"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        object.__setattr__(self, "_key", array_key(self.pn, self.rho_x, self.rho_vals))
        object.__setattr__(self, "_pn_cum", np.cumsum(self.pn))
        object.__setattr__(self, "_table", None)

    # -- transform ----------------------------------------------------------
    def transform(self, omega):
        if self.spec is not None:
            out = phi_transform(self.spec, omega)
        else:
            w = np.atleast_1d(np.asarray(omega, dtype=float))
            phases = np.cos(np.multiply.outer(w, self.rho_x))
            rho_hat = 2.0 * trapezoid(phases * self.rho_vals, self.rho_x, axis=-1)
            radicand = np.clip(1.0 - self.m * (2.0 - self.m) * rho_hat,
                               (1.0 - self.m) ** 2, None)
            out = (1.0 - np.sqrt(radicand)) / self.m
            if np.ndim(omega) == 0:
                out = float(out[0])
        return np.asarray(out, dtype=complex) if np.ndim(omega) else complex(out)

    def _rho_half_cdf(self):
        seg = 0.5 * (self.rho_vals[1:] + self.rho_vals[:-1]) * np.diff(self.rho_x)
        return np.concatenate([[0.0], np.cumsum(seg)])

    # -- sampling -----------------------------------------------------------
    def sample(self, rng, size=None):
        if self.spec is not None:
            return sample_match(self.spec, rng, size)
        n = 1 if size is None else int(size)
        K = np.searchsorted(self._pn_cum, rng.random(n), side="right") + 1
        total = int(K.sum())
        cdf = self._rho_half_cdf()
        cdf = cdf / cdf[-1]
        mag = np.interp(rng.random(total), cdf, self.rho_x)
        sign = np.where(rng.random(total) < 0.5, -1.0, 1.0)
        draws = sign * mag
        bounds = np.concatenate([[0], np.cumsum(K)])
        csum = np.concatenate([[0.0], np.cumsum(draws)])
        sums = csum[bounds[1:]] - csum[bounds[:-1]]
        return float(sums[0]) if size is None else sums

    # -- density / survival via a lattice inversion table --------------------
    def _density_table(self):
        if self._table is None:
            # table range from the single-big-jump tail estimate
            # P(|Y| > q) ~ E[K] P(|Y_1| > q); aliasing mass ~ 1e-7
            mean_k = (2.0 - self.m) / (2.0 * (1.0 - self.m))
            per = 1e-7 * (2.0 - self.m) / (2.0 * mean_k)
            if self.spec is not None:
                x_max = self.spec.base.tail_quantile(per)
            else:
                cdf = self._rho_half_cdf()
                tail = 2.0 * (cdf[-1] - cdf)
                idx = int(np.searchsorted(-tail, -per))
                x_max = float(self.rho_x[min(idx, len(self.rho_x) - 1)])
            n = 1 << max(16, math.ceil(math.log2(max(2.0 * x_max / 0.01, 2.0))))
            n = min(n, 1 << 21)
            dx = 2.0 * x_max / n
            x = (np.arange(n) - n // 2) * dx
            rho = self._rho_on(np.abs(x))
            rho_hat = np.fft.fft(np.fft.ifftshift(rho)).real * dx
            radicand = np.clip(1.0 - self.m * (2.0 - self.m) * rho_hat,
                               (1.0 - self.m) ** 2, None)
            phi_hat = (1.0 - np.sqrt(radicand)) / self.m
            dens = np.fft.fftshift(np.fft.ifft(phi_hat).real) / dx
            dens = np.clip(dens, 0.0, None)
            half = x >= 0.0
            xs = x[half]
            ds = dens[half]
            seg = 0.5 * (ds[1:] + ds[:-1]) * dx
            cdf_half = np.concatenate([[0.0], np.cumsum(seg)])
            object.__setattr__(self, "_table", (xs, ds, cdf_half))
        return self._table

    def _rho_on(self, ax):
        if self.spec is not None:
            # rho = acceptance-ratio * h / (2 - m); reuses the cached ratio
            # table instead of one convolution quadrature per lattice point
            return (self.spec._accept(ax) * self.spec.base.density(ax)
                    / (2.0 - self.m))
        return np.interp(ax, self.rho_x, self.rho_vals, right=0.0)

    def density(self, x):
        xs, ds, _ = self._density_table()
        return np.interp(np.abs(np.asarray(x, dtype=float)), xs, ds, right=0.0)

    def survival(self, x):
        xs, _, cdf_half = self._density_table()
        x = np.asarray(x, dtype=float)
        half = np.interp(np.abs(x), xs, cdf_half, right=cdf_half[-1])
        half = np.minimum(half, 0.5)
        return np.where(x >= 0, 0.5 - half, 0.5 + half)

    # -- tails ---------------------------------------------------------------
    def tail_quantile(self, eps):
        """Conservative: P(K > K*) <= eps/2 plus a union bound over the K* summands."""
        k_star = int(np.searchsorted(self._pn_cum, 1.0 - eps / 2.0) + 1)
        per = eps * (2.0 - self.m) / (4.0 * k_star)
        if self.spec is not None:
            u = self.spec.base.tail_quantile(per)
        else:
            # table mode: invert the rho tail directly
            cdf = self._rho_half_cdf()
            tail = 2.0 * (cdf[-1] - cdf)
            idx = int(np.searchsorted(-tail, -per))
            u = float(self.rho_x[min(idx, len(self.rho_x) - 1)])
        return k_star * u

    def tail_class(self):
        return TailClass("unknown")

    def spec_string(self):
        return f"match:{self.base_label}:{self.m:g}"


def build_matched_kernel(spec: MatchSpec) -> MatchedKernel:
    """Kernel whose transform is phi_transform and sampler is sample_match."""
    return MatchedKernel(m=spec.m, pn=spec._pn, spec=spec,
                         base_label=spec.base.spec_string())


def save_matched_kernel(kernel: MatchedKernel, path, n_rho: int = 4096) -> None:
    """Persist the match as a reloadable rho table + p_n table + metadata.

    The table grid is linear through the bulk and geometric into the far
    tail so heavy-tailed bases keep their core resolved.
    """
    if kernel.rho_x is not None:
        xs, vals = kernel.rho_x, kernel.rho_vals
    else:
        base = kernel.spec.base
        x_mid = max(8.0 * base.tail_quantile(0.5), 1e-3)
        x_max = max(base.tail_quantile(1e-10), 2.0 * x_mid)
        xs = np.concatenate([np.linspace(0.0, x_mid, n_rho // 2, endpoint=False),
                             np.geomspace(x_mid, x_max, n_rho - n_rho // 2)])
        vals = np.asarray(rho_density(kernel.spec, xs))
    doc = {
        "kind": "matched-kernel",
        "m": kernel.m,
        "base": kernel.base_label,
        "pn": kernel.pn.tolist(),
        "rho_x": xs.tolist(),
        "rho_density": vals.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_matched_kernel(path) -> MatchedKernel:
    """Reload a saved match; transform/sampler run off the stored tables."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "matched-kernel":
        raise InvalidKernel(f"{path}: not a matched-kernel file")
    return MatchedKernel(
        m=float(doc["m"]),
        pn=np.asarray(doc["pn"]),
        spec=None,
        rho_x=np.asarray(doc["rho_x"]),
        rho_vals=np.asarray(doc["rho_density"]),
        base_label=str(doc.get("base", "saved")),
    )
