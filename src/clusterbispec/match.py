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

The bases are the ``monotone`` families (one-sided exponential, Lomax and
uniform); each declares h * hcheck in closed form, so rho_h is exact and cheap.
A matched kernel holds rho_h as one ``kernels.EvenTable`` and draws each
summand from it, whether it was just built or reloaded from a file.  A kernel
built from its base keeps the exact transform phi_transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (EvenTable, InvalidKernel, Kernel, Refused, UniformHalf, array_key,
                      readonly)

__all__ = [
    "MatchSpec",
    "MatchedKernel",
    "NegativeDensity",
    "BranchViolation",
    "rho_density",
    "pn_weights",
    "phi_transform",
    "build_matched_kernel",
    "save_matched_kernel",
    "load_matched_kernel",
]

PN_TRUNCATION_EPS = 1e-12   # tail mass of p_n folded into its last entry
RHO_TABLE_SIZE = 4096       # points of the rho_h table of a built kernel


class NegativeDensity(RuntimeError):
    """rho_h went negative beyond rounding."""


class BranchViolation(RuntimeError):
    """Radicand fell below (1-m)^2 beyond numerical tolerance."""


@dataclass(frozen=True)
class MatchSpec:
    """Inputs of the spectral match: a monotone base (exp, lomax or uhalf) and m."""

    base: Kernel
    m: float

    def __post_init__(self):
        if not self.base.monotone:
            raise InvalidKernel("spectral match needs a monotone one-sided base, "
                                f"got {type(self.base).__name__}")
        object.__setattr__(self, "_pn", pn_weights(self.m, PN_TRUNCATION_EPS))

    _pn: np.ndarray = field(init=False, repr=False, compare=False)


def pn_weights(m: float, eps: float = PN_TRUNCATION_EPS) -> np.ndarray:
    """Random-sum size distribution p_n, truncated at tail mass eps.

    Computed by the stable ratio recurrence
    p_{n+1} = p_n (2n-1) m(2-m) / (2(n+1)) from p_1 = (2-m)/2; the final
    entry absorbs the truncated residual so the vector sums to one.  An m so
    near 1 that more than 1e6 terms are needed is :class:`Refused`.
    """
    if not (0.0 < m < 1.0 and 0.0 < eps < 1.0):
        raise ValueError(f"need 0 < m < 1 and 0 < eps < 1, got m = {m}, eps = {eps}")
    p = [(2.0 - m) / 2.0]
    total, carry = p[0], 0.0  # compensated (Neumaier) sum: total + carry
    factor = m * (2.0 - m)
    limit = f"p_n at m = {m:g} needs more than its limit of 1e6 terms to reach tail mass {eps:g}"
    # p_{N+1} = p_1 q^N Gamma(N + 1/2) / (sqrt(pi) Gamma(N + 2)), q = m(2-m); the ratios
    # p_{n+1}/p_n rise with n, so p_{N+1} / (1 - r_{N+1}) bounds the tail past N terms
    # from below.  The loop sums the terms of its rounded p_1 and q, which add up exactly to
    # 1 + dev (to first order, dev = d1 + dq / (2 (1-m)(2-m)) with d1 = p_1's relative
    # rounding and dq = q's absolute one, both exact rationals).  Refuse up front when the
    # N-term sum 1 + dev - tail falls short of 1 - eps by more than the loop's own rounding
    # (three roundings a term, weighted by the tail past it, into a compensated total): that
    # stayed within 1.4 ulps of the doubles below 1 (2^-53) at every m measured near the
    # edge, and the margin is 16 of them.  Where it does not decide, the loop runs and its
    # own check refuses.
    n_max = 10**6
    log_next = (math.log(p[0]) + n_max * math.log(factor) + math.lgamma(n_max + 0.5)
                - math.lgamma(n_max + 2.0) - 0.5 * math.log(math.pi))
    ratio = (2 * n_max + 1) * factor / (2 * (n_max + 2))
    (mn, md), (pn, pd), (qn, qd) = (v.as_integer_ratio() for v in (m, p[0], factor))
    two_m = 2 * md - mn                                          # (2 - m) md
    d1 = (2 * pn * md - pd * two_m) / (pd * two_m)              # exact, then rounded once
    dq = (qn * md * md - qd * mn * two_m) / (qd * md * md)
    dev = d1 + dq / (2.0 * (1.0 - m) * (2.0 - m))
    if math.exp(log_next) / (1.0 - ratio) - dev > eps + 16 * 2.0**-53:
        raise Refused(limit)
    while total + carry < 1.0 - eps:
        n = len(p)
        p.append(p[-1] * (2 * n - 1) * factor / (2 * (n + 1)))
        # p_n falls with n, so total >= p_n and Neumaier's other branch never runs
        t = total + p[-1]
        carry += (total - t) + p[-1]
        total = t
        if len(p) > n_max:
            raise Refused(limit)
    out = np.asarray(p)
    out[-1] += 1.0 - out.sum()
    return out


def rho_density(spec: MatchSpec, x):
    """Even symmetric building block rho_h."""
    x = np.asarray(x, dtype=float)
    base, m = spec.base, spec.m
    out = (base.density(np.abs(x)) - m * base.autocorrelation(x)) / (2.0 - m)
    if np.any(out < -1e-12):
        raise NegativeDensity(
            f"rho_h < 0 at |x|={float(np.abs(x).flat[int(np.argmin(out))]):g}"
        )
    out = np.clip(out, 0.0, None)
    return out if x.ndim else float(out)


def _phi_hat(m, rho_hat):
    """(1 - sqrt(1 - m(2-m) rhohat)) / m, the radicand clipped at (1-m)^2."""
    radicand = 1.0 - m * (2.0 - m) * rho_hat
    return (1.0 - np.sqrt(np.clip(radicand, (1.0 - m) ** 2, None))) / m


def phi_transform(spec: MatchSpec, omega):
    """Transform of the matched even density; real with magnitude <= 1."""
    hh = np.asarray(spec.base.transform(omega))
    m = spec.m
    rho_hat = (2.0 * hh.real - m * np.abs(hh) ** 2) / (2.0 - m)
    # the radicand falls below (1-m)^2 (1 - 1e-9) exactly when rhohat exceeds this
    if np.any(rho_hat > 1.0 + 1e-9 * (1.0 - m) ** 2 / (m * (2.0 - m))):
        raise BranchViolation(
            f"rhohat {float(np.max(rho_hat)):.12g} > 1: radicand below (1-m)^2 guard"
        )
    out = _phi_hat(m, rho_hat)
    return out if np.ndim(omega) else float(out)


# ---------------------------------------------------------------------------
# the matched kernel object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedKernel(Kernel):
    """Even offspring kernel realizing the reversible spectral match.

    Holds rho_h as one EvenTable (``rho_x`` from 0, strictly increasing, and
    ``rho_vals``) and the p_n weights; a draw is a p_n-sized sum of the
    table's draws.  A kernel built from a MatchSpec transforms exactly
    (phi_transform) and takes its summand tail quantile from the base; a
    kernel reloaded from a file (``spec`` None) takes both from the table.
    It has no density or survival function (Kernel's raise
    NotImplementedError); nothing needs them, and the sampler defines the law.
    The object is immutable and safe to share.
    """

    m: float
    pn: np.ndarray = field(compare=False)
    rho_x: np.ndarray = field(compare=False)
    rho_vals: np.ndarray = field(compare=False)
    spec: MatchSpec | None = None
    base_label: str = ""
    symmetric = True
    _key: tuple = field(init=False, repr=False)   # == and hash see the tables

    def __post_init__(self):
        pn = readonly(self.pn)
        if not (0.0 < self.m < 1.0):
            raise InvalidKernel(f"matched kernel: m must lie in (0, 1), got {self.m}")
        if (pn.ndim != 1 or pn.size == 0 or not np.all(np.isfinite(pn))
                or np.any(pn < 0.0) or abs(pn.sum() - 1.0) > 1e-12):
            raise InvalidKernel("matched kernel: pn must be finite, non-negative and sum to 1")
        rho = EvenTable(self.rho_vals, grid=self.rho_x)
        for name, a in (("pn", pn), ("rho_x", rho.grid), ("rho_vals", rho.values), ("_rho", rho),
                        ("_key", array_key(pn, rho.grid, rho.values)), ("_pn_cum", np.cumsum(pn))):
            object.__setattr__(self, name, a)

    # -- transform ----------------------------------------------------------
    def transform(self, omega):
        out = (_phi_hat(self.m, self._rho.transform(omega).real) if self.spec is None
               else phi_transform(self.spec, omega))
        return np.asarray(out, dtype=complex) if np.ndim(omega) else complex(out)

    # -- sampling -----------------------------------------------------------
    def sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        K = np.searchsorted(self._pn_cum, rng.random(n), side="right") + 1
        bounds = np.concatenate([[0], np.cumsum(K)])
        csum = np.concatenate([[0.0], np.cumsum(self._rho.sample(rng, int(bounds[-1])))])
        sums = csum[bounds[1:]] - csum[bounds[:-1]]
        return float(sums[0]) if size is None else sums

    # -- tails ---------------------------------------------------------------
    def tail_quantile(self, eps):
        """Conservative: P(K > K*) <= eps/2 plus a union bound over the K* summands.

        A summand's quantile is its base's, or for a reloaded kernel its table's.
        """
        k_star = int(np.searchsorted(self._pn_cum, 1.0 - eps / 2.0) + 1)
        per = eps * (2.0 - self.m) / (4.0 * k_star)
        base = self._rho if self.spec is None else self.spec.base
        return k_star * base.tail_quantile(per)

    def spec_string(self):
        return f"match:{self.base_label}:{self.m:g}"


def build_matched_kernel(spec: MatchSpec) -> MatchedKernel:
    """Matched kernel of spec: exact transform, rho_h tabulated in closed form.

    The table grid is linear through the bulk and geometric out to the base's
    1e-10 tail quantile, so heavy-tailed bases keep their core resolved; a
    uniform base's grid is linear on its support [0, a].
    """
    base = spec.base
    if isinstance(base, UniformHalf):
        # rho_h lives on [0, a] and drops to 0 there: the table spans the
        # support, and a knot just past a keeps the jump sharp
        xs = np.append(np.linspace(0.0, base.a, RHO_TABLE_SIZE), np.nextafter(base.a, np.inf))
    else:
        x_mid = max(8.0 * base.tail_quantile(0.5), 1e-3)
        x_max = max(base.tail_quantile(1e-10), 2.0 * x_mid)
        xs = np.concatenate([np.linspace(0.0, x_mid, RHO_TABLE_SIZE // 2, endpoint=False),
                             np.geomspace(x_mid, x_max, RHO_TABLE_SIZE - RHO_TABLE_SIZE // 2)])
    return MatchedKernel(m=spec.m, pn=spec._pn, rho_x=xs, rho_vals=rho_density(spec, xs),
                         spec=spec, base_label=base.spec_string())


def save_matched_kernel(kernel: MatchedKernel, path) -> None:
    """Persist the match as its rho table + p_n table + metadata."""
    doc = {
        "kind": "matched-kernel",
        "m": kernel.m,
        "base": kernel.base_label,
        "pn": kernel.pn.tolist(),
        "rho_x": kernel.rho_x.tolist(),
        "rho_density": kernel.rho_vals.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_matched_kernel(path) -> MatchedKernel:
    """Reload a saved match; InvalidKernel for an unreadable file or a missing or
    malformed field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: not JSON, or not text
        raise InvalidKernel(f"{path}: cannot read a matched-kernel file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "matched-kernel":
        raise InvalidKernel(f"{path}: not a matched-kernel file")
    try:
        fields = {"m": float(doc["m"]), "pn": np.asarray(doc["pn"], dtype=float),
                  "rho_x": np.asarray(doc["rho_x"], dtype=float),
                  "rho_vals": np.asarray(doc["rho_density"], dtype=float)}
    except KeyError as exc:
        raise InvalidKernel(f"{path}: matched-kernel file lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidKernel(f"{path}: malformed matched-kernel field: {exc}") from exc
    return MatchedKernel(**fields, base_label=str(doc.get("base", "saved")))
