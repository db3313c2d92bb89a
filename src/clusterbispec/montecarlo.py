"""Independent Monte-Carlo oracles for the closed-form spectra.

Every estimator averages i.i.d. per-cluster or per-replicate contributions,
reports a component-wise standard error, and is reproducible bit-for-bit
from its seed: chunks and replicates are consumed in a fixed order and
reduced deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .simulate import EventSeries, ModelParams, replicate_windows, sample_clusters_batch
from .spectra import b_complete, bartlett, borel_factorial3

__all__ = [
    "McEstimate",
    "mc_b_complete",
    "mc_cluster_m2",
    "periodogram",
    "mean_periodogram",
    "validate_suite",
    "SUITES",
]

_CHUNK = 200_000


@dataclass(frozen=True)
class McEstimate:
    """Mean of i.i.d. contributions with per-component standard errors."""

    value: complex
    stderr_re: float
    stderr_im: float

    def z(self, target) -> tuple[float, float]:
        """Component-wise z-scores of the estimate against a target value."""

        def one(diff, se):
            if se > 0.0:
                return diff / se
            return 0.0 if diff == 0.0 else math.inf

        target = complex(target)
        return (one(self.value.real - target.real, self.stderr_re),
                one(self.value.imag - target.imag, self.stderr_im))


def _cluster_means(params, n_clusters, seed, contributions, scale=1.0) -> list[McEstimate]:
    """scale times the mean over independent clusters of each per-cluster contribution.

    ``contributions(offs, cid, batch)`` maps one chunk of clusters (the
    offsets and ids ``sample_clusters_batch`` returns) to a list of
    per-cluster arrays, real or complex; only their sums and sums of squared
    parts are kept.
    Chunk order is fixed, so the reduction is deterministic for a given seed.
    """
    n = int(n_clusters)
    if n < 10**3:
        raise ValueError("need at least 1e3 clusters for a usable stderr")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    sums = None
    for done in range(0, n, _CHUNK):
        batch = min(_CHUNK, n - done)
        parts = contributions(*sample_clusters_batch(batch, params.m, params.kernel, rng)[:2], batch)
        sums = sums or [[0.0, 0.0, 0.0] for _ in parts]
        for s, v in zip(sums, parts):
            s[0] += v.sum()
            s[1] += (v.real**2).sum()
            if np.iscomplexobj(v):
                s[2] += (v.imag**2).sum()
    out = []
    for s1, s2r, s2i in sums:
        mean = s1 / n
        var_re = max((s2r - n * mean.real**2) / (n - 1), 0.0)
        var_im = max((s2i - n * mean.imag**2) / (n - 1), 0.0)
        out.append(McEstimate(scale * mean, abs(scale) * math.sqrt(var_re / n),
                              abs(scale) * math.sqrt(var_im / n)))
    return out


def _w_product(freqs, offs, cid, batch):
    """[prod_j W(freq_j)] per cluster, W(w) = sum of e^{-i w x} over its points."""
    order = np.argsort(cid, kind="stable")
    offs, cid = offs[order], cid[order]
    bounds = np.searchsorted(cid, np.arange(batch + 1))
    prod = np.ones(batch, dtype=complex)
    for w in freqs:
        cs = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-1j * float(w) * offs))])
        prod *= cs[bounds[1:]] - cs[bounds[:-1]]
    return [prod]


def mc_b_complete(params: ModelParams, w1, w2, n_clusters, seed) -> McEstimate:
    """nu E{W(w1) W(w2) W(-w1-w2)} over independent simulated clusters.

    This is the direct cluster-transform estimator of B_comp(w1, w2); no
    closed-form input enters, so it is a genuine oracle for the R/Q forms.
    """
    product = partial(_w_product, (w1, w2, -w1 - w2))
    return _cluster_means(params, n_clusters, seed, product, params.nu)[0]


def mc_cluster_m2(params: ModelParams, a, b, n_clusters, seed) -> McEstimate:
    """E{W(a) W(b)} over independent clusters; closed form is R(a)R(b)R(a+b)."""
    return _cluster_means(params, n_clusters, seed, partial(_w_product, (a, b)))[0]


def _size_powers(offs, cid, batch):
    """M, M^2 and M(M-1)(M-2) per cluster, M its total progeny."""
    sizes = np.bincount(cid, minlength=batch).astype(float)
    return [sizes, sizes**2, sizes * (sizes - 1.0) * (sizes - 2.0)]


def cluster_size_moments(params: ModelParams, n_clusters, seed) -> dict:
    """Sample moments of the total progeny M: mean, second moment, E[(M)_3]."""
    ests = _cluster_means(params, n_clusters, seed, _size_powers)
    return dict(zip(("mean_size", "second_moment", "factorial3"), ests))


# ---------------------------------------------------------------------------
# periodograms
# ---------------------------------------------------------------------------


def periodogram(series: EventSeries, omega):
    """Bartlett periodogram |sum_x e^{-i w x}|^2 / T at one or many frequencies."""
    w = np.asarray(omega, dtype=float)
    if series.window_end <= 0:
        raise ValueError("window_end must be positive")
    ph = np.exp(-1j * np.multiply.outer(w, series.times))
    return np.abs(ph.sum(axis=-1)) ** 2 / series.window_end


def mean_periodogram(params: ModelParams, T, omega_list, replicates, seed) -> list[McEstimate]:
    """Replicate-averaged periodogram; targets Gamma(w) up to O(1/T) window bias.

    The finite-window bias is documented, not corrected: comparisons should
    use the stated k-sigma bands at moderate T.
    """
    omegas = np.asarray(omega_list, dtype=float)
    if np.any(omegas == 0):
        raise ValueError("omega = 0 is intensity-dominated; use nonzero frequencies")
    replicates = int(replicates)
    values = replicate_windows(params, T, partial(periodogram, omega=omegas), replicates, seed)
    return [McEstimate(float(col.mean()), float(col.std(ddof=1) / math.sqrt(replicates)), 0.0)
            for col in values.T]


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

SUITES = ("bispectrum", "bartlett", "moments")


def _default_params():
    from .kernels import Exponential

    return ModelParams(nu=1.0, m=0.5, theta=1.0, kernel=Exponential(1.0))


def _comparison(name, est, target, k, imag=False) -> dict:
    """One report row: estimate, target, stderr and z of the real part (and of the
    imaginary part with ``imag``); it passes when each |z| is at most k."""
    target = complex(target)
    parts = ("re", "im") if imag else ("re",)
    cols = {"estimate": (est.value.real, est.value.imag), "target": (target.real, target.imag),
            "stderr": (est.stderr_re, est.stderr_im), "z": est.z(target)}
    row = {"name": name}
    for col, pair in cols.items():
        row.update(zip([f"{col}_{p}" for p in parts], pair))
    return {**row, "k": k, "pass": all(abs(z) <= k for z in cols["z"][:len(parts)])}


def validate_suite(suite, level="quick", seed=0, params=None) -> dict:
    """Run one named oracle suite; returns a JSON-ready report with z-scores.

    The moments suite checks m = 0.3 and 0.5, or ``params.m`` when given."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    p = params or _default_params()
    full = level == "full"
    comparisons = []

    if suite == "bispectrum":
        pairs = [(0.3, 0.7), (1.0, 1.0), (0.5, -1.5), (2.0, 0.25), (4.0, 1.0)]
        n = 10**6 if full else 2 * 10**5
        for i, (a, b) in enumerate(pairs):
            est = mc_b_complete(p, a, b, n, seed + i)
            comparisons.append(_comparison(f"b_complete({a},{b})", est, b_complete(p, a, b), 3,
                                           imag=True))
    elif suite == "bartlett":
        omegas = [0.5, 1.0, 2.0, 4.0]
        T = 10**4 if full else 2 * 10**3
        reps = 200 if full else 100
        ests = mean_periodogram(p, T, omegas, reps, seed)
        for w, est in zip(omegas, ests):
            comparisons.append(_comparison(f"periodogram({w})", est, float(bartlett(p, w)), 4))
    else:
        n = 10**6 if full else 2 * 10**5
        for i, m in enumerate((0.3, 0.5) if params is None else (p.m,)):
            pm = ModelParams(p.nu, m, p.theta, p.kernel)
            moments = cluster_size_moments(pm, n, seed + i)
            targets = {
                "mean_size": 1.0 / (1.0 - m),
                "second_moment": m / (1.0 - m) ** 3 + 1.0 / (1.0 - m) ** 2,
                "factorial3": borel_factorial3(m),
            }
            for name, est in moments.items():
                comparisons.append(_comparison(f"{name}(m={m})", est, targets[name], 4))

    return {
        "suite": suite,
        "level": level,
        "seed": int(seed),
        "params": {"nu": p.nu, "m": p.m, "theta": p.theta, "kernel": p.kernel.spec_string()},
        "comparisons": comparisons,
        "pass": bool(all(c["pass"] for c in comparisons)),
    }
