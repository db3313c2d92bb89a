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

from .simulate import (DEFAULT_PAD_TOL, EventSeries, ModelParams, replicate_windows,
                       sample_clusters_batch)
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
    n_samples: int
    seed: int

    def z(self, target) -> tuple[float, float]:
        """Component-wise z-scores of the estimate against a target value."""

        def one(diff, se):
            if se > 0.0:
                return diff / se
            return 0.0 if diff == 0.0 else math.inf

        target = complex(target)
        return (one(self.value.real - target.real, self.stderr_re),
                one(self.value.imag - target.imag, self.stderr_im))


def _cluster_w_products(params, freqs, n_clusters, seed):
    """Streamed sums of prod_j W(freq_j) over independent clusters.

    Returns (sum_v, sum_re2, sum_im2) per frequency tuple.  Chunk order is
    fixed, so the reduction is deterministic for a given seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_tuples = len(freqs)
    s1 = np.zeros(n_tuples, dtype=complex)
    s2r = np.zeros(n_tuples)
    s2i = np.zeros(n_tuples)
    done = 0
    while done < n_clusters:
        batch = min(_CHUNK, n_clusters - done)
        offs, cid = sample_clusters_batch(batch, params.m, params.kernel, rng)
        order = np.argsort(cid, kind="stable")
        offs, cid = offs[order], cid[order]
        bounds = np.searchsorted(cid, np.arange(batch + 1))
        for t, wtuple in enumerate(freqs):
            prod = np.ones(batch, dtype=complex)
            for w in wtuple:
                ph = np.exp(-1j * w * offs)
                cs = np.concatenate([[0.0 + 0.0j], np.cumsum(ph)])
                prod *= cs[bounds[1:]] - cs[bounds[:-1]]
            s1[t] += prod.sum()
            s2r[t] += (prod.real**2).sum()
            s2i[t] += (prod.imag**2).sum()
        done += batch
    return s1, s2r, s2i


def _finalize(scale, s1, s2r, s2i, n, seed):
    mean = s1 / n
    var_re = max((s2r - n * mean.real**2) / (n - 1), 0.0)
    var_im = max((s2i - n * mean.imag**2) / (n - 1), 0.0)
    return McEstimate(scale * mean, abs(scale) * math.sqrt(var_re / n),
                      abs(scale) * math.sqrt(var_im / n), n, seed)


def mc_b_complete(params: ModelParams, w1, w2, n_clusters, seed) -> McEstimate:
    """nu E{W(w1) W(w2) W(-w1-w2)} over independent simulated clusters.

    This is the direct cluster-transform estimator of B_comp(w1, w2); no
    closed-form input enters, so it is a genuine oracle for the R/Q forms.
    """
    if n_clusters < 10**3:
        raise ValueError("need at least 1e3 clusters for a usable stderr")
    freqs = [(float(w1), float(w2), float(-w1 - w2))]
    s1, s2r, s2i = _cluster_w_products(params, freqs, int(n_clusters), int(seed))
    return _finalize(params.nu, s1[0], s2r[0], s2i[0], int(n_clusters), int(seed))


def mc_cluster_m2(params: ModelParams, a, b, n_clusters, seed) -> McEstimate:
    """E{W(a) W(b)} over independent clusters; closed form is R(a)R(b)R(a+b)."""
    if n_clusters < 10**3:
        raise ValueError("need at least 1e3 clusters for a usable stderr")
    freqs = [(float(a), float(b))]
    s1, s2r, s2i = _cluster_w_products(params, freqs, int(n_clusters), int(seed))
    return _finalize(1.0, s1[0], s2r[0], s2i[0], int(n_clusters), int(seed))


def cluster_size_moments(params: ModelParams, n_clusters, seed) -> dict:
    """Sample moments of the total progeny M: mean, second moment, E[(M)_3]."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(n_clusters)
    sums = np.zeros(6)
    done = 0
    while done < n:
        batch = min(_CHUNK, n - done)
        offs, cid = sample_clusters_batch(batch, params.m, params.kernel, rng)
        sizes = np.bincount(cid, minlength=batch).astype(float)
        f3 = sizes * (sizes - 1.0) * (sizes - 2.0)
        sums += [sizes.sum(), (sizes**2).sum(), f3.sum(),
                 (sizes**2).sum(), (sizes**4).sum(), (f3**2).sum()]
        done += batch
    out = {}
    for name, s, sq in (("mean_size", sums[0], sums[3]),
                        ("second_moment", sums[1], sums[4]),
                        ("factorial3", sums[2], sums[5])):
        mean = s / n
        var = max((sq - n * mean**2) / (n - 1), 0.0)
        out[name] = McEstimate(mean, math.sqrt(var / n), 0.0, n, int(seed))
    return out


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


def mean_periodogram(params: ModelParams, T, omega_list, replicates, seed,
                     pad_tol=DEFAULT_PAD_TOL, threads=1) -> list[McEstimate]:
    """Replicate-averaged periodogram; targets Gamma(w) up to O(1/T) window bias.

    The finite-window bias is documented, not corrected: comparisons should
    use the stated k-sigma bands at moderate T.
    """
    omegas = np.asarray(omega_list, dtype=float)
    if np.any(omegas == 0):
        raise ValueError("omega = 0 is intensity-dominated; use nonzero frequencies")
    replicates = int(replicates)
    values = replicate_windows(params, T, partial(periodogram, omega=omegas), replicates,
                               seed, pad_tol=pad_tol, threads=threads)
    out = []
    for j in range(len(omegas)):
        col = values[:, j]
        out.append(McEstimate(float(col.mean()), float(col.std(ddof=1) / math.sqrt(replicates)),
                              0.0, replicates, int(seed)))
    return out


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

SUITES = ("bispectrum", "bartlett", "moments")


def _default_params():
    from .kernels import Exponential

    return ModelParams(nu=1.0, m=0.5, theta=1.0, kernel=Exponential(1.0))


def validate_suite(suite, level="quick", seed=0, params=None, threads=1) -> dict:
    """Run one named oracle suite; returns a JSON-ready report with z-scores."""
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
            target = complex(b_complete(p, a, b))
            zr, zi = est.z(target)
            comparisons.append({
                "name": f"b_complete({a},{b})",
                "estimate_re": est.value.real, "estimate_im": est.value.imag,
                "target_re": target.real, "target_im": target.imag,
                "stderr_re": est.stderr_re, "stderr_im": est.stderr_im,
                "z_re": zr, "z_im": zi, "k": 3,
                "pass": bool(abs(zr) <= 3 and abs(zi) <= 3),
            })
    elif suite == "bartlett":
        omegas = [0.5, 1.0, 2.0, 4.0]
        T = 10**4 if full else 2 * 10**3
        reps = 200 if full else 100
        ests = mean_periodogram(p, T, omegas, reps, seed, threads=threads)
        for w, est in zip(omegas, ests):
            target = float(bartlett(p, w))
            z = (est.value.real - target) / est.stderr_re
            comparisons.append({
                "name": f"periodogram({w})", "estimate_re": est.value.real,
                "target_re": target, "stderr_re": est.stderr_re,
                "z_re": z, "k": 4, "pass": bool(abs(z) <= 4),
            })
    else:
        n = 10**6 if full else 2 * 10**5
        for i, m in enumerate((0.3, 0.5)):
            pm = ModelParams(p.nu, m, p.theta, p.kernel)
            moments = cluster_size_moments(pm, n, seed + i)
            targets = {
                "mean_size": 1.0 / (1.0 - m),
                "second_moment": m / (1.0 - m) ** 3 + 1.0 / (1.0 - m) ** 2,
                "factorial3": borel_factorial3(m),
            }
            for name, est in moments.items():
                z = (est.value.real - targets[name]) / est.stderr_re
                comparisons.append({
                    "name": f"{name}(m={m})", "estimate_re": est.value.real,
                    "target_re": targets[name], "stderr_re": est.stderr_re,
                    "z_re": z, "k": 4, "pass": bool(abs(z) <= 4),
                })

    return {
        "suite": suite,
        "level": level,
        "seed": int(seed),
        "params": {"nu": p.nu, "m": p.m, "theta": p.theta, "kernel": p.kernel.spec_string()},
        "comparisons": comparisons,
        "pass": bool(all(c["pass"] for c in comparisons)),
    }
