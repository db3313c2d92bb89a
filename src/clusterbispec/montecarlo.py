"""Independent Monte-Carlo oracles for the closed-form spectra.

Every estimator averages i.i.d. per-cluster or per-replicate contributions,
reports a component-wise standard error, and is reproducible bit-for-bit
from its seed: chunks and replicates are consumed in a fixed order and
reduced deterministically.

The phasors e^{-i w x} of a set of frequencies come from one walk over |w|
upward (``_phasors``): each is the previous one times the phasor of the step
between them, so a frequency set costs one complex exponential per distinct
step, not one per frequency.  A step or frequency within |d| max|x| < 2^-27
of one already formed is that phasor times 1 - i d x, with no exponential:
at that size the factor is the exponential's own rounded value, so a grid
whose steps differ by an ulp costs one exponential for all of them.  The
periodogram and the cluster transforms W(w) both sum those phasors; a
non-finite frequency is refused before any window or cluster is drawn.  The
cluster transforms walk a chunk's members in blocks of 2^14, whose phasors
stay in cache; every block tests near steps against the chunk's max|x|, so
it takes the chunk's decisions and each member's phasor keeps its bits.
"""

from __future__ import annotations

import bisect
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
_BLOCK = 2**14   # members a walk of _w_product: its phasors stay in cache


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
    parts are kept.  A chunk of k clusters grows k / (1 - m) members in
    mean, so it takes at most 2 _CHUNK (1 - m) clusters: _CHUNK for every
    m <= 0.5, fewer nearer m = 1.
    Chunk order is fixed, so the reduction is deterministic for a given seed.
    """
    n = int(n_clusters)
    if n < 10**3:
        raise ValueError("need at least 1e3 clusters for a usable stderr")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    sums = None
    chunk = min(_CHUNK, max(1, int(2 * _CHUNK * (1.0 - params.m))))
    for done in range(0, n, chunk):
        batch = min(chunk, n - done)
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


def _finite(omega, name) -> np.ndarray:
    """omega as a float array; ValueError naming it unless every entry is finite."""
    w = np.asarray(omega, dtype=float)
    bad = w[~np.isfinite(w)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad.flat[0]}")
    return w


def _phasors(x, omega, x_max=None):
    """Yield (k, e^{-i omega[k] x}) for every flat index k of omega, by |omega| upward.

    Every phasor formed, of a frequency or of a step, is kept by value, and a
    value v not yet formed (a frequency, or a step between two) is made the
    cheapest of three ways:

    - near step: an already formed u > 0 with d = v - u exact (d + u == v)
      and |d| max|x| < 2^-27 gives e^{-ivx} = e^{-iux} (1 - i d x).  For an
      argument t below 2^-27 in size, cos t rounds to 1 and sin t to t, so
      the factor, real part 1 and imaginary part -d x, is bit for bit the
      exponential's own; it costs a real and a complex multiply.  A
      frequency grid built in floating point has steps that differ by an
      ulp, and each such step is a near step of the first;
    - walk step: for a frequency, the previous one, p, times the phasor of
      the step v - p when that step is exact, so the product's frequency is
      exactly v;
    - otherwise its own complex exponential.

    A negative frequency yields the conjugate, and 0 yields ones.  The near-step
    test uses ``x_max``, max|x| when not given: walks over blocks of one set of
    points that share it take the same decisions, so each point gets the bits
    the walk over the whole set gives it.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(omega, dtype=float).ravel()
    if x_max is None:
        x_max = float(np.abs(x).max(initial=0.0))
    formed = {}
    keys = []  # the formed values > 0, sorted

    def near(v):
        i = bisect.bisect(keys, v)
        u = min(keys[max(i - 1, 0):i + 1], key=lambda u: abs(v - u), default=0.0)
        d = v - u
        return (u, d) if u and d + u == v and abs(d) * x_max < 2.0**-27 else None

    def keep(v, ph):
        formed[v] = ph
        bisect.insort(keys, v)
        return ph

    def near_or_own(v):
        """e^{-ivx}: kept, ones for 0, a near step, or its own exponential."""
        if v in formed:
            return formed[v]
        if v == 0.0:
            formed[v] = np.ones(len(x), dtype=complex)
            return formed[v]
        if found := near(v):
            u, d = found
            factor = np.empty(len(x), dtype=complex)
            factor.real = 1.0
            np.multiply(-d, x, out=factor.imag)
            return keep(v, formed[u] * factor)
        return keep(v, np.exp(-1j * v * x))

    # no nested function calls itself: a closure that refers to itself is a
    # cycle, and would keep every phasor until the cyclic collector ran
    prev = 0.0
    for k in np.argsort(np.abs(w), kind="stable"):
        v = abs(float(w[k]))
        if prev and v not in formed and (v - prev) + prev == v and not near(v):
            ph = keep(v, formed[prev] * near_or_own(v - prev))
        else:
            ph = near_or_own(v)
        prev = v
        yield k, ph if w[k] >= 0.0 else ph.conj()


def _w_product(freqs, offs, cid, batch):
    """[prod_j W(freq_j)] per cluster, W(w) = sum of e^{-i w x} over its points.

    sample_clusters_batch puts the roots first, at offset exactly 0, so each
    cluster's W is 1 plus the sum over its other members, by owner.  The
    members are walked in blocks of _BLOCK that share the chunk's max|x|, and
    each frequency's sums are added up member by member in member order from
    0.0 (``np.add.at``, as ``bincount`` does); the products then run in the
    walk's order.
    """
    owner, x = cid[batch:], offs[batch:]
    x_max = float(np.abs(x).max(initial=0.0))
    sums = np.zeros((np.size(freqs), batch), dtype=complex)
    for start in range(0, max(len(x), 1), _BLOCK):   # one walk, if empty, for its order
        block = slice(start, start + _BLOCK)
        order = []
        for k, e in _phasors(x[block], freqs, x_max):
            np.add.at(sums[k], owner[block], e)
            order.append(k)
    prod = np.ones(batch, dtype=complex)
    for k in order:
        sums[k].real += 1.0
        prod *= sums[k]
    return [prod]


def mc_b_complete(params: ModelParams, w1, w2, n_clusters, seed) -> McEstimate:
    """nu E{W(w1) W(w2) W(-w1-w2)} over independent simulated clusters.

    This is the direct cluster-transform estimator of B_comp(w1, w2); no
    closed-form input enters, so it is a genuine oracle for the R/Q forms.
    """
    freqs = _finite((w1, w2, -w1 - w2), "w1, w2 and -w1-w2")
    return _cluster_means(params, n_clusters, seed, partial(_w_product, freqs), params.nu)[0]


def mc_cluster_m2(params: ModelParams, a, b, n_clusters, seed) -> McEstimate:
    """E{W(a) W(b)} over independent clusters; closed form is R(a)R(b)R(a+b)."""
    freqs = _finite((a, b), "a and b")
    return _cluster_means(params, n_clusters, seed, partial(_w_product, freqs))[0]


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
    """Bartlett periodogram |sum_x e^{-i w x}|^2 / T at one or many frequencies.

    The result has omega's shape (a numpy scalar for a scalar omega).  Each
    phasor row comes from the walk over |omega| (``_phasors``) and is summed
    as it is formed.
    """
    w = _finite(omega, "omega")
    if series.window_end <= 0:
        raise ValueError("window_end must be positive")
    sums = np.empty(w.shape, dtype=complex)
    for k, ph in _phasors(series.times, w):
        sums.flat[k] = ph.sum()
    return np.abs(sums) ** 2 / series.window_end


def mean_periodogram(params: ModelParams, T, omega_list, replicates, seed) -> list[McEstimate]:
    """Replicate-averaged periodogram; targets Gamma(w) up to O(1/T) window bias.

    The finite-window bias is documented, not corrected: comparisons should
    use the stated k-sigma bands at moderate T.
    """
    omegas = _finite(omega_list, "omega_list")
    if np.any(omegas == 0):
        raise ValueError("omega = 0 is intensity-dominated; use nonzero frequencies")
    replicates = int(replicates)
    windows = replicate_windows(params, T, replicates, seed)
    values = np.array([periodogram(w, omegas) for w in windows])
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
    imaginary part with ``imag``); it passes when each |z| is at most k.  A z whose
    stderr is exactly 0 has no spread to scale by: it is None and fails."""
    target = complex(target)
    parts = ("re", "im") if imag else ("re",)
    stderr = (est.stderr_re, est.stderr_im)
    z = tuple(zi if se > 0.0 else None for zi, se in zip(est.z(target), stderr))
    cols = {"estimate": (est.value.real, est.value.imag), "target": (target.real, target.imag),
            "stderr": stderr, "z": z}
    row = {"name": name}
    for col, pair in cols.items():
        row.update(zip([f"{col}_{p}" for p in parts], pair))
    return {**row, "k": k, "pass": all(zi is not None and abs(zi) <= k for zi in z[:len(parts)])}


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
