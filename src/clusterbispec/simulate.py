"""Exact window simulation of the sign-biased branching-cluster family.

The process is built from Poisson immigrants on a padded window, an
independent Galton-Watson cluster per immigrant (Poisson(m) offspring,
kernel-displaced), and an independent per-cluster sign that reflects the
whole cluster about its root.  Clusters rooted outside the padded window
[-P_left, T + P_right] are not drawn.  Each pad is the shortest one whose
computed bound on the expected number of window events that leaves out
(see leakage_bound) meets pad_tol, so by Markov's inequality the chance of
losing any event is below pad_tol too; apart from that truncation the
infinite-window law is exact.

One engine draws every window: immigrants, signs and all clusters come from
a single generator, with the clusters grown in generation waves.
Reproducibility: a window is keyed by one integer seed (or one generator),
and the one replicate loop runs serially, drawing each replicate from its
own child seed sequence.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (Exponential, InvalidKernel, Kernel, Lomax, SymmetricLaplace,
                      TabulatedSymmetric, UniformHalf, array_key, readonly)
from .match import MatchedKernel

__all__ = [
    "ModelParams",
    "EventSeries",
    "ClusterSizeCapExceeded",
    "PaddingBudgetExceeded",
    "GenerationCapExceeded",
    "ParseError",
    "NonFiniteTime",
    "simulate_window",
    "padding_length",
    "leakage_bound",
    "sample_clusters_batch",
    "simulate_window_batched",
    "replicate_windows",
    "ingest_events",
    "write_events",
    "read_columns",
    "write_columns",
]

DEFAULT_SIZE_CAP = 10**7
DEFAULT_GEN_CAP = 10**4
DEFAULT_PAD_TOL = 1e-6
# most immigrants one padded window may plan (about 1 GB of draws at m = 0.5)
IMMIGRANT_BUDGET = 10**7
_BISECTIONS = 64         # halvings of a bracket: past double precision from 1e7
_CHERNOFF_GRID = 512     # values of s the Chernoff bound is minimised over
_MAX_SUMMANDS = 1 << 14  # summand counts the two-jump bound sums over; the rest costs T each


class ClusterSizeCapExceeded(RuntimeError):
    """A single cluster grew past the size cap (pathological parameters)."""


class GenerationCapExceeded(RuntimeError):
    """Cluster genealogy exceeded the generation cap."""


class PaddingBudgetExceeded(ValueError):
    """The padded window plans more immigrants than IMMIGRANT_BUDGET."""


class ParseError(ValueError):
    """Event file could not be parsed; message carries the line number."""


class NonFiniteTime(ValueError):
    """Event file contains NaN or infinite timestamps."""


@dataclass(frozen=True)
class ModelParams:
    """Branching model: immigrant rate nu, branching ratio m, sign bias theta.

    theta = +1 is the forward one-sided process, theta = -1 its reflection,
    theta = 0 the reversible sign-symmetrized null.
    """

    nu: float
    m: float
    theta: float
    kernel: Kernel

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"immigrant rate nu must be positive, got {self.nu}")
        if not (0.0 < self.m < 1.0):
            raise ValueError(f"branching ratio m must lie strictly in (0, 1), got {self.m}")
        if not (-1.0 <= self.theta <= 1.0):
            raise ValueError(f"sign bias theta must lie in [-1, 1], got {self.theta}")
        if not isinstance(self.kernel, Kernel):
            raise TypeError("kernel must be a Kernel instance")

    @property
    def lam(self) -> float:
        """Total stationary intensity nu / (1 - m)."""
        return self.nu / (1.0 - self.m)


@dataclass(frozen=True)
class EventSeries:
    """Sorted event times on [0, window_end] plus provenance metadata.

    Duplicate timestamps are legal and kept as distinct indices; NaN or
    infinite times or window end raise :class:`NonFiniteTime`.  The times
    are held as a read-only float copy, so they stay as validated.  Two
    series are equal, and hash alike, when their times (bit for bit) and
    window ends are: the provenance describes how a window was made, not
    the window, so it is left out of == and hash.
    """

    times: np.ndarray = field(compare=False)
    window_end: float
    provenance: dict = field(default_factory=dict, compare=False)
    _key: tuple = field(init=False, repr=False)   # == and hash see the times

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if not np.all(np.isfinite(t)):
            raise NonFiniteTime("event times must be finite")
        if not math.isfinite(self.window_end):
            raise NonFiniteTime(f"window end must be finite, got {self.window_end}")
        if len(t) and (t[0] < 0 or t[-1] > self.window_end or np.any(np.diff(t) < 0)):
            raise ValueError("event times must be sorted within [0, window_end]")
        object.__setattr__(self, "times", readonly(t))
        object.__setattr__(self, "_key", array_key(self.times))

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# cluster generation
# ---------------------------------------------------------------------------


def sample_clusters_batch(n_clusters, m, kernel, rng):
    """Generate ``n_clusters`` independent clusters in generation waves.

    Returns (offsets, cluster_ids): displacements from each cluster's root
    and the owning cluster index, concatenated over generations, all drawn
    from the one generator ``rng``.  A cluster larger than DEFAULT_SIZE_CAP
    or deeper than DEFAULT_GEN_CAP generations raises.
    """
    cur = np.zeros(n_clusters)
    cur_id = np.arange(n_clusters, dtype=np.int64)
    offs = [cur]
    ids = [cur_id]
    sizes = np.ones(n_clusters, dtype=np.int64)
    for _ in range(DEFAULT_GEN_CAP):
        counts = rng.poisson(m, size=len(cur))
        n_children = int(counts.sum())
        if n_children == 0:
            return np.concatenate(offs), np.concatenate(ids)
        cur_id = np.repeat(cur_id, counts)
        cur = np.repeat(cur, counts) + kernel.sample(rng, n_children)
        np.add.at(sizes, cur_id, 1)
        if sizes.max() > DEFAULT_SIZE_CAP:
            raise ClusterSizeCapExceeded(f"cluster size exceeded cap {DEFAULT_SIZE_CAP}")
        offs.append(cur)
        ids.append(cur_id)
    raise GenerationCapExceeded(f"cluster genealogy exceeded {DEFAULT_GEN_CAP} generations")


# ---------------------------------------------------------------------------
# window simulation
# ---------------------------------------------------------------------------


def _side_weights(params: ModelParams):
    """Weights of the events lost from the left and from the right of the window.

    A one-sided cluster moves away from its root in the direction of its sign,
    so it reaches the window from the left with chance (1 + theta) / 2 and
    from the right with chance (1 - theta) / 2; an even kernel's cluster
    reaches it from either side whatever its sign.
    """
    if params.kernel.one_sided:
        return (1.0 + params.theta) / 2.0, (1.0 - params.theta) / 2.0
    return 1.0, 1.0


def _table_mgf(x, cdf):
    """Upper bound on E e^{sX} of the even law with half-line CDF ``cdf`` on knots ``x``.

    Each cell's mass is moved to the cell's far end, which bounds any law
    with those cell masses: the linear interpolant and the sampler's
    piecewise-uniform law alike.
    """
    mass = np.diff(cdf) / cdf[-1]
    keep = mass > 0.0
    mass, far = mass[keep], x[1:][keep]
    return lambda s: np.cosh(np.multiply.outer(s, far)) @ mass


def _mgf(kernel: Kernel):
    """(M, s_max): a bound on the moment generating function E e^{sX} of the
    law the kernel's sampler draws, finite on (0, s_max).

    A matched kernel draws p_n-many summands from its rho table, so its M is
    the p_n generating function of the table's bound, not of the ideal rho_h.
    """
    if isinstance(kernel, Exponential):
        return (lambda s: kernel.beta / (kernel.beta - s)), kernel.beta
    if isinstance(kernel, UniformHalf):
        return (lambda s: np.expm1(s * kernel.a) / (s * kernel.a)), math.inf
    if isinstance(kernel, SymmetricLaplace):
        b2 = kernel.beta**2
        return (lambda s: b2 / (b2 - s * s)), kernel.beta
    if isinstance(kernel, TabulatedSymmetric):
        return _table_mgf(kernel.grid, kernel._cdf), math.inf
    if isinstance(kernel, MatchedKernel):
        coeffs = np.concatenate([[0.0], kernel.pn])   # p_n of n = 1, 2, ...
        rho = _table_mgf(kernel.rho_x, kernel._cdf)
        return (lambda s: np.polynomial.polynomial.polyval(rho(s), coeffs)), math.inf
    raise InvalidKernel(f"no leakage bound for kernel {kernel.spec_string()}")


def _chernoff(mgf, s_max, m):
    """P -> min over s of e^{-sP} m M(s) / (e s (1 - m M(s))).

    E (S_k - P)^+ <= e^{-sP} M(s)^k / (e s), because x <= e^{sx - 1} / s for
    every x, and the generations sum geometrically while m M(s) < 1.  The
    minimum is taken over a grid of s below the root of m M(s) = 1; any s
    gives a bound, so the grid's minimum is one.
    """
    lo, hi = 0.0, s_max if math.isfinite(s_max) else 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while not math.isfinite(s_max) and m * mgf(hi) < 1.0:
            hi *= 2.0
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if m * mgf(mid) < 1.0 else (lo, mid)
    s = lo * np.arange(1, _CHERNOFF_GRID + 1) / (_CHERNOFF_GRID + 1)
    mm = m * mgf(s)
    log_c = np.log(mm / (math.e * s * (1.0 - mm)))
    return lambda P: float(np.exp(np.min(log_c - s * P)))


def _power_integral(beta, u0, du):
    """int_{u0}^{u0 + du} u^{-beta} du, without cancellation for du << u0."""
    r = np.log1p(du / u0)
    if beta == 1.0:
        return r
    return u0 ** (1.0 - beta) * np.expm1((1.0 - beta) * r) / (1.0 - beta)


def _summand_counts(p, m):
    """(g, rest): g[n-1] = sum_{k>=1} m^k P(N_k = n), rest = the mass of g beyond its end.

    N_k is the sum of k independent draws from p (p[j-1] = P(N = j)), the
    number of summands in a generation-k displacement, so g[n-1] is the
    expected number of cluster members whose displacement sums n summands.
    It solves the renewal equation g = m p + m p * g, and is kept until its
    terms fall below 1e-17 of its total m / (1 - m).
    """
    a = m * np.asarray(p, dtype=float)
    total = a.sum() / (1.0 - a.sum())
    g = np.zeros(_MAX_SUMMANDS)
    for i in range(_MAX_SUMMANDS):
        k = min(i, len(a))
        g[i] = (a[i] if i < len(a) else 0.0) + a[:k] @ g[i - k:i][::-1]
        if i >= len(a) and g[i] < 1e-17 * total:
            g = g[:i + 1]
            break
    return g, max(total - math.fsum(g), 0.0)


def _two_jump(alpha, c, half, counts, T):
    """P -> sum_n g(n) min(T, half int_P^{P+T} [n S(y/2) + C(n,2) S(y/(2n))^2] dy) + rest T.

    S(x) = c (1+x)^{-alpha} bounds the tail of one summand's magnitude.  A
    sum of n magnitudes above y needs one above y/2, or two above y/(2n),
    hence P(S_n > y) <= n S(y/2) + C(n,2) S(y/(2n))^2; ``half`` is 1/2 when
    the summands are even, for then S_n exceeds y with half the chance |S_n|
    does.  E min((S_n - P)^+, T) is at most T, which also bounds what the
    counts beyond ``g`` (their mass ``rest``) can lose.
    """
    g, rest = counts
    n = np.arange(1.0, len(g) + 1.0)

    def bound(P):
        one = 2.0 * c * _power_integral(alpha, 1.0 + P / 2.0, T / 2.0)
        two = 2.0 * n * c * c * _power_integral(2.0 * alpha, 1.0 + P / (2.0 * n), T / (2.0 * n))
        terms = np.minimum(T, half * (n * one + 0.5 * n * (n - 1.0) * two))
        return float(g @ terms + rest * T)
    return bound


def _excess_bound(params: ModelParams, T):
    """P -> a bound on sum_{k>=1} m^k E min((S_k - P)^+, T), by kernel family.

    S_k is a generation-k displacement, so nu times this, weighted as in
    _side_weights, bounds the window events lost from one side.  Lomax and
    matched Lomax kernels have no exponential moment and take the two-jump
    form; a matched Lomax summand's tail comes from its base, since
    rho_h(x) <= h(|x|) / (2 - m), not from its table, which ends.  Every
    other family takes the Chernoff form.
    """
    kernel, m = params.kernel, params.m
    if isinstance(kernel, Lomax):
        return _two_jump(kernel.alpha, 1.0, 1.0, _summand_counts([1.0], m), T)
    if isinstance(kernel, MatchedKernel) and kernel.spec is not None \
            and isinstance(kernel.spec.base, Lomax):
        return _two_jump(kernel.spec.base.alpha, 2.0 / (2.0 - kernel.m), 0.5,
                         _summand_counts(kernel.pn, m), T)
    return _chernoff(*_mgf(kernel), m)


def leakage_bound(params: ModelParams, T, pad_left, pad_right) -> float:
    """Bound on the expected number of events in [0, T] lost to clusters rooted
    outside [-pad_left, T + pad_right].

    It is nu sum_k m^k int_P^{P+T} P(S_k > y) dy for each side's pad P,
    weighted by the chance that a cluster rooted on that side moves toward
    the window (see _excess_bound for the two forms).
    """
    excess = _excess_bound(params, T)
    return sum(params.nu * w * excess(pad)
               for w, pad in zip(_side_weights(params), (pad_left, pad_right)))


# replicate loops ask for the same pads once a window, and a matched kernel's take ~20 ms
@functools.lru_cache(maxsize=64)
def _window_pads(params: ModelParams, T, pad_tol):
    """(pad_left, pad_right, bound) of a window of length T.

    Each side that can lose events gets an equal share of pad_tol and the
    shortest pad, found by bisection, whose bound meets that share.  The
    bound is first evaluated once at the largest pad the immigrant budget
    allows; if even that pad falls short, or the two pads together plan more
    than IMMIGRANT_BUDGET immigrants, :class:`PaddingBudgetExceeded` is
    raised.  Nothing is drawn here.
    """
    if not 0.0 < pad_tol < 1.0:
        raise ValueError(f"pad_tol must lie in (0, 1), got {pad_tol}")
    if not T > 0:
        raise ValueError(f"window length T must be positive, got {T}")
    excess = _excess_bound(params, T)
    weights = _side_weights(params)
    share = pad_tol / sum(w > 0.0 for w in weights)
    room = IMMIGRANT_BUDGET / params.nu - T   # the most padding the budget allows
    pads = []
    for w in weights:
        def lost(pad, w=w):
            return params.nu * w * excess(pad)
        if lost(0.0) <= share:
            pads.append(0.0)
            continue
        if not (room > 0.0 and lost(room) <= share):
            raise PaddingBudgetExceeded(
                f"padding a window of length {T:g} to lose at most {pad_tol:g} events "
                f"plans more than {IMMIGRANT_BUDGET:.0e} immigrants, the budget")
        lo, hi = 0.0, room
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if lost(mid) <= share else (mid, hi)
        pads.append(hi)
    planned = params.nu * (T + sum(pads))
    if not planned <= IMMIGRANT_BUDGET:
        raise PaddingBudgetExceeded(
            f"padding {pads[0]:.4g} + {pads[1]:.4g} around a window of length {T:g} plans "
            f"{planned:.4g} immigrants, above the budget of {IMMIGRANT_BUDGET:.0e}")
    return pads[0], pads[1], sum(params.nu * w * excess(pad) for w, pad in zip(weights, pads))


def padding_length(params: ModelParams, pad_tol: float = DEFAULT_PAD_TOL) -> float:
    """Mean pad per side of a unit window, from the same rule as every window.

    The pads are the shortest, to bisection precision, for which
    :func:`leakage_bound` meets pad_tol; pad_tol must lie in (0, 1).  A
    window of length T has the same pads for every kernel but Lomax and
    matched Lomax, whose pads grow with T; its provenance records them.
    """
    left, right, _ = _window_pads(params, 1.0, pad_tol)
    return 0.5 * (left + right)


def _simulate(params: ModelParams, T, rng, pad_tol):
    """The window engine: (window record, sorted times on [0, T]) of one padded window.

    The record holds the pads, the planned immigrants and the leakage bound.
    A window whose padding plans more than IMMIGRANT_BUDGET immigrants raises
    :class:`PaddingBudgetExceeded` before anything is drawn.
    """
    left, right, bound = _window_pads(params, T, pad_tol)
    lo, hi = -left, T + right
    planned = params.nu * (hi - lo)
    n_imm = int(rng.poisson(planned))
    roots = rng.uniform(lo, hi, size=n_imm)
    signs = np.where(rng.random(n_imm) < (1.0 + params.theta) / 2.0, 1.0, -1.0)
    offs, cid = sample_clusters_batch(n_imm, params.m, params.kernel, rng)
    t = roots[cid] + signs[cid] * offs
    t = t[(t >= 0.0) & (t <= T)]
    t.sort(kind="stable")
    record = {"pad_left": left, "pad_right": right, "immigrants_planned": planned,
              "leakage_bound": bound}
    return record, t


def simulate_window(params: ModelParams, T, seed, pad_tol=DEFAULT_PAD_TOL) -> EventSeries:
    """Simulate the stationary process restricted to [0, T].

    Immigrants are Poisson(nu) on the padded window [-P_left, T + P_right];
    each carries an independent signed cluster.  Deterministic given (seed,
    params, T): the whole window is drawn from one generator seeded by
    ``seed``, so reruns are byte-identical.  The provenance records the
    pads, the planned immigrant count and the leakage bound.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    record, times = _simulate(params, T, rng, pad_tol)
    provenance = {
        "kind": "simulated",
        "seed": int(seed),
        "nu": params.nu,
        "m": params.m,
        "theta": params.theta,
        "kernel": params.kernel.spec_string(),
        "T": float(T),
        "pad_tol": pad_tol,
        **record,
    }
    return EventSeries(times, float(T), provenance)


def simulate_window_batched(params: ModelParams, T, rng, pad_tol=DEFAULT_PAD_TOL) -> np.ndarray:
    """Sorted event times on [0, T] drawn from the caller's generator.

    Same engine as :func:`simulate_window`, without provenance; used by
    Monte-Carlo replicate loops that own their generators.  No caller in the
    package sets ``pad_tol``; it stays because perfbench/tracing.py reads it.
    """
    return _simulate(params, T, rng, pad_tol)[1]


def replicate_windows(params: ModelParams, T, statistic, replicates, seed) -> np.ndarray:
    """``statistic(series)`` on ``replicates`` >= 2 independent windows, in replicate order.

    Each replicate's window is drawn from its own child of ``seed`` (an
    integer or a SeedSequence).  Children are spawned from the seed's
    sequence, so calls that share one SeedSequence continue its child
    numbering and never reuse a stream.
    """
    if int(replicates) < 2:
        raise ValueError(f"need at least two replicates for a standard error, got {replicates}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def window(stream):
        times = simulate_window_batched(params, T, np.random.default_rng(stream))
        return EventSeries(times, float(T), {"kind": "replicate"})

    return np.array([statistic(window(s)) for s in root.spawn(int(replicates))])


# ---------------------------------------------------------------------------
# event file I/O
# ---------------------------------------------------------------------------


def ingest_events(path) -> EventSeries:
    """Read an event CSV (one timestamp per line, optional header 't').

    Duplicate timestamps are kept as distinct indices.  The window ends at
    the maximum time (``dataclasses.replace`` sets another end); an empty
    file yields an empty series with window_end 0 and a warning.
    """
    (times,) = read_columns(path, ["t"])
    if np.any(~np.isfinite(times)):
        bad = int(np.flatnonzero(~np.isfinite(times))[0])
        raise NonFiniteTime(f"{path}: non-finite timestamp at entry {bad + 1}")
    if len(times) == 0:
        warnings.warn(f"{path}: no events found; returning empty series", stacklevel=2)
        return EventSeries(times, 0.0, {"kind": "ingested", "path": str(path)})
    times = np.sort(times, kind="stable")
    return EventSeries(times, float(times[-1]), {"kind": "ingested", "path": str(path)})


def write_events(series: EventSeries, path) -> None:
    """Write a series in the ingestion format (header 't', one time per line)."""
    write_columns(path, ["t"], series.times)


def read_columns(path, header) -> np.ndarray:
    """Read a CSV as write_columns writes it: one float array per header name.

    Blank lines are skipped and the header is optional (line 1, any case); a row
    that is not len(header) floats raises :class:`ParseError` naming path:line."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().replace(" ", "") == ",".join(header)):
                continue
            try:
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} fields")
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: cannot parse {line!r}") from exc
    return np.array(rows, dtype=float).reshape(-1, len(header)).T.copy()


def write_columns(path, header, *columns) -> None:
    """Write equal-length columns as CSV: the header, then each row's values by ``repr``."""
    cells = [map(repr, np.asarray(c, dtype=float).ravel().tolist()) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
