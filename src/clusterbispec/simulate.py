"""Exact window simulation of the sign-biased branching-cluster family.

The process is built from Poisson immigrants, an independent Galton-Watson
cluster per immigrant (Poisson(m) offspring, kernel-displaced), and an
independent per-cluster sign that reflects the whole cluster about its
root.  A window [0, T] gets the clusters rooted in it, drawn as they are,
plus exactly the clusters rooted outside it that reach it, drawn through
one marked member that enters the window (see ``_simulate``), so its law
is the infinite-window law restricted to [0, T], with no padding.

One engine draws every window: immigrants, signs and all clusters come from
a single generator, with the clusters grown in generation waves.
Reproducibility: a window is keyed by one integer seed (or one generator),
and the one replicate loop runs serially, drawing each replicate from its
own child seed sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel, array_key, readonly

__all__ = [
    "ModelParams",
    "EventSeries",
    "ClusterSizeCapExceeded",
    "ImmigrantBudgetExceeded",
    "GenerationCapExceeded",
    "ParseError",
    "NonFiniteTime",
    "simulate_window",
    "padding_length",
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
# most cluster roots each part of one window may plan: near immigrants, and
# far spine nodes (about 1 GB of draws a part at m = 0.5)
IMMIGRANT_BUDGET = 10**7


class ClusterSizeCapExceeded(RuntimeError):
    """A single cluster grew past the size cap (pathological parameters)."""


class GenerationCapExceeded(RuntimeError):
    """Cluster genealogy exceeded the generation cap."""


class ImmigrantBudgetExceeded(ValueError):
    """A part of the window plans more cluster roots than IMMIGRANT_BUDGET."""


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

    Returns (offsets, cluster_ids, parent_offsets): displacements from each
    cluster's root and the owning cluster index, concatenated over
    generations, all drawn from the one generator ``rng``; the roots come
    first, one per cluster in order.  parent_offsets holds the offset of the
    parent of each member after the roots.  A cluster larger than
    DEFAULT_SIZE_CAP or deeper than DEFAULT_GEN_CAP generations raises.
    """
    cur = np.zeros(n_clusters)
    cur_id = np.arange(n_clusters, dtype=np.int64)
    offs = [cur]
    ids = [cur_id]
    ups = [np.zeros(0)]
    sizes = np.ones(n_clusters, dtype=np.int64)
    for _ in range(DEFAULT_GEN_CAP):
        counts = rng.poisson(m, size=len(cur))
        n_children = int(counts.sum())
        if n_children == 0:
            # one list at a time, each freed as its array is made
            offs = np.concatenate(offs)
            ids = np.concatenate(ids)
            return offs, ids, np.concatenate(ups)
        cur_id = np.repeat(cur_id, counts)
        up = np.repeat(cur, counts)
        cur = up + kernel.sample(rng, n_children)
        np.add.at(sizes, cur_id, 1)
        if sizes.max() > DEFAULT_SIZE_CAP:
            raise ClusterSizeCapExceeded(f"cluster size exceeded cap {DEFAULT_SIZE_CAP}")
        offs.append(cur)
        ids.append(cur_id)
        ups.append(up)
    raise GenerationCapExceeded(f"cluster genealogy exceeded {DEFAULT_GEN_CAP} generations")


# ---------------------------------------------------------------------------
# window simulation
# ---------------------------------------------------------------------------


def _simulate(params: ModelParams, T, rng):
    """The window engine: (window record, sorted times on [0, T]) of one exact window.

    The clusters rooted in W = [0, T] and those rooted outside it are
    independent Poisson processes, since their roots lie in disjoint sets.

    Near part: Poisson(nu T) roots, uniform on W, each with its sign and a
    cluster from sample_clusters_batch.

    Far part: only the far clusters that reach W matter.  Call a member
    *entering* when it lies in W and its parent does not.  A cluster rooted
    outside W reaches W exactly when it has N_E >= 1 entering members, for
    the path from its root to any member in W enters W somewhere.  A cluster
    rooted at r with sign s has m^k members of generation k >= 1 in mean, at
    r + s S_k with S_k a sum of k kernel steps, so the pairs (cluster, marked
    member of generation k) have intensity nu dr m^k.  Taking the marked
    member c = r + s S_k in place of r turns nu dr into nu dc: the marked
    members fall on W at rate nu m / (1 - m), with generation k drawn with
    P(k) = (1 - m) m^(k-1), an independent sign, and the steps read back from
    c to its parent p = c - s X and on to the root.  Given its marked member
    the cluster is its spine, the k + 1 nodes from the root to c, with
    Poisson(m) further children of every spine node, each the root of an
    ordinary cluster: for Poisson offspring the size-biased offspring law is
    1 + Poisson(m), and this is the many-to-one (spine) lemma of Lyons,
    Pemantle & Peres (Ann. Probab. 23, 1995).  A spine node with its further
    children's clusters is an ordinary cluster rooted at the node, so one
    call of sample_clusters_batch grows them all.

    A proposal is kept only if c is entering (p lies outside W, which one step
    decides) and its root lies outside W, and then with probability 1 / N_E.
    A far cluster that reaches W is proposed once through each of its N_E
    entering members, so the kept proposals, an independent thinning of a
    Poisson process, are a Poisson process of exactly those clusters, with
    their law (the edge-effect-free simulation of Brix & Kendall, Adv. Appl.
    Probab. 34, 2002).  No cluster is left out, and every draw is a kernel
    step, so every kernel family is simulated exactly.

    The record holds the near immigrants, the far proposals and the far
    clusters kept.  A spine node roots a cluster, as an immigrant does, so
    past IMMIGRANT_BUDGET of either :class:`ImmigrantBudgetExceeded` is
    raised: before any draw for nu T, before any spine grows for the far
    part (its proposals, m / (1 - m) a near immigrant, are fewer than the
    near part's members).
    """
    if not T > 0:
        raise ValueError(f"window length T must be positive, got {T}")
    nu, m, kernel = params.nu, params.m, params.kernel

    def budget(planned, what):
        if not planned <= IMMIGRANT_BUDGET:
            raise ImmigrantBudgetExceeded(f"a window of length {T:g} plans {planned:.4g} "
                                          f"{what}, above the budget of {IMMIGRANT_BUDGET:.0e}")

    budget(nu * T, "immigrants")

    def inside(x):
        return (x >= 0.0) & (x <= T)

    def signs(n):
        return np.where(rng.random(n) < (1.0 + params.theta) / 2.0, 1.0, -1.0)

    # the far part comes first, so its proposals are freed before the near
    # clusters grow: peak memory is the larger part's, not the two together
    n_prop = int(rng.poisson(nu * T * m / (1.0 - m)))
    c = rng.uniform(0.0, T, size=n_prop)
    sign = signs(n_prop)
    step = kernel.sample(rng, n_prop)
    entering = ~inside(c - sign * step)
    c, sign, step = c[entering], sign[entering], step[entering]
    # proposal i's spine c, p, ..., root (k + 1 nodes) fills spine[first[i]:first[i] + size[i]]
    size = rng.geometric(1.0 - m, size=len(c)) + 1
    budget(size.sum(), "far spine nodes")
    first = np.cumsum(size) - size
    spine = np.repeat(c, size)
    for depth in range(1, int(size.max(initial=0))):
        deep = size > depth
        at = first[deep] + depth
        x = step if depth == 1 else kernel.sample(rng, len(at))
        spine[at] = spine[at - 1] - sign[deep] * x
    rooted_out = ~inside(spine[first + size - 1])
    seg = np.repeat(np.arange(len(c)), size)
    spine, seg = spine[rooted_out[seg]], seg[rooted_out[seg]]
    offs, cid, parent_offs = sample_clusters_batch(len(spine), m, kernel, rng)
    owner = seg[cid]
    s = sign[owner]
    far = spine[cid] + s * offs
    # a spine node's parent is the next node toward its root; a root's entry
    # is never counted, for the root lies outside W
    n = len(spine)
    parent = np.concatenate([np.roll(spine, -1), spine[cid[n:]] + s[n:] * parent_offs])
    n_enter = np.bincount(owner, weights=inside(far) & ~inside(parent), minlength=len(c))
    kept = rooted_out & (rng.random(len(c)) * n_enter < 1.0)
    far = far[kept[owner] & inside(far)]

    n_near = int(rng.poisson(nu * T))
    roots = rng.uniform(0.0, T, size=n_near)
    sign = signs(n_near)
    offs, cid = sample_clusters_batch(n_near, m, kernel, rng)[:2]
    t = np.concatenate([far, roots[cid] + sign[cid] * offs])
    t = t[inside(t)]
    t.sort(kind="stable")
    record = {"near_immigrants": n_near, "far_proposals": n_prop,
              "far_clusters": int(np.count_nonzero(kept))}
    return record, t


def padding_length(params: ModelParams, pad_tol=None) -> float:
    """The pad of every window: 0.0, since no window is padded.

    It and the window functions' ``pad_tol``, which must be None, stay only
    for ``perfbench/tracing.py``, until it reads the window record instead.
    """
    _no_pad_tol(pad_tol)
    return 0.0


def _no_pad_tol(pad_tol):
    if pad_tol is not None:
        raise ValueError(f"windows are exact and take no loss tolerance, got pad_tol={pad_tol!r}")


def simulate_window(params: ModelParams, T, seed, pad_tol=None) -> EventSeries:
    """Simulate the stationary process restricted to [0, T], exactly.

    Deterministic given (seed, params, T): the whole window is drawn from
    one generator seeded by ``seed``, so reruns are byte-identical.  The
    provenance records the near immigrants, the far proposals and the far
    clusters kept (see the engine, ``_simulate``).  ``pad_tol`` must be
    None (see :func:`padding_length`).
    """
    _no_pad_tol(pad_tol)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    record, times = _simulate(params, T, rng)
    provenance = {
        "kind": "simulated",
        "seed": int(seed),
        "nu": params.nu,
        "m": params.m,
        "theta": params.theta,
        "kernel": params.kernel.spec_string(),
        "T": float(T),
        **record,
    }
    return EventSeries(times, float(T), provenance)


def simulate_window_batched(params: ModelParams, T, rng, pad_tol=None) -> np.ndarray:
    """Sorted event times on [0, T] drawn from the caller's generator.

    Same engine and ``pad_tol`` as :func:`simulate_window`, without
    provenance; used by Monte-Carlo replicate loops that own their generators.
    """
    _no_pad_tol(pad_tol)
    return _simulate(params, T, rng)[1]


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
