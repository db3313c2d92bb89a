"""Exact window simulation of the sign-biased branching-cluster family.

The process is built from Poisson immigrants on a padded window, an
independent Galton-Watson cluster per immigrant (Poisson(m) offspring,
kernel-displaced), and an independent per-cluster sign that reflects the
whole cluster about its root.  Padding is chosen so that the probability of
a cluster outside the padded window reaching the observation window is below
a configurable leakage tolerance; the infinite-window law is otherwise exact.

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

from .kernels import Kernel, readonly

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
    "sample_clusters_batch",
    "simulate_window_batched",
    "replicate_windows",
    "ingest_events",
    "write_events",
    "write_columns",
]

DEFAULT_SIZE_CAP = 10**7
DEFAULT_GEN_CAP = 10**4
DEFAULT_PAD_TOL = 1e-6
# most immigrants one padded window may plan (about 1 GB of draws at m = 0.5)
IMMIGRANT_BUDGET = 10**7


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
    are held as a read-only float copy, so they stay as validated.
    """

    times: np.ndarray
    window_end: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if not np.all(np.isfinite(t)):
            raise NonFiniteTime("event times must be finite")
        if not math.isfinite(self.window_end):
            raise NonFiniteTime(f"window end must be finite, got {self.window_end}")
        if len(t) and (t[0] < 0 or t[-1] > self.window_end or np.any(np.diff(t) < 0)):
            raise ValueError("event times must be sorted within [0, window_end]")
        object.__setattr__(self, "times", readonly(t))

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


def padding_length(params: ModelParams, pad_tol: float = DEFAULT_PAD_TOL) -> float:
    """Window padding: displacement quantile times an expected-depth factor.

    P is the (1 - pad_tol) quantile of |displacement| multiplied by
    ceil(3 / (1 - m)), so the chance that a cluster rooted outside the padded
    window leaks a point into the observation window is below pad_tol, which
    must lie in (0, 1).
    """
    if not 0.0 < pad_tol < 1.0:
        raise ValueError(f"pad_tol must lie in (0, 1), got {pad_tol}")
    generations = math.ceil(3.0 / (1.0 - params.m))
    return params.kernel.tail_quantile(pad_tol) * generations


def _simulate(params: ModelParams, T, rng, pad_tol):
    """The window engine: (pad, sorted times on [0, T]) of one padded window.

    A window whose padding plans more than IMMIGRANT_BUDGET immigrants raises
    :class:`PaddingBudgetExceeded` before anything is drawn.
    """
    if not T > 0:
        raise ValueError(f"window length T must be positive, got {T}")
    pad = padding_length(params, pad_tol)
    lo, hi = -pad, T + pad
    planned = params.nu * (hi - lo)
    if not planned <= IMMIGRANT_BUDGET:
        raise PaddingBudgetExceeded(
            f"padding {pad:.4g} around a window of length {T:g} plans {planned:.4g} "
            f"immigrants, above the budget of {IMMIGRANT_BUDGET:.0e}")
    n_imm = int(rng.poisson(planned))
    roots = rng.uniform(lo, hi, size=n_imm)
    signs = np.where(rng.random(n_imm) < (1.0 + params.theta) / 2.0, 1.0, -1.0)
    offs, cid = sample_clusters_batch(n_imm, params.m, params.kernel, rng)
    t = roots[cid] + signs[cid] * offs
    t = t[(t >= 0.0) & (t <= T)]
    t.sort(kind="stable")
    return pad, t


def simulate_window(params: ModelParams, T, seed, pad_tol=DEFAULT_PAD_TOL) -> EventSeries:
    """Simulate the stationary process restricted to [0, T].

    Immigrants are Poisson(nu) on the padded window [-P, T+P]; each carries
    an independent signed cluster.  Deterministic given (seed, params, T):
    the whole window is drawn from one generator seeded by ``seed``, so
    reruns are byte-identical.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pad, times = _simulate(params, T, rng, pad_tol)
    provenance = {
        "kind": "simulated",
        "seed": int(seed),
        "nu": params.nu,
        "m": params.m,
        "theta": params.theta,
        "kernel": params.kernel.spec_string(),
        "T": float(T),
        "pad": pad,
        "pad_tol": pad_tol,
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
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            if lineno == 1 and token.lower() == "t":
                continue
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: cannot parse {token!r}") from exc
    times = np.asarray(values, dtype=float)
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


def write_columns(path, header, *columns) -> None:
    """Write equal-length columns as CSV: the header, then each row's values by ``repr``."""
    cells = [map(repr, np.asarray(c, dtype=float).ravel().tolist()) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
