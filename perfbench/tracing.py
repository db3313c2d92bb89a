"""Layer tracing from outside the package.

``Tracer.install`` replaces the package's public functions, and the
``transform``/``sample`` methods of the ``Kernel`` subclasses, with wrappers
that record a span (name, start, end, parent) around each call and add the
call's work counts.  A function is patched in every module namespace that
binds it, because modules look names up where they imported them (for
example ``contrasts`` calls its own ``simulate_window_batched``).
``uninstall`` puts every original back.  Spans stay in memory; the caller
writes them out once the run ends.

A span's self time is its duration minus the time its child spans cover.
Counting runs inside its own ``bench.trace`` span, so its cost is not charged
to any package layer.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute, span name, counter name or None)
FUNCTIONS = [
    ("kernels", "transform_with_bound", "kernels.transform", "freqs"),
    ("spectra", "bartlett", "spectra", "points"),
    ("spectra", "b_complete", "spectra", "points"),
    ("spectra", "b_factorial", "spectra", "points"),
    ("spectra", "im_b_diagonal", "spectra", "points"),
    ("spectra", "envelope", "spectra", None),
    ("spectra", "scale_check", "spectra", None),
    ("cumulant3", "invert_bispectrum", "cumulant3.invert_bispectrum", "lattice"),
    ("cumulant3", "odd_part", "cumulant3", None),
    ("cumulant3", "contrast_mass_DH", "cumulant3", None),
    ("cumulant3", "mu_g_time", "cumulant3", None),
    ("cumulant3", "mu_g_freq", "cumulant3", None),
    ("match", "build_matched_kernel", "match.build", None),
    ("match", "save_matched_kernel", "match.build", None),
    ("match", "load_matched_kernel", "match.build", None),
    ("match", "rho_density", "match.build", None),
    ("match", "pn_weights", "match.build", None),
    ("match", "phi_transform", "match.transform", "freqs"),
    ("match", "sample_match", "match.sample", "draws"),
    ("simulate", "simulate_window", "simulate", "window"),
    ("simulate", "simulate_window_batched", "simulate", "window"),
    ("simulate", "sample_clusters_batch", "simulate", "generated"),
    ("simulate", "sample_cluster", "simulate", "generated"),
    ("simulate", "flip_cluster", "simulate", None),
    ("simulate", "ingest_events", "simulate", None),
    ("simulate", "write_events", "simulate", None),
    ("contrasts", "contrast_statistic", "contrasts.contrast_statistic", "pairs"),
    ("contrasts", "exact_mean", "contrasts.exact_mean", None),
    ("montecarlo", "mc_b_complete", "montecarlo.oracle", "clusters"),
    ("montecarlo", "mc_cluster_m2", "montecarlo.oracle", "clusters"),
    ("montecarlo", "cluster_size_moments", "montecarlo.oracle", "clusters"),
    ("montecarlo", "periodogram", "montecarlo.periodogram", "replicates"),
    ("montecarlo", "mean_periodogram", "montecarlo.periodogram", "replicates"),
    ("asymptotics", "chi_alpha", "asymptotics", None),
    ("asymptotics", "delta_m", "asymptotics", None),
    ("asymptotics", "z_from_kernel", "asymptotics", None),
    ("asymptotics", "diag_limit_check", "asymptotics", None),
    ("asymptotics", "mixture_moment_check", "asymptotics", None),
]

KERNEL_CLASSES = ("Exponential", "Lomax", "UniformHalf", "SymmetricLaplace",
                  "TabulatedSymmetric")

# (module, class, method, span name, counter name or None)
METHODS = [
    *[("kernels", cls, "transform", "kernels.transform", "freqs") for cls in KERNEL_CLASSES],
    *[("kernels", cls, "sample", "kernels.sample", "draws") for cls in KERNEL_CLASSES],
    ("match", "MatchedKernel", "transform", "match.transform", "freqs"),
    ("match", "MatchedKernel", "sample", "match.sample", "draws"),
    ("match", "MatchSpec", "__post_init__", "match.build", None),
]

WINDOW_FUNCTIONS = ("simulate.simulate_window", "simulate.simulate_window_batched")

# a call nested inside one of these functions repeats work already counted
_SAME_WORK = {
    **{f"kernels.{cls}.transform": ("kernels.transform_with_bound",)
       for cls in KERNEL_CLASSES},
    "match.phi_transform": ("match.MatchedKernel.transform",),
    "match.sample_match": ("match.MatchedKernel.sample",),
    "montecarlo.periodogram": ("montecarlo.mean_periodogram",),
}


def _size(x) -> int:
    return int(np.size(x))


def _draws(size) -> int:
    return 1 if size is None else int(np.prod(size))


class Tracer:
    """Span and counter store for one process; install, run, uninstall."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = {}
        self._stack = []         # (span index, function label)
        self._patches = []       # (namespace, attribute, original)
        self._largest_statistic = None   # (pairs, original fn, series, f)

    # -- recording -----------------------------------------------------------
    def begin(self, name, label=""):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append((len(self.spans) - 1, label))
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def inside(self, *labels) -> bool:
        """True when an open span was opened by one of these functions."""
        return any(label in labels for _, label in self._stack)

    # -- patching ------------------------------------------------------------
    def install(self):
        """Wrap every traced name in every ``clusterbispec`` namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import clusterbispec

        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "clusterbispec" or name.startswith("clusterbispec.")}
        namespaces = list(pkg.values())
        for mod_name, attr, span, counter in FUNCTIONS:
            mod = pkg.get(f"clusterbispec.{mod_name}")
            if mod is None or not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span, counter, f"{mod_name}.{attr}")
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for mod_name, cls_name, meth, span, counter in METHODS:
            cls = getattr(getattr(clusterbispec, mod_name), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, counter,
                                          f"{mod_name}.{cls_name}.{meth}"))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _wrap(self, fn, span, counter, label):
        tracer = self
        layer = span.split(".")[0]
        signature = inspect.signature(fn)
        count = getattr(self, f"_count_{counter}") if counter else None

        def wrapper(*args, **kwargs):
            nested = tracer.inside(*_SAME_WORK.get(label, ()))
            index = tracer.begin(span, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None and not nested:
                t = tracer.begin("bench.trace")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(layer, bound.arguments, result, fn)
                finally:
                    tracer.end(t)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters (arguments by parameter name) ------------------------------
    def _count_freqs(self, layer, a, result, fn):
        self.add(f"{layer}.transform.calls", 1)
        self.add(f"{layer}.transform.freqs", _size(a["omega"]))

    def _count_draws(self, layer, a, result, fn):
        self.add(f"{layer}.sample.draws", _draws(a["size"]))

    def _count_points(self, layer, a, result, fn):
        self.add("spectra.points", _size(result))

    def _count_lattice(self, layer, a, result, fn):
        self.add("cumulant3.invert_bispectrum.calls", 1)
        self.add("cumulant3.invert_bispectrum.lattice_points", result.n ** 2)

    def _count_window(self, layer, a, result, fn):
        from clusterbispec.simulate import padding_length

        params = a["params"]
        kept = len(result)
        self.add("simulate.windows", 1)
        self.add("simulate.immigrants",
                 params.nu * (float(a["T"]) + 2.0 * padding_length(params, a["pad_tol"])))
        self.add("simulate.events_kept", kept)

    def _count_generated(self, layer, a, result, fn):
        if self.inside(*WINDOW_FUNCTIONS):
            n = result.size if fn.__name__ == "sample_cluster" else len(result[0])
            self.add("simulate.events_generated", n)

    def _count_pairs(self, layer, a, result, fn):
        x = np.asarray(a["series"].times, dtype=float)
        H = a["f"].support_radius
        k = (np.searchsorted(x, x + H, side="right")
             - np.searchsorted(x, x - H, side="left"))
        pairs = float(np.sum(k.astype(np.float64) ** 2))
        self.add("contrasts.contrast_statistic.calls", 1)
        self.add("contrasts.contrast_statistic.events", len(x))
        self.add("contrasts.contrast_statistic.pairs", pairs)
        if self._largest_statistic is None or pairs > self._largest_statistic[0]:
            self._largest_statistic = (pairs, fn, a["series"], a["f"])

    def _count_clusters(self, layer, a, result, fn):
        self.add("montecarlo.clusters", int(a["n_clusters"]))

    def _count_replicates(self, layer, a, result, fn):
        n = int(a["replicates"]) if fn.__name__ == "mean_periodogram" else 1
        self.add("montecarlo.periodogram.replicates", n)

    # -- results -------------------------------------------------------------
    @property
    def largest_pairs(self) -> float:
        """Pair count of the largest traced contrast statistic (0 if none)."""
        return self._largest_statistic[0] if self._largest_statistic else 0.0

    def peak_alloc_mb(self) -> float:
        """Re-run the largest traced contrast statistic under tracemalloc.

        Done after the timed work, so tracemalloc's cost never enters a span.
        """
        if self._largest_statistic is None:
            return 0.0
        _, fn, series, f = self._largest_statistic
        tracemalloc.start()
        try:
            fn(series, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def raw(self) -> dict:
        """Totals that can be summed across processes: counts, self times, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, total_s, durations = {}, {}, []
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if name == "contrasts.contrast_statistic":
                durations.append(end - start)
        return {"counts": dict(self.counts), "self_s": self_s, "total_s": total_s,
                "statistic_durations": durations}


def merge_raw(total: dict, raw: dict) -> dict:
    """Add one process's ``Tracer.raw()`` into a running total."""
    for part in ("counts", "self_s", "total_s"):
        for key, value in raw[part].items():
            total.setdefault(part, {})[key] = total.get(part, {}).get(key, 0.0) + value
    total.setdefault("statistic_durations", []).extend(raw["statistic_durations"])
    return total


def layer_metrics(raw: dict, solves: int, peak_alloc_mb: float) -> dict:
    """Per-layer metrics per solve, keyed by metric name, as (value, unit)."""
    counts = raw.get("counts", {})
    self_s = raw.get("self_s", {})
    total_s = raw.get("total_s", {})
    n = max(solves, 1)

    def c(key):
        return counts.get(key, 0.0) / n

    def s(name):
        return self_s.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    durations = np.asarray(raw.get("statistic_durations", []), dtype=float)
    p50, p90 = (np.percentile(durations, [50, 90]) * 1e3 if len(durations)
                else (0.0, 0.0))
    return {
        "kernels.transform.calls": (c("kernels.transform.calls"), "count"),
        "kernels.transform.freqs": (c("kernels.transform.freqs"), "count"),
        "kernels.transform.self_s": (s("kernels.transform"), "s"),
        "kernels.transform.s_per_freq": (ratio(s("kernels.transform"),
                                               c("kernels.transform.freqs")), "s"),
        "kernels.sample.draws": (c("kernels.sample.draws"), "count"),
        "kernels.sample.self_s": (s("kernels.sample"), "s"),
        "spectra.points": (c("spectra.points"), "count"),
        "spectra.self_s": (s("spectra"), "s"),
        "cumulant3.invert_bispectrum.calls": (c("cumulant3.invert_bispectrum.calls"), "count"),
        "cumulant3.invert_bispectrum.lattice_points":
            (c("cumulant3.invert_bispectrum.lattice_points"), "count"),
        "cumulant3.invert_bispectrum.self_s": (s("cumulant3.invert_bispectrum"), "s"),
        "cumulant3.self_s": (s("cumulant3"), "s"),
        "match.build.self_s": (s("match.build"), "s"),
        "match.transform.freqs": (c("match.transform.freqs"), "count"),
        "match.transform.self_s": (s("match.transform"), "s"),
        "match.sample.draws": (c("match.sample.draws"), "count"),
        "match.sample.self_s": (s("match.sample"), "s"),
        "simulate.windows": (c("simulate.windows"), "count"),
        "simulate.self_s": (s("simulate"), "s"),
        "simulate.immigrants": (c("simulate.immigrants"), "count"),
        "simulate.events_generated": (c("simulate.events_generated"), "count"),
        "simulate.events_kept": (c("simulate.events_kept"), "count"),
        "simulate.kept_ratio": (ratio(c("simulate.events_kept"),
                                      c("simulate.events_generated")), "ratio"),
        "contrasts.contrast_statistic.calls": (c("contrasts.contrast_statistic.calls"), "count"),
        "contrasts.contrast_statistic.events": (c("contrasts.contrast_statistic.events"), "count"),
        "contrasts.contrast_statistic.pairs": (c("contrasts.contrast_statistic.pairs"), "count"),
        "contrasts.contrast_statistic.self_s": (s("contrasts.contrast_statistic"), "s"),
        "contrasts.contrast_statistic.pairs_per_s":
            (ratio(c("contrasts.contrast_statistic.pairs"),
                   s("contrasts.contrast_statistic")), "1/s"),
        "contrasts.contrast_statistic.p50_ms": (float(p50), "ms"),
        "contrasts.contrast_statistic.p90_ms": (float(p90), "ms"),
        "contrasts.contrast_statistic.samples": (float(len(durations)), "count"),
        "contrasts.contrast_statistic.peak_alloc_mb": (peak_alloc_mb, "MB"),
        "contrasts.exact_mean.self_s": (s("contrasts.exact_mean"), "s"),
        "montecarlo.clusters": (c("montecarlo.clusters"), "count"),
        "montecarlo.oracle.self_s": (s("montecarlo.oracle"), "s"),
        "montecarlo.clusters_per_s": (ratio(counts.get("montecarlo.clusters", 0.0),
                                            total_s.get("montecarlo.oracle", 0.0)), "1/s"),
        "montecarlo.periodogram.replicates": (c("montecarlo.periodogram.replicates"), "count"),
        "montecarlo.periodogram.self_s": (s("montecarlo.periodogram"), "s"),
        "asymptotics.self_s": (s("asymptotics"), "s"),
    }
