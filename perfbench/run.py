"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan-exp --seed 1 --seconds 30 --trace 0

Without ``--workload`` every workload runs in turn, each in its own fresh
process.  Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy, and the run fails (exit 2) when that
source is missing.  Solves repeat until ``--seconds`` would be exceeded (at
least one).  With ``--trace 0`` the result carries the end-to-end metrics;
with ``--trace 1`` untraced and traced solves alternate and the result
carries the per-layer metrics plus the tracing overhead.  The line before
the result is the full record (environment, every check with its
diagnostics, failures); ``compare.py`` reads these records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

# one process, one thread: no layer waits on another
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 3
MAX_SOLVES = 500


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    loc = {f"loc.{path.stem}": path.read_bytes().count(b"\n")
           for path in sorted((SRC / "clusterbispec").glob("*.py"))}
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "seed": seed, **loc}


def tally(items) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every operation of a run.

    ``correct`` is false when any operation failed, except a README line
    that exited with its known exit code (kind 'known_exit').
    """
    failed = sum(not c["ok"] for c in items)
    correct = all(c["ok"] for c in items if c["kind"] != "known_exit")
    return len(items), failed, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="default: every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    if not (SRC / "clusterbispec" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--size", args.size]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        return _run(args, wl, size, bench, work_dir, out_dir)
    finally:
        for path in sorted(work_dir.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        work_dir.rmdir()


def _run(args, wl, size, bench, work_dir, out_dir) -> int:
    import numpy as np

    import tracing
    import workloads

    env = environment(args.seed)
    import_argv = [sys.executable, "-c", "import clusterbispec"]
    setup = []
    ctx = workloads.Context(work_dir=work_dir)
    tracer = tracing.Tracer()
    durations = {False: [], True: []}
    rounds = []
    solves = []
    t_start = time.perf_counter()
    for rep in range(MAX_SOLVES):
        t_round = time.perf_counter()
        # one set-up sample per solve spreads them over the run, so a short
        # burst of load on the machine moves the median by one sample at most
        setup += workloads.child_walls(import_argv, 1, work_dir)
        traced = bool(args.trace) and rep % 2 == 1
        inputs = wl.inputs(np.random.default_rng([args.seed, rep]), size)
        checks = workloads.Checks()
        ctx.traced = traced
        use_tracer = traced and wl.in_process
        if use_tracer:
            tracer.install()
        raised = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                wl.solve(inputs, size, checks, ctx)
            except Exception:
                raised = traceback.format_exc(limit=6)
            dur = time.perf_counter() - t0
        if use_tracer:
            tracer.uninstall()
        if raised:
            checks.raised("solve", raised[-1500:])
        durations[traced].append(dur)
        solves.append({"rep": rep, "traced": traced, "solve_s": dur,
                       "checks": checks.items, "notes": checks.notes,
                       "warnings": sorted({f"{w.category.__name__}: {w.message}"
                                           for w in caught})})
        if raised:
            break
        now = time.perf_counter()
        rounds.append(now - t_round)
        done = durations[False] and (not args.trace or durations[True])
        if done and now - t_start + statistics.median(rounds) > args.seconds:
            break
    if len(setup) < SETUP_SAMPLES:
        setup += workloads.child_walls(import_argv, SETUP_SAMPLES - len(setup), work_dir)

    items = [c for s in solves for c in s["checks"]]
    attempted, failed, correct = tally(items)
    failures = [c for c in items if not c["ok"]]

    def metric(name, value, unit):
        return name, {"value": float(value), "unit": unit}

    if not args.trace:
        if wl.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max((max(v) for k, v in ctx.cli.items() if k.endswith(".peak_rss_mb")),
                      default=0.0)
        metrics = dict([
            metric("solve_s", statistics.median(durations[False]), "s"),
            metric("setup_s", statistics.median(setup), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ])
    else:
        n_traced = len(durations[True])
        if wl.in_process:
            raw, peak_alloc = tracer.raw(), tracer.peak_alloc_mb()
            spans = tracer.spans
        else:
            raw = {}
            for child in ctx.child_raw:
                tracing.merge_raw(raw, child)
            peak_alloc = workloads.cli_peak_alloc_mb(ctx)
            spans = [c.get("spans", []) for c in ctx.child_raw]
        layer = tracing.layer_metrics(raw, n_traced, peak_alloc)
        startup = (workloads.child_walls([sys.executable, "-m", "clusterbispec.cli", "--help"],
                                         STARTUP_SAMPLES, work_dir)
                   if not wl.in_process else [0.0])
        layer["cli.startup_s"] = (statistics.median(startup), "s")
        for name in workloads.CLI_LINE_NAMES:
            for key, unit in ((f"cli.{name}.wall_s", "s"), (f"cli.{name}.peak_rss_mb", "MB")):
                layer[key] = (statistics.median(ctx.cli[key]) if key in ctx.cli else 0.0, unit)
        layer["cli.out_bytes"] = (statistics.median(ctx.cli.get("cli.out_bytes", [0.0])), "B")
        traced_s = statistics.median(durations[True] or [0.0])
        untraced_s = statistics.median(durations[False])
        layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics = dict(metric(k, v, u) for k, (v, u) in layer.items())
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": spans}))

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"perfbench: metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in wanted}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for f in failures:
        print(f"{args.workload} FAILED {f['name']}: "
              + json.dumps({k: v for k, v in f.items() if k not in ('name', 'ok')})[:600])
    record = {
        "record": "perfbench", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "size": args.size, "env": env,
        "setup_samples": setup, "solves": solves, "failed_frac": failed / max(attempted, 1),
        "failures": failures, "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
