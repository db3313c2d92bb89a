"""The four benchmark workloads and their correctness checks.

Each workload draws its inputs from a generator seeded by (seed, repetition)
and solves them with the package's public functions.  Every check records its diagnostics (gaps,
residues, z-scores) whether or not it passes.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clusterbispec import (asymptotics, contrasts, cumulant3, kernels, match, montecarlo,
                           simulate, spectra)
from clusterbispec.simulate import EventSeries, ModelParams

# Monte-Carlo checks gate at |z| <= 5.  The nominal 3 and 4 sigma bands hold
# per comparison, and a run makes dozens of comparisons: at 3 sigma about one
# run in thirty would fail by chance.  A 5-sigma gate keeps chance failures
# near one in 10^4 runs while a wrong closed form still shows as |z| >> 5.
# Each z-score is recorded with its nominal band and whether it exceeded it.
Z_GATE = 5.0

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0


class Checks:
    """Operations of one solve: each is checked once and counts as attempted.

    ``kind`` is 'check' for a correctness check on an output, 'raised' for
    a solve that raised, 'exit' for a CLI command that exited nonzero, or
    'known_exit' for a documented README line that exits with the code it
    is known to exit with at this commit (``KNOWN_EXITS``).  Only the last
    leaves the run's ``correct`` as it is.
    """

    def __init__(self):
        self.items = []
        self.notes = {}

    def value(self, name, ok, **diag):
        self.items.append({"name": name, "kind": "check", "ok": bool(ok), **diag})

    def z(self, name, z, nominal):
        z = float(z)
        self.items.append({"name": name, "kind": "check", "ok": abs(z) <= Z_GATE,
                           "z": z, "nominal_sigma": nominal,
                           "over_nominal": abs(z) > nominal})

    def exit(self, name, known, **diag):
        self.items.append({"name": name, "kind": "known_exit" if known else "exit",
                           "ok": False, **diag})

    def raised(self, name, error):
        self.items.append({"name": name, "kind": "raised", "ok": False, "error": error})

    def note(self, name, value):
        """A diagnostic that no check gates on."""
        self.notes[name] = value


@dataclass
class Context:
    """What a solve may need beyond its inputs: tracing and a work directory."""

    work_dir: Path
    traced: bool = False
    cli: dict = field(default_factory=dict)       # per-line wall/rss samples
    child_raw: list = field(default_factory=list)  # traces from CLI children
    # (pairs, output directory, argv) of the traced CLI line with the largest
    # contrast statistic; its directory is kept for the peak-allocation re-run
    largest_statistic: tuple | None = None


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# scan-exp: the C06 orientation study
# ---------------------------------------------------------------------------

EXP = ModelParams(1.0, 0.5, 1.0, kernels.Exponential(1.0))


def scan_exp_inputs(rng, size):
    return {"scan_seed": _seed(rng)}


def scan_exp_solve(inp, size, checks, ctx):
    g = contrasts.smooth_quadrant_bump(4.0)
    T = size["T"]
    scan = contrasts.linearity_scan(EXP, g, T, (-1.0, 0.0, 1.0), size["reps"],
                                    seed=inp["scan_seed"])
    grid = cumulant3.invert_bispectrum(EXP, half_width=40.0, n=size["n"])
    mean = contrasts.exact_mean(EXP, g, T, cumulant3.odd_part(grid))
    checks.z("slope", (scan.slope - mean.mu_Tg) / scan.slope_stderr, 4)
    checks.z("intercept", scan.intercept / scan.intercept_stderr, 4)
    checks.note("imag_residue", grid.imag_residue)
    checks.note("slope", scan.slope)
    checks.note("mu_Tg", mean.mu_Tg)


# ---------------------------------------------------------------------------
# lomax-spectra: closed forms and lag inversion under a heavy tail
# ---------------------------------------------------------------------------

def lomax_spectra_inputs(rng, size):
    # The grid and the inversion lattice stay fixed: rounding in w1 + w2
    # decides how many frequencies count as distinct, so rescaling either
    # would change the quadrature work by up to a third between solves.
    return {
        "t_scale": 1.0 + 1e-3 * rng.random(),
        "match_freqs": np.sort(rng.uniform(-40.0, 40.0, size["match_freqs"])).tolist(),
    }


def lomax_spectra_solve(inp, size, checks, ctx):
    m = 0.5
    p = ModelParams(1.0, m, 1.0, kernels.Lomax(1.5))
    axis = np.linspace(-20.0, 20.0, size["grid"])
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    R = spectra.b_complete(p, W1, W2, form="R")
    Q = spectra.b_complete(p, W1, W2, form="Q")
    F = spectra.b_factorial(p, W1, W2)
    rq = float(np.max(np.abs(R - Q) / np.abs(Q)))
    checks.value("rq_gap", rq <= 1e-10, value=rq)

    b00 = complex(spectra.b_factorial(p, 0.0, 0.0))
    target = p.nu * m**2 * (2 * m**2 - 8 * m + 9) / (1 - m) ** 5
    mass = abs(b00 - target) / target
    checks.value("total_mass", mass <= 1e-10, value=mass)
    env = spectra.envelope(p)
    peak = float(np.max(np.abs(F.imag)))
    checks.value("envelope", peak < env, peak_over_envelope=peak / env)

    grid = cumulant3.invert_bispectrum(p, n=size["n"])
    checks.value("imag_residue", grid.imag_residue <= 1e-6, value=grid.imag_residue)

    spec = match.MatchSpec(kernels.Lomax(2.0), m=m)
    matched = match.build_matched_kernel(spec)
    w = np.asarray(inp["match_freqs"])
    phi = matched.transform(w)
    hh = spec.base.transform(w)
    gap = float(np.max(np.abs(np.abs(1 - m * phi) ** 2 - np.abs(1 - m * hh) ** 2)))
    checks.value("match_gap", gap < 1e-8, value=gap)

    t = np.array([1e-1, 1e-2, 1e-3, 1e-4]) * inp["t_scale"]
    report = asymptotics.diag_limit_check(ModelParams(1.0, m, 1.0, kernels.Lomax(1.0)),
                                          t_list=t)
    diag = abs(float(report.ratios[-1]) - 1.0)
    checks.value("diag_ratio_gap", diag < 0.10, value=diag, converged=report.converged)


# ---------------------------------------------------------------------------
# null-oracle: Monte-Carlo oracles against the matched reversible null
# ---------------------------------------------------------------------------

def null_oracle_inputs(rng, size):
    return {
        "suite_seeds": [_seed(rng) for _ in montecarlo.SUITES],
        "mc_seed": _seed(rng),
        "mc_freqs": [float(rng.uniform(0.25, 3.0)), float(rng.uniform(-3.0, 3.0))],
        "periodogram_seeds": [_seed(rng), _seed(rng)],
        "window_seeds": [_seed(rng) for _ in range(size["null_windows"])],
        "null_freqs": np.sort(rng.uniform(0.5, 8.0, size["null_freqs"])).tolist(),
    }


def null_oracle_solve(inp, size, checks, ctx):
    m = 0.5
    for suite, seed in zip(montecarlo.SUITES, inp["suite_seeds"]):
        report = montecarlo.validate_suite(suite, size["level"], seed=seed)
        for c in report["comparisons"]:
            for part in ("re", "im"):
                if f"z_{part}" in c:
                    checks.z(f"{suite}:{c['name']}:{part}", c[f"z_{part}"], c["k"])
        checks.note(f"{suite}.pass_at_nominal", report["pass"])

    lomax = ModelParams(1.0, m, 1.0, kernels.Lomax(1.5))
    w1, w2 = inp["mc_freqs"]
    est = montecarlo.mc_b_complete(lomax, w1, w2, size["clusters"], seed=inp["mc_seed"])
    zr, zi = est.z(complex(spectra.b_complete(lomax, w1, w2)))
    checks.z("mc_b_complete_lomax:re", zr, 3)
    checks.z("mc_b_complete_lomax:im", zi, 3)

    # C05: base exponential versus its reversible match share the periodogram
    matched_exp = match.build_matched_kernel(match.MatchSpec(kernels.Exponential(1.0), m=m))
    omegas = np.linspace(0.4, 6.4, 16)
    seed_base, seed_match = inp["periodogram_seeds"]
    base = montecarlo.mean_periodogram(EXP, size["periodogram_T"], omegas,
                                       size["periodogram_reps"], seed=seed_base)
    null = montecarlo.mean_periodogram(ModelParams(1.0, m, 0.0, matched_exp),
                                       size["periodogram_T"], omegas,
                                       size["periodogram_reps"], seed=seed_match)
    for w, a, b in zip(omegas, base, null):
        z = (a.value.real - b.value.real) / math.hypot(a.stderr_re, b.stderr_re)
        checks.z(f"c05_periodogram:{w:.2f}", z, 4)

    # matched Lomax(2) null windows against the base Bartlett spectrum: the
    # ratios I(w)/Gamma(w) over windows and frequencies have mean 1
    matched = match.build_matched_kernel(match.MatchSpec(kernels.Lomax(2.0), m=m))
    null_params = ModelParams(1.0, m, 0.0, matched)
    freqs = np.asarray(inp["null_freqs"])
    gamma = spectra.bartlett(ModelParams(1.0, m, 1.0, kernels.Lomax(2.0)), freqs)
    T = size["null_T"]
    ratios = []
    for seed in inp["window_seeds"]:
        times = simulate.simulate_window_batched(null_params, T, np.random.default_rng(seed))
        series = EventSeries(times, T, {"kind": "benchmark"})
        ratios.append(montecarlo.periodogram(series, freqs) / gamma)
    r = np.concatenate(ratios)
    checks.z("matched_lomax_null_windows", (r.mean() - 1.0) / (r.std(ddof=1) / math.sqrt(len(r))), 4)


# ---------------------------------------------------------------------------
# cli-readme: every README command line as a user runs it
# ---------------------------------------------------------------------------

# Copied from README.md in README order.  The documented `simulate` line
# passes --seed after the subcommand, which the CLI rejects (exit 2); it is
# run as written and counted as failed.  The flags-first form runs next so
# that `contrast run` has its events.csv.
README_LINES = (
    ("simulate", "simulate   --nu 1 --m 0.5 --theta 1 --kernel exp:1 --T 1e4 --seed 3"),
    ("simulate-flags-first", "--seed 3 simulate --nu 1 --m 0.5 --theta 1 --kernel exp:1 --T 1e4"),
    ("spectrum", "spectrum   --m 0.5 --kernel exp:1 --omega-max 20 --n 256"),
    ("bispectrum", "bispectrum --m 0.5 --kernel uhalf:1 --n 64 --form Q --factorial"),
    ("invert", "invert     --m 0.5 --kernel exp:1 --n 512"),
    ("match-build", "match build --m 0.5 --kernel lomax:2 --out matched.json"),
    ("contrast-run", "contrast run  --events events.csv --g bump --H 4"),
    ("contrast-scan", "contrast scan --m 0.5 --kernel exp:1 --T 1e3 --reps 500 --theta -1,0,1"),
    ("mc-validate", "mc-validate --suite bispectrum --level quick"),
    ("asym-check", "asym-check  --m 0.5 --nu 1 --kernel lomax:1 --tmin 1e-4"),
)
CLI_LINE_NAMES = tuple(name for name, _ in README_LINES)
# README lines that fail at this commit, with the exit code they fail with.
# Any other nonzero exit, or this one with another code, makes the run
# incorrect: the CLI exits 1 when a command raises or an oracle fails.
KNOWN_EXITS = {"simulate": 2}


def cli_readme_inputs(rng, size):
    """The README lines with this size's edits; they take no seed."""
    lines = []
    for name, line in README_LINES:
        for old, new in size["edits"].get(name, ()):
            line = line.replace(old, new)
        lines.append((name, shlex.split(line)))
    return {"lines": lines}


def child_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr_tail: str


def run_child(argv, cwd: Path, env: dict, log_dir: Path) -> ChildResult:
    """Run one child process to completion; rusage comes from os.wait4."""
    with tempfile.TemporaryFile(dir=log_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace")[-400:]
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)


def child_walls(argv, samples, work_dir: Path) -> list[float]:
    """Wall times of ``samples`` runs of one command, each of which must exit 0."""
    env = child_env()
    out = []
    for _ in range(samples):
        res = run_child(argv, work_dir, env, work_dir)
        if res.exit_code != 0:
            raise RuntimeError(f"{argv} exited {res.exit_code}: {res.stderr_tail}")
        out.append(res.wall_s)
    return out


def _flag(argv, name, default=None, cast=float):
    return cast(argv[argv.index(name) + 1]) if name in argv else default


def _model(argv, theta=0.0) -> ModelParams:
    kernel = kernels.kernel_from_spec(_flag(argv, "--kernel", cast=str))
    return ModelParams(_flag(argv, "--nu", 1.0), _flag(argv, "--m"), theta, kernel)


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_simulate(d, argv, checks, name):
    times = _load_csv(d / "events.csv")[:, 0]
    p, T = _model(argv), _flag(argv, "--T")
    gamma0 = float(spectra.bartlett(p, 0.0))        # count variance per unit time
    z = (len(times) - p.lam * T) / math.sqrt(gamma0 * T)
    ordered = bool(np.all(np.diff(times) >= 0) and times[0] >= 0 and times[-1] <= T)
    checks.value(name, ordered and abs(z) <= Z_GATE, events=len(times), count_z=z)


def _check_spectrum(d, argv, checks, name):
    rows = _load_csv(d / "spectrum.csv")
    want = spectra.bartlett(_model(argv), rows[:, 0])
    gap = float(np.max(np.abs(rows[:, 1] - want) / want))
    checks.value(name, len(rows) == _flag(argv, "--n", cast=int) and gap <= 1e-12
                 and not np.any(rows[:, 2]), rel_gap=gap)


def _check_bispectrum(d, argv, checks, name):
    rows = _load_csv(d / "bispectrum.csv")
    p = _model(argv)
    want = spectra.b_factorial(p, rows[:, 0], rows[:, 1])
    gap = float(np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - want)) / np.max(np.abs(want)))
    checks.value(name, len(rows) == _flag(argv, "--n", cast=int) ** 2 and gap <= 1e-12,
                 rel_gap=gap, max_abs_im=float(np.max(np.abs(rows[:, 3]))))


def _check_invert(d, argv, checks, name):
    meta = json.loads((d / "c3_meta.json").read_text())
    with open(d / "c3.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    n = _flag(argv, "--n", cast=int)
    checks.value(name, lines == n * n + 1 and meta["imag_residue"] <= 1e-6,
                 imag_residue=meta["imag_residue"])


def _check_match(d, argv, checks, name):
    kernel = match.load_matched_kernel(str(d / _flag(argv, "--out", cast=str)))
    p = _model(argv)
    w = np.linspace(0.5, 8.0, 16)
    gap = float(np.max(np.abs(np.abs(1 - p.m * kernel.transform(w)) ** 2
                              - np.abs(1 - p.m * p.kernel.transform(w)) ** 2)))
    pn_gap = abs(float(kernel.pn.sum()) - 1.0)
    checks.value(name, pn_gap <= 1e-12 and kernel.m == p.m, pn_gap=pn_gap,
                 table_match_gap=gap)


def _check_contrast_run(d, argv, checks, name):
    doc = json.loads((d / "contrast.json").read_text())
    events = len(_load_csv(d / "events.csv"))
    checks.value(name, doc["n_events"] == events and math.isfinite(doc["statistic"]),
                 statistic=doc["statistic"], events=events)


def _check_contrast_scan(d, argv, checks, name):
    doc = json.loads((d / "contrast.json").read_text())
    p, T = _model(argv), _flag(argv, "--T")
    g = contrasts.smooth_quadrant_bump(_flag(argv, "--H", 4.0))
    mu = contrasts.exact_mean(p, g, T, cumulant3.odd_part(cumulant3.invert_bispectrum(p))).mu_Tg
    finite = all(math.isfinite(v) for v in doc["means"] + doc["stderrs"])
    checks.value(name, finite and doc["mu_Tg"] == mu and len(doc["thetas"]) == 3,
                 z_slope=(doc["slope"] - mu) / doc["slope_stderr"],
                 z_intercept=doc["intercept"] / doc["intercept_stderr"])


def _check_mc_validate(d, argv, checks, name):
    doc = json.loads((d / f"mc_{_flag(argv, '--suite', cast=str)}.json").read_text())
    zs = [c[k] for c in doc["comparisons"] for k in ("z_re", "z_im") if k in c]
    checks.value(name, doc["pass"], z=zs)


def _check_asym(d, argv, checks, name):
    doc = json.loads((d / "asym_check.json").read_text())
    gap = abs(doc["ratios"][-1] - 1.0)
    checks.value(name, doc["regime"] == "regularly_varying" and gap < 0.10,
                 ratio_gap=gap, converged=doc["converged"])


CLI_CHECKS = {
    "simulate": _check_simulate,
    "simulate-flags-first": _check_simulate,
    "spectrum": _check_spectrum,
    "bispectrum": _check_bispectrum,
    "invert": _check_invert,
    "match-build": _check_match,
    "contrast-run": _check_contrast_run,
    "contrast-scan": _check_contrast_scan,
    "mc-validate": _check_mc_validate,
    "asym-check": _check_asym,
}


def cli_readme_solve(inp, size, checks, ctx):
    env = child_env()
    solve_dir = Path(tempfile.mkdtemp(prefix="solve-", dir=ctx.work_dir))
    out = solve_dir / "run"
    logs = solve_dir / "logs"
    out.mkdir()
    logs.mkdir()
    try:
        for i, (name, argv) in enumerate(inp["lines"]):
            if ctx.traced:
                trace_file = logs / f"trace-{i}.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *argv]
            else:
                cmd = [sys.executable, "-m", "clusterbispec.cli", *argv]
            res = run_child(cmd, out, env, logs)
            if ctx.traced and trace_file.exists():
                raw = json.loads(trace_file.read_text())
                ctx.child_raw.append(raw)
                kept = ctx.largest_statistic
                if raw["largest_pairs"] > (kept[0] if kept else 0.0):
                    if kept and kept[1] != out:
                        shutil.rmtree(kept[1].parent)
                    ctx.largest_statistic = (raw["largest_pairs"], out, argv)
            elif not ctx.traced:
                ctx.cli.setdefault(f"cli.{name}.wall_s", []).append(res.wall_s)
                ctx.cli.setdefault(f"cli.{name}.peak_rss_mb", []).append(res.peak_rss_mb)
            if res.exit_code != 0:
                checks.exit(f"cli.{name}", KNOWN_EXITS.get(name) == res.exit_code,
                            exit_code=res.exit_code, stderr_tail=res.stderr_tail)
                continue
            try:
                CLI_CHECKS[name](out, argv, checks, f"cli.{name}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks.value(f"cli.{name}", False, error=f"{type(exc).__name__}: {exc}")
        if not ctx.traced:
            size_out = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            ctx.cli.setdefault("cli.out_bytes", []).append(float(size_out))
    finally:
        if not ctx.largest_statistic or ctx.largest_statistic[1] != out:
            shutil.rmtree(solve_dir)


def cli_peak_alloc_mb(ctx) -> float:
    """Peak allocation of the largest traced contrast statistic, in MB.

    Call after the timed work: the CLI line that made that call runs again
    in a fresh child, in the directory it ran in, and the child re-runs the
    call under tracemalloc.  No timed traced child pays for tracemalloc.
    """
    if ctx.largest_statistic is None:
        return 0.0
    _, out, argv = ctx.largest_statistic
    result = out.parent / "peak_alloc.json"
    cmd = [sys.executable, str(HERE / "cli_child.py"), "--peak-alloc", str(result), *argv]
    res = run_child(cmd, out, child_env(), out.parent)
    if res.exit_code != 0:
        raise RuntimeError(f"peak-allocation re-run exited {res.exit_code}: {res.stderr_tail}")
    return json.loads(result.read_text())["peak_alloc_mb"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    solve: object
    sizes: dict
    in_process: bool = True


WORKLOADS = {
    "scan-exp": Workload("scan-exp", scan_exp_inputs, scan_exp_solve, {
        "full": {"T": 1e3, "reps": 20, "n": 512},
        "tiny": {"T": 100.0, "reps": 3, "n": 64},
    }),
    "lomax-spectra": Workload("lomax-spectra", lomax_spectra_inputs, lomax_spectra_solve, {
        "full": {"grid": 64, "n": 256, "match_freqs": 256},
        "tiny": {"grid": 8, "n": 64, "match_freqs": 8},
    }),
    "null-oracle": Workload("null-oracle", null_oracle_inputs, null_oracle_solve, {
        "full": {"level": "full", "clusters": 10**6, "periodogram_T": 1e4,
                 "periodogram_reps": 100, "null_windows": 3, "null_freqs": 32,
                 "null_T": 2000.0},
        "tiny": {"level": "quick", "clusters": 10**4, "periodogram_T": 1e3,
                 "periodogram_reps": 10, "null_windows": 1, "null_freqs": 8,
                 "null_T": 100.0},
    }),
    "cli-readme": Workload("cli-readme", cli_readme_inputs, cli_readme_solve, {
        # the README's 500 replicates take about 87 s; scan-exp runs that
        # path at full size
        "full": {"edits": {"contrast-scan": (("--reps 500", "--reps 10"),)}},
        "tiny": {"edits": {
            "simulate": (("--T 1e4", "--T 1e3"),),
            "simulate-flags-first": (("--T 1e4", "--T 1e3"),),
            "invert": (("--n 512", "--n 64"),),
            "match-build": (("lomax:2", "exp:1"),),
            "contrast-scan": (("--reps 500", "--reps 2"), ("--T 1e3", "--T 1e2")),
        }},
    }, in_process=False),
}
