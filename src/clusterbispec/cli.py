"""Command-line surface: run configuration, dispatch, and report emission.

Every run validates its configuration up front (collecting all violations,
not just the first), executes one command, and writes a manifest alongside
the outputs (config echo, seed, version, wall time) so reruns reproduce the
artifacts bit-identically.

Exit codes: 0 success, 1 numerical-validation failure (mc suites), 2
configuration error, including a model whose padded window would plan more
immigrants than the simulator's budget.

The angular-frequency convention everywhere is e^{-i omega t} for forward
transforms (so transform(0) = 1 for probability densities).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .kernels import InvalidKernel, Kernel, kernel_from_spec
from .montecarlo import SUITES
from .simulate import ModelParams, PaddingBudgetExceeded

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

COMMANDS = ("simulate", "spectrum", "bispectrum", "invert", "match",
            "contrast", "mc-validate", "asym-check")
# option choices, shared by argparse and by the validation of JSON configs
FORMATS = ("csv", "json")
FORMS = ("R", "Q")
CONTRAST_ACTIONS = ("run", "scan")
TEST_FUNCTIONS = ("bump", "quadrant")
LEVELS = ("quick", "full")


class ConfigError(ValueError):
    """Invalid run configuration; ``violations`` lists every failed field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunConfig:
    """One validated run: command name plus its option mapping.

    Round-trips through a single JSON document (``to_json`` / ``from_json``).
    """

    command: str
    seed: int = 0
    threads: int = 1
    out_dir: str = "."
    format: str = "csv"
    options: dict = field(default_factory=dict)
    # cache of options["kernel"], built by validation so a run builds it once
    kernel: Kernel | None = field(default=None, init=False, compare=False, repr=False)

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command, "seed": self.seed, "threads": self.threads,
            "out_dir": self.out_dir, "format": self.format, "options": self.options,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        doc = json.loads(text)
        return RunConfig(doc["command"], doc.get("seed", 0), doc.get("threads", 1),
                         doc.get("out_dir", "."), doc.get("format", "csv"),
                         doc.get("options", {}))


def _normalize_kernel_spec(spec: str) -> str:
    # `uniform:` is accepted as an alias of the canonical `uhalf:`
    return "uhalf:" + spec.split(":", 1)[1] if spec.startswith("uniform:") else spec


def _validate(cfg: RunConfig) -> list[str]:
    bad = []
    if cfg.command not in COMMANDS:
        bad.append(f"command: unknown {cfg.command!r}, valid: {', '.join(COMMANDS)}")
        return bad
    if cfg.format not in FORMATS:
        bad.append(f"format: must be one of {', '.join(FORMATS)}, got {cfg.format!r}")
    if cfg.threads < 1:
        bad.append(f"threads: must be >= 1, got {cfg.threads}")
    opt = cfg.options

    def need_model(theta_required=True):
        nu = opt.get("nu", 1.0)
        m = opt.get("m")
        if m is None:
            bad.append("params.m: required")
        elif not 0.0 < m < 1.0:
            bad.append(f"params.m: branching ratio must lie strictly in (0, 1), got {m}")
        if not nu > 0:
            bad.append(f"params.nu: must be positive, got {nu}")
        theta = opt.get("theta", 0.0)
        if theta_required and not -1.0 <= theta <= 1.0:
            bad.append(f"params.theta: must lie in [-1, 1], got {theta}")
        if "kernel" not in opt:
            bad.append("params.kernel: required")
        else:
            try:
                cfg.kernel = kernel_from_spec(_normalize_kernel_spec(opt["kernel"]))
            except (InvalidKernel, OSError) as exc:   # OSError: kernel file unreadable
                bad.append(f"params.kernel: {exc}")

    cmd = cfg.command
    if cmd == "simulate":
        need_model()
        if not opt.get("T", 0) > 0:
            bad.append(f"simulate.T: must be positive, got {opt.get('T')}")
        if not 0 < opt.get("pad_tol", 1e-6) < 1:
            bad.append("simulate.pad_tol: must lie in (0, 1)")
    elif cmd in ("spectrum", "bispectrum"):
        need_model(theta_required=False)
        if not opt.get("omega_max", 20.0) > 0:
            bad.append(f"{cmd}.omega_max: must be positive")
        if not opt.get("n", 64) >= 2:
            bad.append(f"{cmd}.n: must be >= 2")
        if cmd == "bispectrum" and opt.get("form", "R") not in FORMS:
            bad.append(f"bispectrum.form: must be one of {', '.join(FORMS)}")
    elif cmd == "invert":
        need_model(theta_required=False)
        n = opt.get("n", 512)
        if n < 64 or n & (n - 1):
            bad.append(f"invert.n: must be a power of two >= 64, got {n}")
        if "half_width" in opt and not opt["half_width"] > 0:
            bad.append("invert.half_width: must be positive")
    elif cmd == "match":
        if opt.get("action", "build") != "build":
            bad.append("match.action: only 'build' is supported")
        need_model(theta_required=False)
        if "out" not in opt:
            bad.append("match.out: output path required")
    elif cmd == "contrast":
        action = opt.get("action")
        if action not in CONTRAST_ACTIONS:
            bad.append(f"contrast.action: must be one of {', '.join(CONTRAST_ACTIONS)}, "
                       f"got {action!r}")
        if not opt.get("H", 4.0) > 0:
            bad.append("contrast.H: support radius must be positive")
        if opt.get("g", "bump") not in TEST_FUNCTIONS:
            bad.append(f"contrast.g: unknown test function {opt.get('g')!r}")
        if action == "run":
            if "events" not in opt:
                bad.append("contrast.events: input CSV required")
        elif action == "scan":
            need_model(theta_required=False)
            thetas = opt.get("theta", [])
            if len(thetas) < 3:
                bad.append("contrast.theta: need at least three values")
            elif any(abs(t) > 1 for t in thetas):
                bad.append("contrast.theta: values must lie in [-1, 1]")
            if not opt.get("reps", 0) >= 2:
                bad.append("contrast.reps: need at least two replicates")
            if not opt.get("T", 0) > 0:
                bad.append("contrast.T: must be positive")
    elif cmd == "mc-validate":
        if opt.get("suite") not in SUITES:
            bad.append(f"mc-validate.suite: unknown {opt.get('suite')!r}")
        if opt.get("level", "quick") not in LEVELS:
            bad.append(f"mc-validate.level: must be one of {', '.join(LEVELS)}")
        if "m" in opt or "kernel" in opt:  # optional model override needs both
            need_model(theta_required=False)
    elif cmd == "asym-check":
        need_model(theta_required=False)
        if not opt.get("tmin", 1e-4) > 0:
            bad.append("asym-check.tmin: must be positive")
    return bad


def parse_config(argv=None, json_doc=None) -> RunConfig:
    """Build and validate a RunConfig from CLI argv or a JSON document."""
    if json_doc is not None:
        cfg = RunConfig.from_json(json_doc)
    else:
        cfg = _parse_argv(argv if argv is not None else sys.argv[1:])
    _check(cfg)
    return cfg


def _check(cfg: RunConfig) -> None:
    violations = _validate(cfg)
    if violations:
        raise ConfigError(violations)


def _parse_argv(argv) -> RunConfig:
    # global flags go before or after the subcommand; a flag left out sets
    # nothing, so a subcommand never overwrites a value given before it and
    # RunConfig's defaults apply
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON run configuration (overrides all flags)")
    common.add_argument("--seed", type=int)
    common.add_argument("--threads", type=int)
    common.add_argument("--out-dir")
    common.add_argument("--format", choices=FORMATS)
    parser = argparse.ArgumentParser(
        prog="clusterbispec", parents=[common],
        description="Branching-cluster spectra, bispectra, matched reversible "
                    "nulls, and orientation contrasts "
                    "(Fourier convention e^{-i omega t}).")
    sub = parser.add_subparsers(dest="command")

    def add_command(name, help):
        return sub.add_parser(name, parents=[common], help=help)

    def add_model(p, theta=True):
        p.add_argument("--nu", type=float, default=1.0)
        p.add_argument("--m", type=float, required=False)
        p.add_argument("--kernel", help="kernel spec, e.g. exp:1, lomax:1.5, "
                                        "uhalf:2, slap:1, match:exp:1:0.5, tab:path.csv")
        if theta:
            p.add_argument("--theta", type=float, default=0.0)

    p = add_command("simulate", help="simulate the sign-biased process on [0, T]")
    add_model(p)
    p.add_argument("--T", type=float)
    p.add_argument("--pad-tol", type=float, default=1e-6)

    p = add_command("spectrum", help="Bartlett spectrum on a frequency grid")
    add_model(p, theta=False)
    p.add_argument("--omega-max", type=float, default=20.0)
    p.add_argument("--n", type=int, default=256)

    p = add_command("bispectrum", help="third-order transform on an n-by-n grid")
    add_model(p, theta=False)
    p.add_argument("--omega-max", type=float, default=20.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--form", choices=FORMS, default="R")
    p.add_argument("--factorial", action="store_true",
                   help="emit the factorial transform instead of the complete one")

    p = add_command("invert", help="invert B_fac to the lag-domain cumulant grid")
    add_model(p, theta=False)
    p.add_argument("--half-width", type=float)
    p.add_argument("--n", type=int, default=512)

    p = add_command("match", help="build the reversible spectral match")
    p.add_argument("action", nargs="?", default="build")
    add_model(p, theta=False)
    p.add_argument("--out", help="output JSON path for the matched kernel")

    p = add_command("contrast", help="odd orientation contrasts")
    p.add_argument("action", choices=CONTRAST_ACTIONS)
    add_model(p, theta=False)
    p.add_argument("--events", help="event CSV (contrast run)")
    p.add_argument("--g", default="bump", choices=TEST_FUNCTIONS)
    p.add_argument("--H", type=float, default=4.0)
    p.add_argument("--T", type=float)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--theta", dest="theta_list", default="-1,0,1",
                   help="comma-separated theta values (contrast scan)")
    # let `--theta -1,0,1` through argparse's leading-dash heuristic
    p._negative_number_matcher = re.compile(r"^-\d+(\.\d*)?([,-].*)?$")

    p = add_command("mc-validate", help="Monte-Carlo oracle suites")
    p.add_argument("--suite", choices=SUITES)
    p.add_argument("--level", choices=LEVELS, default="quick")
    add_model(p, theta=False)

    p = add_command("asym-check", help="small-frequency diagonal limit check")
    add_model(p, theta=False)
    p.add_argument("--tmin", type=float, default=1e-4)

    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        return RunConfig.from_json(Path(ns.config).read_text())

    opt = {}
    for key in ("nu", "m", "theta", "kernel", "T", "pad_tol", "omega_max", "n",
                "form", "half_width", "out", "events", "g", "H", "reps",
                "suite", "level", "tmin", "action", "factorial"):
        if hasattr(ns, key) and getattr(ns, key) is not None:
            opt[key] = getattr(ns, key)
    if getattr(ns, "theta_list", None) and ns.command == "contrast":
        opt["theta"] = [float(t) for t in ns.theta_list.split(",") if t]
    flags = {key: getattr(ns, key) for key in ("seed", "threads", "out_dir", "format")
             if hasattr(ns, key)}
    return RunConfig(ns.command or "", options=opt, **flags)


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _model(cfg: RunConfig, theta=None) -> ModelParams:
    opt = cfg.options
    return ModelParams(opt.get("nu", 1.0), opt["m"],
                       opt.get("theta", 0.0) if theta is None else theta, cfg.kernel)


def _emit_grid(grid, cfg, stem):
    out = Path(cfg.out_dir) / f"{stem}.{cfg.format}"
    grid.write_csv(out) if cfg.format == "csv" else grid.write_json(out)
    return [str(out)]


def run(cfg: RunConfig) -> int:
    """Execute a config; writes artifacts plus a manifest.

    A config that did not come through parse_config (say, one rebuilt from a
    manifest with RunConfig.from_json) is validated first; ConfigError on
    violations.
    """
    from . import contrasts, cumulant3, montecarlo, spectra
    from .spectra import SpectralGrid

    if cfg.kernel is None:
        _check(cfg)
    t0 = time.time()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    exit_code = 0
    opt = cfg.options

    if cfg.command == "simulate":
        from .simulate import simulate_window, write_events

        series = simulate_window(_model(cfg), opt["T"], cfg.seed,
                                 pad_tol=opt.get("pad_tol", 1e-6))
        path = out_dir / "events.csv"
        write_events(series, path)
        outputs.append(str(path))

    elif cfg.command == "spectrum":
        params = _model(cfg, theta=0.0)
        w = np.linspace(-opt.get("omega_max", 20.0), opt.get("omega_max", 20.0),
                        opt.get("n", 256))
        vals = np.asarray(spectra.bartlett(params, w), dtype=complex)
        grid = SpectralGrid(1, w, vals, meta={"quantity": "bartlett"})
        outputs += _emit_grid(grid, cfg, "spectrum")

    elif cfg.command == "bispectrum":
        params = _model(cfg, theta=0.0)
        wmax, n = opt.get("omega_max", 20.0), opt.get("n", 64)
        axis = np.linspace(-wmax, wmax, n)
        W1, W2 = np.meshgrid(axis, axis, indexing="ij")
        fn = spectra.b_factorial if opt.get("factorial") else spectra.b_complete
        vals = (fn(params, W1, W2) if opt.get("factorial")
                else fn(params, W1, W2, form=opt.get("form", "R")))
        freqs = np.column_stack([W1.ravel(), W2.ravel()])
        grid = SpectralGrid(2, freqs, np.asarray(vals).ravel(), meta={
            "quantity": "b_factorial" if opt.get("factorial") else "b_complete",
            "form": opt.get("form", "R"),
            "max_abs_im": float(np.max(np.abs(np.asarray(vals).imag))),
            "envelope": spectra.envelope(params),
        })
        outputs += _emit_grid(grid, cfg, "bispectrum")

    elif cfg.command == "invert":
        params = _model(cfg, theta=0.0)
        grid = cumulant3.invert_bispectrum(params, opt.get("half_width"),
                                           opt.get("n", 512))
        odd = cumulant3.odd_part(grid)
        if grid.imag_residue > 1e-6:
            print(f"warning: inversion imaginary residue {grid.imag_residue:.2e} "
                  "exceeds 1e-6 of max", file=sys.stderr)
        cpath, jpath = out_dir / "c3.csv", out_dir / "c3_meta.json"
        grid.write_csv(cpath, odd=odd)
        grid.write_meta_json(jpath)
        outputs += [str(cpath), str(jpath)]

    elif cfg.command == "match":
        from .match import MatchSpec, build_matched_kernel, save_matched_kernel

        params = _model(cfg, theta=0.0)
        kernel = build_matched_kernel(MatchSpec(base=params.kernel, m=params.m))
        path = out_dir / opt["out"]
        save_matched_kernel(kernel, path)
        outputs.append(str(path))

    elif cfg.command == "contrast":
        g = (contrasts.smooth_quadrant_bump if opt.get("g", "bump") == "bump"
             else contrasts.quadrant_indicator)(opt.get("H", 4.0))
        if opt["action"] == "run":
            from .simulate import ingest_events

            series = ingest_events(opt["events"], window_end=opt.get("T"))
            value = contrasts.contrast_statistic(series, g)
            doc = {"statistic": value, "n_events": len(series),
                   "window_end": series.window_end, "H": g.support_radius}
        else:
            params = _model(cfg, theta=0.0)
            scan = contrasts.linearity_scan(params, g, opt["T"], opt["theta"],
                                            opt.get("reps", 200), cfg.seed)
            grid = cumulant3.invert_bispectrum(params)
            mean = contrasts.exact_mean(params, g, opt["T"], cumulant3.odd_part(grid))
            doc = {
                "thetas": scan.thetas.tolist(),
                "means": scan.means.tolist(),
                "stderrs": scan.stderrs.tolist(),
                "slope": scan.slope, "slope_stderr": scan.slope_stderr,
                "intercept": scan.intercept, "intercept_stderr": scan.intercept_stderr,
                "mu_Tg": mean.mu_Tg, "gap_bound": mean.gap_bound,
            }
        path = out_dir / "contrast.json"
        path.write_text(json.dumps(doc, indent=1))
        outputs.append(str(path))

    elif cfg.command == "mc-validate":
        override = _model(cfg, theta=1.0) if "m" in opt and "kernel" in opt else None
        report = montecarlo.validate_suite(opt["suite"], opt.get("level", "quick"),
                                           cfg.seed, params=override,
                                           threads=cfg.threads)
        path = out_dir / f"mc_{opt['suite']}.json"
        path.write_text(json.dumps(report, indent=1))
        outputs.append(str(path))
        if not report["pass"]:
            exit_code = 1

    elif cfg.command == "asym-check":
        from .asymptotics import diag_limit_check

        params = _model(cfg, theta=1.0)
        tmin = opt.get("tmin", 1e-4)
        ts = [t for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5) if t >= tmin] or [tmin]
        report = diag_limit_check(params, t_list=ts)
        doc = {
            "regime": report.regime, "power": report.power,
            "limit": None if not np.isfinite(report.limit) else report.limit,
            "t": report.t_values.tolist(), "im_b": report.im_values.tolist(),
            "ratios": report.ratios.tolist(),
            "underflow": report.underflow.tolist(), "converged": report.converged,
        }
        path = out_dir / "asym_check.json"
        path.write_text(json.dumps(doc, indent=1))
        outputs.append(str(path))

    manifest = {
        "config": json.loads(cfg.to_json()),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return exit_code


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except PaddingBudgetExceeded as exc:  # the model and window are too large to simulate
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface module + operation, fail loudly
        print(f"error [{cfg.command}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
