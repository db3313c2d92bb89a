"""Command-line surface: run configuration, dispatch, and report emission.

Each command's options are declared once, in ``COMMANDS`` (type or choices,
default, range rules), with the inputs the command requires; the flags derive
from it, and every config, from argv or from JSON (``--config run.json``),
passes one normalization step: a missing option takes its flag's default; an
unknown key or a wrongly typed value is a config error.  A run then checks the
declarations (collecting all violations), executes one command, and writes a
manifest beside the outputs (config echo listing every option's value, seed,
version, wall time; for ``simulate`` also the window's near immigrants, far
proposals and far clusters kept) so reruns reproduce the artifacts
bit-identically.

Exit codes: 0 success; 1 an ``mc-validate`` suite that fails, or an
unexpected error; 2 any input the package refuses, that is any
:class:`~clusterbispec.kernels.Refused` (a config error, an unreadable event
file, a window above the simulator's member budget, ...), found while
parsing or while running, one ``config error:`` line per violation.

The angular-frequency convention everywhere is e^{-i omega t} for forward
transforms (so transform(0) = 1 for probability densities).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cumulant3 import GRID_BUDGET
from .kernels import Kernel, Refused, kernel_from_spec
from .montecarlo import SUITES
from .simulate import ModelParams, write_columns, write_json

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]


class Opt(NamedTuple):
    """One option.  kind: float, int, str, bool, list (of numbers) or a tuple of
    choices; default None means no value unless given; ``action`` is positional.
    rules: (test, text) pairs; a given value's violation is the text (formatted
    with it) of the first it fails.  label: its prefix, if not the command's."""

    kind: object
    default: object = None
    help: str | None = None
    rules: tuple = ()
    label: str | None = None


def _most(n: int):   # the rule of an n whose grid fills at most the budget
    return (lambda v: v <= n), f"must be <= {n}, within the grid budget of {GRID_BUDGET} cells"


_POSITIVE = ((lambda v: v > 0, "must be positive, got {}"),)
_AT_LEAST_2 = (lambda v: v >= 2, "must be >= 2")
_SIDE = math.isqrt(GRID_BUDGET)   # the widest n-by-n grid within the budget
GLOBAL_OPTIONS = {"seed": Opt(int, 0, rules=((lambda v: v >= 0, "must be >= 0, got {}"),)),
                  "out_dir": Opt(str, "."), "format": Opt(("csv", "json"), "csv", (
                      "format of the spectrum and bispectrum grids; other commands ignore "
                      "it (simulate writes CSV, invert CSV and JSON, the rest JSON)"))}
_P = "params."   # the model's options are labelled as its parameters
_MODEL = {"nu": Opt(float, 1.0, rules=_POSITIVE, label=_P),
          "m": Opt(float, rules=((lambda v: 0 < v < 1, "branching ratio must lie strictly "
                                  "in (0, 1), got {}"),), label=_P),
          "kernel": Opt(str, help="kernel spec, e.g. exp:1, lomax:1.5, uhalf:2, slap:1, "
                        "match:exp:1:0.5, tab:path.csv", label=_P)}
_NEEDS_MODEL = ("m", "kernel")   # a model is given whole or not at all
_OMEGA_MAX = {"omega_max": Opt(float, 20.0, rules=_POSITIVE)}
COMMANDS = {   # command -> (help, options, required inputs, per action if a dict)
    "simulate": ("simulate the sign-biased process on [0, T]", {
        **_MODEL, "theta": Opt(float, 0.0, rules=((
            lambda v: -1 <= v <= 1, "must lie in [-1, 1], got {}"),), label=_P),
        "T": Opt(float, rules=_POSITIVE)}, (*_NEEDS_MODEL, "T")),
    "spectrum": ("Bartlett spectrum on a frequency grid", {
        **_MODEL, **_OMEGA_MAX, "n": Opt(int, 256, rules=(_AT_LEAST_2, _most(GRID_BUDGET)))},
        _NEEDS_MODEL),
    "bispectrum": ("third-order transform on an n-by-n grid", {
        **_MODEL, **_OMEGA_MAX, "n": Opt(int, 64, rules=(_AT_LEAST_2, _most(_SIDE))),
        "form": Opt(("R", "Q"), "R"), "factorial": Opt(
            bool, False, "emit the factorial transform instead of the complete one")},
        _NEEDS_MODEL),
    "invert": ("invert B_fac to the lag-domain cumulant grid", {
        **_MODEL, "half_width": Opt(float, rules=_POSITIVE), "n": Opt(int, 512, rules=((
            lambda v: v >= 64 and not v & (v - 1), "must be a power of two >= 64, got {}"),
            _most(_SIDE)))}, _NEEDS_MODEL),
    "match": ("build the reversible spectral match", {
        "action": Opt(("build",), "build"), **_MODEL,
        "out": Opt(str, help="output JSON path for the matched kernel")}, (*_NEEDS_MODEL, "out")),
    "contrast": ("odd orientation contrasts", {"action": Opt(("run", "scan")), **_MODEL,
        "events": Opt(str, help="event CSV (contrast run)"),
        "g": Opt(("bump",), "bump", "odd test function (the quadrant indicator's statistic "
                 "is exactly 0 on a window without ties, so it is not offered)"),
        "H": Opt(float, 4.0, rules=_POSITIVE),
        "T": Opt(float, rules=((lambda v: v > 0, "window end must be positive, got {}"),)),
        "reps": Opt(int, 200, rules=((lambda v: v >= 2, "need at least two replicates"),)),
        "theta": Opt(list, (-1.0, 0.0, 1.0), "comma-separated theta values (contrast scan)", (
            (lambda v: len(v) >= 3, "need at least three values"),
            (lambda v: len(set(v)) >= 2, "need at least two distinct values"),
            (lambda v: all(abs(t) <= 1 for t in v), "values must lie in [-1, 1]")))},
        {"run": ("events",), "scan": (*_NEEDS_MODEL, "T")}),
    "mc-validate": ("Monte-Carlo oracle suites", {
        "suite": Opt(SUITES), "level": Opt(("quick", "full"), "quick"), **_MODEL}, ()),
    "asym-check": ("small-frequency diagonal limit check", {
        **_MODEL, "tmin": Opt(float, 1e-4, rules=_POSITIVE)}, _NEEDS_MODEL),
}
_TOP = {"command": Opt(tuple(COMMANDS)), **GLOBAL_OPTIONS, "options": Opt(dict, {})}


class ConfigError(Refused):
    """Invalid run configuration; ``violations`` lists every failed field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunConfig:
    """One run: command name, global options and the command's option mapping.

    Round-trips through a single JSON document (``to_json`` / ``from_json``);
    ``from_json`` and ``parse_config`` fill every default and check every type.
    """

    command: str
    seed: int
    out_dir: str
    format: str
    options: dict
    # cache of options["kernel"], built by validation so a run builds it once
    kernel: Kernel | None = field(default=None, init=False, compare=False, repr=False)

    def to_json(self) -> str:
        return json.dumps({key: getattr(self, key) for key in _TOP}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError([f"config: invalid JSON: {exc}"]) from None
        return _normalize(doc)


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false", dict: "an object"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _checked(opt: Opt, value):
    """value as its option holds it; ValueError says what was expected."""
    kind = opt.kind
    if value is None and opt.default is None and not isinstance(kind, tuple):
        return None                          # an optional value, not given
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ValueError(f"must be one of {', '.join(kind)}, got {value!r}")
    if kind is float:
        if not _is_number(value):
            raise ValueError(f"must be a finite number, got {value!r}")
        return float(value)
    if kind is list:
        if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
            raise ValueError(f"must be a list of finite numbers, got {value!r}")
        return [float(v) for v in value]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _fill(decl: dict, given: dict, where: str):
    """Every declared option's value, given or default, plus the violations."""
    values, bad = {}, [f"{where}{key}: unknown option" for key in given if key not in decl]
    for name, opt in decl.items():
        try:
            values[name] = _checked(opt, given.get(name, opt.default))
        except (ValueError, OverflowError) as exc:
            bad.append(f"{opt.label or where}{name}: {exc}")
    return values, bad


def _normalize(doc) -> RunConfig:
    """The one step every config passes: defaults filled, types checked."""
    if not isinstance(doc, dict):
        raise ConfigError([f"config: must be a JSON object, got {type(doc).__name__}"])
    values, bad = _fill(_TOP, doc, "")
    command = values.get("command")
    if command in COMMANDS and "options" in values:
        values["options"], more = _fill(COMMANDS[command][1], values["options"], f"{command}.")
        bad += more
    if bad:
        raise ConfigError(bad)
    return RunConfig(**values)


def _validate(cfg: RunConfig) -> None:
    """Check a normalized config against the declarations; builds its kernel.

    A required input left out, or a given value that fails a rule of its
    option, is a violation.  The one rule that relates options: m and kernel
    form the model, so either one needs the other.
    """
    _, decl, needs = COMMANDS[cfg.command]
    opt, bad = cfg.options, []
    needs = needs[opt["action"]] if isinstance(needs, dict) else needs
    if opt["m"] is not None or opt["kernel"] is not None:
        needs += _NEEDS_MODEL
    for options, values, where in ((GLOBAL_OPTIONS, vars(cfg), ""),
                                   (decl, opt, f"{cfg.command}.")):
        for name, o in options.items():
            label, value = (o.label or where) + name, values[name]
            if value is None:
                bad += [f"{label}: required"] if name in needs else []
            else:
                bad += [f"{label}: {text.format(value)}" for test, text in o.rules
                        if not test(value)][:1]
    if opt["kernel"] is not None:
        try:
            cfg.kernel = kernel_from_spec(opt["kernel"])
        except Refused as exc:
            bad.append(f"params.kernel: {exc}")
    if bad:
        raise ConfigError(bad)


def parse_config(argv=None, json_doc=None) -> RunConfig:
    """Build and validate a RunConfig from CLI argv or a JSON document."""
    cfg = (RunConfig.from_json(json_doc) if json_doc is not None
           else _parse_argv(sys.argv[1:] if argv is None else argv))
    _validate(cfg)
    return cfg


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _add_option(parser, name: str, opt: Opt) -> None:
    kind = opt.kind
    if name == "action":
        optional = {"nargs": "?", "default": opt.default} if opt.default else {}
        parser.add_argument("action", choices=kind, **optional)
    else:
        how = ({"action": "store_true"} if kind is bool
               else {"choices": kind} if isinstance(kind, tuple)
               else {"type": _float_list if kind is list else kind})
        parser.add_argument("--" + name.replace("_", "-"), help=opt.help, **how)


def _parse_argv(argv) -> RunConfig:
    # global flags go before or after the subcommand; a flag left out sets nothing (so a
    # subcommand never overwrites a value given before it) and takes its default in _normalize
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON run configuration (overrides all flags)")
    for name, opt in GLOBAL_OPTIONS.items():
        _add_option(common, name, opt)
    parser = argparse.ArgumentParser(
        prog="clusterbispec", parents=[common],
        description="Branching-cluster spectra, bispectra, matched reversible "
                    "nulls, and orientation contrasts "
                    "(Fourier convention e^{-i omega t}).")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text,
                           argument_default=argparse.SUPPRESS)
        for name, opt in options.items():
            _add_option(p, name, opt)
    # let `contrast scan --theta -1,0,1` through argparse's leading-dash heuristic
    sub.choices["contrast"]._negative_number_matcher = re.compile(r"^-\d+(\.\d*)?([,-].*)?$")

    ns = vars(parser.parse_args(argv))
    if "config" in ns:
        try:
            text = Path(ns["config"]).read_text()
        except (OSError, UnicodeError) as exc:
            raise ConfigError([f"config: cannot read {ns['config']}: {exc}"]) from None
        return RunConfig.from_json(text)
    doc = {key: ns.pop(key) for key in ("command", *GLOBAL_OPTIONS) if key in ns}
    return _normalize({**doc, "options": ns})


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _model(cfg: RunConfig, theta: float) -> ModelParams:
    return ModelParams(cfg.options["nu"], cfg.options["m"], theta, cfg.kernel)


def run(cfg: RunConfig) -> int:
    """Execute a config; writes artifacts plus a manifest.

    A config that did not come through parse_config (say, one rebuilt from a
    manifest with RunConfig.from_json) is validated first; ConfigError on
    violations.
    """
    from . import contrasts, cumulant3, montecarlo, spectra

    if cfg.kernel is None:
        _validate(cfg)
    t0 = time.time()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, exit_code, opt, record = [], 0, cfg.options, {}

    if cfg.command == "simulate":
        from .simulate import simulate_window

        series = simulate_window(_model(cfg, opt["theta"]), opt["T"], cfg.seed)
        path = out_dir / "events.csv"
        write_columns(path, ["t"], series.times)
        outputs.append(str(path))
        record["window"] = {key: series.provenance[key] for key in (
            "near_immigrants", "far_proposals", "far_clusters")}

    elif cfg.command in ("spectrum", "bispectrum"):
        params = _model(cfg, theta=0.0)
        axis = np.linspace(-opt["omega_max"], opt["omega_max"], opt["n"])
        if cfg.command == "spectrum":
            vals = np.asarray(spectra.bartlett(params, axis), dtype=complex)
            freqs, header, meta = axis, ["w"], {"quantity": "bartlett"}
        else:
            w1, w2 = axis[:, None], axis[None, :]   # a column and a row: only w1 + w2 fills n^2
            vals = np.asarray(spectra.b_factorial(params, w1, w2) if opt["factorial"]
                              else spectra.b_complete(params, w1, w2, form=opt["form"])).ravel()
            freqs = np.column_stack([np.repeat(axis, axis.size), np.tile(axis, axis.size)])
            header = ["w1", "w2"]
            meta = {"quantity": "b_factorial" if opt["factorial"] else "b_complete",
                    "form": opt["form"], "max_abs_im": float(np.max(np.abs(vals.imag))),
                    "envelope": spectra.envelope(params)}
        bad = np.count_nonzero(~np.isfinite(vals))
        if bad:   # refused before the file is opened
            raise Refused(f"{cfg.command} grid: {bad} of {vals.size} values are not finite "
                          f"(nu = {params.nu!r}, m = {params.m!r})")
        path = out_dir / f"{cfg.command}.{cfg.format}"
        if cfg.format == "csv":
            write_columns(path, [*header, "re", "im"], *freqs.reshape(vals.size, -1).T,
                          vals.real, vals.imag)
        else:
            write_json(path, {"dims": freqs.ndim, "frequencies": freqs.tolist(),
                              "re": vals.real.tolist(), "im": vals.imag.tolist(), "meta": meta})
        outputs.append(str(path))

    elif cfg.command == "invert":
        params = _model(cfg, theta=0.0)
        grid = cumulant3.invert_bispectrum(params, opt["half_width"], opt["n"])
        if grid.imag_residue > 1e-6:
            print(f"warning: inversion imaginary residue {grid.imag_residue:.2e} "
                  "exceeds 1e-6 of max", file=sys.stderr)
        cpath, jpath = out_dir / "c3.csv", out_dir / "c3_meta.json"
        grid.write_csv(cpath)
        outputs += [str(cpath), write_json(jpath, {
            "half_width": grid.half_width, "n": grid.n, "spacing": grid.spacing,
            "imag_residue": grid.imag_residue, "meta": grid.meta})]

    elif cfg.command == "match":
        from .match import MatchSpec, build_matched_kernel, save_matched_kernel

        params = _model(cfg, theta=0.0)
        kernel = build_matched_kernel(MatchSpec(base=params.kernel, m=params.m))
        path = out_dir / opt["out"]
        save_matched_kernel(kernel, path)
        outputs.append(str(path))

    elif cfg.command == "contrast":
        g = contrasts.smooth_quadrant_bump(opt["H"])
        if opt["action"] == "run":
            from .simulate import ingest_events

            series = ingest_events(opt["events"])
            if opt["T"] is not None:
                if opt["T"] < series.window_end:
                    raise ConfigError([f"contrast.T: window end {opt['T']:g} before the last "
                                       f"event at {series.window_end:g}"])
                series = replace(series, window_end=opt["T"])
            value = contrasts.contrast_statistic(series, g)
            doc = {"statistic": value, "n_events": len(series),
                   "window_end": series.window_end, "H": g.support_radius}
        else:
            params = _model(cfg, theta=0.0)
            # the exact mean checks H against the lag grid before any window is drawn
            grid = cumulant3.invert_bispectrum(params)
            mean = contrasts.exact_mean(params, g, opt["T"], grid)
            scan = contrasts.linearity_scan(params, g, opt["T"], opt["theta"],
                                            opt["reps"], cfg.seed)
            doc = {"thetas": scan.thetas.tolist(), "means": scan.means.tolist(),
                   "stderrs": scan.stderrs.tolist(),
                   "slope": scan.slope, "slope_stderr": scan.slope_stderr,
                   "intercept": scan.intercept, "intercept_stderr": scan.intercept_stderr,
                   "mu_Tg": mean.mu_Tg, "gap_bound": mean.gap_bound}
        outputs.append(write_json(out_dir / "contrast.json", doc))

    elif cfg.command == "mc-validate":
        override = _model(cfg, theta=1.0) if opt["m"] is not None else None
        report = montecarlo.validate_suite(opt["suite"], opt["level"], cfg.seed,
                                           params=override)
        outputs.append(write_json(out_dir / f"mc_{opt['suite']}.json", report))
        if not report["pass"]:
            exit_code = 1

    elif cfg.command == "asym-check":
        from .asymptotics import diag_limit_check

        params = _model(cfg, theta=1.0)
        ts = [t for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5) if t >= opt["tmin"]] or [opt["tmin"]]
        report = diag_limit_check(params, t_list=ts)
        doc = {"regime": report.regime, "power": report.power,
               "limit": None if not np.isfinite(report.limit) else report.limit,
               "t": report.t_values.tolist(), "im_b": report.im_values.tolist(),
               "ratios": report.ratios.tolist(),
               "underflow": report.underflow.tolist(), "converged": report.converged}
        outputs.append(write_json(out_dir / "asym_check.json", doc))

    manifest = {
        "config": json.loads(cfg.to_json()),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
        **record,
    }
    write_json(out_dir / "manifest.json", manifest)
    return exit_code


def main(argv=None) -> int:
    cfg = None
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except Refused as exc:   # an input refused by name, while parsing or running
        for v in getattr(exc, "violations", [exc]):
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault: surface the command and the error, fail loudly
        print(f"error [{cfg.command if cfg else 'config'}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
