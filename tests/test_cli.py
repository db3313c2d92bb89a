"""Command-line surface: validation, dispatch, manifests, reproducibility."""

import ast
import hashlib
import importlib
import json
import math
import pkgutil
import shlex
from pathlib import Path

import numpy as np
import pytest

import clusterbispec
from clusterbispec.cli import COMMANDS, GLOBAL_OPTIONS, ConfigError, RunConfig, main, parse_config
from clusterbispec.kernels import Refused
from clusterbispec.simulate import write_columns, write_json


def run_cli(tmp_path, *args):
    return main(["--out-dir", str(tmp_path), *args])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config(["simulate", "--m", "1.2", "--kernel", "weibull:1"])
    text = "; ".join(err.value.violations)
    assert "params.m" in text and "branching ratio" in text
    assert "params.kernel" in text and "exp:beta" in text  # names valid families
    assert "simulate.T" in text
    assert len(err.value.violations) >= 3


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="command"):
        parse_config(json_doc=json.dumps({"command": "frobnicate"}))


def test_config_json_round_trip():
    cfg = parse_config(["--seed", "9", "simulate", "--m", "0.4", "--kernel", "exp:1",
                        "--T", "50"])
    again = parse_config(json_doc=cfg.to_json())
    assert again == cfg
    assert RunConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()


MODEL = {"m": 0.5, "kernel": "exp:1"}
MALFORMED_CONFIGS = {
    # `threads` is not an option: an older manifest's echo that names it has an unknown key
    "threads-string": {"command": "spectrum", "threads": "2", "options": MODEL},
    "threads-echo": {"command": "spectrum", "threads": 1, "options": MODEL},
    "options-list": {"command": "spectrum", "options": [1]},
    "document-list": [1, 2],
    "no-command": {"options": MODEL},
    "n-float": {"command": "invert", "options": {**MODEL, "n": 100.0}},
    "m-string": {"command": "spectrum", "options": {"m": "0.5", "kernel": "exp:1"}},
    "theta-string": {"command": "contrast",
                     "options": {"action": "scan", **MODEL, "T": 50, "theta": "-1,0,1"}},
    "seed-string-simulate": {"command": "simulate", "seed": "x",
                             "options": {**MODEL, "T": 10}},
    "seed-string-spectrum": {"command": "spectrum", "seed": "x", "options": MODEL},
    "unknown-option": {"command": "spectrum", "options": {**MODEL, "omega-max": 5}},
    "T-bool": {"command": "simulate", "options": {**MODEL, "T": True}},
    "invalid-json": "{not json",
    "missing-file": None,
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_is_a_config_error(name, tmp_path, capsys):
    doc = MALFORMED_CONFIGS[name]
    path = tmp_path / "run.json"
    if doc is not None:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(json_doc=text)
    assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


REQUIRED_ONLY = {   # command -> (argv, JSON options), each with only the required inputs
    "simulate": (["simulate", "--m", "0.5", "--kernel", "exp:1", "--T", "100"],
                 {**MODEL, "T": 100}),
    "spectrum": (["spectrum", "--m", "0.5", "--kernel", "exp:1"], MODEL),
    "bispectrum": (["bispectrum", "--m", "0.5", "--kernel", "exp:1"], MODEL),
    "invert": (["invert", "--m", "0.5", "--kernel", "exp:1"], MODEL),
    "match": (["match", "--m", "0.5", "--kernel", "exp:1", "--out", "k.json"],
              {**MODEL, "out": "k.json"}),
    "contrast-run": (["contrast", "run", "--events", "events.csv"],
                     {"action": "run", "events": "events.csv"}),
    "contrast-scan": (["contrast", "scan", "--m", "0.5", "--kernel", "exp:1", "--T", "100"],
                      {"action": "scan", **MODEL, "T": 100}),
    "mc-validate": (["mc-validate", "--suite", "moments"], {"suite": "moments"}),
    "asym-check": (["asym-check", "--m", "0.5", "--kernel", "exp:1"], MODEL),
}


@pytest.mark.parametrize("case", REQUIRED_ONLY)
def test_json_config_takes_the_flag_defaults(case):
    argv, options = REQUIRED_ONLY[case]
    command = argv[0]
    from_json = parse_config(json_doc=json.dumps({"command": command, "options": options}))
    assert from_json == parse_config(argv)
    # every option is filled in, so the manifest's echo lists each value used
    assert set(from_json.options) == set(COMMANDS[command][1])
    assert (from_json.seed, from_json.out_dir, from_json.format) == (0, ".", "csv")


# values just inside and just outside each declared rule, by (command, option) or by
# option for every command that declares it; the "seed" rule is a global option's
JUST_INSIDE = {
    "seed": 0, "nu": 5e-324, "m": (5e-324, 1.0 - 2**-53), ("simulate", "theta"): (-1.0, 1.0),
    "T": 5e-324, "omega_max": 5e-324, "half_width": 5e-324,
    "H": 5e-324, "tmin": 5e-324, "reps": 2, ("spectrum", "n"): (2, 2**22),
    ("bispectrum", "n"): (2, 2048), ("invert", "n"): (64, 2048),
    ("contrast", "theta"): ([-1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.5]),
}
JUST_OUTSIDE = {
    "seed": -1, "nu": (0.0, -5e-324), "m": (0.0, 1.0),
    ("simulate", "theta"): (-1.0 - 2**-52, 1.0 + 2**-52),
    "T": (0.0, -5e-324), "omega_max": 0.0, "half_width": 0.0,
    "H": 0.0, "tmin": 0.0, "reps": 1, ("spectrum", "n"): (1, 2**22 + 1),
    ("bispectrum", "n"): (1, 2049), ("invert", "n"): (32, 96, 4096),
    ("contrast", "theta"): ([0.0, 1.0], [0.5, 0.5, 0.5], [-1.0, 0.0, 1.0 + 2**-52]),
}


def _declared(command):
    """(label, key, inside values, outside values) of each option with a rule;
    a global option's key starts with "@"."""
    options = {**{f"@{k}": o for k, o in GLOBAL_OPTIONS.items()}, **COMMANDS[command][1]}
    for key, opt in options.items():
        if opt.rules:
            name = key.lstrip("@")
            label = ("" if key[0] == "@" else opt.label or f"{command}.") + name
            inside, outside = (table.get((command, name), table.get(name))
                               for table in (JUST_INSIDE, JUST_OUTSIDE))
            yield label, key, *(v if isinstance(v, tuple) else (v,) for v in (inside, outside))


@pytest.mark.parametrize("case", REQUIRED_ONLY)
def test_each_declared_rule_refuses_just_outside_it(case):
    # a rule declared in COMMANDS without a row in the tables above fails here
    command = REQUIRED_ONLY[case][0][0]
    options = {**MODEL, **REQUIRED_ONLY[case][1]}      # m needs the kernel in every command
    base = {"command": command, "options": options}
    parse_config(json_doc=json.dumps(base))             # every default is accepted
    for label, key, inside, outside in _declared(command):
        assert None not in inside + outside, f"{label} has no boundary values"

        def doc(value):
            if key[0] == "@":
                return json.dumps({**base, key[1:]: value})
            return json.dumps({**base, "options": {**options, key: value}})

        for value in inside:
            parse_config(json_doc=doc(value))
        for value in outside:
            with pytest.raises(ConfigError) as err:
                parse_config(json_doc=doc(value))
            (violation,) = err.value.violations
            assert violation.startswith(f"{label}: ") and not violation.endswith(": required")


def test_a_model_option_is_labelled_alike_for_type_and_range():
    for m in ("0.5", 1.5):
        doc = {"command": "spectrum", "options": {"m": m, "kernel": "exp:1"}}
        with pytest.raises(ConfigError) as err:
            parse_config(json_doc=json.dumps(doc))
        (violation,) = err.value.violations
        assert violation.startswith("params.m: "), violation


def test_violations_of_each_kind_are_all_reported():
    with pytest.raises(ConfigError) as err:
        parse_config(["contrast", "scan", "--m", "0.5", "--kernel", "weibull:1", "--reps", "1"])
    bad = err.value.violations
    assert len(bad) == 3
    assert "contrast.reps: need at least two replicates" in bad       # a declared range
    assert "contrast.T: required" in bad                              # a required input
    assert any(v.startswith("params.kernel: unknown kernel spec") for v in bad)


@pytest.mark.parametrize("argv, label", [
    (["bispectrum", "--n", "1000000"], "bispectrum.n"),
    (["invert", "--n", "4194304"], "invert.n"),
    (["spectrum", "--n", "10000000000"], "spectrum.n"),
])
def test_grids_beyond_the_budget_are_refused_before_any_work(argv, label):
    with pytest.raises(ConfigError) as err:
        parse_config([*argv, "--m", "0.5", "--kernel", "exp:1"])
    assert err.value.violations == [
        f"{label}: must be <= {2**22 if argv[0] == 'spectrum' else 2048}, "
        "within the grid budget of 4194304 cells"]


@pytest.mark.parametrize("argv, missing", [
    (["contrast", "run", "--events", "events.csv", "--m", "0.5"], "params.kernel"),
    (["contrast", "run", "--events", "events.csv", "--kernel", "exp:1"], "params.m"),
    (["mc-validate", "--suite", "moments", "--kernel", "exp:1"], "params.m"),
])
def test_a_model_is_given_whole_or_not_at_all(argv, missing):
    with pytest.raises(ConfigError) as err:
        parse_config(argv)
    assert err.value.violations == [f"{missing}: required"]


def test_format_help_says_where_it_applies(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "format of the spectrum and bispectrum grids" in text


def test_global_flags_before_or_after_subcommand(tmp_path):
    flags = ["--seed", "3", "--out-dir", str(tmp_path), "--format", "json"]
    command = ["simulate", "--m", "0.5", "--kernel", "exp:1", "--T", "1e4"]
    first = parse_config(flags + command)
    assert parse_config(command + flags) == first
    assert (first.seed, first.out_dir, first.format) == (3, str(tmp_path), "json")
    with pytest.raises(SystemExit):   # argparse's usage error, exit 2
        parse_config(["--threads", "2"] + command)


def test_uniform_alias_accepted():
    cfg = parse_config(["bispectrum", "--m", "0.5", "--kernel", "uniform:1"])
    assert cfg.options["kernel"] == "uniform:1"


def test_cli_exit_code_2_on_bad_config(capsys):
    assert main(["simulate", "--m", "2.0", "--kernel", "exp:1", "--T", "10"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_2_on_unreadable_kernel_file(tmp_path, capsys):
    folder = tmp_path / "kernel.json"   # a directory where a kernel file belongs
    folder.mkdir()
    for spec in (f"match:{folder}", f"tab:{folder}"):
        assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", spec) == 2
        assert "params.kernel" in capsys.readouterr().err


def test_cli_match_path_of_any_suffix_names_the_file(tmp_path, capsys):
    # a single field after match: is a saved kernel's path, whatever its suffix,
    # so a directory or a text file is refused by its name, not as spec ''
    folder = tmp_path / "kernels"
    folder.mkdir()
    text = tmp_path / "kernel.txt"
    text.write_text("not a kernel\n")
    for path in (folder, text):
        assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", f"match:{path}") == 2
        err = capsys.readouterr().err
        assert f"{path}: cannot read a matched-kernel file" in err, err


@pytest.mark.parametrize("argv", [
    ["match", "build", "--m", "0.5", "--kernel", "slap:1", "--out", "m.json"],
    ["asym-check", "--m", "0.5", "--kernel", "slap:1"],
    ["asym-check", "--m", "0.5", "--kernel", "match:exp:1:0.5"],
])
def test_cli_exit_code_2_on_unsupported_kernel(argv, tmp_path, capsys):
    assert run_cli(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_cli_exit_code_2_on_padding_budget(tmp_path, capsys):
    # the window's members, nu T / (1 - m) = 2.04e7, exceed the simulator's budget of 2e7
    assert run_cli(tmp_path, "simulate", "--nu", "2", "--m", "0.5", "--kernel", "lomax:0.5",
                   "--T", "5.1e6") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "immigrants" in err
    assert not (tmp_path / "events.csv").exists()


REFUSED_WHILE_RUNNING = {   # argv ({tmp}: the run's folder) -> the refusal's text
    "missing-events": (["contrast", "run", "--events", "{tmp}/missing.csv"],
                       "missing.csv: cannot read"),
    "unparsable-event": (["contrast", "run", "--events", "{tmp}/bad.csv"],
                         "bad.csv:3: cannot parse 'abc'"),
    "nan-event": (["contrast", "run", "--events", "{tmp}/nan.csv"],
                  "nan.csv: non-finite timestamp at entry 2"),
    "lomax-subnormal-omega": (["spectrum", "--m", "0.5", "--kernel", "lomax:0.05",
                               "--omega-max", "1e-307", "--n", "3"], "Lomax(0.05) transform"),
    "match-spec-near-1": (["spectrum", "--m", "0.5", "--kernel", "match:exp:1:0.9999"],
                          "params.kernel: bad kernel spec"),
    "match-build-near-1": (["match", "build", "--m", "0.9999", "--kernel", "exp:1",
                            "--out", "m.json"], "limit of 1e6 terms"),
    "match-lomax-quantile-overflows": (["match", "build", "--m", "1e-9", "--kernel",
                                        "lomax:0.01", "--out", "m.json"],
                                       "Lomax(0.01) quantile at 1e-10 overflows"),
    "match-uhalf-square-overflows": (["match", "build", "--m", "0.5", "--kernel",
                                      "uhalf:1e300", "--out", "m.json"],
                                     "UniformHalf(1e+300) autocorrelation"),
    "match-uhalf-square-underflows": (["match", "build", "--m", "1e-9", "--kernel",
                                       "uhalf:1e-300", "--out", "m.json"],
                                      "UniformHalf(1e-300) autocorrelation"),
    "bump-H-underflows": (["contrast", "run", "--events", "{tmp}/events.csv", "--H", "1e-200"],
                          "bump support radius H = 1e-200"),
    "bump-H-overflows": (["contrast", "run", "--events", "{tmp}/events.csv", "--H", "3e154"],
                         "bump support radius H = 3e+154"),
    "high-m-window": (["simulate", "--m", "0.999", "--kernel", "exp:1", "--T", "10"],
                      "cluster members at m = 0.999, above the budget"),
    "asym-uhalf-moments-overflow": (["asym-check", "--m", "0.5", "--kernel", "uhalf:1e300"],
                                    "mixing moments (1e+300, inf, nan) leave the double range"),
    "asym-uhalf-moments-underflow": (["asym-check", "--m", "0.5", "--kernel", "uhalf:1e-300"],
                                     "mixing moments (1e-300, 0.0, 0.0) leave the double range"),
    "mc-intensity-overflows": (["mc-validate", "--suite", "bispectrum", "--m", "0.5",
                                "--kernel", "exp:1", "--nu", "1e308"],
                               "nu / (1 - m) overflows at nu = 1e+308"),
    "asym-intensity-overflows": (["asym-check", "--m", "0.5", "--kernel", "exp:1",
                                  "--nu", "1e308"], "nu / (1 - m) overflows at nu = 1e+308"),
}


@pytest.mark.parametrize("case", REFUSED_WHILE_RUNNING)
def test_named_refusals_exit_2(case, tmp_path, capsys, monkeypatch):
    # a refusal raised anywhere, while parsing or running, is one config error
    # line and exit 2, with no traceback and no manifest; the window is refused
    # before any cluster grows
    import clusterbispec.simulate as simulate

    def grown(*args):
        raise AssertionError("a cluster grew in a refused window")

    monkeypatch.setattr(simulate, "sample_clusters_batch", grown)
    for name, text in (("bad.csv", "t\n1\nabc\n"), ("nan.csv", "t\n1\nnan\n"),
                       ("events.csv", "t\n1\n2\n3\n")):
        (tmp_path / name).write_text(text)
    argv, expected = REFUSED_WHILE_RUNNING[case]
    assert run_cli(tmp_path, *(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert line.startswith("config error: ") and expected in line
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, n", [("spectrum", "9"), ("bispectrum", "8")])
def test_a_grid_that_overflows_is_refused_before_it_is_written(command, n, fmt, tmp_path,
                                                               capsys):
    # lam = 1e299 is finite, but lam / (1 - m)^2 at w = 0 is not: numpy warns
    # of the overflow, then the grid is refused by name and nothing is written
    assert run_cli(tmp_path, "--format", fmt, command, "--nu", "1e290", "--m", "0.999999999",
                   "--kernel", "exp:1", "--n", n) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"config error: {command} grid: ") and "not finite" in last
    assert list(tmp_path.iterdir()) == []


def test_a_laplace_rate_at_the_bottom_of_the_range_gives_its_spectrum(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--m", "1e-300", "--kernel", "slap:1e-200",
                   "--omega-max", "1e-300", "--n", "2") == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows == ["w,re,im", "-1e-300,1.0,0.0", "1e-300,1.0,0.0"]


class UnseenRefusal(Refused):
    """A refusal the command line names nowhere."""


@pytest.mark.parametrize("error, code, text", [
    (UnseenRefusal, 2, "config error: from inside run"),
    (ValueError, 1, "error [spectrum]: ValueError: from inside run"),
    (RuntimeError, 1, "error [spectrum]: RuntimeError: from inside run"),
])
def test_exit_code_follows_the_refused_type(error, code, text, tmp_path, capsys, monkeypatch):
    from clusterbispec import spectra

    def fails(*args):
        raise error("from inside run")

    monkeypatch.setattr(spectra, "bartlett", fails)
    assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", "exp:1", "--n", "8") == code
    assert capsys.readouterr().err == text + "\n"


def test_a_fault_while_parsing_exits_1(tmp_path, capsys, monkeypatch):
    import clusterbispec.cli as cli

    def fails(spec):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, "kernel_from_spec", fails)
    assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", "exp:1") == 1
    assert capsys.readouterr().err == "error [config]: RuntimeError: not a refusal\n"


def test_every_named_exception_is_a_refusal():
    # NegativeDensity and BranchViolation are internal numerical faults, not
    # refused inputs, and stay RuntimeError (exit 1)
    faults = {"NegativeDensity", "BranchViolation"}
    seen = set()
    for info in pkgutil.iter_modules(clusterbispec.__path__):
        module = importlib.import_module(f"clusterbispec.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and not issubclass(
                    obj, Warning):
                seen.add(name)
                kinds = (RuntimeError,) if name in faults else (Refused, ValueError)
                assert all(issubclass(obj, kind) for kind in kinds), name
    assert faults < seen and len(seen) >= 18
    assert clusterbispec.Refused is Refused and "Refused" in clusterbispec.__all__


def test_cli_imports_one_exception_type():
    import clusterbispec.cli as cli

    imported = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(".".join(filter(None, ("clusterbispec",
                                                                    node.module))))
            imported += [getattr(module, alias.name) for alias in node.names]
    assert [obj for obj in imported
            if isinstance(obj, type) and issubclass(obj, BaseException)] == [Refused]


def readme_command_lines() -> list[list[str]]:
    """The argv of each ``clusterbispec ...`` line of README.md, in README order."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text().splitlines()
            if line.startswith("clusterbispec ")]


def test_readme_command_lines_parse():
    # every documented command line parses (nothing runs): a line that stops
    # parsing fails here, not only in the benchmark that runs them
    lines = readme_command_lines()
    assert {argv[0] for argv in lines} == set(COMMANDS)
    for argv in lines:
        parse_config(argv)


README_ARTIFACT_PINS = {   # (README line, extra flags) -> the SHA-256 of each artifact
    ("simulate", ()): {
        "events.csv": "9f1df2845c8265d05849cf7fb15b67b5a9cdc47d5b0c89fcc5839376b19898ac"},
    ("spectrum", ()): {
        "spectrum.csv": "e391e7e40f08e2dd81270ba264ada5e3d6891a5f82e4c607e4f35784a0db87aa"},
    ("spectrum", ("--format", "json")): {
        "spectrum.json": "b6dc90cfd260bdd43e780a2bb02cab47fa167c74dd812ca87a1af1ae39a6c9af"},
    ("bispectrum", ()): {
        "bispectrum.csv": "6ceebcc5c3ea8744de0b785b836fb7ee10c22453d74b87a4fe349c121b876d4b"},
    ("bispectrum", ("--format", "json")): {
        "bispectrum.json": "9faf6cf26485e9185ef80dcd48fec9e978fb59bbcd7a3aa87840ea99c3cdbc75"},
    ("invert", ()): {
        "c3.csv": "272fb5345e0f55086c2e682b779d10e5d6158ef8879cc19a95b7e548baaf67fa",
        "c3_meta.json": "cb8376962a5407b3411ae2997d12f904112ae287f6cdf2e145d0d3483708725c"},
}


@pytest.mark.parametrize("line, extra", README_ARTIFACT_PINS)
def test_readme_lines_keep_their_artifacts(line, extra, tmp_path):
    (argv,) = [argv for argv in readme_command_lines() if argv[0] == line]
    assert run_cli(tmp_path, *argv, *extra) == 0
    pins = README_ARTIFACT_PINS[line, extra]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pins} == pins


@pytest.mark.parametrize("half_width", ["1e-200", "1e200"])
def test_cli_exit_code_2_on_lattice_out_of_range(tmp_path, capsys, half_width):
    assert run_cli(tmp_path, "invert", "--m", "0.5", "--kernel", "exp:1", "--n", "64",
                   "--half-width", half_width) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "lag cells" in err
    assert not (tmp_path / "c3.csv").exists()


def test_contrast_scan_support_beyond_grid_fails_before_simulating(tmp_path, capsys, monkeypatch):
    import clusterbispec.simulate as simulate

    def no_draws(*args, **kwargs):
        raise AssertionError("a window was simulated")

    monkeypatch.setattr(simulate, "_simulate", no_draws)
    assert run_cli(tmp_path, "contrast", "scan", "--m", "0.5", "--kernel", "exp:1",
                   "--T", "1e2", "--reps", "2", "--H", "45") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid half-width" in err
    assert not (tmp_path / "contrast.json").exists()


def test_contrast_scan_needs_two_distinct_thetas(tmp_path, capsys, monkeypatch):
    import clusterbispec.simulate as simulate

    def no_draws(*args, **kwargs):
        raise AssertionError("a window was simulated")

    monkeypatch.setattr(simulate, "_simulate", no_draws)
    assert run_cli(tmp_path, "contrast", "scan", "--m", "0.5", "--kernel", "exp:1",
                   "--T", "20", "--reps", "2", "--theta", "0.5,0.5,0.5") == 2
    err = capsys.readouterr().err
    assert "config error: contrast.theta: need at least two distinct values" in err
    assert not (tmp_path / "contrast.json").exists()


def test_kernel_built_once_per_run(tmp_path, monkeypatch):
    import clusterbispec.cli as cli

    specs = []
    build = cli.kernel_from_spec
    monkeypatch.setattr(cli, "kernel_from_spec", lambda spec: specs.append(spec) or build(spec))
    assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", "exp:1", "--n", "8") == 0
    assert specs == ["exp:1"]


def test_run_validates_a_config_not_from_parse_config(tmp_path):
    from clusterbispec.cli import run

    cfg = parse_config(["--out-dir", str(tmp_path), "spectrum", "--m", "0.5",
                        "--kernel", "exp:1", "--n", "8"])
    rebuilt = RunConfig.from_json(cfg.to_json())   # as from a manifest's config echo
    assert rebuilt == cfg and rebuilt.kernel is None
    assert run(rebuilt) == 0
    assert rebuilt.kernel == cfg.kernel
    doc = json.loads(cfg.to_json())
    doc["options"]["kernel"] = "weibull:1"
    with pytest.raises(ConfigError, match="params.kernel"):
        run(RunConfig.from_json(json.dumps(doc)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_simulate_writes_events_and_manifest(tmp_path):
    args = ("--seed", "3", "simulate", "--nu", "1", "--m", "0.5", "--theta", "1",
            "--kernel", "exp:1", "--T", "200")
    assert run_cli(tmp_path, *args) == 0
    events = (tmp_path / "events.csv").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["options"]["kernel"] == "exp:1"
    assert str(tmp_path / "events.csv") in manifest["outputs"]
    # the window record: what the near and far parts drew, and no pad
    window = manifest["window"]
    assert set(window) == {"near_immigrants", "far_proposals", "far_clusters"}
    assert 0 <= window["far_clusters"] <= window["far_proposals"]
    assert abs(window["near_immigrants"] - 200) < 5 * 200**0.5
    assert abs(window["far_proposals"] - 200) < 5 * 200**0.5   # rate nu T m / (1 - m)
    # rerun reproduces the artifact byte for byte
    assert run_cli(tmp_path, *args) == 0
    assert (tmp_path / "events.csv").read_text() == events


def test_bispectrum_uniform_kernel_metadata(tmp_path):
    code = run_cli(tmp_path, "--format", "json", "bispectrum", "--m", "0.5",
                   "--kernel", "uniform:1", "--n", "24", "--omega-max", "15")
    assert code == 0
    doc = json.loads((tmp_path / "bispectrum.json").read_text())
    assert doc["meta"]["max_abs_im"] <= 1e-10
    assert doc["meta"]["envelope"] == pytest.approx(44.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("extra", [["--form", "R"], ["--form", "Q"], ["--factorial"]])
def test_bispectrum_grid_is_the_meshgrid_evaluation(tmp_path, fmt, extra):
    # the command evaluates a column against a row; each cell as at the full meshgrid
    from clusterbispec import spectra
    from clusterbispec.kernels import Lomax
    from clusterbispec.simulate import ModelParams

    assert run_cli(tmp_path, "--format", fmt, "bispectrum", "--m", "0.5", "--kernel",
                   "lomax:1.5", "--n", "17", "--omega-max", "5", *extra) == 0
    p, axis = ModelParams(1.0, 0.5, 0.0, Lomax(1.5)), np.linspace(-5.0, 5.0, 17)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    vals = np.asarray(spectra.b_factorial(p, W1, W2) if extra == ["--factorial"]
                      else spectra.b_complete(p, W1, W2, form=extra[1]))
    want = tmp_path / f"want.{fmt}"
    if fmt == "csv":
        write_columns(want, ["w1", "w2", "re", "im"], W1, W2, vals.real, vals.imag)
    else:
        doc = json.loads((tmp_path / "bispectrum.json").read_text())
        freqs = np.column_stack([W1.ravel(), W2.ravel()]).tolist()
        write_json(want, {"dims": 2, "frequencies": freqs, "re": vals.real.ravel().tolist(),
                          "im": vals.imag.ravel().tolist(), "meta": doc["meta"]})
        assert doc["meta"]["max_abs_im"] == float(np.max(np.abs(vals.imag)))
    assert (tmp_path / f"bispectrum.{fmt}").read_bytes() == want.read_bytes()


def test_spectrum_csv_output(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--m", "0.5", "--kernel", "exp:1",
                   "--n", "16") == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "w,re,im"
    assert len(lines) == 17


def test_invert_command(tmp_path):
    assert run_cli(tmp_path, "invert", "--m", "0.5", "--kernel", "exp:1",
                   "--n", "64", "--half-width", "30") == 0
    meta = json.loads((tmp_path / "c3_meta.json").read_text())
    assert meta["n"] == 64
    header = (tmp_path / "c3.csv").read_text().splitlines()[0]
    assert header == "tau1,tau2,c3,c3_odd"


def test_match_build_and_reload(tmp_path):
    assert run_cli(tmp_path, "match", "build", "--m", "0.5", "--kernel", "exp:1",
                   "--out", "matched.json") == 0
    from clusterbispec.kernels import kernel_from_spec

    k = kernel_from_spec(f"match:{tmp_path / 'matched.json'}")
    assert abs(complex(k.transform(0.0)) - 1.0) < 1e-6


def test_contrast_run(tmp_path):
    events = tmp_path / "events.csv"
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, 50, 120))
    events.write_text("t\n" + "\n".join(str(t) for t in times))
    assert run_cli(tmp_path, "contrast", "run", "--events", str(events),
                   "--g", "bump", "--H", "3") == 0
    doc = json.loads((tmp_path / "contrast.json").read_text())
    assert doc["n_events"] == 120
    assert "statistic" in doc
    assert doc["window_end"] == pytest.approx(times.max())  # defaults to max time

    assert run_cli(tmp_path, "contrast", "run", "--events", str(events),
                   "--g", "bump", "--H", "3", "--T", "50") == 0
    doc = json.loads((tmp_path / "contrast.json").read_text())
    assert doc["window_end"] == 50.0  # flag overrides the window end


@pytest.mark.parametrize("T", ["1.5", "0", "-5"])
def test_contrast_run_window_end_is_checked(T, tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("t\n1\n2\n3\n")
    assert run_cli(tmp_path, "contrast", "run", "--events", str(events), "--T", T) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: contrast.T: window end") and "Traceback" not in err
    assert ("before the last event" in err) == (T == "1.5")
    assert not (tmp_path / "contrast.json").exists()


def test_cli_exit_code_2_on_pair_budget(tmp_path, capsys, monkeypatch):
    from clusterbispec import contrasts

    events = tmp_path / "events.csv"
    events.write_text("t\n" + "\n".join(str(t) for t in np.linspace(0.0, 10.0, 50)))
    monkeypatch.setattr(contrasts, "PAIR_BUDGET", 100)
    assert run_cli(tmp_path, "contrast", "run", "--events", str(events), "--H", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "above the budget" in err
    assert not (tmp_path / "contrast.json").exists()


def test_contrast_scan(tmp_path):
    assert run_cli(tmp_path, "--seed", "5", "contrast", "scan", "--m", "0.5",
                   "--kernel", "exp:1", "--T", "150", "--reps", "30",
                   "--theta", "-1,0,1", "--H", "3") == 0
    doc = json.loads((tmp_path / "contrast.json").read_text())
    assert len(doc["means"]) == 3
    assert {"slope", "intercept", "mu_Tg", "gap_bound"} <= set(doc)


def test_mc_validate_quick(tmp_path):
    assert run_cli(tmp_path, "mc-validate", "--suite", "moments") == 0
    doc = json.loads((tmp_path / "mc_moments.json").read_text())
    assert doc["pass"] and all("z_re" in c for c in doc["comparisons"])


def test_mc_validate_moments_at_the_given_m(tmp_path):
    assert run_cli(tmp_path, "mc-validate", "--suite", "moments", "--m", "0.8",
                   "--kernel", "exp:1") == 0
    doc = json.loads((tmp_path / "mc_moments.json").read_text())
    assert doc["params"]["m"] == 0.8
    assert len(doc["comparisons"]) == 3
    assert all(c["name"].endswith("(m=0.8)") for c in doc["comparisons"])


def test_mc_validate_writes_strict_json_when_no_cluster_branches(tmp_path):
    # at m = 1e-9 no cluster has a child, so every stderr is 0: such a z is null, not
    # Infinity (which strict JSON parsers reject), and the suite still fails
    assert run_cli(tmp_path, "mc-validate", "--suite", "moments", "--m", "1e-9",
                   "--kernel", "exp:1") == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((tmp_path / "mc_moments.json").read_text(), parse_constant=reject)
    assert not doc["pass"] and all(c["z_re"] is None and not c["pass"]
                                   for c in doc["comparisons"])
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"z": math.inf})


def test_mc_validate_bartlett_defaults(tmp_path):
    assert run_cli(tmp_path, "mc-validate", "--suite", "bartlett",
                   "--level", "quick") == 0
    doc = json.loads((tmp_path / "mc_bartlett.json").read_text())
    assert doc["pass"]
    assert all("z_re" in c for c in doc["comparisons"])


def test_contrast_scan_matched_kernel_flat(tmp_path):
    assert run_cli(tmp_path, "--seed", "8", "contrast", "scan", "--m", "0.5",
                   "--kernel", "match:exp:1:0.5", "--T", "150", "--reps", "40",
                   "--theta", "-1,0,1", "--H", "3") == 0
    doc = json.loads((tmp_path / "contrast.json").read_text())
    # symmetric kernel: the slope statistic sits within reporting bands of 0
    assert abs(doc["slope"]) <= 4.0 * doc["slope_stderr"]


def test_asym_check(tmp_path):
    assert run_cli(tmp_path, "asym-check", "--m", "0.5", "--kernel", "exp:1",
                   "--tmin", "1e-3") == 0
    doc = json.loads((tmp_path / "asym_check.json").read_text())
    assert doc["regime"] == "finite_third_moment"
    assert doc["converged"]
    assert min(doc["t"]) == pytest.approx(1e-3)
