"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Not part of the tier-1 suite (pytest's testpaths name only tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = [name for name, wl in workloads.WORKLOADS.items() if wl.in_process]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCH[section]]
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the only failure at this commit: the documented `simulate … --seed 3`
    expected = {"cli.simulate"} if workload == "cli-readme" else set()
    assert {f["name"] for f in record["failures"]} == expected
    assert record["env"]["seed"] == 3 and record["env"]["loc.spectra"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload in ("scan-exp", "cli-readme"):
        assert result["metrics"]["contrasts.contrast_statistic.peak_alloc_mb"]["value"] > 0


def test_unexpected_cli_exit_makes_run_incorrect(tmp_path):
    wl = workloads.WORKLOADS["cli-readme"]
    documented = ("simulate", dict(wl.inputs(None, wl.sizes["full"])["lines"])["simulate"])
    bad = ("spectrum", ["spectrum", "--m", "1.5", "--kernel", "exp:1", "--n", "8"])

    def tally(*lines):
        checks = workloads.Checks()
        wl.solve({"lines": list(lines)}, {}, checks, workloads.Context(work_dir=tmp_path))
        return run.tally(checks.items)

    # the documented line exits with its known code 2: failed, still correct
    assert tally(documented) == (1, 1, True)
    # any other nonzero exit makes the run incorrect
    assert tally(documented, bad) == (2, 2, False)


def _bindings():
    """Every name bound in the package's namespaces and traced classes."""
    import clusterbispec  # noqa: F401

    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "clusterbispec" or mod_name.startswith("clusterbispec."):
            out.update({(mod_name, k): v for k, v in vars(mod).items()})
    for mod_name, cls_name, meth, _, _ in tracing.METHODS:
        cls = getattr(sys.modules[f"clusterbispec.{mod_name}"], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged_and_unwraps(workload, tmp_path):
    import clusterbispec.cli  # noqa: F401  (its namespace is patched too)

    wl = workloads.WORKLOADS[workload]
    size = wl.sizes["tiny"]
    before = _bindings()
    outputs = []
    for traced in (False, True):
        inputs = wl.inputs(np.random.default_rng([7, 0]), size)
        checks = workloads.Checks()
        ctx = workloads.Context(work_dir=tmp_path, traced=traced)
        tracer = tracing.Tracer()
        if traced and wl.in_process:
            tracer.install()
            assert tracer.installed
        try:
            wl.solve(inputs, size, checks, ctx)
        finally:
            tracer.uninstall()
        if traced:
            assert tracer.spans or ctx.child_raw
        outputs.append((checks.items, checks.notes))
    assert outputs[0] == outputs[1]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_seed_determines_inputs(workload):
    wl = workloads.WORKLOADS[workload]
    size = wl.sizes["full"]

    def inputs(seed, rep):
        return wl.inputs(np.random.default_rng([seed, rep]), size)

    assert inputs(1, 0) == inputs(1, 0)
    assert inputs(1, 0) != inputs(2, 0)
    assert inputs(1, 0) != inputs(1, 1)


def test_cli_lines_are_the_documented_ones():
    wl = workloads.WORKLOADS["cli-readme"]
    a = wl.inputs(np.random.default_rng([1, 0]), wl.sizes["full"])
    b = wl.inputs(np.random.default_rng([2, 0]), wl.sizes["full"])
    assert a == b
    lines = dict(a["lines"])
    assert lines["simulate"][-2:] == ["--seed", "3"]       # run as written
    assert lines["contrast-scan"][lines["contrast-scan"].index("--reps") + 1] == "10"


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "scan-exp", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(base, [0.50, 0.51, 0.49, 0.50, 0.52], "lower", 0.1) == "better"
    assert compare.verdict(base, [1.50, 1.51, 1.49, 1.50, 1.52], "lower", 0.1) == "worse"
    assert compare.verdict(base, [1.01, 1.00, 1.02, 0.99, 1.01], "lower", 0.1) == "within bound"
    assert compare.verdict([1.0, 2.0, 0.5, 1.5, 1.0], [1.1, 0.6, 2.0, 1.2, 0.9],
                           "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [0.5, 0.5, 0.5], "higher", 0.1) == "worse"
    # a change inside the bound is neither a gain nor a loss
    assert compare.verdict(base, [0.95, 0.95, 0.96, 0.94, 0.95], "lower", 0.1) == "within bound"
    assert compare.verdict(base, [1.05, 1.05, 1.06, 1.04, 1.05], "lower", 0.1) == "within bound"
