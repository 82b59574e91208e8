"""The benchmark's contract with the package.  bench/spans.py wraps every
function that bench/run.py lists in LAYERS, looked up by module and name
after `import friedrichs`, and bench/run.py reads the root memo's
cache_info().  A rename in the package breaks that contract without
breaking any other test, and a traced run then only reports
`correct: false`; so does a caller that bypasses a traced function."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import friedrichs

ROOT = Path(__file__).resolve().parents[1]


def _layers():
    """(module, function) of each entry of LAYERS in bench/run.py, read by
    ast: importing run.py sets BLAS environment variables."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["LAYERS"]):
            return [(call.args[1].value, call.args[2].value)
                    for call in node.value.elts]
    raise AssertionError("bench/run.py assigns no LAYERS")


def test_bench_layers_resolve_on_a_fresh_import():
    layers = _layers()
    assert len(layers) > 10
    code = (
        "import sys, friedrichs\n"
        f"layers = {layers!r}\n"
        "modules = {k: v for k, v in sys.modules.items()\n"
        "           if k.startswith('friedrichs.')}\n"
        "print([(m, f) for m, f in layers\n"
        "       if not hasattr(modules.get('friedrichs.' + m), f)])\n"
        "print(hasattr(friedrichs.dispersion._roots_cached, 'cache_info'))\n")
    src = os.path.dirname(os.path.dirname(friedrichs.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


def _workloads():
    return [w["name"] for w in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def traced_runs():
    """A short traced run of each workload, one bench/run.py process per
    workload, all launched at once: {workload: (return code, stdout,
    stderr)}.  Each run writes its own record,
    .bench_out/<workload>-seed1-trace1.json."""
    runs = {workload: subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for workload in _workloads()}
    try:
        out = {workload: run.communicate(timeout=600)
               for workload, run in runs.items()}
    finally:                  # a run left over from a timeout
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.wait()
    return {workload: (run.returncode, *out[workload])
            for workload, run in runs.items()}


@pytest.mark.parametrize("workload", _workloads())
def test_traced_bench_run_is_correct(workload, traced_runs):
    """A short traced run of each workload: every layer its prediction
    list names must record calls, and every item must pass its check, so
    that a caller routed around a traced function fails here and not
    only in the benchmark."""
    returncode, stdout, stderr = traced_runs[workload]
    assert returncode == 0, stderr
    report = json.loads(stdout.strip().splitlines()[-1])
    assert report["correct"] is True, stderr
