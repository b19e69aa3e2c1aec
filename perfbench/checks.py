"""The benchmark's own tests: BENCHMARK.json schema, tracer behaviour, and a
short smoke pass of every workload with a schema check of the emitted JSON.

    python3 -m pytest -q perfbench/checks.py

The file name keeps these tests out of the repository's default test run; the
smoke pass takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, STATS, Tracer, layer_metrics, per_layer_metrics  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in BENCH["command"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 1 <= len(BENCH["paths"]) <= 16
    for p in BENCH["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == per_layer_metrics()
    assert set(STATS) == set(LAYERS)


FAKE_SOURCE = """
def inner(x):
    return x + 1

def outer(x):
    return inner(x) + inner(x)
"""


def test_tracer_self_time_and_absent_span(monkeypatch):
    import types

    fake = types.ModuleType("qclab.fakemod")
    exec(FAKE_SOURCE, fake.__dict__)
    user = types.ModuleType("qclab.fakeuser")
    user.inner = fake.inner             # imported under the same name elsewhere
    original = fake.inner
    monkeypatch.setitem(sys.modules, "qclab.fakemod", fake)
    monkeypatch.setitem(sys.modules, "qclab.fakeuser", user)
    tracer = Tracer({"fakemod.outer": None, "fakemod.inner": None, "fakemod.renamed": None})
    tracer.install()
    try:
        assert user.inner is fake.inner is not original
        assert fake.outer(1) == 4
    finally:
        tracer.uninstall()
    assert fake.inner is original and user.inner is original
    assert tracer.absent == ["fakemod.renamed"]
    totals = tracer.take()
    assert [t[1] for t in totals] == [1, 2, 0]
    outer_span, *inner_spans = tracer.last_spans
    assert [s[3] for s in inner_spans] == [0, 0]
    inner_time = sum(s[2] - s[1] for s in inner_spans)
    assert math.isclose(totals[0][0], outer_span[2] - outer_span[1] - inner_time)


def test_layer_metrics_of_an_absent_layer_are_zero():
    names = list(LAYERS)
    metrics = layer_metrics(names, [[[0.0, 0, 0, 0] for _ in names]], [1.0])
    assert metrics["regions.classify.ns_per_atom"] == {"value": 0.0, "unit": "ns"}
    assert metrics["convergence.solve_equilibrium.failed"]["value"] == 0


def test_refuses_to_run_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as empty:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "lab_mixed_small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_the_contract(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(details["versions"]) == {"python", "numpy", "scipy", "qclab"}
    assert len(details["setup_samples"]) == run.SETUP_RUNS and details["study_samples"]
