"""Smoke tests: every demo script runs to completion and prints something,
and README's library quick start prints what its comments say."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=tmp_path, env=src_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_what_it_says(tmp_path, src_env):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no library quick start block"
    proc = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        capture_output=True, text=True, cwd=tmp_path, env=src_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, ghost, value, residual = proc.stdout.splitlines()
    assert ghost == "0.0" and value == "-2" and residual.startswith("0.10206")
    assert math.isclose(float(residual), 2 / math.sqrt(384), rel_tol=1e-12)
