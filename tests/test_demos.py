"""Every demo script runs, prints, and prints the same thing twice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_is_deterministic(demo):
    first = _run(demo)
    assert first.returncode == 0, first.stderr
    assert first.stdout.strip()
    second = _run(demo)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
