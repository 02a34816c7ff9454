"""Every demo script runs to completion on a small election."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pollheap

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src_dir = Path(pollheap.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, str(demo), "--stations", "400", "--iterations", "100"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmp_path.iterdir()) == []
