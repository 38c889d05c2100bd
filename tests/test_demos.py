"""Smoke test: every script under demos/ runs to completion.

Each demo runs in a subprocess from a temporary working directory with the
source tree on PYTHONPATH, and must exit 0 without adding, removing or
changing any file in the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
_IGNORED = {".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out"}


def _snapshot() -> dict:
    files = {}
    for root, dirs, names in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in _IGNORED]
        for name in names:
            path = Path(root) / name
            files[path] = path.stat().st_mtime_ns
    return files


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _snapshot()
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert _snapshot() == before
