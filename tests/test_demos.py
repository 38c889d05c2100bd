"""Smoke test: every script under demos/, and the README quickstart, runs to
completion.

Each runs in a subprocess from a temporary working directory with the
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


def _readme_quickstart() -> str:
    """The first ```python block under README's "Library quickstart" heading."""
    section = (REPO / "README.md").read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# The arguments of each run after the interpreter, by test id.
RUNS = {**{demo.name: [str(demo)] for demo in DEMOS}, "README.md": ["-c", _readme_quickstart()]}
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


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
def test_demo_runs(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _snapshot()
    result = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert _snapshot() == before
