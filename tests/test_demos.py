"""Smoke runs of the demos: each must import only existing names and exit 0.

The quick Python demos run as scripts.  The CLI walkthrough (demo 06) runs
with a ``sparserc`` shim on ``PATH`` that executes ``python -m sparserc.cli``
from the source tree, so it needs no installed console script; it is the
only end-to-end run of ``evaluate``'s ISE and ``replicate``'s report.  Demo 05
(about ten seconds) is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra)
    return env


def test_quick_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_cli_walkthrough_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "sparserc"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m sparserc.cli "$@"\n')
    shim.chmod(0o755)
    env = _env(PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               TMPDIR=str(tmp_path))
    result = subprocess.run(
        ["bash", str(ROOT / "demos" / "06_cli_walkthrough.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert '"ise":' in result.stdout and "--- table.csv ---" in result.stdout
    assert "sg-2: rmise" in result.stdout
