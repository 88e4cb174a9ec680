"""Smoke tests: every demo script, and the README's quick example, runs to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import steerbound

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(steerbound.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run in a temporary directory so the files a demo writes land there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    # pytest's warning filters do not reach a subprocess
    env["PYTHONWARNINGS"] = "error::RuntimeWarning,error::DeprecationWarning"
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


def test_demos_found():
    assert DEMOS


def test_readme_quick_example(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^Quick example:\n\n```python\n(.*?)^```$", readme, re.S | re.M)
    assert block, "README.md has no python block under 'Quick example:'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
