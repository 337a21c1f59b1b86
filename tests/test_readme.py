"""The fenced ``python`` blocks of README.md run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_blocks() -> list:
    """One ``pytest.param`` per ```python block, named by its place in file
    order, so an edit above a block does not rename its test."""
    matches = re.finditer(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [pytest.param(match.group(1), id=f"block-{n}") for n, match in enumerate(matches, 1)]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    # a fence regex that matched nothing would pass every block vacuously
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS)
def test_readme_python_block_runs(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
