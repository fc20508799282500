"""Every demo script, and the README's Python code, runs against the current public API."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_exist():
    assert len(DEMOS) >= 5


def run_demo(path):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    assert run_demo(path)


def test_demo_02_finds_every_ideal_admissible():
    out = run_demo(ROOT / "demos" / "02_ideals_and_densities.py")
    verdicts = dict(re.findall(r"^  (\w+) +(admissible|NOT admissible): ", out, re.M))
    assert verdicts == {"finite": "admissible", "density": "admissible", "blocks": "admissible"}
    assert "FAILED" not in out


def test_readme_python_blocks_run():
    assert README_BLOCKS
    for block in README_BLOCKS:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
        # each printed line is what the block's comments say it prints
        for line in out.getvalue().splitlines():
            assert f"# {line}" in block
