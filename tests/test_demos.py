"""Smoke-run every demo script and the README quickstart; they must execute cleanly end to end."""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {"__name__": "__quickstart__"})
    assert capsys.readouterr().out == "0\n6 3 2/3\n"
