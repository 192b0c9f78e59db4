"""CLI outputs compared byte for byte against files captured in tests/golden/.

Each case runs one command in a fresh working directory and checks its
stdout and its `--out` file.  The goldens pin every printed digit, so a
change to how risks, dimensions or learners are computed must reproduce
them exactly.  After a deliberate output change, regenerate them with

    PYTHONPATH=src python tests/test_golden_cli.py

The instance files these commands read are goldens too: `construct` must
write exactly their bytes, both to stdout and to `--out`.  The script above
does not rewrite them.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from robustpac.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "separation": ["experiment", "separation", "--trials", "40", "--seed", "3"],
    "bound_check": [
        "experiment", "bound-check", "--k", "3", "--m", "50", "--trials", "40", "--seed", "3",
    ],
    "learn": ["learn", "{proper_failure_2}", "--m", "64", "--seed", "7"],
    "learn_dist5": ["learn", "{proper_failure_2}", "--m", "128", "--dist", "5", "--seed", "11"],
    "agnostic": ["agnostic", "{agnostic_lower_bound_4}", "--m", "64", "--seed", "7"],
    # the agnostic boosting loop runs: 68 voters, 3 of them distinct
    "agnostic_loop": ["agnostic", "{proper_failure_2}", "--m", "32", "--dist", "3", "--seed", "1"],
    "dims": ["dims", "{vc_blowup_3}"],
    "k_scaling": ["experiment", "k-scaling", "--trials", "5", "--seed", "3"],
}

CONSTRUCT_CASES = {
    "vc_blowup_3": ["vc-blowup", "--m", "3"],
    "proper_failure_2": ["proper-failure", "--m", "2"],
    "agnostic_lower_bound_4": ["agnostic-lower-bound", "--d", "4", "--alpha", "1/4"],
}


def _argv(case: str) -> list[str]:
    instances = {p.stem: str(p) for p in GOLDEN.glob("*.json")}
    return [a.format(**instances) for a in CASES[case]] + ["--out", f"{case}.out"]


def _run(case: str, workdir: Path) -> tuple[bytes, bytes]:
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(_argv(case)) == 0
    finally:
        os.chdir(cwd)
    return stdout.getvalue().encode(), (workdir / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    stdout, out = _run(case, tmp_path)
    assert stdout == (GOLDEN / f"{case}.stdout").read_bytes()
    assert out == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_writes_the_golden_instance(name, tmp_path, capsys):
    golden = (GOLDEN / f"{name}.json").read_bytes()
    argv = ["construct", *CONSTRUCT_CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == golden
    assert main([*argv, "--out", str(tmp_path / "i.json")]) == 0
    assert (tmp_path / "i.json").read_bytes() == golden


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            stdout, out = _run(name, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"wrote golden outputs for {name}", file=sys.stderr)
