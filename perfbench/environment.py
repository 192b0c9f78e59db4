"""Locating the library in the checkout, and the record kept with each result."""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class MissingLibrary(RuntimeError):
    """The checkout holds no `src/robustpac` to benchmark."""


def import_robustpac(root: Path = ROOT):
    """Import `robustpac` from the checkout's `src`, never from anywhere else."""
    src = root / "src"
    if not (src / "robustpac" / "__init__.py").is_file():
        raise MissingLibrary(f"no src/robustpac under {root}")
    sys.path.insert(0, str(src))
    rp = importlib.import_module("robustpac")
    if Path(rp.__file__).resolve().parent != (src / "robustpac").resolve():
        raise MissingLibrary(f"imported robustpac from {rp.__file__}, not from {src}")
    return rp


def commit(root: Path = ROOT) -> str:
    """The checked-out commit read from `.git`, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
