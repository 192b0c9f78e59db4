"""Experiment reports: per-trial rows, exact failure frequencies, Wilson bands.

Serialized outputs (JSON dict, CSV rows) are fully determined by the report's
rows and config echo; wall-clock time is kept on the object for display but
excluded from files so fixed-seed runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .core import _checked_int

__all__ = ["ExperimentReport", "wilson_interval"]

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion; behaves at small counts."""
    refusal = f"Wilson interval needs 0 <= successes <= total >= 1, got {successes}/{total}"
    total = _checked_int("total", total, 1, message=refusal)
    successes = _checked_int("successes", successes, 0, total, message=refusal)
    p, z = successes / total, WILSON_Z
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return (lo, hi)


@dataclass
class ExperimentReport:
    """Per-trial robust risks and the failure frequency at a threshold."""

    name: str
    config: dict[str, Any]
    threshold: float
    risks: tuple[float, ...]
    failures: tuple[bool, ...]
    wall_clock: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if len(self.risks) != len(self.failures):
            raise ValueError("risks and failures must align per trial")
        if not self.risks:
            raise ValueError("a report needs at least one trial")

    @property
    def trials(self) -> int:
        return len(self.risks)

    @property
    def failure_count(self) -> int:
        return sum(self.failures)

    @property
    def failure_frequency(self) -> Fraction:
        return Fraction(self.failure_count, self.trials)

    @property
    def wilson95(self) -> tuple[float, float]:
        return wilson_interval(self.failure_count, self.trials)

    def to_dict(self) -> dict[str, Any]:
        lo, hi = self.wilson95
        return {
            "name": self.name,
            "config": self.config,
            "threshold": self.threshold,
            "trials": self.trials,
            "failure_count": self.failure_count,
            "failure_frequency": float(self.failure_frequency),
            "wilson95": [lo, hi],
            "risks": [float(r) for r in self.risks],
            "failed": [bool(f) for f in self.failures],
        }

    def to_csv(self) -> str:
        lines = ["trial,risk,failed"]
        for t, (risk, failed) in enumerate(zip(self.risks, self.failures)):
            lines.append(f"{t},{float(risk)!r},{int(failed)}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lo, hi = self.wilson95
        return (
            f"{self.name}: {self.failure_count}/{self.trials} trials over threshold "
            f"{self.threshold:.6g} (frequency {float(self.failure_frequency):.4f}, "
            f"wilson95 [{lo:.4f}, {hi:.4f}])"
        )
