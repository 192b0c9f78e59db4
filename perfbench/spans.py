"""Spans recorded from outside the library, around calls into each module.

`instrument(tracer)` rebinds every public function named in `TARGETS` in each
`robustpac` module namespace that holds it, and the
`MajorityVotePredictor.labels_at` method, so calls the library makes to
itself are caught as well as the benchmark's own calls.  Leaving the
context restores the original objects.

Spans are kept in compact arrays: name, start, end, parent span, operation
id (one trial batch or request) and whether an exception escaped.  A span's
self time is its duration minus the durations of its direct children.  The
recorder keeps one stack of open spans, so it assumes the library runs
serially, which holds for its default one-thread trial schedule.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

TARGETS = (
    ("core", "robust_loss"),
    ("core", "empirical_robust_risk"),
    ("core", "population_robust_risk"),
    ("core", "MajorityVotePredictor.labels_at"),
    ("oracles", "rerm"),
    ("learner", "learn_realizable_report"),
    ("learner", "build_candidates"),
    ("learner", "inflate"),
    ("learner", "discretize"),
    ("learner", "alpha_boost"),
    ("learner", "sparsify"),
    ("agnostic", "learn_agnostic"),
    ("agnostic", "max_realizable_subsequence"),
    ("dimensions", "vc"),
    ("dimensions", "dual_vc"),
    ("dimensions", "vc_of_robust_loss_family"),
    ("dimensions", "disjoint_robust_shattering_dim"),
    ("dimensions", "robust_shattering_dim"),
    ("dimensions", "verify_witness"),
    ("sampling", "draw_sample"),
    ("serialization", "loads_instance"),
    ("serialization", "dumps_instance"),
    ("constructions", "make_proper_failure"),
    ("constructions", "make_agnostic_lower_bound"),
    ("constructions", "make_vc_blowup"),
    ("constructions", "make_pair_gap"),
    ("experiments", "run_separation_experiment"),
    ("prng", "rng_stream"),
)

SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS)

# The per-layer metrics: which stats of which spans are reported.
REPORTED = (
    ("core.robust_loss", ("calls", "self_s")),
    ("core.empirical_robust_risk", ("self_s",)),
    ("core.population_robust_risk", ("calls", "self_s")),
    ("core.MajorityVotePredictor.labels_at", ("calls", "self_s")),
    ("oracles.rerm", ("calls", "self_s")),
    ("learner.learn_realizable_report", ("calls", "self_s")),
    ("learner.build_candidates", ("calls", "self_s")),
    ("learner.inflate", ("calls", "self_s")),
    ("learner.discretize", ("calls", "self_s")),
    ("learner.alpha_boost", ("calls", "self_s", "failed")),
    ("learner.sparsify", ("calls", "self_s")),
    ("agnostic.learn_agnostic", ("self_s",)),
    ("agnostic.max_realizable_subsequence", ("self_s",)),
    ("dimensions.vc", ("calls", "self_s")),
    ("dimensions.dual_vc", ("calls", "self_s")),
    ("dimensions.vc_of_robust_loss_family", ("calls", "self_s")),
    ("dimensions.disjoint_robust_shattering_dim", ("calls", "self_s")),
    ("dimensions.robust_shattering_dim", ("calls", "self_s")),
    ("dimensions.verify_witness", ("self_s",)),
    ("sampling.draw_sample", ("calls", "self_s")),
    ("serialization.loads_instance", ("self_s",)),
    ("serialization.dumps_instance", ("self_s",)),
    ("constructions.make_proper_failure", ("self_s",)),
    ("constructions.make_agnostic_lower_bound", ("self_s",)),
    ("constructions.make_vc_blowup", ("self_s",)),
    ("constructions.make_pair_gap", ("self_s",)),
    ("experiments.run_separation_experiment", ("self_s",)),
    ("prng.rng_stream", ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "failed": "count"}
DERIVED = (
    ("learner.sparsify.fallbacks", "count"),
    ("learner.n_growth_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
)


class Tracer:
    """In-memory span recorder; `clock` is injectable so tests can fix times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.events: dict[str, int] = {}
        self.op_id = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` recorded as span `name`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.op.append(self.op_id)
            self.failed.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = self.clock()
                self._open.pop()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def count(self, event: str) -> None:
        self.events[event] = self.events.get(event, 0) + 1

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        duration = _copy(self.end, np.float64) - _copy(self.start, np.float64)
        parent = _copy(self.parent, np.int32)
        covered = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        return duration - covered

    def layer_stats(self, since: int = 0) -> dict[str, dict[str, float]]:
        """calls, self_s and failed per span name, over spans from index `since` on."""
        own = self.self_times()[since:]
        names = _copy(self.name_id, np.int32)[since:]
        failed = _copy(self.failed, np.int8)[since:]
        stats = {}
        for nid, name in enumerate(self.names):
            mine = names == nid
            stats[name] = {
                "calls": int(mine.sum()),
                "self_s": float(own[mine].sum()),
                "failed": int(failed[mine].sum()),
            }
        return stats

    def write(self, path) -> None:
        """One header line naming the spans, then one CSV row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("name,start,end,parent,op,failed\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.name_id[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.op[i]},{self.failed[i]}\n"
                )


def _copy(values: array, dtype) -> np.ndarray:
    # A copy, not a view: a live view would stop the array from growing.
    return np.frombuffer(values, dtype=dtype).copy()


def _count_fallbacks(tracer: Tracer, sparsify: Callable) -> Callable:
    """`sparsify`, counting the calls that fell back to the full voter list.

    With T > 1 voters and draw size N, a successful draw returns N indices
    and the fallback returns all T.  A T-index return is therefore a
    fallback when T != N; when T == N the two cannot be told apart, and the
    call is not counted.
    """

    @functools.wraps(sparsify)
    def counted(voters, points, N, *args, **kwargs):
        result = sparsify(voters, points, N, *args, **kwargs)
        if 1 < len(voters) != N and len(result) == len(voters):
            tracer.count("learner.sparsify.fallbacks")
        return result

    return counted


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every call to a TARGETS function through `tracer` while inside."""
    modules = [m for name, m in list(sys.modules.items()) if name == "robustpac" or name.startswith("robustpac.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            home = sys.modules[f"robustpac.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, tracer.wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = tracer.wrap(name, original)
            if name == "learner.sparsify":
                wrapped = _count_fallbacks(tracer, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
