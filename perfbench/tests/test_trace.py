import json

import pytest

import run
from environment import import_robustpac
from spans import Tracer, instrument
from workloads import WORKLOADS

# Rounds small enough for a quick test, each at least one full request batch.
SHORT_ROUNDS = {"separation": 3, "agnostic": 3, "dims": 1}


def traced_calls(workload: str, seconds: int, capsys) -> dict:
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", str(seconds), "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".failed", ".fallbacks"))}


@pytest.mark.parametrize("workload", sorted(SHORT_ROUNDS))
def test_traced_counts_do_not_depend_on_seconds(workload, monkeypatch, capsys):
    monkeypatch.setattr(WORKLOADS[workload], "trace_rounds", SHORT_ROUNDS[workload])
    short = traced_calls(workload, 1, capsys)
    long = traced_calls(workload, 7, capsys)
    assert short == long
    assert any(short.values())


def test_fallback_is_counted_only_when_it_cannot_be_a_draw():
    rp = import_robustpac()
    calls = []

    def fake_sparsify(voters, points, N, seed=0, attempts=100):
        calls.append(N)
        return tuple(range(len(voters))) if seed else tuple([0] * N)

    tracer = Tracer()
    real = rp.learner.sparsify
    rp.learner.sparsify = fake_sparsify
    try:
        with instrument(tracer):
            sparsify = rp.learner.sparsify
            sparsify([1, 2, 3], None, 5, seed=1)  # 3 indices from a draw of 5: fallback
            sparsify([1, 2, 3], None, N=3, seed=1)  # T == N: indistinguishable, not counted
            sparsify([1, 2, 3], None, 5, seed=0)  # a successful draw
            sparsify([1], None, 5, seed=1)  # one voter is returned as is
    finally:
        rp.learner.sparsify = real
    assert calls == [5, 3, 5, 5]
    assert tracer.events.get("learner.sparsify.fallbacks") == 1
    assert tracer.layer_stats()["learner.sparsify"]["calls"] == 4
