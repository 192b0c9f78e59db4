import pytest

from environment import import_robustpac
from spans import SPAN_NAMES, Tracer, instrument


class FakeClock:
    """Returns the queued times in order, one per clock read."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7], which holds inner [2, 5]; leaf [8, 9] is outer's second child.
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0]))
    inner = tracer.wrap("m.inner", lambda: None)
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: inner())
    outer = tracer.wrap("m.outer", lambda: (mid(), leaf()))
    outer()
    assert list(tracer.self_times()) == [10.0 - 6.0 - 1.0, 6.0 - 3.0, 3.0, 1.0]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    stats = tracer.layer_stats()
    assert stats["m.outer"] == {"calls": 1, "self_s": 3.0, "failed": 0}
    assert stats["m.inner"]["self_s"] == 3.0


def test_span_that_raises_is_closed_and_counted():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("m.fail", fail)

    def outer_fn():
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("m.outer", outer_fn)()
    assert list(tracer.self_times()) == [4.0 - 2.0, 2.0]
    stats = tracer.layer_stats()
    assert stats["m.fail"] == {"calls": 1, "self_s": 2.0, "failed": 1}
    assert stats["m.outer"]["failed"] == 0


def test_layer_stats_since_skips_earlier_spans():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 5.0, 7.0]))
    f = tracer.wrap("m.f", lambda: None)
    f()
    f()
    assert tracer.layer_stats(since=1)["m.f"] == {"calls": 1, "self_s": 2.0, "failed": 0}


def test_instrument_catches_library_internal_calls_and_restores():
    rp = import_robustpac()
    original = rp.core.robust_loss
    inst = rp.make_proper_failure(1)
    sample = rp.sample_iid(inst.distributions[0], 4, seed=3)
    tracer = Tracer()
    with instrument(tracer):
        assert rp.learner.empirical_robust_risk is not original
        risk = rp.empirical_robust_risk(inst.family[0], sample, inst.perturbations)
    assert rp.core.robust_loss is original
    assert rp.learner.empirical_robust_risk is rp.core.empirical_robust_risk
    assert "__wrapped__" not in vars(rp.MajorityVotePredictor.labels_at)
    stats = tracer.layer_stats()
    assert stats["core.empirical_robust_risk"]["calls"] == 1
    assert stats["core.robust_loss"]["calls"] == len(sample)
    assert risk == rp.empirical_robust_risk(inst.family[0], sample, inst.perturbations)
    assert set(stats) == set(SPAN_NAMES)
