import pytest

from calibration import reference_loop_s, reference_ms


def test_reference_loop_takes_measurable_time():
    assert reference_loop_s() > 0.0


def test_latency_is_divided_by_the_mean_probe_in_the_window():
    # Probes at t = 0, 1, 2, 3 (durations 1, 2, 3, 6); requests between them.
    probes = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 6.0)]
    requests = [(0.5, 0.2), (1.5, 0.2), (2.5, 0.2)]
    # A zero window keeps only the two bracketing probes.
    assert reference_ms(requests, probes, window=0.0) == pytest.approx([0.2 / 1.5, 0.2 / 2.5, 0.2 / 4.5])
    # A window of 0.6 s around request 1 (1.5 .. 1.7) reaches the probes at 1 and 2 only.
    assert reference_ms(requests, probes, window=0.6)[1] == pytest.approx(0.2 / 2.5)
    # A wide window averages every probe.
    assert reference_ms(requests, probes, window=10.0) == pytest.approx([0.2 / 3.0] * 3)
