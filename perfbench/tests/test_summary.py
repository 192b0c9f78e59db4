from summary import highest_tail_percentile, latency_summary, percentile, samples_beyond


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, "50") == 50.0
    assert percentile(values, "90") == 90.0
    assert percentile(values, "99.9") == 100.0
    assert percentile([7.0], "90") == 7.0


def test_samples_beyond_uses_exact_ranks():
    # 0.9 * 100 is 90.00000000000001 in floating point; the rank must still be 90.
    assert samples_beyond(100, "90") == 10
    assert samples_beyond(1000, "99.9") == 1
    assert samples_beyond(99, "90") == 9


def test_highest_tail_percentile_keeps_ten_samples_beyond():
    assert highest_tail_percentile(19) is None
    assert highest_tail_percentile(20) == "50"
    assert highest_tail_percentile(40) == "75"
    assert highest_tail_percentile(100) == "90"
    assert highest_tail_percentile(199) == "90"
    assert highest_tail_percentile(200) == "95"
    assert highest_tail_percentile(1000) == "99"
    assert highest_tail_percentile(10000) == "99.9"


def test_p90_is_flagged_below_100_requests():
    assert latency_summary([0.001] * 99)["p90_flagged"]
    summary = latency_summary([i / 1000 for i in range(1, 101)])
    assert not summary["p90_flagged"]
    assert summary["n"] == 100
    assert summary["p50_ms"] == 50.0
    assert summary["p90_ms"] == 90.0
    assert summary["tail_p"] == "90"
