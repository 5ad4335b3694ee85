"""Self-time arithmetic and the percentile helpers."""

import statistics

import pytest

from stats import latency_summary, percentile, self_times, union_length


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]; c [12, 13] top level
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    parents = [-1, 0, 1, 0, -1]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_times_sum_to_the_top_level_durations():
    starts = [0.0, 0.5, 0.6, 2.0]
    ends = [3.0, 1.5, 0.9, 2.5]
    parents = [-1, 0, 1, 0]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(3.0)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_percentile_matches_the_inclusive_quantiles():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 0.5) == statistics.median(samples)
    assert percentile(samples, 0.9) == pytest.approx(90.1)
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_latency_summary_states_the_sample_counts():
    samples = [float(v) for v in range(1, 112)]  # 111 jobs, as service_mix
    summary = latency_summary(samples)
    assert summary["n"] == 111
    assert summary["p50"] == 56.0
    assert summary["p90"] == pytest.approx(100.0)
    assert summary["beyond_p90"] == 11  # at least ten samples beyond the p90
