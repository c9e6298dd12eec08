"""Unit tests of the benchmark's own helpers; no workload runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from perfstats import (INF, Sample, account, covered,  # noqa: E402
                       digest, float_bits, percentile, samples_needed,
                       self_time, stage_medians, supported_percentile)


# -- percentile rule ---------------------------------------------------
def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(99) == 1000
    assert samples_needed(95) == 200
    assert samples_needed(50) == 20


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


def test_unsupported_percentile_is_none():
    assert supported_percentile([1.0] * 199, 95) is None
    assert supported_percentile([1.0] * 200, 95) == 1.0


def test_failures_count_as_infinitely_slow():
    values = [0.01] * 190 + [INF] * 10
    assert percentile(values, 95) == 0.01
    assert percentile(values, 96) == INF
    values = [0.01] * 180 + [INF] * 20
    assert supported_percentile(values, 95) == INF


# -- self time -----------------------------------------------------------
def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 3.0)]) == 5.0


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 4.0)]) == 4.0


def test_self_time_ignores_child_parts_outside_the_parent():
    # A child handed to another thread outlives the parent span.
    assert self_time(0.0, 2.0, [(1.5, 10.0)]) == 1.5
    assert self_time(0.0, 2.0, [(5.0, 1.0)]) == 2.0


def test_covered_merges_unsorted_intervals():
    assert covered([(6, 8), (0, 2), (1, 3)], 0, 10) == 5


# -- repeated builds -------------------------------------------------------
def test_stage_medians_take_each_stage_on_its_own():
    runs = [{"sweep": 1.0, "fit": 5.0}, {"sweep": 3.0, "fit": 4.0},
            {"sweep": 2.0, "fit": 9.0}]
    assert stage_medians(runs) == {"sweep": 2.0, "fit": 5.0}
    assert list(stage_medians(runs)) == ["sweep", "fit"]


def test_stage_medians_ignore_one_slow_stage():
    runs = [{"sweep": 1.0, "fit": 5.0}] * 2 + [{"sweep": 1.0, "fit": 50.0}]
    assert sum(stage_medians(runs).values()) == 6.0


def test_stage_medians_need_a_run():
    with pytest.raises(ValueError):
        stage_medians([])


# -- closed-loop accounting ------------------------------------------------
def test_account_counts_failures_and_throughput():
    samples = [Sample(0, 0.0, 0.5, True), Sample(1, 0.5, 1.0, False),
               Sample(2, 0.1, 0.3, True), Sample(3, 1.0, 2.0, True)]
    stats = account(samples, 0.0, 2.0)
    assert (stats.attempted, stats.completed, stats.failed) == (4, 3, 1)
    assert stats.throughput == 1.5
    assert stats.latencies[1] == INF
    assert stats.latencies[3] == 1.0


def test_account_rejects_samples_outside_the_phase():
    with pytest.raises(ValueError):
        account([Sample(0, 0.0, 3.0, True)], 0.0, 2.0)


def test_account_of_a_closed_loop_has_no_overlap_per_caller():
    # One caller: each request starts after the previous reply.
    samples, clock = [], 0.0
    for i, latency in enumerate([0.1, 0.2, 0.1, 0.3]):
        samples.append(Sample(i, clock, clock + latency, True))
        clock += latency
    stats = account(samples, 0.0, clock)
    assert stats.throughput == pytest.approx(4 / 0.7)
    assert sum(stats.latencies) == pytest.approx(stats.seconds)


# -- digests ----------------------------------------------------------------
def test_digest_is_order_sensitive_and_exact():
    assert digest([1, 2]) != digest([2, 1])
    assert digest([float_bits(0.1 + 0.2)]) != digest([float_bits(0.3)])
    assert digest([{"b": 1, "a": 2}]) == digest([{"a": 2, "b": 1}])


# -- cold-graph generator ------------------------------------------------------
def test_candidates_are_distinct_and_reproducible():
    from served import NAS_FAMILIES, CandidateGenerator

    first = CandidateGenerator(7).generations(3)
    again = CandidateGenerator(7).generations(3)
    flat = [c for gen in first for c in gen]
    assert len(flat) == 3 * len(NAS_FAMILIES)
    assert all([c.key[0] for c in gen] == list(NAS_FAMILIES)
               for gen in first)
    assert len({c.name for c in flat}) == len(flat)
    assert len({c.fingerprint() for c in flat}) == len(flat)
    assert all(c.key[1] != 64 and c.key[2] != 10 for c in flat)
    assert [c.fingerprint() for gen in again for c in gen] == \
        [c.fingerprint() for c in flat]
    other = CandidateGenerator(8).generations(1)[0]
    assert {c.name for c in other}.isdisjoint(c.name for c in flat)


def test_candidates_differ_from_the_trained_zoo_graphs():
    from repro.graphs import graph_fingerprint
    from repro.graphs.zoo import get_model
    from served import NAS_FAMILIES, CandidateGenerator

    trained = {graph_fingerprint(get_model(f)) for f in NAS_FAMILIES}
    gen = CandidateGenerator(1).generation()
    assert trained.isdisjoint(c.fingerprint() for c in gen)
    assert all(math.isfinite(c.request.graph.total_flops) for c in gen)
