"""Dataflow passes: scheduling, liveness, memory, dead nodes -- checked
against hand-computed values on a small diamond graph."""

import pytest

from repro.graphs import GraphBuilder, graph_to_dict
from repro.graphs.verify import GraphView
from repro.static import (dead_nodes, liveness, peak_activation_memory,
                          schedule, training_memory_bytes)
from repro.static.dataflow import (BYTES_PER_SCALAR,
                                   activation_bytes_by_node)


def diamond():
    """input(0) -> conv(1) -> {branch(2), add(3)}; 2 -> 3 -> gap(4)
    -> flatten(5) -> linear(6) -> output(7)."""
    g = GraphBuilder("diamond", (3, 8, 8))
    x = g.conv(g.input_id, 4, 3, padding=1, name="c1")       # 1
    y = g.conv(x, 4, 3, padding=1, name="branch")            # 2
    z = g.add([x, y])                                        # 3
    z = g.global_avg_pool(z)                                 # 4
    z = g.flatten(z)                                         # 5
    z = g.linear(z, 10)                                      # 6
    g.output(z)                                              # 7
    return g.build()


class TestSchedule:
    def test_min_id_topological(self):
        order = schedule(diamond())
        assert order == list(range(8))

    def test_cyclic_raises(self):
        payload = {
            "format_version": 1, "name": "cyclic",
            "nodes": [
                {"id": 0, "op": "input", "name": "input",
                 "out_shape": [1], "params": 0, "flops": 0,
                 "attrs": {}},
                {"id": 1, "op": "relu", "name": "a",
                 "out_shape": [1], "params": 0, "flops": 1, "attrs": {}},
                {"id": 2, "op": "relu", "name": "b",
                 "out_shape": [1], "params": 0, "flops": 1, "attrs": {}},
            ],
            "edges": [[0, 1], [1, 2], [2, 1]],
        }
        with pytest.raises(ValueError, match="cyclic"):
            schedule(payload)


class TestLiveness:
    def test_def_and_last_use(self):
        graph = diamond()
        live = liveness(graph)
        # conv(1) feeds branch(2) and add(3): last use at step 3.
        assert live.def_step[1] == 1
        assert live.last_use[1] == 3
        # branch(2) only feeds add(3).
        assert live.last_use[2] == 3
        # output(7) has no consumers: dies where it is defined.
        assert live.last_use[7] == 7

    def test_live_at(self):
        live = liveness(diamond())
        assert set(live.live_at(2)) == {1, 2}  # input died at step 1


class TestMemory:
    def test_peak_under_reuse_matches_hand_count(self):
        graph = diamond()
        sizes = activation_bytes_by_node(graph)
        feature_map = BYTES_PER_SCALAR * 4 * 8 * 8
        assert sizes[1] == feature_map
        profile = peak_activation_memory(graph)
        # Peak is at step 3 (add): conv + branch live, add produced.
        assert profile.peak_step == 3
        assert profile.peak_bytes == 3 * feature_map
        assert profile.total_bytes == sum(sizes.values())
        assert profile.peak_bytes < profile.total_bytes
        assert 0.0 < profile.reuse_saving < 1.0
        assert len(profile.timeline) == 8

    def test_training_memory_scales_with_batch(self):
        graph = diamond()
        base = training_memory_bytes(graph, 1)
        big = training_memory_bytes(graph, 64)
        activations = sum(activation_bytes_by_node(graph).values())
        assert big - base == activations * 63
        params = sum(nd.params for nd in graph.nodes)
        assert base == BYTES_PER_SCALAR * params * 4 + activations

    def test_graph_view_and_payload_targets_agree(self):
        graph = diamond()
        view = GraphView.from_graph(graph)
        payload = graph_to_dict(graph)
        for batch in (1, 32):
            expected = training_memory_bytes(graph, batch)
            assert training_memory_bytes(view, batch) == expected
            assert training_memory_bytes(payload, batch) == expected
        assert activation_bytes_by_node(payload) == \
            activation_bytes_by_node(graph)

    def test_optimizer_states_knob(self):
        graph = diamond()
        sgd = training_memory_bytes(graph, 1, optimizer_states=1)
        adam = training_memory_bytes(graph, 1, optimizer_states=2)
        params = sum(nd.params for nd in graph.nodes)
        assert adam - sgd == BYTES_PER_SCALAR * params


class TestDeadNodes:
    def test_clean_graph_has_none(self):
        assert dead_nodes(diamond()) == ([], [])

    def test_orphan_is_unreachable(self):
        payload = graph_to_dict(diamond())
        payload["nodes"].append({
            "id": 8, "op": "relu", "name": "orphan",
            "out_shape": [4, 8, 8], "params": 0, "flops": 0,
            "attrs": {}})
        unreachable, no_sink = dead_nodes(payload)
        assert unreachable == [8]
        assert no_sink == []

    def test_dangling_branch_cannot_reach_output(self):
        payload = graph_to_dict(diamond())
        payload["nodes"].append({
            "id": 8, "op": "relu", "name": "dangling",
            "out_shape": [4, 8, 8], "params": 0, "flops": 0,
            "attrs": {}})
        payload["edges"].append([1, 8])  # fed, but feeds nothing
        unreachable, no_sink = dead_nodes(payload)
        assert unreachable == []
        assert no_sink == [8]

    def test_missing_io_returns_empty(self):
        payload = graph_to_dict(diamond())
        payload["nodes"] = [n for n in payload["nodes"]
                            if n["op"] != "output"]
        payload["edges"] = [e for e in payload["edges"] if e[1] != 7]
        assert dead_nodes(payload) == ([], [])
