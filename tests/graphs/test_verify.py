"""Unit tests for the graph verifier: every built-in rule is exercised
with both a passing and a failing graph, plus registry/report API and
the builder/serialization/GHN integration points."""

import dataclasses

import pytest

from repro.caching import LRUCache
from repro.graphs import (ComputationalGraph, GraphBuilder, OpType,
                          graph_from_dict, graph_to_dict, load_graph,
                          save_graph)
from repro.graphs import verify as gv
from repro.graphs.verify import (GraphVerificationError, Severity,
                                 assert_verified, verify_graph)

BUILTIN_RULES = (
    "node-index", "acyclic", "io-structure", "op-vocabulary",
    "orphan-nodes", "count-sanity", "shape-consistency",
    "merge-compatibility", "cost-recount", "virtual-edges",
)


def small_graph() -> ComputationalGraph:
    """A little residual CNN exercising conv/bn/act/add/gap/fc."""
    g = GraphBuilder("tiny", (3, 8, 8))
    x = g.conv_bn_act(g.input_id, 8, 3, padding=1)
    y = g.conv(x, 8, 3, padding=1, name="branch")
    x = g.add([x, y])
    x = g.global_avg_pool(x)
    x = g.flatten(x)
    x = g.linear(x, 4)
    g.output(x)
    return g.build()


def node(node_id, op, name, shape, params=0, flops=0, attrs=None):
    return {"id": node_id, "op": op, "name": name,
            "out_shape": list(shape), "params": params, "flops": flops,
            "attrs": attrs or {}}


def chain_payload():
    """input -> relu -> output, a minimal well-formed payload."""
    return {
        "name": "chain",
        "nodes": [
            node(0, "input", "input", (4,)),
            node(1, "relu", "relu", (4,), flops=4),
            node(2, "output", "output", (4,)),
        ],
        "edges": [[0, 1], [1, 2]],
    }


def only(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


# ----------------------------------------------------------------------
# per-rule pass/fail
# ----------------------------------------------------------------------
class TestNodeIndexRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["node-index"]).clean

    def test_fail_non_dense_ids(self):
        payload = chain_payload()
        payload["nodes"][2]["id"] = 5
        payload["edges"] = [[0, 1], [1, 5]]
        report = verify_graph(payload, rules=["node-index"])
        assert not report.ok
        assert "dense" in report.errors[0].message

    def test_fail_duplicate_names(self):
        payload = chain_payload()
        payload["nodes"][1]["name"] = "output"
        report = verify_graph(payload, rules=["node-index"])
        assert any("duplicate node name" in d.message
                   for d in report.errors)


class TestAcyclicRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["acyclic"]).clean

    def test_fail_cycle(self):
        payload = chain_payload()
        payload["nodes"].insert(
            2, node(2, "relu", "relu_back", (4,), flops=4))
        payload["nodes"][3]["id"] = 3
        payload["edges"] = [[0, 1], [1, 2], [2, 1], [2, 3]]
        report = verify_graph(payload, rules=["acyclic"])
        assert not report.ok
        assert "cycle" in report.errors[0].message

    def test_fail_self_loop(self):
        payload = chain_payload()
        payload["edges"].append([1, 1])
        report = verify_graph(payload, rules=["acyclic"])
        assert any("self-loop" in d.message for d in report.errors)


class TestIOStructureRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["io-structure"]).clean

    def test_fail_two_inputs(self):
        payload = chain_payload()
        payload["nodes"].append(node(3, "input", "input2", (4,)))
        payload["edges"].append([3, 1])
        report = verify_graph(payload, rules=["io-structure"])
        assert any("exactly 1 INPUT" in d.message for d in report.errors)

    def test_fail_missing_output(self):
        payload = chain_payload()
        payload["nodes"][2]["op"] = "relu"
        report = verify_graph(payload, rules=["io-structure"])
        assert any("exactly 1 OUTPUT" in d.message for d in report.errors)
        assert any("sink node is not the OUTPUT" in d.message
                   for d in report.errors)

    def test_fail_dangling_edge(self):
        payload = chain_payload()
        payload["edges"].append([1, 99])
        report = verify_graph(payload, rules=["io-structure"])
        assert any("unknown node" in d.message for d in report.errors)

    def test_trivial_graph_is_info(self):
        payload = {
            "name": "trivial",
            "nodes": [node(0, "input", "input", (4,)),
                      node(1, "output", "output", (4,))],
            "edges": [[0, 1]],
        }
        report = verify_graph(payload, rules=["io-structure"])
        assert report.ok
        assert any(d.severity is Severity.INFO for d in report.diagnostics)


class TestOpVocabularyRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["op-vocabulary"]).clean

    def test_fail_unknown_op(self):
        payload = chain_payload()
        payload["nodes"][1]["op"] = "warp_drive"
        report = verify_graph(payload, rules=["op-vocabulary"])
        assert not report.ok
        assert "warp_drive" in report.errors[0].message
        assert report.errors[0].node_id == 1


class TestOrphanNodesRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["orphan-nodes"]).clean

    def test_fail_dead_branch(self):
        payload = chain_payload()
        payload["nodes"].append(node(3, "relu", "dead", (4,), flops=4))
        payload["edges"].append([1, 3])
        report = verify_graph(payload, rules=["orphan-nodes"])
        assert any("cannot reach OUTPUT" in d.message
                   for d in report.errors)

    def test_fail_unreachable(self):
        payload = chain_payload()
        payload["nodes"].append(node(3, "relu", "floating", (4,), flops=4))
        payload["edges"].append([3, 2])
        report = verify_graph(payload, rules=["orphan-nodes"])
        assert any("unreachable from INPUT" in d.message
                   for d in report.errors)


class TestCountSanityRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["count-sanity"]).clean

    def test_fail_negative_flops(self):
        payload = chain_payload()
        payload["nodes"][1]["flops"] = -4
        report = verify_graph(payload, rules=["count-sanity"])
        assert any("negative FLOP" in d.message for d in report.errors)

    def test_fail_non_positive_shape(self):
        payload = chain_payload()
        payload["nodes"][1]["out_shape"] = [0]
        report = verify_graph(payload, rules=["count-sanity"])
        assert any("non-positive dimension" in d.message
                   for d in report.errors)

    def test_warn_zero_param_weighted_op(self):
        payload = chain_payload()
        payload["nodes"][1]["op"] = "linear"
        payload["nodes"][1]["attrs"] = {"out_features": 4}
        report = verify_graph(payload, rules=["count-sanity"])
        assert report.ok  # WARN only
        assert any(d.severity is Severity.WARN for d in report.warnings)


class TestShapeConsistencyRule:
    def test_pass(self):
        assert verify_graph(small_graph(),
                            rules=["shape-consistency"]).clean

    def test_fail_wrong_conv_shape(self):
        payload = graph_to_dict(small_graph())
        conv = next(nd for nd in payload["nodes"]
                    if nd["op"] == "conv")
        conv["out_shape"] = [conv["out_shape"][0], 99, 99]
        report = verify_graph(payload, rules=["shape-consistency"])
        assert any("!= recomputed" in d.message for d in report.errors)

    def test_fail_linear_over_feature_map(self):
        payload = {
            "name": "badlin",
            "nodes": [
                node(0, "input", "input", (3, 4, 4)),
                node(1, "linear", "fc", (2,), params=98, flops=194,
                     attrs={"out_features": 2}),
                node(2, "output", "output", (2,)),
            ],
            "edges": [[0, 1], [1, 2]],
        }
        report = verify_graph(payload, rules=["shape-consistency"])
        assert any("non-flattened" in d.message for d in report.errors)


class TestMergeCompatibilityRule:
    def test_pass(self):
        assert verify_graph(small_graph(),
                            rules=["merge-compatibility"]).clean

    def test_fail_mismatched_add(self):
        payload = {
            "name": "badadd",
            "nodes": [
                node(0, "input", "input", (4,)),
                node(1, "linear", "a", (4,), params=20, flops=36,
                     attrs={"out_features": 4}),
                node(2, "linear", "b", (6,), params=30, flops=54,
                     attrs={"out_features": 6}),
                node(3, "sum", "add", (4,), flops=4),
                node(4, "output", "output", (4,)),
            ],
            "edges": [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]],
        }
        report = verify_graph(payload, rules=["merge-compatibility"])
        assert any("mismatched branch shapes" in d.message
                   for d in report.errors)

    def test_fail_mismatched_concat_spatial(self):
        payload = {
            "name": "badcat",
            "nodes": [
                node(0, "input", "input", (2, 4, 4)),
                node(1, "max_pool", "pool", (2, 2, 2), flops=32,
                     attrs={"kernel_size": 2, "stride": 2, "padding": 0}),
                node(2, "identity", "skip", (2, 4, 4)),
                node(3, "concat", "cat", (4, 4, 4)),
                node(4, "output", "output", (4, 4, 4)),
            ],
            "edges": [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]],
        }
        report = verify_graph(payload, rules=["merge-compatibility"])
        assert any("mismatched spatial" in d.message
                   for d in report.errors)

    def test_warn_degenerate_merge(self):
        payload = chain_payload()
        payload["nodes"][1]["op"] = "concat"
        report = verify_graph(payload, rules=["merge-compatibility"])
        assert report.ok
        assert any("fewer than 2 branches" in (d.hint or "")
                   for d in report.warnings)


class TestCostRecountRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["cost-recount"]).clean

    def test_fail_tampered_flops(self):
        payload = graph_to_dict(small_graph())
        conv = next(nd for nd in payload["nodes"]
                    if nd["op"] == "conv")
        conv["flops"] += 1
        report = verify_graph(payload, rules=["cost-recount"])
        assert any("stored flops" in d.message for d in report.errors)

    def test_fail_tampered_params(self):
        payload = graph_to_dict(small_graph())
        fc = next(nd for nd in payload["nodes"] if nd["op"] == "linear")
        fc["params"] -= 3
        report = verify_graph(payload, rules=["cost-recount"])
        assert any("stored params" in d.message for d in report.errors)


def long_drifted_chain(length=16):
    """input -> relu*length -> output with every relu shape corrupted."""
    nodes = [node(0, "input", "input", (4,))]
    edges = []
    for i in range(1, length + 1):
        nodes.append(node(i, "relu", f"relu{i}", (4 + i,), flops=4))
        edges.append([i - 1, i])
    nodes.append(node(length + 1, "output", "output", (4 + length,)))
    edges.append([length, length + 1])
    return {"name": "drifted", "nodes": nodes, "edges": edges}


class TestCollectThenReport:
    """shape-consistency and cost-recount are uncapped: every mismatch
    in the graph is reported, not just the first ten."""

    def test_shape_consistency_reports_all_mismatches(self):
        payload = long_drifted_chain(16)
        report = verify_graph(payload, rules=["shape-consistency"])
        mismatches = [d for d in report.errors
                      if "!= recomputed" in d.message]
        assert len(mismatches) == 16
        assert not any("suppressed" in d.message
                       for d in report.diagnostics)

    def test_cost_recount_is_uncapped_too(self):
        payload = graph_to_dict(small_graph())
        for nd in payload["nodes"]:
            if nd["op"] not in ("input", "output", "flatten"):
                nd["flops"] += 1
        report = verify_graph(payload, rules=["cost-recount"])
        assert not any("suppressed" in d.message
                       for d in report.diagnostics)
        assert len(report.errors) >= 5

    def test_capped_rules_still_suppress(self):
        # count-sanity keeps the default cap: 16 negative-flop nodes
        # report 10 findings plus one suppression notice.
        payload = long_drifted_chain(16)
        for nd in payload["nodes"]:
            if nd["op"] == "relu":
                nd["flops"] = -1
        report = verify_graph(payload, rules=["count-sanity"])
        assert len(report.errors) == 10
        assert any("suppressed after 10" in d.message
                   for d in report.diagnostics)

    def test_duplicate_rule_id_in_selection_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            verify_graph(small_graph(),
                         rules=["acyclic", "acyclic"])


class TestVirtualEdgesRule:
    def test_pass(self):
        assert verify_graph(small_graph(), rules=["virtual-edges"]).clean

    def test_skipped_for_payloads(self):
        # The rule cross-checks library machinery, which needs a real
        # ComputationalGraph; payload verification skips it silently.
        report = verify_graph(chain_payload(), rules=["virtual-edges"])
        assert report.clean

    def test_fail_when_weights_corrupted(self, monkeypatch):
        import repro.graphs.verify as verify_mod
        from repro.graphs import virtual_edge_weights

        def corrupted(graph, s_max, *, reverse=False):
            weights = virtual_edge_weights(graph, s_max, reverse=reverse)
            weights[0, -1] += 0.25
            return weights

        monkeypatch.setattr(verify_mod, "virtual_edge_weights", corrupted)
        report = verify_graph(small_graph(), rules=["virtual-edges"])
        assert not report.ok
        assert any("diverge from BFS" in d.message for d in report.errors)


# ----------------------------------------------------------------------
# registry / report API
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_rules_registered(self):
        ids = gv.rule_ids()
        for rule_id in BUILTIN_RULES:
            assert rule_id in ids
        assert len(BUILTIN_RULES) >= 8

    def test_fast_subset_is_structural(self):
        fast = {r.rule_id for r in gv.registered_rules() if r.fast}
        assert "acyclic" in fast
        assert "shape-consistency" not in fast
        assert "virtual-edges" not in fast

    def test_custom_rule_roundtrip(self):
        @gv.rule("test-no-vgg", "flag graphs named vgg")
        def check_no_vgg(view):
            if "vgg" in view.name:
                yield gv.warn("graph is a vgg")
        try:
            report = verify_graph(small_graph(), rules=["test-no-vgg"])
            assert report.clean
            assert "test-no-vgg" in gv.rule_ids()
        finally:
            gv.unregister_rule("test-no-vgg")
        assert "test-no-vgg" not in gv.rule_ids()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @gv.rule("acyclic", "clash")
            def clash(view):
                return ()

    def test_unknown_rule_id(self):
        with pytest.raises(KeyError, match="unknown verifier rule"):
            verify_graph(small_graph(), rules=["no-such-rule"])

    def test_ignore(self):
        payload = chain_payload()
        payload["nodes"][1]["flops"] = -4
        assert not verify_graph(payload, level="fast").ok
        assert verify_graph(payload, level="fast",
                            ignore=["count-sanity"]).ok

    def test_bad_level(self):
        with pytest.raises(ValueError, match="level"):
            verify_graph(small_graph(), level="paranoid")


class TestReport:
    def test_clean_report(self):
        report = verify_graph(small_graph())
        assert report.ok and report.clean
        assert report.graph_name == "tiny"
        assert set(BUILTIN_RULES) <= set(report.rules_run)
        assert "ok" in report.format_text()

    def test_dirty_report_text_and_dict(self):
        payload = chain_payload()
        payload["nodes"][1]["op"] = "warp_drive"
        report = verify_graph(payload)
        assert not report.ok
        text = report.format_text()
        assert "ERROR" in text and "op-vocabulary" in text
        payload_dict = report.to_dict()
        assert payload_dict["ok"] is False
        assert payload_dict["diagnostics"][0]["severity"] == "error"
        assert payload_dict["diagnostics"][0]["rule"]

    def test_assert_verified_raises_with_report(self):
        payload = chain_payload()
        payload["nodes"][1]["flops"] = -1
        with pytest.raises(GraphVerificationError) as excinfo:
            assert_verified(payload, context="unit test")
        assert "unit test" in str(excinfo.value)
        assert "count-sanity" in str(excinfo.value)
        assert not excinfo.value.report.ok

    def test_assert_verified_returns_report_when_ok(self):
        report = assert_verified(small_graph())
        assert report.ok

    def test_verify_rejects_unknown_target(self):
        with pytest.raises(TypeError):
            verify_graph(42)

    def test_payload_without_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            verify_graph({"name": "empty"})


# ----------------------------------------------------------------------
# integration points
# ----------------------------------------------------------------------
def corrupt_graph(name: str = "tiny-corrupt") -> ComputationalGraph:
    """Passes the constructor's invariants but fails fast verification."""
    graph = small_graph()
    nodes = [dataclasses.replace(nd, params=-7)
             if nd.op is OpType.LINEAR else nd for nd in graph.nodes]
    return ComputationalGraph(name, nodes, graph.edges)


class TestIntegration:
    def test_builder_verify_opt_in(self):
        g = GraphBuilder("ok", (4,))
        x = g.linear(g.input_id, 2)
        g.output(x)
        graph = g.build(verify=True)
        assert graph.num_nodes == 3

    def test_load_graph_verifies_by_default(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(small_graph(), path)
        assert load_graph(path).name == "tiny"

        import json
        payload = json.loads(path.read_text())
        payload["nodes"][1]["flops"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphVerificationError):
            load_graph(path)
        # opting out restores the permissive pre-verifier behaviour
        assert load_graph(path, verify=False).name == "tiny"

    def test_graph_from_dict_reports_cycles(self):
        payload = graph_to_dict(small_graph())
        payload["edges"].append([5, 1])
        with pytest.raises(GraphVerificationError) as excinfo:
            graph_from_dict(payload, verify=True)
        assert "acyclic" in str(excinfo.value)

    def test_ghn_embed_fails_fast(self):
        from repro.ghn import GHN2, GHNConfig

        ghn = GHN2(GHNConfig(hidden_dim=8, s_max=3, chunk_size=16))
        embedding = ghn.embed(small_graph())
        assert embedding.shape == (8,)
        with pytest.raises(GraphVerificationError, match="GHN embed"):
            ghn.embed(corrupt_graph())
        # explicit opt-out bypasses the guard
        assert ghn.embed(corrupt_graph(), verify=False).shape == (8,)

    def test_ghn_embed_rejects_malformed_graph_reusing_a_name(self):
        """A verified name is no pass for different content."""
        from repro.ghn import GHN2, GHNConfig

        ghn = GHN2(GHNConfig(hidden_dim=8, s_max=3, chunk_size=16))
        ghn.embed(small_graph())
        impostor = corrupt_graph(name="tiny")
        with pytest.raises(GraphVerificationError, match="GHN embed"):
            ghn.embed(impostor)
        with pytest.raises(GraphVerificationError, match="GHN embed"):
            ghn.embed_many([small_graph(), impostor])


# ----------------------------------------------------------------------
# memo of passing reports
# ----------------------------------------------------------------------
class TestVerifyMemo:
    @pytest.fixture
    def runs(self, monkeypatch):
        """Count full verifier runs behind ``assert_verified``, starting
        from an empty memo."""
        calls = []
        real = gv.verify_graph

        def counting(target, **kwargs):
            calls.append(target)
            return real(target, **kwargs)

        monkeypatch.setattr(gv, "verify_graph", counting)
        monkeypatch.setattr(gv, "_PASSED", LRUCache(8))
        return calls

    def test_pass_is_memoized_by_fingerprint(self, runs):
        graph = small_graph()
        first = assert_verified(graph)
        assert assert_verified(graph) is first
        twin = small_graph()
        twin.name = "tiny-renamed"
        report = assert_verified(twin)
        assert len(runs) == 1
        assert report.graph_name == "tiny-renamed"
        assert report.diagnostics == first.diagnostics

    def test_levels_are_memoized_separately(self, runs):
        graph = small_graph()
        fast = assert_verified(graph, level="fast")
        full = assert_verified(graph, level="full")
        assert len(runs) == 2
        assert fast.rules_run != full.rules_run
        assert assert_verified(graph, level="full") is full
        assert len(runs) == 2

    def test_failures_are_never_cached(self, runs):
        graph = corrupt_graph()
        for _ in range(2):
            with pytest.raises(GraphVerificationError):
                assert_verified(graph)
        assert len(runs) == 2

    def test_payloads_views_and_explicit_rules_always_run(self, runs):
        graph = small_graph()
        assert_verified(graph)
        for _ in range(2):
            assert_verified(graph_to_dict(graph))
            assert_verified(gv.GraphView.from_graph(graph))
            assert_verified(graph, rules=["acyclic"])
        assert len(runs) == 1 + 2 * 3

    def test_register_rule_invalidates_memo(self):
        """A new fast rule applies to graphs that already passed."""
        from repro.ghn import GHN2, GHNConfig

        graph = small_graph()
        ghn = GHN2(GHNConfig(hidden_dim=8, s_max=3, chunk_size=16))
        ghn.embed(graph)
        assert_verified(graph)

        @gv.rule("test-no-add", "flag residual adds")
        def check_no_add(view):
            for nd in view.nodes:
                if nd.op is OpType.SUM:
                    yield gv.error("residual add", node=nd)
        try:
            with pytest.raises(GraphVerificationError,
                               match="test-no-add"):
                assert_verified(graph)
            with pytest.raises(GraphVerificationError,
                               match="test-no-add"):
                ghn.embed(graph)
        finally:
            gv.unregister_rule("test-no-add")
        assert assert_verified(graph).ok

    def test_unregister_rule_clears_memo(self, runs):
        graph = small_graph()
        assert_verified(graph)
        gv.unregister_rule("no-such-rule")
        assert_verified(graph)
        assert len(runs) == 2
