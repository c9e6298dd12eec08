"""Whole-graph shape inference: forward/backward solving, contradiction
diagnostics, and one deliberately-malformed graph per failure class."""

from repro.graphs import GraphBuilder, OpType, graph_to_dict
from repro.graphs.graph import ComputationalGraph, Node
from repro.graphs.verify import Severity
from repro.static import STATIC_RULE_IDS, analyze_graph, infer_shapes


def residual_graph():
    g = GraphBuilder("residual", (3, 16, 16))
    x = g.conv_bn_act(g.input_id, 8, 3, padding=1)
    y = g.conv(x, 8, 3, padding=1, name="branch")
    x = g.add([x, y])
    x = g.global_avg_pool(x)
    x = g.flatten(x)
    x = g.linear(x, 10)
    g.output(x)
    return g.build()


def contradiction_graph():
    """Residual join of branches with mismatched channel counts."""
    nodes = [
        Node(0, OpType.INPUT, "input", (3, 32, 32), 0, 0, {}),
        Node(1, OpType.CONV, "conv1", (16, 32, 32), 448, 0, dict(
            kernel_size=3, stride=1, padding=1, groups=1, in_channels=3,
            out_channels=16, bias=True)),
        Node(2, OpType.CONV, "conv2", (17, 32, 32), 476, 0, dict(
            kernel_size=3, stride=1, padding=1, groups=1, in_channels=3,
            out_channels=17, bias=True)),
        Node(3, OpType.SUM, "add", (16, 32, 32), 0, 0, {}),
        Node(4, OpType.OUTPUT, "output", (16, 32, 32), 0, 0, {}),
    ]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    return ComputationalGraph("contra", nodes, edges)


def dead_node_payload():
    """A valid graph plus one orphan node spliced into the payload."""
    g = GraphBuilder("deadnode", (3, 8, 8))
    x = g.conv(g.input_id, 8, 3, stride=1, padding=1)
    x = g.flatten(x)
    x = g.linear(x, 10)
    g.output(x)
    payload = graph_to_dict(g.build())
    payload["nodes"].append({"id": len(payload["nodes"]), "op": "relu",
                             "name": "orphan", "out_shape": [8, 8, 8],
                             "params": 0, "flops": 0, "attrs": {}})
    return payload


class TestCleanInference:
    def test_matches_stored_annotations(self):
        graph = residual_graph()
        result = infer_shapes(graph)
        assert result.ok
        assert result.underdetermined == ()
        assert result.check_against_stored(
            _view(graph)) == ()
        for nd in graph.nodes:
            assert result.shapes[nd.node_id] == nd.out_shape
            assert result.params[nd.node_id] == nd.params
            assert result.flops[nd.node_id] == nd.flops
        assert result.total_params == sum(n.params for n in graph.nodes)
        assert result.total_flops == sum(n.flops for n in graph.nodes)

    def test_input_shape_override(self):
        graph = residual_graph()
        result = infer_shapes(graph, input_shape=(3, 32, 32))
        assert result.ok
        # Spatial dims doubled everywhere before the GAP.
        conv = next(n for n in graph.nodes if n.op is OpType.CONV)
        assert result.shapes[conv.node_id] == (8, 32, 32)

    def test_accepts_payload_and_view(self):
        payload = graph_to_dict(residual_graph())
        assert infer_shapes(payload).ok


class TestBackwardSolving:
    def test_stride_one_conv_input_recovered(self):
        """The solver binds dims even when only constraints (not a full
        forward pass) pin them: both branches of a SUM agree."""
        graph = residual_graph()
        result = infer_shapes(graph)
        branch = next(n for n in graph.nodes if n.name == "branch")
        assert result.shapes[branch.node_id] == (8, 16, 16)


class TestFailureClasses:
    def test_shape_contradiction_is_structured_error(self):
        result = infer_shapes(contradiction_graph())
        assert not result.ok
        messages = [d.message for d in result.diagnostics
                    if d.severity is Severity.ERROR]
        assert any("shape contradiction" in m for m in messages)
        assert any("16 != 17" in m for m in messages)

    def test_analyze_stamps_static_rule_ids(self):
        report = analyze_graph(contradiction_graph())
        assert not report.ok
        rule_ids = {d.rule_id for d in report.errors}
        assert "static-shape-infer" in rule_ids
        assert rule_ids <= set(STATIC_RULE_IDS)

    def test_dead_node_detected(self):
        report = analyze_graph(dead_node_payload())
        assert not report.ok
        dead = [d for d in report.errors
                if d.rule_id == "static-dead-node"]
        assert len(dead) == 1
        assert dead[0].node_name == "orphan"

    def test_memory_budget_exceeded(self):
        from repro.graphs.zoo import get_model

        report = analyze_graph(get_model("vgg16"), batch_size=256,
                               memory_budget_bytes=1 << 30)
        over = [d for d in report.errors
                if d.rule_id == "static-memory-budget"]
        assert len(over) == 1
        assert "exceeds device budget" in over[0].message

    def test_cyclic_graph_diagnosed_not_raised(self):
        # Payload form: the ComputationalGraph constructor would reject
        # the cycle before inference ever saw it.
        payload = {
            "format_version": 1, "name": "cyclic",
            "nodes": [
                {"id": 0, "op": "input", "name": "input",
                 "out_shape": [3, 8, 8], "params": 0, "flops": 0,
                 "attrs": {}},
                {"id": 1, "op": "relu", "name": "a",
                 "out_shape": [3, 8, 8], "params": 0, "flops": 192,
                 "attrs": {}},
                {"id": 2, "op": "relu", "name": "b",
                 "out_shape": [3, 8, 8], "params": 0, "flops": 192,
                 "attrs": {}},
                {"id": 3, "op": "output", "name": "output",
                 "out_shape": [3, 8, 8], "params": 0, "flops": 0,
                 "attrs": {}},
            ],
            "edges": [[0, 1], [1, 2], [2, 1], [1, 3]],
        }
        result = infer_shapes(payload)
        assert not result.ok
        assert any("not a DAG" in d.message for d in result.diagnostics)

    def test_stored_drift_reports_all_mismatches(self):
        graph = residual_graph()
        bad_nodes = []
        for nd in graph.nodes:
            if nd.op in (OpType.CONV, OpType.LINEAR):
                nd = Node(nd.node_id, nd.op, nd.name, nd.out_shape,
                          nd.params + 1, nd.flops + 1, dict(nd.attrs))
            bad_nodes.append(nd)
        drifted = _raw_graph(graph.name, bad_nodes, list(graph.edges))
        report = analyze_graph(drifted)
        drift = [d for d in report.errors
                 if d.rule_id == "static-stored-drift"]
        # Two fields on each of the three drifted nodes: all reported.
        assert len(drift) == 6


def _view(graph):
    from repro.graphs.verify import GraphView

    return GraphView.from_graph(graph)


def _raw_graph(name, nodes, edges):
    return ComputationalGraph(name, nodes, edges)
