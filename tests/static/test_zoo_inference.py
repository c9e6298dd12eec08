"""Zoo-wide acceptance property: for EVERY registered model, symbolic
inference reproduces the stored shapes/params/FLOPs bitwise and the full
static-analysis report is clean."""

import pytest

from repro.graphs.verify import GraphView
from repro.graphs.zoo import get_model, list_models
from repro.static import analyze_graph, infer_shapes


@pytest.mark.parametrize("name", list_models())
def test_inference_bitwise_matches_stored(name):
    graph = get_model(name)
    result = infer_shapes(graph)
    assert result.diagnostics == (), name
    assert result.underdetermined == (), name
    assert result.check_against_stored(GraphView.from_graph(graph)) \
        == (), name
    for nd in graph.nodes:
        assert result.shapes[nd.node_id] == nd.out_shape, \
            f"{name}/{nd.name}"
        assert result.params[nd.node_id] == nd.params, \
            f"{name}/{nd.name}"
        assert result.flops[nd.node_id] == nd.flops, \
            f"{name}/{nd.name}"


@pytest.mark.parametrize("name", ["alexnet", "resnet50", "mobilenet_v3_small",
                                  "densenet121", "inception_v3",
                                  "shufflenet_v2_x1_0", "squeezenet1_0",
                                  "efficientnet_b0", "googlenet",
                                  "regnet_y_400mf"])
def test_analyzer_clean_and_plannable(name):
    """Families with every merge/attention idiom in the zoo: the full
    analyzer report is empty."""
    graph = get_model(name)
    report = analyze_graph(graph)
    assert report.ok, report.format_text()
    assert not report.diagnostics, name


def test_nondefault_input_size_also_infers():
    graph = get_model("resnet18", input_size=96)
    result = infer_shapes(graph)
    assert result.diagnostics == ()
    assert result.underdetermined == ()
    assert result.check_against_stored(
        GraphView.from_graph(graph)) == ()
