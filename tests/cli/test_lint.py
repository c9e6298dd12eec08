"""Tests of the ``repro lint`` subcommand: output shapes and exit codes
(0 = all graphs clean of errors, 1 = ERROR diagnostics or user error)."""

import json

import pytest

from repro.cli import main
from repro.graphs import graph_to_dict, save_graph
from repro.graphs.zoo import get_model, list_models


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bad_graph_file(tmp_path):
    """A serialized graph with a tampered FLOP count (cost-recount
    ERROR under the full rule set, clean under fast)."""
    graph = get_model("alexnet")
    payload = graph_to_dict(graph)
    conv = next(nd for nd in payload["nodes"] if nd["op"] == "conv")
    conv["flops"] += 1000
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return path


class TestLintText:
    def test_single_model_clean(self, capsys):
        code, out, _ = run_cli(["lint", "resnet18"], capsys)
        assert code == 0
        assert "resnet18: ok" in out
        assert "1 graph(s) checked: 1 ok" in out

    def test_all_models_clean(self, capsys):
        code, out, _ = run_cli(["lint", "--all"], capsys)
        assert code == 0
        expected = len(list_models())
        assert f"{expected} graph(s) checked: {expected} ok" in out

    def test_errors_exit_1(self, bad_graph_file, capsys):
        code, out, _ = run_cli(
            ["lint", "--graph", str(bad_graph_file)], capsys)
        assert code == 1
        assert "ERROR" in out
        assert "cost-recount" in out

    def test_fast_level_skips_recomputation(self, bad_graph_file, capsys):
        code, out, _ = run_cli(
            ["lint", "--level", "fast", "--graph", str(bad_graph_file)],
            capsys)
        assert code == 0
        assert "ok" in out

    def test_models_and_files_combine(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        save_graph(get_model("alexnet"), path)
        code, out, _ = run_cli(
            ["lint", "resnet18", "--graph", str(path)], capsys)
        assert code == 0
        assert "2 graph(s) checked: 2 ok" in out

    def test_unknown_model_exits_1(self, capsys):
        code, _, err = run_cli(["lint", "resnet9000"], capsys)
        assert code == 1
        assert "error" in err

    def test_nothing_to_lint_exits_1(self, capsys):
        code, _, err = run_cli(["lint"], capsys)
        assert code == 1
        assert "nothing to lint" in err


class TestLintJSON:
    def test_clean_json_shape(self, capsys):
        code, out, _ = run_cli(["lint", "--json", "resnet18", "alexnet"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"graphs", "summary"}
        assert payload["summary"] == {
            "checked": 2, "failing": 0, "errors": 0, "warnings": 0,
            "level": "full",
        }
        names = [g["graph"] for g in payload["graphs"]]
        assert names == ["resnet18", "alexnet"]
        for entry in payload["graphs"]:
            assert entry["ok"] is True
            assert entry["clean"] is True
            assert entry["diagnostics"] == []
            assert "cost-recount" in entry["rules_run"]

    def test_error_json_shape(self, bad_graph_file, capsys):
        code, out, _ = run_cli(
            ["lint", "--json", "--graph", str(bad_graph_file)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["failing"] == 1
        assert payload["summary"]["errors"] >= 1
        entry = payload["graphs"][0]
        assert entry["ok"] is False
        diag = entry["diagnostics"][0]
        assert set(diag) == {"rule", "severity", "message", "node_id",
                             "node_name", "hint"}
        assert diag["severity"] == "error"
        assert diag["rule"] == "cost-recount"


class TestLintFlags:
    def test_lint_static_adds_analyzer_report(self, capsys):
        code, out, _ = run_cli(["lint", "alexnet", "--static"], capsys)
        assert code == 0
        assert "2 graph(s) checked" in out

    def test_lint_code_alone(self, capsys):
        code, out, _ = run_cli(["lint", "--code"], capsys)
        assert code == 0
        assert "determinism lint:" in out
        assert "0 blocking" in out

    def test_lint_code_json(self, capsys):
        code, out, _ = run_cli(["lint", "--code", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["blocking"] == 0

    def test_lint_without_targets_still_errors(self, capsys):
        code, _, err = run_cli(["lint"], capsys)
        assert code == 1
        assert "nothing to lint" in err
