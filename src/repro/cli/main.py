"""Command-line interface for the PredictDDL reproduction.

Subcommands mirror the deployment workflow:

* ``repro models`` / ``repro datasets``  -- inspect the zoo and catalog;
* ``repro simulate``  -- run one training job on the simulated testbed;
* ``repro trace``     -- collect an execution trace to a JSON file;
* ``repro train``     -- offline-train PredictDDL from traces (Fig. 8);
* ``repro predict``   -- serve a prediction from a trained artifact
  (Fig. 7);
* ``repro report``    -- summarize a stored trace;
* ``repro lint``      -- statically verify computational graphs
  (zoo models and/or serialized graph JSON files); ``--static`` adds
  the symbolic-inference analyzer (:mod:`repro.static`), ``--code``
  runs the AST determinism linter over ``src/repro``;
* ``repro profile``   -- trace the full fit+predict pipeline of one
  model and render the span tree (see :mod:`repro.obs`);
* ``repro serve``     -- run the concurrent prediction server against
  a burst of synthetic traffic (``--self-test`` builds a throwaway
  predictor and asserts the smoke-gate invariants);
* ``repro loadgen``   -- replay open-loop synthetic traffic against a
  trained artifact and report latency percentiles and throughput;
* ``repro bench``     -- run a benchmark suite with machine-readable
  output and regression gates (``--suite perf``: batched vs sequential
  GHN embedding, parallel trace-generation determinism/throughput,
  serving latency percentiles);
* ``repro chaos``     -- run the serving stack under a seeded
  fault-injection plan (:mod:`repro.faults`: worker crashes/hangs,
  message drops/delays/duplicates) and audit exactly-once delivery
  and recovery (``--self-test`` additionally asserts the schedule and
  summary are bitwise-identical across two runs);
* ``repro obs``       -- serving observability tooling:
  ``obs report`` runs a traced burst and renders the per-workload-
  family latency/prediction-error/drift telemetry report with
  exemplar trace ids on the p99 samples (``--self-test`` asserts the
  trace-tree and flight-recorder invariants), ``obs dump`` renders a
  flight-recorder JSONL dump file.

``simulate``, ``trace`` and ``predict`` additionally accept
``--profile`` (print the span tree after the command output) and
``--metrics-json [PATH]`` (write a metrics snapshot; ``-`` or no value
appends one compact JSON line to stdout).

Every command prints plain text and exits non-zero on user error;
``lint`` additionally exits 1 when any graph has ERROR-severity
diagnostics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_sizes(spec: str) -> list[int]:
    """Parse ``"1-20"`` or ``"1,2,4,8"`` into a size list."""
    sizes: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            sizes.extend(range(int(lo), int(hi) + 1))
        elif part:
            sizes.append(int(part))
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"invalid size spec {spec!r}")
    return sizes


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by simulate/trace/predict."""
    parser.add_argument("--profile", action="store_true",
                        help="enable span tracing and print the span "
                             "tree after the command output")
    parser.add_argument("--metrics-json", nargs="?", const="-",
                        default=None, metavar="PATH",
                        help="enable metrics and write a JSON snapshot "
                             "to PATH ('-'/no value: append one compact "
                             "JSON line to stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PredictDDL: reusable DL training-time prediction "
                    "(CLUSTER 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list zoo architectures with profiles")
    sub.add_parser("datasets", help="list dataset descriptors")

    p_sim = sub.add_parser("simulate",
                           help="simulate one distributed training run")
    p_sim.add_argument("--workload", required=True,
                       help="zoo model name (e.g. resnet50)")
    p_sim.add_argument("--dataset", default="cifar10")
    p_sim.add_argument("--servers", type=int, default=4)
    p_sim.add_argument("--server-class", default="gpu-p100")
    p_sim.add_argument("--batch", type=int, default=32)
    p_sim.add_argument("--epochs", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_sim)

    p_trace = sub.add_parser("trace",
                             help="collect an execution trace to JSON")
    p_trace.add_argument("--models", required=True,
                         help="comma-separated zoo names, or 'all'")
    p_trace.add_argument("--dataset", default="cifar10")
    p_trace.add_argument("--server-class", default="gpu-p100")
    p_trace.add_argument("--sizes", default="1-20",
                         help="cluster sizes, e.g. '1-20' or '1,2,4'")
    p_trace.add_argument("--batch", type=int, default=32)
    p_trace.add_argument("--epochs", type=int, default=1)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--workers", type=int, default=1,
                         help="worker processes for the sweep; results "
                              "are bit-identical at any count")
    p_trace.add_argument("--out", required=True, type=Path)
    _add_obs_flags(p_trace)

    p_train = sub.add_parser("train",
                             help="offline-train PredictDDL from traces")
    p_train.add_argument("--trace", required=True, type=Path, nargs="+")
    p_train.add_argument("--out", required=True, type=Path)
    p_train.add_argument("--regressor", default="PR",
                         choices=["PR", "LR", "SVR", "MLP", "auto"])
    p_train.add_argument("--ghn-dim", type=int, default=32)
    p_train.add_argument("--ghn-steps", type=int, default=60)
    p_train.add_argument("--seed", type=int, default=0)

    p_pred = sub.add_parser("predict",
                            help="predict a workload's training time")
    p_pred.add_argument("--artifact", required=True, type=Path,
                        help="trained predictor from 'repro train'")
    p_pred.add_argument("--workload", required=True)
    p_pred.add_argument("--dataset", default="cifar10")
    p_pred.add_argument("--servers", type=int, default=4)
    p_pred.add_argument("--server-class", default="gpu-p100")
    p_pred.add_argument("--batch", type=int, default=32)
    p_pred.add_argument("--epochs", type=int, default=1)
    _add_obs_flags(p_pred)

    p_prof = sub.add_parser(
        "profile",
        help="trace the fit+predict pipeline and render the span tree")
    p_prof.add_argument("model", help="zoo model name (e.g. resnet18)")
    p_prof.add_argument("--dataset", default="cifar10")
    p_prof.add_argument("--servers", type=int, default=4)
    p_prof.add_argument("--server-class", default="gpu-p100")
    p_prof.add_argument("--batch", type=int, default=32)
    p_prof.add_argument("--ghn-dim", type=int, default=16,
                        help="GHN hidden dim for the throwaway predictor")
    p_prof.add_argument("--ghn-steps", type=int, default=12,
                        help="GHN meta-training steps (kept small: the "
                             "point is the span tree, not accuracy)")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--json", action="store_true", dest="as_json",
                        help="emit spans + metrics as JSON instead of "
                             "the ASCII tree")

    def add_traffic_flags(p, *, requests: int, rate: float) -> None:
        p.add_argument("--models", default="resnet18,alexnet",
                       help="comma-separated zoo names for the "
                            "synthetic request mix")
        p.add_argument("--dataset", default="cifar10")
        p.add_argument("--sizes", default="2,4",
                       help="cluster sizes in the mix, e.g. '2,4,8'")
        p.add_argument("--server-class", default="gpu-p100")
        p.add_argument("--batch", type=int, default=32)
        p.add_argument("--requests", type=int, default=requests,
                       help="number of requests to fire")
        p.add_argument("--rate", type=float, default=rate,
                       help="open-loop arrival rate (requests/second)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=2,
                       help="prediction worker threads")
        p.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batch coalescing window")
        p.add_argument("--max-batch", type=int, default=16)
        p.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity (entries)")
        p.add_argument("--max-queue", type=int, default=None,
                       help="admission queue-depth cap (default: the "
                            "request count, i.e. no rejections)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")

    p_serve = sub.add_parser(
        "serve",
        help="run the prediction server against a traffic burst")
    p_serve.add_argument("--artifact", type=Path,
                         help="trained predictor from 'repro train' "
                              "(omit with --self-test)")
    p_serve.add_argument("--self-test", action="store_true",
                         help="build a small throwaway predictor, "
                              "serve a burst, and assert the smoke-"
                              "gate invariants (non-zero exit on "
                              "violation)")
    p_serve.add_argument("--max-p50-ms", type=float, default=500.0,
                         help="self-test gate on median latency")
    p_serve.add_argument("--ghn-dim", type=int, default=8)
    p_serve.add_argument("--ghn-steps", type=int, default=8)
    add_traffic_flags(p_serve, requests=60, rate=1000.0)

    p_load = sub.add_parser(
        "loadgen",
        help="replay open-loop traffic against a trained artifact")
    p_load.add_argument("--artifact", required=True, type=Path)
    add_traffic_flags(p_load, requests=200, rate=500.0)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the serving stack under deterministic fault "
             "injection (repro.faults) and audit recovery")
    p_chaos.add_argument("--artifact", type=Path,
                         help="trained predictor from 'repro train' "
                              "(omit with --self-test)")
    p_chaos.add_argument("--self-test", action="store_true",
                         help="build a small throwaway predictor, run "
                              "the campaign twice, and assert zero "
                              "lost/duplicated/wrong responses plus a "
                              "bitwise-identical fault schedule and "
                              "summary across the runs (non-zero exit "
                              "on violation)")
    p_chaos.add_argument("--models", default="resnet18,alexnet")
    p_chaos.add_argument("--dataset", default="cifar10")
    p_chaos.add_argument("--sizes", default="2,4")
    p_chaos.add_argument("--server-class", default="gpu-p100")
    p_chaos.add_argument("--batch", type=int, default=32)
    p_chaos.add_argument("--requests", type=int, default=40)
    p_chaos.add_argument("--rate", type=float, default=2000.0)
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seed for both the traffic mix and the "
                              "fault plan")
    p_chaos.add_argument("--crash-rate", type=float, default=0.10,
                         help="per-request worker-crash probability")
    p_chaos.add_argument("--hang-rate", type=float, default=0.05,
                         help="per-request worker-hang probability")
    p_chaos.add_argument("--drop-rate", type=float, default=0.10,
                         help="per-delivery message-drop probability")
    p_chaos.add_argument("--delay-rate", type=float, default=0.10,
                         help="per-delivery message-delay probability")
    p_chaos.add_argument("--dup-rate", type=float, default=0.10,
                         help="per-delivery duplication probability")
    p_chaos.add_argument("--ghn-dim", type=int, default=8)
    p_chaos.add_argument("--ghn-steps", type=int, default=8)
    p_chaos.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the chaos report as JSON")

    p_obs = sub.add_parser(
        "obs",
        help="observability tooling: drift-aware serving telemetry "
             "report and flight-recorder dump inspection")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_rep = obs_sub.add_parser(
        "report",
        help="run a traced serving burst and render the per-family "
             "latency/error/drift telemetry report (p99 samples carry "
             "exemplar trace ids)")
    p_obs_rep.add_argument("--artifact", type=Path,
                           help="trained predictor from 'repro train' "
                                "(omit with --self-test)")
    p_obs_rep.add_argument("--self-test", action="store_true",
                           help="build a small throwaway predictor and "
                                "assert the telemetry invariants: every "
                                "sample traced, one well-formed stitched "
                                "tree per request, ingress->execute->"
                                "predict span chain present, flight "
                                "accounting consistent (non-zero exit "
                                "on violation)")
    p_obs_rep.add_argument("--ghn-dim", type=int, default=8)
    p_obs_rep.add_argument("--ghn-steps", type=int, default=8)
    p_obs_rep.add_argument("--trace-out", type=Path, default=None,
                           help="write the exported span records as "
                                "JSONL to PATH")
    p_obs_rep.add_argument("--flight-out", type=Path, default=None,
                           help="write the flight-recorder ring as "
                                "JSONL to PATH")
    add_traffic_flags(p_obs_rep, requests=60, rate=1000.0)
    p_obs_dump = obs_sub.add_parser(
        "dump",
        help="render a flight-recorder JSONL dump (from --flight-out "
             "or an automatic crash dump) as text")
    p_obs_dump.add_argument("path", type=Path,
                            help="flight-recorder JSONL file")
    p_obs_dump.add_argument("--limit", type=int, default=None,
                            help="only show the last N events")

    p_bench = sub.add_parser(
        "bench",
        help="run a benchmark suite with machine-readable output")
    p_bench.add_argument("--suite", choices=["perf"], default="perf",
                         help="suite to run (currently: perf)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke variant: smaller batches, no "
                              "serving burst, same regression gates")
    p_bench.add_argument("--out", type=Path, default=None,
                         help="write the JSON payload to PATH "
                              "(default: stdout only)")
    p_bench.add_argument("--min-speedup", type=float, default=1.0,
                         help="gate: batched embed throughput must be "
                              "at least this multiple of sequential "
                              "at K>=8 (default 1.0, i.e. no slower)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full JSON payload to stdout "
                              "instead of the summary table")

    p_rep = sub.add_parser("report", help="summarize a stored trace")
    p_rep.add_argument("--trace", required=True, type=Path)

    p_lint = sub.add_parser(
        "lint", help="statically verify computational graphs")
    p_lint.add_argument("models", nargs="*",
                        help="zoo model names to verify")
    p_lint.add_argument("--all", action="store_true",
                        help="verify every model in the zoo registry")
    p_lint.add_argument("--graph", action="append", type=Path, default=[],
                        metavar="PATH",
                        help="also verify a serialized graph JSON file "
                             "(repeatable)")
    p_lint.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a machine-readable JSON report")
    p_lint.add_argument("--level", choices=["fast", "full"],
                        default="full",
                        help="rule set: structural only (fast) or with "
                             "shape/FLOP/virtual-edge recomputation "
                             "(full, default)")
    p_lint.add_argument("--input-size", type=int, default=64,
                        help="input resolution for zoo graphs")
    p_lint.add_argument("--static", action="store_true",
                        help="additionally run the static analyzer "
                             "(symbolic shape inference, dead-node and "
                             "stored-annotation drift checks) on every "
                             "graph")
    p_lint.add_argument("--code", action="store_true",
                        help="run the AST determinism linter over "
                             "src/repro (unseeded RNG, wall-clock "
                             "reads, mutable default args); exits 1 on "
                             "non-allowlisted findings")

    p_store = sub.add_parser(
        "store",
        help="inspect, verify and compact an append-only trace store "
             "(repro.store)")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_st_ins = store_sub.add_parser(
        "inspect",
        help="summarize a store: segments, record kinds, families, "
             "retention and the snapshot digest")
    p_st_ins.add_argument("path", type=Path,
                          help="trace store directory")
    p_st_ins.add_argument("--json", action="store_true",
                          dest="as_json",
                          help="emit the summary as JSON")
    p_st_ver = store_sub.add_parser(
        "verify-digest",
        help="re-digest every record from disk and check sequence "
             "density; exits 1 on any mismatch (like 'repro lint')")
    p_st_ver.add_argument("path", type=Path,
                          help="trace store directory")
    p_st_ver.add_argument("--json", action="store_true",
                          dest="as_json",
                          help="emit problems as JSON")
    p_st_cmp = store_sub.add_parser(
        "compact",
        help="deterministically repack segments and enforce bounded "
             "retention (drops oldest records beyond the cap)")
    p_st_cmp.add_argument("path", type=Path,
                          help="trace store directory")
    p_st_cmp.add_argument("--max-records", type=int, default=None,
                          help="retention cap override (default: the "
                               "store's persisted setting)")
    p_st_cmp.add_argument("--json", action="store_true",
                          dest="as_json",
                          help="emit the compaction summary as JSON")

    p_refit = sub.add_parser(
        "refit",
        help="refit the regression stage from a trace store and gate "
             "the candidate against the incumbent (repro.refit)")
    p_refit.add_argument("--store", type=Path, default=None,
                         help="trace store directory to refit from")
    p_refit.add_argument("--artifact", type=Path, default=None,
                         help="trained predictor from 'repro train' "
                              "(omit with --self-test)")
    p_refit.add_argument("--out", type=Path, default=None,
                         help="write the predictor (with the promoted "
                              "regressor swapped in) to PATH")
    p_refit.add_argument("--self-test", action="store_true",
                         help="run the full closed loop twice on a toy "
                              "zoo slice -- served drift trips the "
                              "tracker, refit from the store, shadow "
                              "A/B, promote via hot-swap -- and assert "
                              "exactly-once accounting plus a bitwise-"
                              "identical summary across runs (non-zero "
                              "exit on violation)")
    p_refit.add_argument("--regressor", default="PR",
                         help="candidate regressor family "
                              "(PR/LR/SVR/MLP/auto)")
    p_refit.add_argument("--train-window", type=int, default=None,
                         help="newest trainable records to fit "
                              "(default: all)")
    p_refit.add_argument("--eval-window", type=int, default=16,
                         help="newest ground-truthed records the "
                              "promotion gate scores on")
    p_refit.add_argument("--seed", type=int, default=0)
    p_refit.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the refit summary as JSON")
    return parser


# ----------------------------------------------------------------------
# observability plumbing
# ----------------------------------------------------------------------
def _run_with_obs(handler, args) -> int:
    """Run a command under the observability flags it declares.

    ``--profile`` enables span tracing and prints the tree afterwards;
    ``--metrics-json`` enables metrics and emits a snapshot (pretty JSON
    to a file, or one compact line on stdout for ``-``).  Commands
    without the flags (or with none set) run untouched.
    """
    profiling = getattr(args, "profile", False)
    metrics_dest = getattr(args, "metrics_json", None)
    if not profiling and metrics_dest is None:
        return handler(args)

    from .. import obs

    obs.reset()
    obs.enable(tracing=profiling, metrics=metrics_dest is not None)
    try:
        code = handler(args)
    finally:
        obs.disable()
    if profiling:
        tree = obs.TRACER.render_tree()
        if tree:
            print("-- spans --")
            print(tree)
    if metrics_dest is not None:
        if metrics_dest == "-":
            print(obs.METRICS.to_json())
        else:
            Path(metrics_dest).write_text(obs.METRICS.to_json(indent=2)
                                          + "\n")
            print(f"metrics snapshot written to {metrics_dest}")
    return code


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _cmd_models(_args) -> int:
    from ..graphs import profile_graph
    from ..graphs.zoo import get_model, list_models

    print(f"{'model':<22}{'params':>10}{'fwd FLOPs':>12}{'layers':>8}"
          f"{'nodes':>7}")
    for name in list_models():
        profile = profile_graph(get_model(name))
        print(f"{name:<22}{profile.total_params / 1e6:>9.2f}M"
              f"{profile.forward_flops / 1e9:>11.3f}G"
              f"{profile.num_layers:>8}{profile.num_nodes:>7}")
    return 0


def _cmd_datasets(_args) -> int:
    from ..datasets import DATASET_CATALOG

    print(f"{'dataset':<16}{'samples':>9}{'classes':>9}{'size':>9}"
          f"{'input':>7}")
    for spec in DATASET_CATALOG.values():
        print(f"{spec.name:<16}{spec.num_samples:>9}"
              f"{spec.num_classes:>9}"
              f"{spec.size_bytes / 1024 ** 2:>8.0f}M"
              f"{spec.input_size:>6}px")
    return 0


def _cmd_simulate(args) -> int:
    from ..cluster import make_cluster
    from ..sim import DLWorkload, TrainingSimulator

    workload = DLWorkload(args.workload, args.dataset,
                          batch_size_per_server=args.batch,
                          epochs=args.epochs)
    cluster = make_cluster(args.servers, args.server_class)
    run = TrainingSimulator().run(workload, cluster, args.seed)
    b = run.breakdown
    print(f"workload: {args.workload} on {args.dataset}, "
          f"{args.servers}x {args.server_class}, batch {args.batch}, "
          f"{args.epochs} epoch(s)")
    print(f"iteration: {run.mean_iteration_time * 1e3:.1f}ms "
          f"(compute {b.compute * 1e3:.1f}ms, "
          f"comm {b.communication * 1e3:.1f}ms, "
          f"data {b.data_stall * 1e3:.1f}ms)")
    print(f"epoch: {run.epoch_time:.1f}s "
          f"({run.iterations_per_epoch} iterations)")
    print(f"total: {run.total_time:.1f}s")
    return 0


def _cmd_trace(args) -> int:
    from ..graphs.zoo import list_models
    from ..sim import generate_trace, save_trace

    if args.models.strip().lower() == "all":
        models = list_models()
    else:
        models = [m.strip() for m in args.models.split(",") if m.strip()]
    sizes = _parse_sizes(args.sizes)
    points = generate_trace(models, args.dataset, args.server_class,
                            sizes, batch_size_per_server=args.batch,
                            epochs=args.epochs, seed=args.seed,
                            workers=args.workers)
    save_trace(points, args.out)
    print(f"wrote {len(points)} trace points "
          f"({len(models)} models x {len(sizes)} sizes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from ..core import OfflineTrainer, PredictDDL
    from ..core.persistence import save_predictor
    from ..ghn import GHNConfig, GHNRegistry
    from ..sim import load_trace

    points = []
    for path in args.trace:
        points.extend(load_trace(path))
    if not points:
        print("error: traces are empty", file=sys.stderr)
        return 1
    registry = GHNRegistry(config=GHNConfig(hidden_dim=args.ghn_dim,
                                            seed=args.seed),
                           train_steps=args.ghn_steps)
    predictor = PredictDDL(registry=registry,
                           regressor_name=args.regressor, seed=args.seed)
    report = OfflineTrainer(predictor).run(points)
    save_predictor(predictor, args.out)
    print(f"trained on {report.num_trace_points} points "
          f"(datasets: {', '.join(report.datasets)})")
    print(f"GHN training {report.ghn_training_seconds:.1f}s, "
          f"embeddings {report.embedding_seconds:.1f}s, "
          f"regression {report.prediction_training_seconds:.1f}s")
    print(f"artifact written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from ..cluster import make_cluster
    from ..core import PredictionRequest
    from ..core.persistence import load_predictor
    from ..sim import DLWorkload

    predictor = load_predictor(args.artifact)
    workload = DLWorkload(args.workload, args.dataset,
                          batch_size_per_server=args.batch,
                          epochs=args.epochs)
    cluster = make_cluster(args.servers, args.server_class)
    result = predictor.predict(PredictionRequest(workload=workload,
                                                 cluster=cluster))
    print(f"predicted training time: {result.predicted_time:.1f}s")
    print(f"(GHN dataset: {result.dataset_used}, "
          f"embedding {result.embedding_seconds * 1e3:.1f}ms, "
          f"inference {result.inference_seconds * 1e3:.1f}ms)")
    return 0


def _cmd_profile(args) -> int:
    import json

    from .. import obs
    from ..cluster import make_cluster
    from ..core import PredictDDL, PredictionRequest
    from ..ghn import GHNConfig, GHNRegistry
    from ..sim import DLWorkload, generate_trace

    obs.reset()
    obs.enable()
    try:
        registry = GHNRegistry(
            config=GHNConfig(hidden_dim=args.ghn_dim, seed=args.seed),
            train_steps=args.ghn_steps)
        sizes = sorted({1, 2, max(1, args.servers)})
        points = generate_trace([args.model], args.dataset,
                                args.server_class, sizes,
                                batch_size_per_server=args.batch,
                                seed=args.seed)
        predictor = PredictDDL(registry=registry,
                               seed=args.seed).fit(points)
        workload = DLWorkload(args.model, args.dataset,
                              batch_size_per_server=args.batch)
        cluster = make_cluster(args.servers, args.server_class)
        result = predictor.predict(PredictionRequest(workload=workload,
                                                     cluster=cluster))
    finally:
        obs.disable()

    if args.as_json:
        print(json.dumps({
            "model": args.model,
            "dataset": args.dataset,
            "servers": args.servers,
            "predicted_seconds": result.predicted_time,
            "spans": [r.to_dict() for r in obs.TRACER.records()],
            "metrics": obs.METRICS.snapshot(),
        }, indent=2, sort_keys=True))
        return 0
    print(f"profile: {args.model} on {args.dataset}, "
          f"{args.servers}x {args.server_class} "
          f"(throwaway predictor: ghn_dim={args.ghn_dim}, "
          f"ghn_steps={args.ghn_steps}, {len(points)} trace points)")
    print(f"predicted training time: {result.predicted_time:.1f}s")
    print()
    print(obs.TRACER.render_tree())
    print()
    print(obs.METRICS.render_text())
    return 0


def _traffic_spec(args):
    from ..serve import TrafficSpec

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    return TrafficSpec(
        models=models, dataset=args.dataset,
        cluster_sizes=tuple(_parse_sizes(args.sizes)),
        server_class=args.server_class, batch_size=args.batch,
        num_requests=args.requests, rate=args.rate, seed=args.seed,
        deadline=(args.deadline_ms * 1e-3
                  if args.deadline_ms is not None else None))


def _serve_config(args):
    from ..serve import ServeConfig

    return ServeConfig(
        workers=args.workers, batch_window=args.window_ms * 1e-3,
        max_batch=args.max_batch, cache_size=args.cache_size,
        max_queue_depth=(args.max_queue if args.max_queue is not None
                         else max(1, args.requests)))


def _serve_burst(predictor, args) -> dict:
    """Run one loadgen burst through a server; return the JSON report."""
    from .. import obs
    from ..serve import LoadGenerator, PredictionServer

    spec = _traffic_spec(args)
    with obs.observed(tracing=False) as (_, metrics):
        with PredictionServer(predictor, _serve_config(args)) as server:
            report = LoadGenerator(server, spec).run()
        counters = metrics.snapshot()["counters"]
    payload = report.to_dict()
    payload["cache_hits"] = int(counters.get("serve.cache.hits", 0))
    payload["cache_misses"] = int(counters.get("serve.cache.misses", 0))
    payload["batch_coalesced"] = int(
        counters.get("serve.batch.coalesced", 0))
    payload["workers"] = args.workers
    return payload


def _print_burst(payload: dict, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"sent {payload['sent']}  completed {payload['completed']}  "
          f"rejected {payload['rejected']}  "
          f"expired {payload['expired']}  errors {payload['errors']}")
    print(f"throughput {payload['throughput_rps']:.1f} req/s over "
          f"{payload['duration_seconds']:.2f}s "
          f"({payload['workers']} worker(s))")
    print(f"latency p50 {payload['p50_ms']:.2f}ms  "
          f"p90 {payload['p90_ms']:.2f}ms  "
          f"p99 {payload['p99_ms']:.2f}ms  "
          f"max {payload['max_ms']:.2f}ms")
    print(f"cache hits {payload['cache_hits']}  "
          f"misses {payload['cache_misses']}  "
          f"batch-coalesced {payload['batch_coalesced']}")


def _throwaway_predictor(args):
    """Small fit-for-purpose predictor for serve --self-test."""
    from ..core import PredictDDL
    from ..ghn import GHNConfig, GHNRegistry
    from ..sim import generate_trace

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    sizes = sorted(set(_parse_sizes(args.sizes)) | {1})
    registry = GHNRegistry(
        config=GHNConfig(hidden_dim=args.ghn_dim, seed=args.seed),
        train_steps=args.ghn_steps)
    points = generate_trace(models, args.dataset, args.server_class,
                            sizes, batch_size_per_server=args.batch,
                            seed=args.seed)
    return PredictDDL(registry=registry, seed=args.seed).fit(points)


def _cmd_serve(args) -> int:
    from ..core.persistence import load_predictor

    if args.self_test:
        predictor = _throwaway_predictor(args)
    elif args.artifact is not None:
        predictor = load_predictor(args.artifact)
    else:
        print("error: pass --artifact PATH or --self-test",
              file=sys.stderr)
        return 1
    payload = _serve_burst(predictor, args)
    if args.self_test:
        payload["max_p50_ms"] = args.max_p50_ms
        failures = []
        if payload["completed"] != payload["sent"]:
            failures.append(
                f"lost responses: {payload['completed']}/"
                f"{payload['sent']} completed")
        if payload["rejected"] or payload["expired"] or payload["errors"]:
            failures.append(
                f"valid requests not served: "
                f"rejected={payload['rejected']} "
                f"expired={payload['expired']} "
                f"errors={payload['errors']}")
        if payload["p50_ms"] > args.max_p50_ms:
            failures.append(f"p50 {payload['p50_ms']:.2f}ms above gate "
                            f"{args.max_p50_ms:.0f}ms")
        if payload["cache_hits"] <= 0:
            failures.append("no result-cache hits on a repeating mix")
        payload["self_test"] = "fail" if failures else "pass"
        _print_burst(payload, args.as_json)
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    _print_burst(payload, args.as_json)
    return 0


def _chaos_spec(args):
    from ..faults import ChaosSpec, FaultSpec
    from ..serve import TrafficSpec

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    traffic = TrafficSpec(
        models=models, dataset=args.dataset,
        cluster_sizes=tuple(_parse_sizes(args.sizes)),
        server_class=args.server_class, batch_size=args.batch,
        num_requests=args.requests, rate=args.rate, seed=args.seed)
    faults = FaultSpec(
        seed=args.seed, num_requests=args.requests,
        num_messages=max(64, 8 * args.requests),
        worker_crash_rate=args.crash_rate,
        worker_hang_rate=args.hang_rate,
        message_drop_rate=args.drop_rate,
        message_delay_rate=args.delay_rate,
        message_duplicate_rate=args.dup_rate)
    return ChaosSpec(traffic=traffic, faults=faults,
                     workers=args.workers)


def _cmd_chaos(args) -> int:
    import json

    from ..core.persistence import load_predictor
    from ..faults import run_chaos, self_test

    if args.self_test:
        predictor = _throwaway_predictor(args)
    elif args.artifact is not None:
        predictor = load_predictor(args.artifact)
    else:
        print("error: pass --artifact PATH or --self-test",
              file=sys.stderr)
        return 1
    spec = _chaos_spec(args)
    if args.self_test:
        payload, failures = self_test(predictor, spec)
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            report = payload["summary"]
            deterministic = payload["determinism"]["summary_match"]
            print(f"plan {payload['plan']['digest']} "
                  f"(2 runs, determinism "
                  f"{'ok' if deterministic else 'BROKEN'})")
            print(f"sent {report['sent']}  completed "
                  f"{report['completed']}  lost {report['lost']}  "
                  f"duplicated {report['duplicated_to_caller']}  "
                  f"mismatched {report['mismatched']}")
            print(f"injected {report['injected']}")
            print(f"worker restarts {report['worker_restarts']}")
        for failure in failures:
            print(f"chaos self-test FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    report = run_chaos(predictor, spec)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0


def _obs_ground_truth(samples, spec):
    """Fill ``actual`` on samples from simulator ground truth.

    The simulated total training time is the quantity the predictor was
    trained to predict, so it doubles as the drift tracker's reference
    signal.  Memoized per (model, cluster size).
    """
    import dataclasses

    from ..cluster import make_cluster
    from ..sim import DLWorkload, TrainingSimulator

    simulator = TrainingSimulator()
    memo: dict[tuple[str, int], float] = {}
    filled = []
    for sample in samples:
        if sample.predicted is None or sample.cluster_size is None:
            filled.append(sample)
            continue
        key = (sample.family, sample.cluster_size)
        if key not in memo:
            workload = DLWorkload(
                sample.family, spec.dataset,
                batch_size_per_server=spec.batch_size,
                epochs=spec.epochs)
            cluster = make_cluster(sample.cluster_size,
                                   spec.server_class)
            memo[key] = simulator.run(workload, cluster,
                                      spec.seed).total_time
        filled.append(dataclasses.replace(sample, actual=memo[key]))
    return filled


def _obs_report_self_test(report, trees, flight_counts) -> list[str]:
    """Telemetry invariants behind ``repro obs report --self-test``."""
    from ..obs import check_report

    failures = list(check_report(report))
    if report.sample_count == 0:
        failures.append("no completed samples")
    if report.traced_count != report.sample_count:
        failures.append(
            f"untraced samples: {report.traced_count}/"
            f"{report.sample_count} carry a trace id")
    chain = ("serve.ingress", "serve.batch", "serve.execute",
             "predictddl.predict")
    if not any(all(name in tree.span_names() for name in chain)
               for tree in trees):
        failures.append(
            "no stitched trace contains the full ingress->batch->"
            "execute->predict span chain")
    if not flight_counts.get("request_admitted"):
        failures.append("flight recorder saw no request_admitted events")
    if not flight_counts.get("batch_formed"):
        failures.append("flight recorder saw no batch_formed events")
    if not flight_counts.get("cache_hit"):
        failures.append("no cache_hit flight events on a repeating mix")
    if not any(f.mean_error is not None for f in report.families):
        failures.append("no family has a prediction-error series")
    return failures


def _cmd_obs_report(args) -> int:
    from .. import obs
    from ..core.persistence import load_predictor
    from ..serve import LoadGenerator, PredictionServer

    if args.self_test:
        predictor = _throwaway_predictor(args)
    elif args.artifact is not None:
        predictor = load_predictor(args.artifact)
    else:
        print("error: pass --artifact PATH or --self-test",
              file=sys.stderr)
        return 1
    spec = _traffic_spec(args)
    with obs.observed() as (tracer, _):
        with PredictionServer(predictor, _serve_config(args)) as server:
            load_report = LoadGenerator(server, spec).run()
        records = tracer.records()
        flight_counts = obs.RECORDER.counts()
        if args.flight_out is not None:
            count = obs.RECORDER.dump(args.flight_out)
            print(f"{count} flight event(s) written to "
                  f"{args.flight_out}", file=sys.stderr)
    if args.trace_out is not None:
        count = obs.export.write_jsonl(records, args.trace_out)
        print(f"{count} span record(s) written to {args.trace_out}",
              file=sys.stderr)
    samples = _obs_ground_truth(load_report.samples, spec)
    report = obs.build_report(samples, trace_records=records,
                              recorder=obs.RECORDER)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.format_text())
    if args.self_test:
        trees = obs.export.stitch(records)
        failures = _obs_report_self_test(report, trees, flight_counts)
        for failure in failures:
            print(f"obs self-test FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_obs_dump(args) -> int:
    import json

    if not args.path.exists():
        print(f"error: no such dump file: {args.path}", file=sys.stderr)
        return 1
    events = []
    for line in args.path.read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    shown = events if args.limit is None else events[-args.limit:]
    for event in shown:
        seq = event.get("seq", "?")
        kind = event.get("kind", "?")
        body = " ".join(f"{k}={v}" for k, v in sorted(event.items())
                        if k not in ("seq", "wall", "kind"))
        print(f"#{seq:<6} {kind:<28} {body}")
    tally: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        tally[kind] = tally.get(kind, 0) + 1
    summary = "  ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    print(f"-- {len(events)} event(s): {summary}")
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    return _cmd_obs_dump(args)


def _cmd_loadgen(args) -> int:
    from ..core.persistence import load_predictor

    predictor = load_predictor(args.artifact)
    _print_burst(_serve_burst(predictor, args), args.as_json)
    return 0


def _cmd_bench(args) -> int:
    import json

    from ..bench import check_gates, run_perf_suite

    payload = run_perf_suite(quick=args.quick, seed=args.seed)
    failures = check_gates(payload, min_speedup=args.min_speedup)
    payload["gates"] = {
        "min_speedup": args.min_speedup,
        "failures": failures,
        "status": "fail" if failures else "pass",
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    if args.as_json:
        print(text)
    else:
        mode = "quick" if args.quick else "full"
        print(f"perf suite ({mode}, seed {args.seed})")
        print(f"{'k':>4}{'nodes':>7}{'seq (s)':>10}{'batched (s)':>13}"
              f"{'speedup':>9}{'max|diff|':>11}")
        for p in payload["embed"]:
            print(f"{p['k']:>4}{p['num_nodes']:>7}"
                  f"{p['sequential_seconds']:>10.3f}"
                  f"{p['batched_seconds']:>13.3f}"
                  f"{p['speedup']:>8.2f}x"
                  f"{p['max_abs_diff']:>11g}")
        serial_pps = next(
            (p["points_per_sec"] for p in payload["tracegen"]
             if p["workers"] == 1), 0.0)
        for p in payload["tracegen"]:
            match = "ok" if p["identical_to_serial"] else "MISMATCH"
            ratio = ""
            if p["workers"] > 1 and serial_pps > 0:
                ratio = (f", {p['points_per_sec'] / serial_pps:.2f}x "
                         f"serial")
            print(f"tracegen workers={p['workers']}: "
                  f"{p['points_per_sec']:.1f} points/s "
                  f"({p['points']} points, bitwise {match}{ratio})")
        pool = payload.get("parallel_pool")
        if pool:
            print(f"pool ({payload.get('cpus', '?')} cpus): "
                  f"{pool['spawns']} spawned, "
                  f"{pool['respawns']} respawned over "
                  f"{pool['jobs']} maps")
        if payload["serve"] is not None:
            s = payload["serve"]
            print(f"serve: p50 {s['p50_ms']:.2f}ms  "
                  f"p99 {s['p99_ms']:.2f}ms  "
                  f"{s['throughput_rps']:.1f} req/s "
                  f"({s['completed']}/{s['requests']} completed)")
        o = payload.get("obs")
        if o:
            match = ("bitwise ok" if o["predictions_identical"]
                     else "PREDICTIONS CHANGED")
            print(f"obs overhead: p50 off {o['off_p50_ms']:.2f}ms "
                  f"-> on {o['on_p50_ms']:.2f}ms "
                  f"({o['overhead_ratio']:.2f}x, {match})")
        r = payload.get("refit")
        if r:
            verdict = "promoted" if r["promoted"] else "REJECTED"
            det = "ok" if r["deterministic"] else "NONDETERMINISTIC"
            print(f"refit: candidate {r['candidate_version']} "
                  f"{verdict} over {len(r['families'])} families "
                  f"(determinism {det})")
            print(f"refit shadow: p50 off {r['shadow_off_p50_ms']:.2f}"
                  f"ms -> on {r['shadow_on_p50_ms']:.2f}ms "
                  f"({r['shadow_overhead_ratio']:.2f}x)")
        if args.out is not None:
            print(f"payload written to {args.out}")
    for failure in failures:
        print(f"perf gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from ..sim import load_trace

    points = load_trace(args.trace)
    times = np.array([p.total_time for p in points])
    models = sorted({p.workload.model_name for p in points})
    datasets = sorted({p.workload.dataset_name for p in points})
    sizes = sorted({p.run.num_servers for p in points})
    print(f"trace: {args.trace}")
    print(f"points: {len(points)}; models: {len(models)}; "
          f"datasets: {', '.join(datasets)}")
    print(f"cluster sizes: {sizes[0]}..{sizes[-1]}")
    print(f"total time: min {times.min():.1f}s, median "
          f"{np.median(times):.1f}s, max {times.max():.1f}s")
    per_model = sorted(
        ((name, float(times[[p.workload.model_name == name
                             for p in points]].mean()))
         for name in models), key=lambda kv: kv[1])
    print("\nmean total time per model:")
    for name, mean_time in per_model:
        print(f"  {name:<22}{mean_time:>10.1f}s")
    return 0


def _cmd_code_lint(args) -> int:
    """The `repro lint --code` determinism linter over src/repro."""
    import json

    from ..static import lint_tree

    root = Path(__file__).resolve().parents[3]
    findings = lint_tree(root)
    blocking = [f for f in findings if not f.allowlisted]
    if args.as_json:
        print(json.dumps({
            "findings": [{
                "path": f.path, "line": f.line, "col": f.col,
                "rule": f.rule, "qualname": f.qualname,
                "message": f.message, "allowlisted": f.allowlisted,
            } for f in findings],
            "summary": {"total": len(findings),
                        "blocking": len(blocking)},
        }, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print(f"determinism lint: {len(findings)} finding(s), "
              f"{len(blocking)} blocking "
              f"({len(findings) - len(blocking)} allowlisted)")
    return 1 if blocking else 0


def _cmd_lint(args) -> int:
    import json

    from ..graphs.verify import verify_graph
    from ..graphs.zoo import get_model, list_models

    names = list(args.models)
    if args.all:
        names = list_models()
    if not names and not args.graph:
        if args.code:
            return _cmd_code_lint(args)
        print("error: nothing to lint; pass model names, --all, "
              "--graph PATH or --code", file=sys.stderr)
        return 1

    reports = []
    for name in names:
        graph = get_model(name, input_size=args.input_size)
        reports.append(verify_graph(graph, level=args.level))
        if args.static:
            from ..static import analyze_graph
            reports.append(analyze_graph(graph))
    for path in args.graph:
        payload = json.loads(Path(path).read_text())
        reports.append(verify_graph(payload, level=args.level))
        if args.static:
            from ..static import analyze_graph
            reports.append(analyze_graph(payload))

    num_errors = sum(len(r.errors) for r in reports)
    num_warnings = sum(len(r.warnings) for r in reports)
    failing = sum(1 for r in reports if not r.ok)
    if args.as_json:
        print(json.dumps({
            "graphs": [r.to_dict() for r in reports],
            "summary": {
                "checked": len(reports),
                "failing": failing,
                "errors": num_errors,
                "warnings": num_warnings,
                "level": args.level,
            },
        }, indent=2))
    else:
        for report in reports:
            print(report.format_text())
        print(f"{len(reports)} graph(s) checked: "
              f"{len(reports) - failing} ok, {failing} failing "
              f"({num_errors} error(s), {num_warnings} warning(s))")
    code_rc = _cmd_code_lint(args) if args.code else 0
    return 1 if (num_errors or code_rc) else 0


def _open_store(path: Path):
    """Open an existing trace store, refusing to create one."""
    from ..store import TraceStore

    if not path.is_dir():
        raise FileNotFoundError(f"no such trace store: {path}")
    return TraceStore(str(path))


def _cmd_store(args) -> int:
    import json

    store = _open_store(args.path)
    if args.store_command == "inspect":
        summary = store.describe()
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"store: {summary['path']}")
            print(f"records: {summary['live_records']} live "
                  f"({summary['trainable_records']} trainable, "
                  f"{summary['dropped_records']} dropped by retention)")
            print(f"segments: {len(summary['segments'])}  "
                  f"next seq: {summary['next_seq']}")
            kinds = "  ".join(f"{k}={v}"
                              for k, v in summary["kinds"].items())
            fams = "  ".join(f"{k}={v}"
                             for k, v in summary["families"].items())
            print(f"kinds: {kinds or '-'}")
            print(f"families: {fams or '-'}")
            print(f"snapshot digest: {summary['snapshot_digest']}")
        return 0
    if args.store_command == "verify-digest":
        problems = store.verify()
        if args.as_json:
            print(json.dumps({
                "problems": problems,
                "summary": {"records": len(store),
                            "problems": len(problems)},
            }, indent=2, sort_keys=True))
        else:
            for problem in problems:
                print(problem)
            print(f"{len(store)} record(s) verified: "
                  f"{len(problems)} problem(s)")
        return 1 if problems else 0
    # compact
    if args.max_records is not None:
        store.max_records = args.max_records
    summary = store.compact()
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"segments {summary['segments_before']} -> "
              f"{summary['segments_after']}  records "
              f"{summary['records_before']} -> "
              f"{summary['records_after']} "
              f"({summary['records_dropped']} dropped)")
        print(f"snapshot digest: {summary['snapshot_digest']}")
    return 0


def _cmd_refit(args) -> int:
    import json

    from ..refit import self_test

    if args.self_test:
        payload, failures = self_test(seed=args.seed)
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            s = payload["summary"]
            det = payload["determinism"]
            print(f"snapshot {s['snapshot_digest']}  candidate "
                  f"{s['candidate']['version']}  (2 runs, determinism "
                  f"{'ok' if det['summary_match'] else 'BROKEN'})")
            print(f"drift tripped: "
                  f"{', '.join(s['drifted_after_b']) or 'NO'}")
            for fam in s["decision"]["families"]:
                print(f"  {fam['family']}: candidate MAE "
                      f"{fam['candidate_mae']:.4g} vs incumbent "
                      f"{fam['incumbent_mae']:.4g}")
            print(f"promoted: {s['decision']['promote']}  active: "
                  f"{s['active_version']}")
        for failure in failures:
            print(f"refit self-test FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0

    from ..core.persistence import load_predictor, save_predictor
    from ..refit import PromotionGate, RefitConfig, refit_from_snapshot

    if args.store is None or args.artifact is None:
        print("error: pass --store DIR and --artifact PATH, or "
              "--self-test", file=sys.stderr)
        return 1
    predictor = load_predictor(args.artifact)
    store = _open_store(args.store)
    snapshot = store.snapshot()
    config = RefitConfig(regressor_name=args.regressor,
                         train_window=args.train_window,
                         eval_window=args.eval_window, seed=args.seed)
    result = refit_from_snapshot(predictor, snapshot, config)
    gate = PromotionGate(predictor, eval_window=args.eval_window)
    decision = gate.evaluate(snapshot, incumbent=predictor.engine,
                             candidate=result.engine)
    promoted = decision.promote
    if promoted:
        predictor.engine = result.engine
        if args.out is not None:
            save_predictor(predictor, args.out)
    summary = {
        "snapshot_digest": snapshot.digest,
        "candidate": result.meta.to_dict(),
        "decision": decision.to_dict(),
        "promoted": promoted,
        "artifact_out": (str(args.out)
                         if promoted and args.out is not None else None),
    }
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"snapshot {snapshot.digest}  candidate "
              f"{result.meta.version} "
              f"(trained on {result.meta.train_rows} records)")
        for fam in decision.families:
            print(f"  {fam.family}: candidate MAE "
                  f"{fam.candidate_mae:.4g} vs incumbent "
                  f"{fam.incumbent_mae:.4g}")
        print(f"promoted: {promoted}  ({decision.reason})")
        if promoted and args.out is not None:
            print(f"updated predictor written to {args.out}")
    return 0 if promoted else 1


_COMMANDS = {
    "models": _cmd_models,
    "datasets": _cmd_datasets,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "obs": _cmd_obs,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "store": _cmd_store,
    "refit": _cmd_refit,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_obs(_COMMANDS[args.command], args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
