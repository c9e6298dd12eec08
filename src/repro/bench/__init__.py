"""Benchmark support: shared harness, per-figure experiments, reporting."""

from .ablations import (allreduce_ablation, embedding_dim_sweep,
                        ghn_config_ablation)
from .experiments_eval import (Fig9Result, Fig10Result, Fig11Result,
                               Fig12Result, cluster_size_sensitivity,
                               prediction_error_vs_ernest,
                               regressor_comparison,
                               split_ratio_sensitivity)
from .experiments_motivation import (BlackGrayResult,
                                     FeatureAblationResult,
                                     blackbox_vs_graybox,
                                     embedding_similarity,
                                     feature_ablation)
from .experiments_scalability import (BatchCost, Fig13Result,
                                      batch_prediction_scalability)
from .experiments_chaos import ChaosRecoveryPoint, chaos_recovery
from .experiments_serve import ServeScalePoint, serving_scalability
from .harness import (EvalOutcome, ernest_design, evaluate_ernest,
                      evaluate_predictor, fit_ernest, fit_predictor,
                      per_workload_ratios, split_points)
from .perf import (EmbedPerfPoint, RefitPerfResult, ServePerfResult,
                   TracegenPerfPoint, check_gates, continual_refit,
                   embed_throughput, run_perf_suite, serve_latency,
                   tracegen_throughput)
from .reporting import format_table, render_report, write_report

__all__ = [
    "split_points", "fit_predictor", "evaluate_predictor", "EvalOutcome",
    "ernest_design", "fit_ernest", "evaluate_ernest",
    "per_workload_ratios",
    "blackbox_vs_graybox", "BlackGrayResult",
    "feature_ablation", "FeatureAblationResult", "embedding_similarity",
    "prediction_error_vs_ernest", "Fig9Result",
    "regressor_comparison", "Fig10Result",
    "split_ratio_sensitivity", "Fig11Result",
    "cluster_size_sensitivity", "Fig12Result",
    "batch_prediction_scalability", "Fig13Result", "BatchCost",
    "serving_scalability", "ServeScalePoint",
    "chaos_recovery", "ChaosRecoveryPoint",
    "embedding_dim_sweep", "ghn_config_ablation", "allreduce_ablation",
    "run_perf_suite", "check_gates", "embed_throughput",
    "tracegen_throughput", "serve_latency", "continual_refit",
    "EmbedPerfPoint", "TracegenPerfPoint", "ServePerfResult",
    "RefitPerfResult",
    "format_table", "render_report", "write_report",
]
