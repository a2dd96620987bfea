"""Unsupervised fault detection with hierarchical extreme learning machines.

Sparse ELM autoencoders learn a compact feature map of healthy sensor data;
a one-class ELM head trained against the constant target 1 turns it into a
health indicator |1 - Y|. A threshold calibrated on held-out healthy data
flags abnormal points. Includes a synthetic condition-monitoring benchmark
generator, baseline detectors, and an experiment harness.
"""
from .data import (NormalizationStats, RngStream, apply_normalization,
                   fit_normalization, read_csv_matrix, write_csv_matrix)
from .elm import ElmLayer, hidden, random_layer, ridge_solve
from .fista import FistaParams, FistaResult, fista_solve, lasso_objective, soft_threshold
from .helm import (Ensemble, HelmConfig, HelmModel, helm_run, helm_train,
                   load_ensemble, run_ensemble, save_ensemble, train_ensemble)
from .detector import (Detection, DetectorConfig, calibrate, decide, labels_of,
                       residuals, write_detections_csv)
from .baselines import (PcaModel, one_class_run, one_class_train,
                        one_class_train_ensemble, pca_elm_run, pca_elm_train,
                        pca_elm_train_ensemble, pca_fit)
from .synth import (FAULT_NAMES, SEGMENTS, GeneratorSpec, SyntheticDataset,
                    generate, render_splits, write_dataset)
from .metrics import (BenchmarkPlan, ExperimentReport, RateTuple,
                      benchmark_rep, run_benchmark, score_rates,
                      segment_flagged, winning_cells)

__version__ = "0.1.0"

__all__ = [
    "NormalizationStats", "RngStream", "apply_normalization",
    "fit_normalization", "read_csv_matrix", "write_csv_matrix",
    "ElmLayer", "hidden", "random_layer", "ridge_solve",
    "FistaParams", "FistaResult", "fista_solve", "lasso_objective",
    "soft_threshold",
    "Ensemble", "HelmConfig", "HelmModel", "helm_run", "helm_train",
    "load_ensemble",
    "run_ensemble", "save_ensemble", "train_ensemble",
    "Detection", "DetectorConfig", "calibrate", "decide", "labels_of",
    "residuals", "write_detections_csv",
    "PcaModel", "one_class_run", "one_class_train",
    "one_class_train_ensemble", "pca_elm_run", "pca_elm_train",
    "pca_elm_train_ensemble", "pca_fit",
    "FAULT_NAMES", "SEGMENTS", "GeneratorSpec", "SyntheticDataset",
    "generate", "render_splits", "write_dataset",
    "BenchmarkPlan", "ExperimentReport", "RateTuple", "benchmark_rep",
    "run_benchmark", "score_rates",
    "segment_flagged", "winning_cells", "__version__",
]
