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
from .fista import FistaResult, fista_solve, soft_threshold
from .helm import (Ensemble, HelmConfig, load_ensemble, run_ensemble,
                   save_ensemble, train_ensemble)
from .detector import (Detection, DetectorConfig, calibrate, decide, residuals,
                       write_detections_csv)
from .baselines import one_class_train_ensemble, pca_elm_train_ensemble, pca_fit
from .synth import (FAULT_NAMES, SEGMENTS, GeneratorSpec, SyntheticDataset,
                    generate, write_dataset)
from .metrics import (BenchmarkPlan, ExperimentReport, RateTuple,
                      accuracy_table, benchmark_rep, run_benchmark,
                      score_rates, segment_flagged, winning_cells)

__version__ = "0.1.0"

__all__ = [
    "NormalizationStats", "RngStream", "apply_normalization",
    "fit_normalization", "read_csv_matrix", "write_csv_matrix",
    "ElmLayer", "hidden", "random_layer", "ridge_solve",
    "FistaResult", "fista_solve", "soft_threshold",
    "Ensemble", "HelmConfig", "load_ensemble", "run_ensemble",
    "save_ensemble", "train_ensemble",
    "Detection", "DetectorConfig", "calibrate", "decide", "residuals",
    "write_detections_csv",
    "one_class_train_ensemble", "pca_elm_train_ensemble", "pca_fit",
    "FAULT_NAMES", "SEGMENTS", "GeneratorSpec", "SyntheticDataset",
    "generate", "write_dataset",
    "BenchmarkPlan", "ExperimentReport", "RateTuple", "accuracy_table",
    "benchmark_rep", "run_benchmark", "score_rates",
    "segment_flagged", "winning_cells", "__version__",
]
