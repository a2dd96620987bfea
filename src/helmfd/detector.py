"""Calibrated detection on top of one-class outputs.

The health indicator is the residual |1 - Y|. Calibration fixes a threshold
gamma · percentile_p(validation residuals); the decision rule labels a point
abnormal when its residual exceeds the threshold, and the magnification
coefficient (residual / threshold) grades how far past the boundary it lies.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .data import as_vector, replaced_when_done


@dataclass(frozen=True)
class DetectorConfig:
    gamma: float = 1.5
    p: float = 99.5
    threshold: float = 0.0   # > 0 once calibrated

    def __post_init__(self):
        if not all(np.isfinite((self.gamma, self.p, self.threshold))):
            raise ValueError("gamma, p and threshold must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if not 0.0 < self.p <= 100.0:
            raise ValueError("p must lie in (0, 100]")

    @classmethod
    def from_dict(cls, d) -> "DetectorConfig":
        """The settings as a model file stores them: an object with exactly
        the numbers gamma, p and threshold, the threshold > 0 as calibrate
        sets it. Raises ValueError otherwise."""
        if not isinstance(d, dict) or set(d) != {"gamma", "p", "threshold"}:
            raise ValueError("detector settings must hold exactly "
                             "gamma, p and threshold")
        for k, v in d.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"detector {k} is not a number: {v!r}")
        if d["threshold"] <= 0:
            raise ValueError(f"detector threshold {d['threshold']!r} is not > 0")
        return cls(**d)


class Detection(NamedTuple):
    score: float           # |1 - Y|
    label: int             # +1 healthy, -1 abnormal
    magnification: float   # score / threshold


def residuals(Y) -> np.ndarray:
    return np.abs(1.0 - as_vector(Y, "Y"))


def calibrate(Y_val, gamma: float,
              p: float = DetectorConfig.p) -> DetectorConfig:
    """Threshold = gamma · p-th percentile of validation residuals
    (linear interpolation between order statistics)."""
    r = residuals(Y_val)
    if r.size < 2:
        raise ValueError("validation vector must have length >= 2")
    thr = gamma * float(np.percentile(r, p))
    return DetectorConfig(gamma=gamma, p=p, threshold=thr)


def decide(Y_test, config: DetectorConfig) -> list[Detection]:
    """Per-point score, label, magnification. Boundary points (score equal to
    the threshold) count healthy: the sign convention takes sgn(0) = +1."""
    thr = config.threshold
    if thr <= 0:
        raise ValueError("uncalibrated detector (threshold <= 0)")
    r = residuals(Y_test)
    # tuple.__new__ builds the same Detection as its generated __new__, at
    # half the cost per row
    return list(map(tuple.__new__, repeat(Detection),
                    zip(r.tolist(), np.where(r <= thr, 1, -1).tolist(),
                        (r / thr).tolist())))


def labels_of(detections: list[Detection]) -> np.ndarray:
    return np.array([d.label for d in detections], dtype=np.int64)


def write_detections_csv(path, detections: list[Detection]) -> None:
    """A header line, then one line per detection, byte for byte as
    csv.writer writes [index, repr(score), label, repr(magnification)]: no
    field needs quoting, and lines end in "\r\n". The file appears only
    complete (data.replaced_when_done)."""
    with replaced_when_done(path) as tmp, \
            open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write("index,score,label,magnification\r\n")
        fh.writelines(f"{i},{d.score!r},{d.label},{d.magnification!r}\r\n"
                      for i, d in enumerate(detections))
