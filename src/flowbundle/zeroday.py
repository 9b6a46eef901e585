"""Autoencoder zero-day detector: train on benign, flag by error threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mlp import (
    MinMaxScaler,
    MlpModel,
    TrainingConfig,
    init_model,
    reconstruction_errors,
    train,
)

DEFAULT_THRESHOLDS = (0.15, 0.10, 0.05)


@dataclass
class ThresholdPolicy:
    """Independent reconstruction-error thresholds, strict-greater flagging."""

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        for t in self.thresholds:
            if not 0 < t < 1:
                raise ValueError(f"threshold {t} outside (0, 1)")


@dataclass
class ThresholdOutcome:
    threshold: float
    total: int
    flagged: int
    flagged_rate: float
    accuracy: float


@dataclass
class DetectionReport:
    kind: str  # "attack" or "benign"
    outcomes: list[ThresholdOutcome] = field(default_factory=list)

    def accuracy_at(self, threshold: float) -> float:
        for outcome in self.outcomes:
            if math.isclose(outcome.threshold, threshold):
                return outcome.accuracy
        raise KeyError(f"no outcome for threshold {threshold}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "outcomes": [vars(o) for o in self.outcomes],
        }


def default_autoencoder_config(seed: int = 0) -> TrainingConfig:
    return TrainingConfig(
        learning_rate=0.05, epochs=500, loss="mse", seed=seed, input_scaling=True
    )


def fit_benign(
    X_benign: np.ndarray, cfg: TrainingConfig | None = None
) -> tuple[MlpModel, list[float]]:
    """Train an input -> ceil(input/2) -> input autoencoder on benign rows.

    Features are min-max scaled to [0, 1] on the benign data and the
    scaler stays attached to the model, so the 0.05-0.15 thresholds are
    meaningful for any schema.
    """
    X_benign = np.asarray(X_benign, dtype=float)
    if X_benign.ndim != 2 or X_benign.shape[0] == 0:
        raise ValueError("fit_benign needs a non-empty 2-D feature matrix")
    if not np.all(np.isfinite(X_benign)):
        raise ValueError("benign matrix contains non-finite values")
    cfg = cfg or default_autoencoder_config()
    if cfg.loss != "mse":
        raise ValueError("autoencoder training requires the mse loss")
    d = X_benign.shape[1]
    model = init_model(
        [d, max(1, math.ceil(d / 2)), d],
        hidden_activation="relu",
        output_activation="sigmoid",
        seed=cfg.seed,
    )
    # inputs and targets are both the scaled rows
    scaler = MinMaxScaler().fit(X_benign)
    scaled = scaler.transform(X_benign)
    trained, history = train(model, scaled, scaled, replace(cfg, input_scaling=False))
    trained.scaler = scaler
    return trained, history


def detect(
    model: MlpModel,
    X: np.ndarray,
    policy: ThresholdPolicy | None = None,
    kind: str = "attack",
) -> DetectionReport:
    """Per-threshold detection table for one sample set.

    A sample is flagged when its reconstruction error strictly exceeds
    the threshold.  Accuracy is the flagged rate for attack sets and the
    unflagged rate for benign sets.
    """
    if kind not in ("attack", "benign"):
        raise ValueError("kind must be 'attack' or 'benign'")
    policy = policy or ThresholdPolicy()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"samples have {X.shape[-1] if X.ndim == 2 else '?'} features, "
            f"model expects {model.layer_sizes[0]}"
        )
    errors = reconstruction_errors(model, X)
    report = DetectionReport(kind=kind)
    for threshold in policy.thresholds:
        flagged = int(np.sum(errors > threshold))
        rate = flagged / len(errors) if len(errors) else 0.0
        accuracy = rate if kind == "attack" else 1.0 - rate
        report.outcomes.append(
            ThresholdOutcome(
                threshold=threshold,
                total=len(errors),
                flagged=flagged,
                flagged_rate=rate,
                accuracy=accuracy,
            )
        )
    return report
