"""Recursive feature elimination driven by first-layer weight magnitude.

Each round retrains the classifier from a fresh seeded init on the
surviving features, scores feature i as sum_j |w_ij| over the first
layer, and drops the weakest one until k remain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import ALL_FEATURE_NAMES
from .mlp import TrainingConfig, checked_names, init_classifier, read_versioned_json, train

SELECTION_FORMAT_VERSION = 1


@dataclass
class RfeConfig:
    """RFE settings; the pipeline takes its own from PipelineConfig."""

    k: int
    inner_training: TrainingConfig
    hidden_size: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class RfeResult:
    selected: list[str]  # descending final importance
    eliminated: list[str]  # elimination order, weakest first
    importances: dict[str, float]  # final-round scores of the survivors


def _importances(
    X: np.ndarray, y: np.ndarray, n_classes: int, cfg: RfeConfig, seed: int
) -> np.ndarray:
    model = init_classifier(X.shape[1], cfg.hidden_size, n_classes, seed)
    round_cfg = replace(cfg.inner_training, loss="cross_entropy", seed=seed)
    trained, _ = train(model, X, y, round_cfg, record_loss=False)
    return np.abs(trained.weights[0]).sum(axis=1)


def rfe_select(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    cfg: RfeConfig,
) -> RfeResult:
    """Select cfg.k features; deterministic for a fixed inner seed.

    On importance ties, constant columns are dropped first, then the
    lower column index.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_features = X.shape[1]
    if len(feature_names) != n_features:
        raise ValueError("feature_names length must match the matrix width")
    if cfg.k > n_features:
        raise ValueError(
            f"k={cfg.k} exceeds the {n_features} available features"
        )
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise ValueError("rfe_select needs at least two classes")

    is_constant = [bool(np.ptp(X[:, j]) == 0) for j in range(n_features)]
    remaining = list(range(n_features))
    eliminated: list[str] = []
    base_seed = cfg.inner_training.seed
    round_index = 0
    while len(remaining) > cfg.k:
        scores = _importances(
            X[:, remaining], y, n_classes, cfg, seed=base_seed + round_index
        )
        weakest = min(
            range(len(remaining)),
            key=lambda i: (
                scores[i],
                0 if is_constant[remaining[i]] else 1,
                remaining[i],
            ),
        )
        eliminated.append(feature_names[remaining.pop(weakest)])
        round_index += 1

    final_scores = _importances(
        X[:, remaining], y, n_classes, cfg, seed=base_seed + round_index
    )
    ranked = sorted(
        range(len(remaining)), key=lambda i: (-final_scores[i], remaining[i])
    )
    selected = [feature_names[remaining[i]] for i in ranked]
    importances = {
        feature_names[remaining[i]]: float(final_scores[i]) for i in ranked
    }
    return RfeResult(selected=selected, eliminated=eliminated, importances=importances)


def save_selection(result: RfeResult, path: str | Path) -> None:
    doc = {
        "format_version": SELECTION_FORMAT_VERSION,
        "selected": result.selected,
        "eliminated": result.eliminated,
        "importances": result.importances,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_selection(path: str | Path) -> list[str]:
    doc = read_versioned_json(
        path, "selection", SELECTION_FORMAT_VERSION, ("selected",)
    )
    return checked_names(path, doc, "selected", ALL_FEATURE_NAMES)
