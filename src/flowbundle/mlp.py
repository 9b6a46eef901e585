"""Small feed-forward network trained by plain gradient descent.

Forward pass per neuron: O = f(sum_i x_i * w_i + b); updates follow
w <- w - lr * dE/dw.  The same machinery serves as the classifier
(softmax + cross-entropy) and, with output size equal to input size,
as the reconstruction autoencoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HIDDEN_ACTIVATIONS = ("relu", "tanh", "sigmoid")
OUTPUT_ACTIVATIONS = ("softmax", "sigmoid", "identity")
LOSSES = ("mse", "cross_entropy")

MODEL_FORMAT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class MinMaxScaler:
    """Min-max mapping of each feature to [0, 1], fitted on training data.

    Constant columns map to 0 so degenerate features cannot produce NaNs.
    """

    feature_min: np.ndarray | None = None
    feature_max: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        self.feature_min = X.min(axis=0)
        self.feature_max = X.max(axis=0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.feature_min is None or self.feature_max is None:
            raise ValueError("scaler is not fitted")
        span = self.feature_max - self.feature_min
        safe_span = np.where(span > 0, span, 1.0)
        scaled = (X - self.feature_min) / safe_span
        return np.where(span > 0, scaled, 0.0)


@dataclass
class TrainingConfig:
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int | None = None  # None = full batch
    loss: str = "cross_entropy"
    seed: int = 0
    input_scaling: bool = True

    def __post_init__(self) -> None:
        # 0 is allowed: it freezes the weights, which the no-op update
        # checks rely on
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"
    output_activation: str = "softmax"
    scaler: MinMaxScaler | None = None

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            scaler=self.scaler,
        )


def init_model(
    layer_sizes: list[int],
    hidden_activation: str = "relu",
    output_activation: str = "softmax",
    seed: int = 0,
) -> MlpModel:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output layers")
    if hidden_activation not in HIDDEN_ACTIVATIONS:
        raise ValueError(f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"output_activation must be one of {OUTPUT_ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=list(layer_sizes),
        weights=weights,
        biases=biases,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
    )


# numpy sums a contiguous run of fewer than this many entries in order
# and a longer one pairwise, so a softmax row sum over fewer columns can
# be taken column by column with the same bits.  Bias gradients add rows
# in order at any width above 1; accumulating them beats np.sum only
# below this width.
_IN_ORDER_WIDTH = 8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, computed in place over z."""
    with np.errstate(over="ignore"):  # exp overflow still yields correct 0/1
        np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _hidden(z: np.ndarray, kind: str) -> np.ndarray:
    """Hidden activation, computed in place over z."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    return _sigmoid(z)


def _hidden_grad(activation: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the hidden activation, taken from its output.

    Overwrites `activation` for tanh; relu gives a mask (a > 0 iff z > 0).
    """
    if kind == "relu":
        return activation > 0
    if kind == "tanh":
        np.multiply(activation, activation, out=activation)
        return np.subtract(1.0, activation, out=activation)
    grad = 1.0 - activation
    grad *= activation
    return grad


def _output(z: np.ndarray, kind: str) -> np.ndarray:
    """Output activation, computed in place over z."""
    if kind == "softmax":
        cols = z.T
        peak = cols[0].copy()
        for col in cols[1:]:
            np.maximum(peak, col, out=peak)
        z -= peak[:, None]
        np.exp(z, out=z)
        if len(cols) < _IN_ORDER_WIDTH:
            total = cols[0].copy()
            for col in cols[1:]:
                total += col
        else:
            total = z.sum(axis=1)
        z /= total[:, None]
        return z
    if kind == "sigmoid":
        return _sigmoid(z)
    return z


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0), bit for bit (numpy sums a single column pairwise)."""
    if 1 < a.shape[1] < _IN_ORDER_WIDTH:
        return np.add.accumulate(a, axis=0)[-1]
    return a.sum(axis=0)


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Raw network output for each row of X (no input scaling applied)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"input has {X.shape[-1] if X.ndim else 0} features, "
            f"model expects {model.layer_sizes[0]}"
        )
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        a = _output(z, model.output_activation) if i == last else _hidden(
            z, model.hidden_activation
        )
    return a


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("forward expects a single 1-D feature vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector contains non-finite values")
    return forward_batch(model, x[None, :])[0]


def loss_and_gradients(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, loss: str
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Loss plus analytic dE/dw, dE/db for every layer.

    Supported pairings: softmax + cross_entropy, identity/sigmoid + mse.
    Cross-entropy targets are one-hot rows; mse targets are raw outputs.
    """
    out_kind = model.output_activation
    if loss == "cross_entropy" and out_kind != "softmax":
        raise ValueError("cross_entropy requires a softmax output layer")
    if loss == "mse" and out_kind == "softmax":
        raise ValueError("mse pairs with identity or sigmoid outputs")

    n = X.shape[0]
    activations = [X]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w
        z += b
        activations.append(
            _output(z, out_kind) if i == last else _hidden(z, model.hidden_activation)
        )
    output = activations.pop()

    if loss == "cross_entropy":
        log_p = np.clip(output, 1e-12, 1.0)
        np.log(log_p, out=log_p)
        log_p *= targets
        value = float(-log_p.sum() / n)
        delta = np.subtract(output, targets, out=output)
        delta /= n
    else:
        delta = output - targets
        value = float((delta**2).mean())
        delta *= 2.0
        delta /= delta.size
        if out_kind == "sigmoid":
            delta *= output
            delta *= np.subtract(1.0, output, out=output)

    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    for layer in range(last, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = _column_sums(delta)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta *= _hidden_grad(activations[layer], model.hidden_activation)
    return value, grads_w, grads_b


def _descend(
    model: MlpModel, grads_w: list[np.ndarray], grads_b: list[np.ndarray], lr: float
) -> None:
    """One gradient-descent update, in place; scales the gradients too."""
    for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
        gw *= lr
        w -= gw
        gb *= lr
        b -= gb


def _prepare_targets(model: MlpModel, targets: np.ndarray, loss: str) -> np.ndarray:
    targets = np.asarray(targets)
    if loss == "cross_entropy":
        n_classes = model.layer_sizes[-1]
        if targets.ndim != 1:
            raise ValueError("cross_entropy expects integer class labels")
        if targets.min() < 0 or targets.max() >= n_classes:
            raise ValueError(
                f"class labels must lie in [0, {n_classes}) for this model"
            )
        present = set(np.unique(targets).tolist())
        missing = [c for c in range(n_classes) if c not in present]
        if missing:
            raise ValueError(f"no training samples for class index {missing[0]}")
        onehot = np.zeros((len(targets), n_classes))
        onehot[np.arange(len(targets)), targets] = 1.0
        return onehot
    targets = targets.astype(float)
    if targets.ndim != 2 or targets.shape[1] != model.layer_sizes[-1]:
        raise ValueError("mse targets must match the output layer width")
    return targets


def train(
    model: MlpModel,
    X: np.ndarray,
    targets: np.ndarray,
    cfg: TrainingConfig,
) -> tuple[MlpModel, list[float]]:
    """Gradient-descent training; returns a new model plus the loss history.

    Full-batch by default; deterministic for a fixed config seed.  When
    cfg.input_scaling is set a min-max scaler is fitted on X and stored
    on the returned model, and prediction helpers apply it automatically.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"training matrix has {X.shape[-1] if X.ndim == 2 else '?'} features, "
            f"model expects {model.layer_sizes[0]}"
        )
    trained = model.copy()
    if cfg.input_scaling:
        trained.scaler = MinMaxScaler().fit(X)
        X = trained.scaler.transform(X)
    T = _prepare_targets(trained, targets, cfg.loss)

    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        if batch >= n:
            epoch_loss, gw, gb = loss_and_gradients(trained, X, T, cfg.loss)
            _descend(trained, gw, gb, cfg.learning_rate)
        else:
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                value, gw, gb = loss_and_gradients(trained, X[idx], T[idx], cfg.loss)
                _descend(trained, gw, gb, cfg.learning_rate)
                losses.append(value)
            epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        history.append(epoch_loss)
    return trained, history


def _scaled(model: MlpModel, X: np.ndarray) -> np.ndarray:
    return model.scaler.transform(X) if model.scaler is not None else X


def predict_class(model: MlpModel, x: np.ndarray) -> int:
    """Argmax class of the (scaled) forward pass; ties go to the lowest index."""
    x = np.asarray(x, dtype=float)
    return int(np.argmax(forward(model, _scaled(model, x[None, :])[0])))


def predict_classes(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return np.argmax(forward_batch(model, _scaled(model, X)), axis=1)


def reconstruction_error(model: MlpModel, x: np.ndarray) -> float:
    """Mean squared reconstruction error of one sample (scaled space)."""
    x = np.asarray(x, dtype=float)
    if model.layer_sizes[0] != model.layer_sizes[-1]:
        raise ValueError("model is not an autoencoder (output size != input size)")
    xs = _scaled(model, x[None, :])[0]
    out = forward(model, xs)
    return float(((xs - out) ** 2).mean())


def reconstruction_errors(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if model.layer_sizes[0] != model.layer_sizes[-1]:
        raise ValueError("model is not an autoencoder (output size != input size)")
    Xs = _scaled(model, X)
    out = forward_batch(model, Xs)
    return ((Xs - out) ** 2).mean(axis=1)


@dataclass
class ModelArtifact:
    """A model plus the bookkeeping needed to apply it to CSV data."""

    model: MlpModel
    feature_names: list[str] | None = None
    class_names: list[str] | None = None
    extra: dict = field(default_factory=dict)


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    model = artifact.model
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": model.layer_sizes,
        "hidden_activation": model.hidden_activation,
        "output_activation": model.output_activation,
        "weights": [w.flatten().tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
        "scaler": None
        if model.scaler is None
        else {
            "feature_min": model.scaler.feature_min.tolist(),
            "feature_max": model.scaler.feature_max.tolist(),
        },
        "feature_names": artifact.feature_names,
        "class_names": artifact.class_names,
        "extra": artifact.extra,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def read_versioned_json(
    path: str | Path, kind: str, version: int, required: tuple[str, ...]
) -> dict:
    """Parse a JSON manifest; any defect is a ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    found = doc.get("format_version")
    if found != version:
        raise ValueError(f"{path}: unsupported {kind} format version {found}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def load_model(path: str | Path) -> ModelArtifact:
    doc = read_versioned_json(
        path,
        "model",
        MODEL_FORMAT_VERSION,
        ("layer_sizes", "weights", "biases", "hidden_activation", "output_activation"),
    )
    sizes = doc["layer_sizes"]
    weights = [
        np.array(flat, dtype=float).reshape(fan_in, fan_out)
        for flat, fan_in, fan_out in zip(doc["weights"], sizes, sizes[1:])
    ]
    biases = [np.array(b, dtype=float) for b in doc["biases"]]
    scaler = None
    if doc.get("scaler") is not None:
        bounds = doc["scaler"]
        for key in ("feature_min", "feature_max"):
            if key not in bounds:
                raise ValueError(f"{path}: missing key 'scaler.{key}'")
        scaler = MinMaxScaler(
            feature_min=np.array(bounds["feature_min"], dtype=float),
            feature_max=np.array(bounds["feature_max"], dtype=float),
        )
    model = MlpModel(
        layer_sizes=list(sizes),
        weights=weights,
        biases=biases,
        hidden_activation=doc["hidden_activation"],
        output_activation=doc["output_activation"],
        scaler=scaler,
    )
    return ModelArtifact(
        model=model,
        feature_names=doc.get("feature_names"),
        class_names=doc.get("class_names"),
        extra=doc.get("extra") or {},
    )
