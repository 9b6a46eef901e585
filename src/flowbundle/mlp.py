"""Small feed-forward network trained by plain gradient descent.

Forward pass per neuron: O = f(sum_i x_i * w_i + b); updates follow
w <- w - lr * dE/dw.  The same machinery serves as the classifier
(softmax + cross-entropy) and, with output size equal to input size,
as the reconstruction autoencoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .features import ALL_FEATURE_NAMES, line_of, utf8_text

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
    learning_rate: float
    epochs: int
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
    """All parameters live in one flat float64 vector, `params`: `layers[i]`
    is layer i's (fan_in + 1, fan_out) view of it, bias last, and
    `weights[i]` and `biases[i]` view its parts, so writes reach `params`.
    Every layer's input, the network's too, ends in a row of ones, so one
    matmul with `layers[i]` adds the bias."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"
    output_activation: str = "softmax"
    scaler: MinMaxScaler | None = None
    params: np.ndarray = field(init=False, repr=False)
    layers: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = np.concatenate(
            [np.vstack([w, b]).ravel() for w, b in zip(self.weights, self.biases)],
            dtype=float,
        )
        self.layers = self.layer_views(self.params)
        self.weights = [layer[:-1] for layer in self.layers]
        self.biases = [layer[-1] for layer in self.layers]

    def layer_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each layer's (fan_in + 1, fan_out) view of a vector laid out like params."""
        views, start = [], 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            stop = start + (fan_in + 1) * fan_out
            views.append(flat[start:stop].reshape(fan_in + 1, fan_out))
            start = stop
        return views

    def copy(self) -> "MlpModel":
        # __post_init__ packs the weights and biases into new memory
        return replace(self, layer_sizes=list(self.layer_sizes))


def init_model(
    layer_sizes: list[int],
    hidden_activation: str,
    output_activation: str,
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


def init_classifier(n_inputs: int, hidden_size: int, n_classes: int, seed: int) -> MlpModel:
    """The classifier RFE, k-fold and ``flowbundle train`` fit: tanh hidden
    units, since with only 3 of them ReLU inits can go dead and pin a fit
    at the majority-class plateau, and a softmax output."""
    return init_model([n_inputs, hidden_size, n_classes], "tanh", "softmax", seed)


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


def _output(z: np.ndarray, kind: str, column: np.ndarray) -> np.ndarray:
    """Output activation of a (units, rows) array, computed in place over z;
    softmax takes each sample's max and sum into column, a (rows,) array."""
    if kind == "softmax":  # the ufuncs' reduce skips np.max's and np.sum's wrappers
        z -= np.maximum.reduce(z, axis=0, out=column)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=0, out=column)
        return z
    if kind == "sigmoid":
        return _sigmoid(z)
    return z


class _Fit:
    """The arrays every step of one fit writes, made once for batches as
    long as X, feature-major: every layer's activation, X with a row of
    ones first and each hidden one ending in a row of ones, and the
    softmax's column; with targets also the targets, each layer's delta
    and the flat gradient with its per-layer views."""

    def __init__(self, model: MlpModel, X: np.ndarray, targets: np.ndarray | None = None):
        rows, sizes = len(X), model.layer_sizes
        # C order whatever X's: BLAS rounds C- and F-ordered operands differently
        self.activations = [np.ones((units + 1, rows)) for units in sizes[:-1]]
        self.activations[0][:-1] = X.T
        self.activations.append(np.empty((sizes[-1], rows)))
        self.column = np.empty(rows)
        if targets is not None:
            self.targets = np.ascontiguousarray(targets.T, dtype=float)
            self.deltas = [np.empty((units, rows)) for units in sizes[1:]]
            self.grad = np.empty_like(model.params)
            self.grads = model.layer_views(self.grad)


def _forward(model: MlpModel, fit: _Fit) -> None:
    """Every layer's activation, written into fit.activations.  Each
    layer's input ends in a row of ones, the network's too, so its matmul
    with the packed (fan_in + 1, fan_out) parameters adds the bias."""
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        units = fit.activations[i + 1][: layer.shape[1]]
        np.matmul(layer.T, fit.activations[i], out=units)
        if i < last:
            _hidden(units, model.hidden_activation)
        else:
            _output(units, model.output_activation, fit.column)


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Raw network output for each row of X (no input scaling applied)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"input has {X.shape[-1] if X.ndim else 0} features, "
            f"model expects {model.layer_sizes[0]}"
        )
    if not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    fit = _Fit(model, X)
    _forward(model, fit)
    return fit.activations[-1].T


def loss_and_gradients(
    model: MlpModel, X: np.ndarray | None, targets: np.ndarray | None, loss: str,
    record_loss: bool = True, fit: _Fit | None = None,
) -> tuple[float | None, np.ndarray]:
    """Loss plus the analytic gradient of every parameter, laid out like
    model.params (`model.layer_views` slices it per layer).

    Supported pairings: softmax + cross_entropy, identity/sigmoid + mse.
    Cross-entropy targets are one-hot rows; mse targets are raw outputs.
    Without record_loss the cross-entropy loss is not computed (None).
    A fit's arrays, `fit`, already hold the batch, and X and targets are
    not read; without it the step makes its own.  The returned grad is
    `fit.grad`, which the fit's next step overwrites.
    """
    out_kind = model.output_activation
    if loss == "cross_entropy" and out_kind != "softmax":
        raise ValueError("cross_entropy requires a softmax output layer")
    if loss == "mse" and out_kind == "softmax":
        raise ValueError("mse pairs with identity or sigmoid outputs")

    fit = _Fit(model, X, targets) if fit is None else fit
    n = fit.column.size
    _forward(model, fit)
    output, targets = fit.activations[-1], fit.targets
    delta = np.subtract(output, targets, out=fit.deltas[-1])

    value = None
    if loss == "cross_entropy":
        if record_loss:
            log_p = np.maximum(output, 1e-12, out=output)  # softmax never exceeds 1
            np.log(log_p, out=log_p)
            log_p *= targets
            value = float(-log_p.sum() / n)
        scale = n
    else:
        value = float((delta**2).mean())
        scale = delta.size / 2.0
        if out_kind == "sigmoid":
            delta *= output
            delta *= np.subtract(1.0, output, out=output)

    for layer in range(len(model.layers) - 1, -1, -1):
        a = fit.activations[layer]
        np.matmul(a, delta.T, out=fit.grads[layer])  # its last row is the bias's
        if layer:
            delta = np.matmul(model.weights[layer], delta, out=fit.deltas[layer - 1])
            delta *= _hidden_grad(a[:-1], model.hidden_activation)
    fit.grad /= scale
    return value, fit.grad


def _prepare_targets(model: MlpModel, targets: np.ndarray, loss: str) -> np.ndarray:
    targets = np.asarray(targets)
    if not np.isfinite(targets).all():
        raise ValueError("targets contain non-finite values")
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
    record_loss: bool = True,
) -> tuple[MlpModel, list[float]]:
    """Gradient-descent training; returns a new model plus the loss history,
    which is empty without record_loss.

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
    if not np.isfinite(X).all():
        raise ValueError("training matrix contains non-finite values")
    trained = model.copy()
    if cfg.input_scaling:
        trained.scaler = MinMaxScaler().fit(X)
        X = trained.scaler.transform(X)
    T = _prepare_targets(trained, targets, cfg.loss)

    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    # the whole set's arrays and each batch length's, a short last one's too
    fits = {rows: _Fit(trained, X[:rows], T[:rows]) for rows in {n, batch, n % batch or batch}}
    classes = trained.layer_sizes[-1]
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else None
        losses = []
        for start in range(0, n, batch):
            fit = fits[min(batch, n - start)]
            if order is not None:
                idx = order[start : start + batch]
                np.take(fits[n].activations[0], idx, axis=1, out=fit.activations[0])
                np.take(fits[n].targets, idx, axis=1, out=fit.targets)
            value, grad = loss_and_gradients(trained, None, None, cfg.loss, record_loss, fit)
            # unrecorded, the output bias gradient stands in: it sums softmax
            # - one-hot, so it is non-finite exactly when the cross-entropy is
            losses.append(sum(grad[-classes:].tolist()) if value is None else value)
            grad *= cfg.learning_rate
            trained.params -= grad
        epoch_loss = losses[0] if len(losses) == 1 else float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if record_loss:
            history.append(epoch_loss)
    return trained, history


def _scaled(model: MlpModel, X: np.ndarray) -> np.ndarray:
    return model.scaler.transform(X) if model.scaler is not None else X


def predict_classes(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Argmax class of the (scaled) forward pass; ties go to the lowest index."""
    X = np.asarray(X, dtype=float)
    return np.argmax(forward_batch(model, _scaled(model, X)), axis=1)


def reconstruction_errors(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each row (scaled space)."""
    X = np.asarray(X, dtype=float)
    if model.layer_sizes[0] != model.layer_sizes[-1]:
        raise ValueError("model is not an autoencoder (output size != input size)")
    Xs = _scaled(model, X)
    # C order fixes how each row's mean is summed, whatever the order of X
    errors = np.subtract(Xs, forward_batch(model, Xs), order="C")
    errors **= 2
    return errors.mean(axis=1)


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
        doc = json.loads(utf8_text(path, ValueError))
    except json.JSONDecodeError as exc:
        line = line_of(exc.doc[:exc.pos].encode())  # as the CSV loaders count lines
        raise ValueError(f"{path}:{line}: not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    found = doc.get("format_version")
    if found != version:
        raise ValueError(f"{path}: unsupported {kind} format version {found}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def _finite_array(path: str | Path, key: str, value, size: int) -> np.ndarray:
    """``value`` as a float vector of ``size`` finite numbers, else ValueError."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != (size,) or not np.isfinite(array).all():
        raise ValueError(f"{path}: key {key!r} must be a list of {size} finite numbers")
    return array


def checked_names(
    path: str | Path, doc: dict, key: str, allowed=None, size: int | None = None
) -> list[str] | None:
    """``doc[key]`` as a list of distinct names, else a ValueError naming
    the file and the key.  With ``size`` it holds that many names or is
    null (None), without it at least one; ``allowed`` limits the names."""
    value = doc.get(key)
    if value is None and size is not None:
        return None
    count = "a non-empty list of" if size is None else f"a list of {size}"
    if not (
        isinstance(value, list)
        and all(isinstance(name, str) for name in value)
        and len(set(value)) == len(value)
        and (len(value) == size if size is not None else value)
    ):
        raise ValueError(f"{path}: key {key!r} must be {count} distinct names")
    for name in value:
        if allowed is not None and name not in allowed:
            raise ValueError(f"{path}: key {key!r}: {name!r} is not a feature name")
    return list(value)


def load_model(path: str | Path) -> ModelArtifact:
    doc = read_versioned_json(
        path,
        "model",
        MODEL_FORMAT_VERSION,
        ("layer_sizes", "weights", "biases", "hidden_activation", "output_activation"),
    )
    sizes = doc["layer_sizes"]
    if not (
        isinstance(sizes, list)
        and len(sizes) >= 2
        and all(type(n) is int and n >= 1 for n in sizes)
    ):
        raise ValueError(
            f"{path}: key 'layer_sizes' must be a list of at least two positive "
            "integers"
        )
    for key, activations in (
        ("hidden_activation", HIDDEN_ACTIVATIONS),
        ("output_activation", OUTPUT_ACTIVATIONS),
    ):
        if doc[key] not in activations:
            raise ValueError(f"{path}: key {key!r} must be one of {activations}")
    layers = len(sizes) - 1
    for key in ("weights", "biases"):
        if not isinstance(doc[key], list) or len(doc[key]) != layers:
            raise ValueError(f"{path}: key {key!r} must be a list of {layers} layers")
    weights = [
        _finite_array(path, f"weights[{i}]", doc["weights"][i], sizes[i] * sizes[i + 1])
        .reshape(sizes[i], sizes[i + 1])
        for i in range(layers)
    ]
    biases = [
        _finite_array(path, f"biases[{i}]", doc["biases"][i], sizes[i + 1])
        for i in range(layers)
    ]
    scaler = None
    if doc.get("scaler") is not None:
        bounds = doc["scaler"]
        for key in ("feature_min", "feature_max"):
            if not isinstance(bounds, dict) or key not in bounds:
                raise ValueError(f"{path}: missing key 'scaler.{key}'")
        scaler = MinMaxScaler(
            feature_min=_finite_array(
                path, "scaler.feature_min", bounds["feature_min"], sizes[0]
            ),
            feature_max=_finite_array(
                path, "scaler.feature_max", bounds["feature_max"], sizes[0]
            ),
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
        feature_names=checked_names(
            path, doc, "feature_names", ALL_FEATURE_NAMES, sizes[0]
        ),
        class_names=checked_names(path, doc, "class_names", size=sizes[-1]),
        extra=doc.get("extra") or {},
    )
