import json

import numpy as np
import pytest

from flowbundle.mlp import (
    MinMaxScaler,
    MlpModel,
    ModelArtifact,
    TrainingConfig,
    TrainingDivergedError,
    _Fit,
    forward_batch,
    init_model,
    load_model,
    loss_and_gradients,
    predict_classes,
    reconstruction_errors,
    save_model,
    train,
)


def finite_difference_grads(model, X, T, loss, eps=1e-5):
    """Central-difference gradient oracle over every weight and bias."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for layer, w in enumerate(model.weights):
        flat = w.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up, _ = loss_and_gradients(model, X, T, loss)
            flat[i] = old - eps
            down, _ = loss_and_gradients(model, X, T, loss)
            flat[i] = old
            grads_w[layer].reshape(-1)[i] = (up - down) / (2 * eps)
    for layer, b in enumerate(model.biases):
        for i in range(b.size):
            old = b[i]
            b[i] = old + eps
            up, _ = loss_and_gradients(model, X, T, loss)
            b[i] = old - eps
            down, _ = loss_and_gradients(model, X, T, loss)
            b[i] = old
            grads_b[layer].reshape(-1)[i] = (up - down) / (2 * eps)
    return grads_w, grads_b


def split_grad(model, grad):
    """Each layer's weight and bias gradients, sliced from the flat gradient."""
    layers = model.layer_views(grad)
    return [g[:-1] for g in layers], [g[-1] for g in layers]


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-7)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def make_blobs(rng, n=100, spread=0.5):
    X0 = rng.normal((-2, -2), spread, size=(n, 2))
    X1 = rng.normal((2, 2), spread, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestForward:
    def test_zero_network_identity_output(self):
        model = init_model([3, 2], "relu", "identity", seed=0)
        model.weights[0][:] = 0.0
        assert np.array_equal(forward_batch(model, [[1.0, 2.0, 3.0]]), [[0.0, 0.0]])

    def test_single_neuron_relu_hand_evaluated(self):
        model = MlpModel(
            layer_sizes=[2, 1],
            weights=[np.array([[0.5], [-0.25]])],
            biases=[np.array([0.1])],
            output_activation="identity",
        )
        out = forward_batch(model, [[1.0, 2.0]])[0]
        # relu applies on hidden layers; a 1-layer net with identity output
        # realises the same value because the pre-activation is positive
        assert out[0] == pytest.approx(0.1)
        hidden = MlpModel(
            layer_sizes=[2, 1, 1],
            weights=[np.array([[0.5], [-0.25]]), np.array([[1.0]])],
            biases=[np.array([0.1]), np.array([0.0])],
            hidden_activation="relu",
            output_activation="identity",
        )
        assert forward_batch(hidden, [[1.0, 2.0]])[0, 0] == pytest.approx(0.1)

    def test_sigmoid_at_zero(self):
        model = init_model([2, 1], "relu", "sigmoid", seed=0)
        model.weights[0][:] = 0.0
        assert forward_batch(model, [[3.0, -1.0]])[0, 0] == pytest.approx(0.5)

    def test_softmax_sums_to_one(self, rng):
        model = init_model([4, 3, 5], "relu", "softmax", seed=1)
        X = rng.normal(size=(20, 4))
        probs = forward_batch(model, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((probs > 0) & (probs < 1))

    def test_dimension_mismatch(self):
        model = init_model([3, 2], "relu", "softmax", seed=0)
        with pytest.raises(ValueError):
            forward_batch(model, [[1.0, 2.0]])

    def test_non_finite_input_rejected(self):
        model = init_model([2, 2], "relu", "softmax", seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(model, [[np.nan, 1.0]])


class TestGradients:
    @pytest.mark.parametrize("hidden_activation", ["tanh", "sigmoid", "relu"])
    def test_cross_entropy_gradcheck(self, rng, hidden_activation):
        model = init_model([4, 3, 2], hidden_activation, "softmax", seed=7)
        X = rng.normal(size=(6, 4))
        T = np.eye(2)[rng.integers(0, 2, size=6)]
        gw, gb = split_grad(model, loss_and_gradients(model, X, T, "cross_entropy")[1])
        fw, fb = finite_difference_grads(model, X, T, "cross_entropy")
        assert max_relative_error(gw + gb, fw + fb) < 1e-4

    @pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
    def test_mse_gradcheck(self, rng, output_activation):
        model = init_model(
            [3, 4, 3], hidden_activation="tanh",
            output_activation=output_activation, seed=3,
        )
        X = rng.normal(size=(5, 3))
        T = rng.uniform(0.2, 0.8, size=(5, 3))
        gw, gb = split_grad(model, loss_and_gradients(model, X, T, "mse")[1])
        fw, fb = finite_difference_grads(model, X, T, "mse")
        assert max_relative_error(gw + gb, fw + fb) < 1e-4

    def test_unsupported_pairings_rejected(self, rng):
        model = init_model([2, 2], "relu", "identity", seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((1, 2)), np.zeros((1, 2)),
                               "cross_entropy")
        softmax = init_model([2, 2], "relu", "softmax", seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(softmax, np.zeros((1, 2)), np.zeros((1, 2)), "mse")


# The original straightforward implementation of loss_and_gradients,
# kept verbatim as the reference for the in-place, feature-major hot path.
def _ref_sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _ref_hidden(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return _ref_sigmoid(z)


def _ref_hidden_grad(z, activation, kind):
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "tanh":
        return 1.0 - activation**2
    return activation * (1.0 - activation)


def _ref_output(z, kind):
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if kind == "sigmoid":
        return _ref_sigmoid(z)
    return z


def reference_loss_and_gradients(model, X, targets, loss):
    out_kind = model.output_activation
    n = X.shape[0]
    activations = [X]
    pre = []
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = _ref_output(z, out_kind) if i == last else _ref_hidden(
            z, model.hidden_activation
        )
        activations.append(a)
    output = activations[-1]

    if loss == "cross_entropy":
        clipped = np.clip(output, 1e-12, 1.0)
        value = float(-(targets * np.log(clipped)).sum() / n)
        delta = (output - targets) / n
    else:
        diff = output - targets
        value = float((diff**2).mean())
        delta = 2.0 * diff / diff.size
        if out_kind == "sigmoid":
            delta = delta * output * (1.0 - output)

    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.weights)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * _ref_hidden_grad(
                pre[layer - 1], activations[layer], model.hidden_activation
            )
    return value, grads_w, grads_b


def _study_like_model(sizes, hidden, output, seed):
    """A model with non-zero biases and weights scaled up as training does."""
    model = init_model(sizes, hidden_activation=hidden,
                       output_activation=output, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for w, b in zip(model.weights, model.biases):
        w *= 3.0
        b[:] = rng.normal(scale=0.5, size=b.shape)
    return model


# The hot path takes its matmuls and sums in another order than the
# reference, which moves the last bits (measured: under 1e-14 of each
# array's largest magnitude); this bound is over 100 times that.
ORACLE_RTOL = 1e-12


def _assert_close(got, want):
    """got within ORACLE_RTOL of want's largest magnitude, per array."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ORACLE_RTOL * np.abs(want).max())


def _assert_matches_reference(model, X, T, loss):
    ref_value, ref_gw, ref_gb = reference_loss_and_gradients(model, X, T, loss)
    # train hands the step Fortran-ordered arrays; callers may pass either
    for X_in, T_in in ((X, T), (np.asfortranarray(X), np.asfortranarray(T))):
        before = (X_in.copy(), T_in.copy(), [w.copy() for w in model.weights],
                  [b.copy() for b in model.biases])
        value, grad = loss_and_gradients(model, X_in, T_in, loss)
        gw, gb = split_grad(model, grad)
        after = (X_in, T_in, model.weights, model.biases)
        _assert_close(value, ref_value)
        for got, want in zip(gw + gb, ref_gw + ref_gb):
            _assert_close(got, want)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        for old, new in zip(before[2] + before[3], after[2] + after[3]):
            assert np.array_equal(old, new)


class TestReferenceOracle:
    """loss_and_gradients matches the reference to ORACLE_RTOL."""

    @pytest.mark.parametrize("hidden", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize(
        "sizes",
        [[20, 3, 2], [20, 3, 3], [10, 8, 5], [12, 1, 3], [9, 4, 9], [6, 2]],
    )
    def test_cross_entropy(self, rng, hidden, sizes):
        model = _study_like_model(sizes, hidden, "softmax", seed=sizes[-1])
        X = rng.uniform(size=(751, sizes[0]))
        X[:, 0] = 0.0  # a constant column, as min-max scaling leaves them
        T = np.eye(sizes[-1])[np.arange(751) % sizes[-1]]
        _assert_matches_reference(model, X, T, "cross_entropy")

    @pytest.mark.parametrize("output", ["sigmoid", "identity"])
    @pytest.mark.parametrize("sizes", [[36, 18, 36], [2, 1, 2], [5, 3, 5]])
    def test_mse(self, rng, output, sizes):
        model = _study_like_model(sizes, "relu", output, seed=4)
        X = rng.uniform(size=(403, sizes[0]))
        _assert_matches_reference(model, X, X.copy(), "mse")

    def test_costliest_study_shape(self, rng):
        # the widest network replicate trains, on its largest fold
        model = _study_like_model([36, 8, 5], "tanh", "softmax", seed=5)
        X = rng.uniform(size=(1322, 36))
        T = np.eye(5)[np.arange(1322) % 5]
        _assert_matches_reference(model, X, T, "cross_entropy")

    def test_training_matches_reference_updates(self, rng):
        model = _study_like_model([20, 3, 2], "tanh", "softmax", seed=1)
        X = rng.uniform(size=(745, 20))
        y = np.arange(745) % 2
        T = np.eye(2)[y]
        for batch_size in (None, 100):  # batches of 100 leave a short last one of 45 rows
            cfg = TrainingConfig(learning_rate=0.4, epochs=25, batch_size=batch_size,
                                 input_scaling=False)
            trained, history = train(model, X, y, cfg)
            expected = model.copy()
            order = np.random.default_rng(cfg.seed)
            for epoch in range(cfg.epochs):
                batches = [np.arange(745)]
                if batch_size is not None:
                    batches = np.split(order.permutation(745), range(100, 745, 100))
                values = []
                for idx in batches:
                    value, gw, gb = reference_loss_and_gradients(
                        expected, X[idx], T[idx], "cross_entropy"
                    )
                    values.append(value)
                    for layer in range(len(expected.weights)):
                        expected.weights[layer] -= cfg.learning_rate * gw[layer]
                        expected.biases[layer] -= cfg.learning_rate * gb[layer]
                _assert_close(history[epoch], np.mean(values))
            for got, want in zip(trained.weights + trained.biases,
                                 expected.weights + expected.biases):
                _assert_close(got, want)


@pytest.mark.parametrize(
    "output, loss", [("softmax", "cross_entropy"), ("sigmoid", "mse"), ("identity", "mse")]
)
@pytest.mark.parametrize("hidden", ["relu", "tanh", "sigmoid"])
class TestFitArrays:
    """Steps through one fit's arrays, which every step writes, equal steps
    that each make their own arrays, bit for bit."""

    @staticmethod
    def _problem(rng, hidden, output, loss):
        X = rng.uniform(size=(30, 4))
        T = np.eye(3)[np.arange(30) % 3] if loss == "cross_entropy" else rng.uniform(size=(30, 3))
        return _study_like_model([4, 5, 3], hidden, output, seed=6), X, T

    def test_steps_through_one_fits_arrays(self, rng, hidden, output, loss):
        model, X, T = self._problem(rng, hidden, output, loss)
        fit = _Fit(model, X[:15], T[:15])
        for _ in range(4):
            want_value, want = loss_and_gradients(model, X[:15], T[:15], loss)
            want = want.copy()
            value, grad = loss_and_gradients(model, None, None, loss, fit=fit)
            # another step of the same shape must leave this one's grad alone
            loss_and_gradients(model, X[15:], T[15:], loss)
            assert value == want_value
            assert np.array_equal(grad, want)
            grad *= 0.5
            model.params -= grad

    @pytest.mark.parametrize("batch_size", [None, 7])  # 7 leaves a short last batch
    def test_training_matches_fresh_steps(self, rng, hidden, output, loss, batch_size):
        model, X, T = self._problem(rng, hidden, output, loss)
        cfg = TrainingConfig(learning_rate=0.5, epochs=4, batch_size=batch_size, loss=loss,
                             seed=3, input_scaling=False)
        trained, history = train(model, X, T.argmax(axis=1) if loss == "cross_entropy" else T, cfg)
        expected = model.copy()
        order = np.random.default_rng(cfg.seed)
        for epoch in range(cfg.epochs):
            batches = [np.arange(30)]
            if batch_size is not None:
                batches = np.split(order.permutation(30), range(batch_size, 30, batch_size))
            values = []
            for idx in batches:
                value, grad = loss_and_gradients(expected, X[idx], T[idx], loss)
                values.append(value)
                grad *= cfg.learning_rate
                expected.params -= grad
            assert history[epoch] == (values[0] if len(values) == 1 else float(np.mean(values)))
        assert np.array_equal(trained.params, expected.params)


class TestTrain:
    def test_zero_learning_rate_freezes_weights(self, rng):
        model = init_model([3, 2, 2], "relu", "softmax", seed=5)
        before = [w.copy() for w in model.weights]
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        y[:2] = [0, 1]
        trained, history = train(
            model, X, y, TrainingConfig(learning_rate=0.0, epochs=5, seed=0)
        )
        assert len(history) == 5
        for w0, w1 in zip(before, trained.weights):
            assert np.array_equal(w0, w1)

    def test_update_rule_matches_gradient_step(self, rng):
        model = init_model([3, 2, 2], "relu", "softmax", seed=9)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        y[:2] = [0, 1]
        cfg = TrainingConfig(learning_rate=0.1, epochs=1, seed=0,
                             input_scaling=False)
        T = np.eye(2)[y]
        gw, gb = split_grad(model, loss_and_gradients(model, X, T, "cross_entropy")[1])
        trained, _ = train(model, X, y, cfg)
        for layer in range(len(model.weights)):
            expected = model.weights[layer] - 0.1 * gw[layer]
            assert np.array_equal(trained.weights[layer], expected)
            assert np.array_equal(
                trained.biases[layer], model.biases[layer] - 0.1 * gb[layer]
            )

    def test_separable_blobs_reach_high_accuracy(self, rng):
        X, y = make_blobs(rng)
        model = init_model([2, 3, 2], "tanh", "softmax", seed=2)
        trained, history = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=200, seed=2)
        )
        accuracy = (predict_classes(trained, X) == y).mean()
        assert accuracy >= 0.99
        assert history[-1] < history[0]
        for w in trained.weights:
            assert np.all(np.isfinite(w))

    def test_held_out_blob_point_classified(self, rng):
        X, y = make_blobs(rng)
        model = init_model([2, 3, 2], "tanh", "softmax", seed=2)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=200, seed=2)
        )
        held_out = np.array([[-2.1, -1.9], [2.1, 1.9]])
        assert predict_classes(trained, held_out).tolist() == [0, 1]

    def test_seeded_determinism(self, rng):
        X, y = make_blobs(rng, n=40)
        cfg = TrainingConfig(learning_rate=0.05, epochs=50, batch_size=16, seed=4)
        runs = []
        for _ in range(2):
            model = init_model([2, 3, 2], "relu", "softmax", seed=4)
            _, history = train(model, X, y, cfg)
            runs.append(history)
        assert runs[0] == runs[1]

    def test_nan_loss_aborts_with_epoch(self, rng):
        model = init_model([2, 2, 2], "relu", "identity", seed=0)
        X = rng.normal(size=(4, 2)) * 1e3
        T = rng.normal(size=(4, 2)) * 1e3
        cfg = TrainingConfig(learning_rate=1e9, epochs=50, loss="mse", seed=0,
                             input_scaling=False)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, X, T, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_or_target_rejected(self, rng, bad):
        X = rng.normal(size=(20, 3))
        y = np.array([0, 1] * 10)
        cfg = TrainingConfig(learning_rate=0.05, epochs=3, seed=0)
        X_bad = X.copy()
        X_bad[4, 1] = bad
        with pytest.raises(ValueError, match="training matrix contains non-finite"):
            train(init_model([3, 2, 2], "relu", "softmax", seed=0), X_bad, y, cfg)
        with pytest.raises(ValueError, match="targets contain non-finite"):
            train(init_model([3, 2, 2], "relu", "softmax", seed=0), X,
                  np.where(y == 1, bad, 0.0), cfg)
        T = X.copy()
        T[7, 2] = bad
        mse = TrainingConfig(learning_rate=0.05, epochs=3, loss="mse", seed=0)
        model = init_model([3, 2, 3], "relu", "identity", seed=0)
        with pytest.raises(ValueError, match="targets contain non-finite"):
            train(model, X, T, mse)

    def test_missing_class_rejected(self, rng):
        model = init_model([2, 2, 3], "relu", "softmax", seed=0)
        X = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 0, 1])  # class 2 absent
        with pytest.raises(ValueError, match="class index 2"):
            train(model, X, y, TrainingConfig(learning_rate=0.05, epochs=1))

    def test_original_model_untouched(self, rng):
        model = init_model([2, 2, 2], "relu", "softmax", seed=1)
        before = [w.copy() for w in model.weights]
        X, y = make_blobs(rng, n=10)
        train(model, X, y, TrainingConfig(learning_rate=0.1, epochs=3, seed=0))
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)


class TestLossOnlyWhenRead:
    """Without record_loss the cross-entropy is skipped; nothing else changes."""

    @pytest.mark.parametrize("batch_size", [None, 16])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    def test_skipping_the_loss_is_bit_neutral(self, rng, batch_size, loss):
        X = rng.normal(size=(60, 5))
        if loss == "mse":
            sizes, output, targets = [5, 3, 5], "sigmoid", rng.uniform(size=(60, 5))
        else:
            sizes, output, targets = [5, 4, 3], "softmax", np.arange(60) % 3
        cfg = TrainingConfig(learning_rate=0.3, epochs=20, batch_size=batch_size,
                             loss=loss, seed=2)
        fits = [
            train(init_model(sizes, hidden_activation="tanh",
                             output_activation=output, seed=2),
                  X, targets, cfg, record_loss=record)
            for record in (True, False)
        ]
        (recorded, history), (skipped, no_history) = fits
        assert len(history) == cfg.epochs
        assert no_history == []
        for got, want in zip(skipped.weights + skipped.biases,
                             recorded.weights + recorded.biases):
            assert np.array_equal(got, want)

    def test_step_without_the_loss(self, rng):
        model = init_model([6, 3, 4], "tanh", "softmax", seed=3)
        X = rng.normal(size=(30, 6))
        T = np.eye(4)[np.arange(30) % 4]
        value, grad = loss_and_gradients(model, X, T, "cross_entropy")
        skipped, same_grad = loss_and_gradients(model, X, T, "cross_entropy",
                                                record_loss=False)
        assert value is not None and skipped is None
        assert np.array_equal(grad, same_grad)

    # relu grows without bound, so its softmax input overflows to inf - inf
    @pytest.mark.parametrize(
        "hidden, learning_rate, epochs", [("relu", 1e300, (1, 0)), ("tanh", 1e308, (3, 1))]
    )
    def test_softmax_divergence_names_the_same_epoch(self, hidden, learning_rate,
                                                     epochs):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = np.arange(40) % 3
        for batch_size, epoch in zip((None, 16), epochs):
            cfg = TrainingConfig(learning_rate=learning_rate, epochs=50,
                                 batch_size=batch_size, seed=0)
            for record in (True, False):
                model = init_model([4, 3, 3], hidden, "softmax", seed=0)
                with pytest.raises(TrainingDivergedError,
                                   match=f"non-finite loss at epoch {epoch}$"):
                    with np.errstate(over="ignore", invalid="ignore"):
                        train(model, X, y, cfg, record_loss=record)


class TestPackedParameters:
    def test_weights_and_biases_view_params(self):
        model = init_model([4, 3, 2], "relu", "softmax", seed=0)
        for i, layer in enumerate(model.layers):
            model.weights[i][1, 0] = 7.0 + i
            model.biases[i][0] = -7.0 - i
            assert layer[1, 0] == 7.0 + i and layer[-1, 0] == -7.0 - i
            assert np.shares_memory(layer, model.params)
        model.params[:] = 0.5
        for w, b in zip(model.weights, model.biases):
            assert np.all(w == 0.5) and np.all(b == 0.5)
        assert model.params.size == (4 + 1) * 3 + (3 + 1) * 2

    def test_copy_shares_no_memory(self):
        model = init_model([4, 3, 2], "relu", "softmax", seed=0)
        twin = model.copy()
        assert not np.shares_memory(twin.params, model.params)
        assert np.array_equal(twin.params, model.params)
        twin.weights[0][0, 0] += 1.0
        assert twin.weights[0][0, 0] != model.weights[0][0, 0]

    def test_save_load_save_is_byte_identical(self, rng, tmp_path):
        X, y = make_blobs(rng, n=30)
        trained, _ = train(init_model([2, 3, 2], "relu", "softmax", seed=6), X, y,
                           TrainingConfig(learning_rate=0.1, epochs=30, seed=6))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(ModelArtifact(model=trained, class_names=["x", "y"]), first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestMemoryOrder:
    """BLAS rounds C- and F-ordered operands differently; results must not."""

    @staticmethod
    def _layouts(X):
        strided = np.empty((X.shape[0], 2 * X.shape[1]))[:, ::2]
        strided[:] = X
        return [X, np.asfortranarray(X), strided]

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_train_ignores_memory_order(self, rng, batch_size):
        X = rng.normal(size=(60, 5))
        y = np.arange(60) % 3
        cfg = TrainingConfig(learning_rate=0.3, epochs=20, batch_size=batch_size,
                             seed=2)
        runs = [train(init_model([5, 4, 3], "tanh", "softmax", seed=2),
                      X_in, y, cfg)
                for X_in in self._layouts(X)]
        for trained, history in runs[1:]:
            assert history == runs[0][1]
            for got, want in zip(trained.weights + trained.biases,
                                 runs[0][0].weights + runs[0][0].biases):
                assert np.array_equal(got, want)

    def test_autoencoder_ignores_memory_order(self, rng):
        X = rng.uniform(size=(50, 6))
        cfg = TrainingConfig(learning_rate=0.5, epochs=20, loss="mse", seed=0)
        runs = [train(init_model([6, 3, 6], "relu", "sigmoid", seed=0),
                      X_in, X_in, cfg)
                for X_in in self._layouts(X)]
        for trained, history in runs[1:]:
            assert history == runs[0][1]
            for got, want in zip(trained.weights, runs[0][0].weights):
                assert np.array_equal(got, want)

    def test_prediction_ignores_memory_order(self, rng):
        # a 1-unit layer and a 12-wide row mean are shapes where the two
        # orders round differently
        X = rng.uniform(size=(100, 12))
        classifier, _ = train(init_model([12, 1, 3], "relu", "softmax", seed=1), X,
                              np.arange(100) % 3,
                              TrainingConfig(learning_rate=0.3, epochs=10, seed=1))
        autoencoder, _ = train(
            init_model([12, 6, 12], "relu", "sigmoid", seed=1), X, X,
            TrainingConfig(learning_rate=0.5, epochs=10, loss="mse", seed=1),
        )
        C, F, strided = self._layouts(rng.uniform(-0.5, 1.5, size=(100, 12)))
        for other in (F, strided):
            assert np.array_equal(predict_classes(classifier, C),
                                  predict_classes(classifier, other))
            assert np.array_equal(forward_batch(classifier, C),
                                  forward_batch(classifier, other))
            assert np.array_equal(reconstruction_errors(autoencoder, C),
                                  reconstruction_errors(autoencoder, other))


class TestPredict:
    def _identity_model(self, n):
        return MlpModel(
            layer_sizes=[n, n],
            weights=[np.eye(n)],
            biases=[np.zeros(n)],
            output_activation="identity",
        )

    def test_argmax(self):
        assert predict_classes(self._identity_model(3), [[0.1, 0.7, 0.2]])[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict_classes(self._identity_model(2), [[0.5, 0.5]])[0] == 0


class TestReconstruction:
    def test_identity_autoencoder_zero_error(self, rng):
        model = MlpModel(
            layer_sizes=[3, 3],
            weights=[np.eye(3)],
            biases=[np.zeros(3)],
            output_activation="identity",
        )
        X = rng.normal(size=(1, 3))
        assert reconstruction_errors(model, X)[0] == 0.0

    def test_zero_output_autoencoder_mean_square(self):
        model = MlpModel(
            layer_sizes=[4, 2, 4],
            weights=[np.zeros((4, 2)), np.zeros((2, 4))],
            biases=[np.zeros(2), np.zeros(4)],
            output_activation="identity",
        )
        X = np.array([[0.5, -0.5, 0.5, -0.5]])  # mean square 0.25
        assert reconstruction_errors(model, X)[0] == pytest.approx(0.25)

    def test_non_autoencoder_shape_rejected(self):
        model = init_model([4, 2, 3], "relu", "softmax", seed=0)
        with pytest.raises(ValueError, match="autoencoder"):
            reconstruction_errors(model, np.zeros((1, 4)))

    def test_trained_benign_validation_below_95th_percentile(self, rng):
        X = rng.normal(0.5, 0.1, size=(200, 6)).clip(0, 1)
        model = init_model([6, 3, 6], "relu", "sigmoid", seed=0)
        trained, _ = train(
            model, X, X,
            TrainingConfig(learning_rate=0.5, epochs=400, loss="mse", seed=0,
                           input_scaling=False),
        )
        train_errors = reconstruction_errors(trained, X)
        validation_point = rng.normal(0.5, 0.1, size=(1, 6)).clip(0, 1)
        assert reconstruction_errors(trained, validation_point)[0] < np.quantile(
            train_errors, 0.95
        )


class TestScaler:
    def test_min_to_zero_max_to_one_exact(self, rng):
        X = rng.normal(size=(30, 4)) * 10
        scaler = MinMaxScaler().fit(X)
        S = scaler.transform(X)
        assert np.array_equal(S.min(axis=0), np.zeros(4))
        assert np.array_equal(S.max(axis=0), np.ones(4))

    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0]])
        S = MinMaxScaler().fit(X).transform(X)
        assert np.array_equal(S[:, 1], [0.0, 0.0])

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler().transform(np.zeros((1, 2)))

    def test_training_attaches_scaler(self, rng):
        X, y = make_blobs(rng, n=20)
        model = init_model([2, 2, 2], "relu", "softmax", seed=0)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=5, seed=0)
        )
        assert trained.scaler is not None
        assert trained.scaler.feature_min is not None


class TestSerialization:
    def test_round_trip_preserves_outputs(self, rng, tmp_path):
        X, y = make_blobs(rng, n=30)
        model = init_model([2, 3, 2], "relu", "softmax", seed=6)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=30, seed=6)
        )
        path = tmp_path / "model.json"
        # feature names are checked against the pipeline's on load
        names = ["fwd_pkt_count", "num_flows"]
        save_model(
            ModelArtifact(model=trained, feature_names=names,
                          class_names=["benign", "attack"]),
            path,
        )
        loaded = load_model(path)
        assert loaded.feature_names == names
        assert loaded.class_names == ["benign", "attack"]
        probe = rng.normal(size=(5, 2))
        assert np.array_equal(
            predict_classes(trained, probe), predict_classes(loaded.model, probe)
        )
        errors = np.abs(
            forward_batch(trained, probe) - forward_batch(loaded.model, probe)
        )
        assert errors.max() == 0.0

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("key", ["layer_sizes", "weights", "output_activation"])
    def test_missing_key_names_file_and_key(self, rng, tmp_path, key):
        path = tmp_path / "model.json"
        save_model(ModelArtifact(model=init_model([2, 2], "relu", "softmax", seed=0)), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{path}: missing key '{key}'"):
            load_model(path)

    def test_missing_scaler_bound_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(ModelArtifact(model=init_model([2, 2], "relu", "softmax", seed=0)), path)
        doc = json.loads(path.read_text())
        doc["scaler"] = {"feature_min": [0.0, 0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing key 'scaler.feature_max'"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path)):
            load_model(path)

    def test_json_syntax_error_names_line(self, tmp_path):
        # a lone CR ends a line, as the CSV loaders count lines
        path = tmp_path / "model.json"
        path.write_bytes(b'{\r"format_version": 1,\r"weights": [,]}')
        with pytest.raises(ValueError) as caught:
            load_model(path)
        assert str(caught.value) == f"{path}:3: not valid JSON: Expecting value"


class TestConfigValidation:
    def test_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-0.1, epochs=500)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(learning_rate=0.05, epochs=epochs)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.05, epochs=500, batch_size=0)

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.05, epochs=500, loss="hinge")

    def test_bad_activations(self):
        with pytest.raises(ValueError):
            init_model([2, 2], "gelu", "softmax")
        with pytest.raises(ValueError):
            init_model([2, 2], "relu", "relu")
