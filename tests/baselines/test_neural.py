"""Unit tests for the numpy MLP/Adam substrate (gradient correctness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.neural import MLP, Adam, binary_cross_entropy, sigmoid
from repro.exceptions import ValidationError


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert sigmoid(np.array([100.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-100.0]))[0] == pytest.approx(0.0)

    def test_no_overflow(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()


class TestBCE:
    def test_perfect_prediction_near_zero(self):
        target = np.array([[1.0, 0.0]])
        prob = np.array([[1.0, 0.0]])
        assert binary_cross_entropy(prob, target) < 1e-5

    def test_wrong_prediction_large(self):
        target = np.array([[1.0]])
        prob = np.array([[0.0]])
        assert binary_cross_entropy(prob, target) > 5.0


class TestMLPForward:
    def test_output_shape(self, rng):
        net = MLP([4, 8, 2], random_state=0)
        out = net.forward(rng.random((5, 4)))
        assert out.shape == (5, 2)

    def test_sigmoid_output_range(self, rng):
        net = MLP([3, 6, 3], output_activation="sigmoid", random_state=0)
        out = net.forward(rng.random((7, 3)))
        assert (out > 0).all() and (out < 1).all()

    def test_invalid_layers(self):
        with pytest.raises(ValidationError):
            MLP([4])
        with pytest.raises(ValidationError):
            MLP([4, 0, 2])
        with pytest.raises(ValidationError):
            MLP([4, 2], hidden_activation="softplus")


class TestMLPBackward:
    @pytest.mark.parametrize("hidden,out_act", [
        ("tanh", "sigmoid"), ("relu", "linear"), ("sigmoid", "sigmoid"),
    ])
    def test_gradients_match_finite_differences(self, rng, hidden, out_act):
        net = MLP([3, 4, 2], hidden_activation=hidden,
                  output_activation=out_act, random_state=0)
        x = rng.random((6, 3))
        target = rng.random((6, 2))

        def loss() -> float:
            return float(((net.forward(x) - target) ** 2).sum())

        out = net.forward(x)
        net.backward(2.0 * (out - target))
        grads = net.grads.copy()
        params = net.params
        eps = 1e-6
        # Probe a few entries of every weight matrix and bias (views into
        # the flat vector) by perturbing the flat vector in place.
        offset = 0
        for block in [a for pair in zip(net.weights, net.biases) for a in pair]:
            for entry in range(0, block.size, max(1, block.size // 3)):
                flat_idx = offset + entry
                original = params[flat_idx]
                params[flat_idx] = original + eps
                up = loss()
                params[flat_idx] = original - eps
                down = loss()
                params[flat_idx] = original
                numeric = (up - down) / (2 * eps)
                analytic = grads[flat_idx]
                assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-5)
            offset += block.size
        assert offset == params.size

    def test_input_gradient_matches_finite_differences(self, rng):
        net = MLP([3, 5, 2], hidden_activation="tanh",
                  output_activation="linear", random_state=1)
        x = rng.random((4, 3))
        target = rng.random((4, 2))
        out = net.forward(x)
        grad_in = net.backward(2.0 * (out - target))
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                x_up = x.copy(); x_up[i, j] += eps
                x_dn = x.copy(); x_dn[i, j] -= eps
                up = float(((net.forward(x_up) - target) ** 2).sum())
                down = float(((net.forward(x_dn) - target) ** 2).sum())
                numeric = (up - down) / (2 * eps)
                assert grad_in[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    def test_backward_before_forward_raises(self):
        net = MLP([2, 2], random_state=0)
        with pytest.raises(ValidationError, match="forward"):
            net.backward(np.zeros((1, 2)))


class TestFlatLayout:
    def test_weights_and_biases_are_views_of_params(self):
        net = MLP([3, 4, 2], random_state=0)
        assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
        assert net.grads.shape == net.params.shape
        for block in (*net.weights, *net.biases):
            assert np.shares_memory(block, net.params)
        net.params[:12] = 0.0
        assert not net.weights[0].any()

    def test_in_place_update_changes_forward(self, rng):
        net = MLP([3, 4, 2], output_activation="linear", random_state=0)
        x = rng.random((5, 3))
        before = net.forward(x).copy()
        net.params += 0.1
        assert not np.allclose(net.forward(x), before)

    def test_backward_flags(self, rng):
        net = MLP([3, 5, 2], random_state=2)
        x = rng.random((6, 3))
        g = rng.random((6, 2))
        net.forward(x)
        grad_in = net.backward(g)
        full = net.grads.copy()
        net.grads[:] = -1.0
        assert net.backward(g, input_grad=False) is None
        np.testing.assert_array_equal(net.grads, full)
        net.grads[:] = -1.0
        np.testing.assert_array_equal(net.backward(g, param_grads=False), grad_in)
        assert (net.grads == -1.0).all()


class TestAdam:
    def test_minimises_quadratic(self):
        params = np.array([5.0])
        optimizer = Adam(learning_rate=0.1)
        for _ in range(500):
            grads = 2.0 * params
            optimizer.step(params, grads)
        assert abs(params[0]) < 1e-2

    def test_training_reduces_loss(self, rng):
        net = MLP([2, 8, 1], output_activation="linear", random_state=0)
        optimizer = Adam(learning_rate=1e-2)
        x = rng.random((64, 2))
        target = (x[:, :1] * 2 - x[:, 1:]) ** 2
        losses = []
        for _ in range(200):
            out = net.forward(x)
            losses.append(float(((out - target) ** 2).mean()))
            net.backward(2.0 * (out - target) / x.shape[0], input_grad=False)
            optimizer.step(net.params, net.grads)
        assert losses[-1] < 0.3 * losses[0]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Adam().step(np.zeros(2), np.zeros(0))

    def test_invalid_learning_rate(self):
        with pytest.raises(ValidationError):
            Adam(learning_rate=0.0)
