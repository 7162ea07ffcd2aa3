"""Minimal neural substrate for the GAN-based baselines.

GAIN [46] and CAMF [42] are published as TensorFlow models; offline we
implement the same architectures on a small numpy toolkit: dense MLPs
with manual backpropagation and an Adam optimiser.  Only what the two
baselines need is provided - fully connected layers, sigmoid/relu/tanh
activations, binary-cross-entropy and squared losses.

The networks are tiny (batch 64, width 7-26), so per-call numpy
overhead, not arithmetic, is the cost.  The layout is built around
that:

- every weight matrix and bias of an :class:`MLP` is a view into one
  contiguous float64 vector :attr:`MLP.params`, and :meth:`MLP.backward`
  writes ``dL/dθ`` into the matching vector :attr:`MLP.grads` with
  ``out=`` kernels;
- :class:`Adam` updates that one vector in place, so a step costs a
  fixed handful of ufunc calls however many layers the network has;
- the forward pass caches post-activations only - every activation's
  derivative is a function of its output - and the backward pass can
  skip the parameter gradients (chaining through a critic) or the input
  gradient (updating a leaf network).

Every operation keeps the arithmetic of a plain per-array
implementation, element for element, so results are bit-identical to
it; ``tests/baselines/test_gan_fixture.py`` pins GAIN's and CAMF's
outputs.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..validation import check_positive_int, resolve_rng

__all__ = ["MLP", "Adam", "sigmoid", "binary_cross_entropy"]

_ACTIVATIONS = ("relu", "sigmoid", "tanh", "linear")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``e = exp(min(x, -x))`` is ``exp(-|x|)`` and never overflows; the
    two branches are then ``1/(1+e)`` (``x >= 0``) and ``e/(1+e)``,
    computed as one division of the selected numerator.  ``min(x, -x)``
    rather than ``-|x|`` keeps a NaN input's sign bit, so the result
    matches the masked two-branch form bit for bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def binary_cross_entropy(
    prob: np.ndarray, target: np.ndarray, *, eps: float = 1e-7
) -> float:
    """Mean BCE between predicted probabilities and 0/1 targets."""
    prob = np.clip(prob, eps, 1.0 - eps)
    return float(-np.mean(target * np.log(prob) + (1 - target) * np.log(1 - prob)))


class MLP:
    """Dense multi-layer perceptron with manual backprop.

    Parameters
    ----------
    layer_sizes:
        ``[in, hidden..., out]`` unit counts.
    hidden_activation / output_activation:
        One of ``relu``, ``sigmoid``, ``tanh``, ``linear``.
    random_state:
        Seed or Generator for Xavier initialisation.

    Attributes
    ----------
    params:
        All parameters as one float64 vector laid out
        ``[W0, b0, W1, b1, ...]`` (each ``W`` row-major, ``fan_in x
        fan_out``).  :attr:`weights` and :attr:`biases` are views into
        it, so updating ``params`` in place updates the network.
    grads:
        ``dL/d(params)`` in the same layout, written by :meth:`backward`.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        *,
        hidden_activation: str = "relu",
        output_activation: str = "sigmoid",
        random_state: object = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValidationError("MLP needs at least input and output sizes")
        for size in layer_sizes:
            check_positive_int(size, name="layer size")
        for act in (hidden_activation, output_activation):
            if act not in _ACTIVATIONS:
                raise ValidationError(
                    f"unknown activation {act!r}; available: {_ACTIVATIONS}"
                )
        rng = resolve_rng(random_state)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        pairs = list(zip(layer_sizes, layer_sizes[1:]))
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in pairs)
        self.params = np.zeros(size)
        self.grads = np.zeros(size)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._weight_grads: list[np.ndarray] = []
        self._bias_grads: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in pairs:
            end = offset + fan_in * fan_out
            w = self.params[offset:end].reshape(fan_in, fan_out)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.weights.append(w)
            self._weight_grads.append(self.grads[offset:end].reshape(fan_in, fan_out))
            self.biases.append(self.params[end:end + fan_out])
            self._bias_grads.append(self.grads[end:end + fan_out])
            offset = end + fan_out
        self._kinds = [hidden_activation] * (len(pairs) - 1) + [output_activation]
        # Post-activations of the last forward pass: [input, layer 1, ...].
        self._acts: list[np.ndarray] = []

    # ------------------------------------------------------------------ fwd

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass, caching each layer's activations for backprop.

        The input array is cached by reference: it must not be modified
        before the matching :meth:`backward`.
        """
        a = np.asarray(x, dtype=np.float64)
        acts = [a]
        for w, b, kind in zip(self.weights, self.biases, self._kinds):
            z = a @ w
            z += b
            if kind == "relu":
                a = np.maximum(z, 0.0, out=z)
            elif kind == "sigmoid":
                a = sigmoid(z)
            elif kind == "tanh":
                a = np.tanh(z, out=z)
            else:
                a = z
            acts.append(a)
        self._acts = acts
        return a

    def backward(
        self,
        grad_output: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Backprop ``dL/d(output)`` through the last forward pass.

        With ``param_grads`` the parameter gradients overwrite
        :attr:`grads`; without, :attr:`grads` is left untouched (used
        when only the gradient flowing into the input is wanted, as for
        a critic the generator trains against).

        Returns
        -------
        input_grad:
            ``dL/d(input)`` when ``input_grad`` is true - needed when
            chaining networks (the GAIN generator receives gradients
            through the discriminator) - else ``None``.
        """
        if not self._acts:
            raise ValidationError("backward called before forward")
        acts = self._acts
        delta = np.asarray(grad_output, dtype=np.float64)
        for idx in range(len(self.weights) - 1, -1, -1):
            a = acts[idx + 1]
            kind = self._kinds[idx]
            # Each derivative is written in terms of the layer's output:
            # relu'(z) = [z > 0] = [a > 0], sigmoid' = a(1-a), tanh' = 1-a^2.
            if kind == "relu":
                delta = delta * (a > 0)
            elif kind == "sigmoid":
                delta = delta * (a * (1.0 - a))
            elif kind == "tanh":
                delta = delta * (1.0 - a**2)
            if param_grads:
                np.add.reduce(delta, axis=0, out=self._bias_grads[idx])
                np.matmul(acts[idx].T, delta, out=self._weight_grads[idx])
            if idx or input_grad:
                delta = delta @ self.weights[idx].T
        return delta if input_grad else None


class Adam:
    """Adam optimiser over one flat parameter vector, updated in place."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        # First/second moments and two scratch vectors, sized on first step.
        self._buffers: tuple[np.ndarray, ...] | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Apply one Adam update to ``params`` in place.

        ``params`` is typically :attr:`MLP.params` and ``grads``
        :attr:`MLP.grads`; both must be float64 arrays of one shape.
        """
        if params.shape != grads.shape:
            raise ValidationError("params and grads must have equal shapes")
        if self._buffers is None:
            self._buffers = (np.zeros_like(params), np.zeros_like(params),
                             np.empty_like(params), np.empty_like(params))
        m, v, tmp, denom = self._buffers
        self._t += 1
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
        m *= self.beta1
        m += np.multiply(1 - self.beta1, grads, out=tmp)
        v *= self.beta2
        np.square(grads, out=tmp)
        v += np.multiply(1 - self.beta2, tmp, out=tmp)
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - self.beta2**self._t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1 - self.beta1**self._t, out=tmp)
        tmp *= self.learning_rate
        tmp /= denom
        params -= tmp
