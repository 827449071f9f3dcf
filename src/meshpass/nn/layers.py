"""Residual-MLP building blocks and online feature normalization."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Mlp:
    """Two hidden ReLU layers of a fixed width, linear output.

    An optional layer-normalization stage follows the output; decoders turn
    it off so raw-scale predictions are possible.
    """

    def __init__(self, in_width, out_width, hidden=128, layer_norm=True, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_width = in_width
        self.out_width = out_width
        self.hidden = hidden
        self.layer_norm = layer_norm
        sizes = [(in_width, hidden), (hidden, hidden), (hidden, out_width)]
        self.weights = []
        self.biases = []
        for n_in, n_out in sizes:
            w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out))
            self.weights.append(Tensor(w))
            self.biases.append(Tensor(np.zeros(n_out)))
        if layer_norm:
            self.ln_gain = Tensor(np.ones(out_width))
            self.ln_bias = Tensor(np.zeros(out_width))

    def __call__(self, x, spare=None):
        """The forward pass of ``x``; ``spare`` as in :meth:`tail`."""
        return self.tail(ad.matmul(x, self.weights[0], self.biases[0]), spare)

    def tail(self, pre, spare=None):
        """The rest of the forward pass from ``pre``, the output of the
        first affine map (input times ``weights[0]`` plus ``biases[0]``).

        Under ``nn.no_tape`` it overwrites ``pre`` and ``spare`` (a buffer
        the caller no longer reads, or None): each op writes into whichever
        of the two holds a value no later op reads, so the result lands in
        one of them."""
        h = ad.relu(pre, out=pre)
        a = ad.matmul(h, self.weights[1], self.biases[1], out=spare)
        a = ad.relu(a, out=a)
        out = ad.matmul(a, self.weights[2], self.biases[2], out=h)
        if self.layer_norm:
            out = ad.layer_norm(out, self.ln_gain, self.ln_bias, out=a)
        return out

    def parameters(self):
        return list(self.named_parameters("").values())

    def named_parameters(self, prefix):
        names = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            names[f"{prefix}/w{i}"] = w
            names[f"{prefix}/b{i}"] = b
        if self.layer_norm:
            names[f"{prefix}/ln_gain"] = self.ln_gain
            names[f"{prefix}/ln_bias"] = self.ln_bias
        return names

    def zero_(self):
        """Set every weight and bias to zero (identity under residual use)."""
        for t in self.weights + self.biases:
            t.data[...] = 0.0
        return self


def mlp_apply(mlp, x):
    """Forward pass of ``mlp`` on a batch; accepts Tensor or ndarray input."""
    xv = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if xv.data.ndim != 2 or xv.data.shape[1] != mlp.in_width:
        raise ValueError(
            f"input width {xv.data.shape[-1] if xv.data.ndim else 0} "
            f"does not match mlp input width {mlp.in_width}"
        )
    return mlp(xv)


class Normalizer:
    """Running per-channel standardization.

    The statistics freeze when the caller stops calling :meth:`accumulate`
    (training does after ``TrainConfig.normalizer_steps`` steps);
    ``n_accumulations`` counts the batches absorbed. Fresh normalizers act
    as the identity (mean 0, std 1).
    """

    STD_FLOOR = 1e-8

    def __init__(self, width):
        self.width = width
        self.n_accumulations = 0
        self.count = 0.0
        self.sum = np.zeros(width)
        self.sum_sq = np.zeros(width)

    def accumulate(self, batch):
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[:, None]
        if batch.shape[1] != self.width:
            raise ValueError("channel count mismatch in normalizer")
        self.n_accumulations += 1
        self.count += batch.shape[0]
        self.sum += batch.sum(axis=0)
        self.sum_sq += (batch * batch).sum(axis=0)

    @property
    def mean(self):
        if self.count == 0:
            return np.zeros(self.width)
        return self.sum / self.count

    @property
    def std(self):
        if self.count == 0:
            return np.ones(self.width)
        var = self.sum_sq / self.count - self.mean**2
        return np.sqrt(np.maximum(var, 0.0)).clip(min=self.STD_FLOOR)

    def apply(self, x):
        """Standardize ``x``; differentiable when given a Tensor."""
        mean, inv_std = self.mean, 1.0 / self.std
        if isinstance(x, Tensor):
            return ad.mul(ad.sub(x, mean), inv_std)
        return (np.asarray(x, dtype=np.float64) - mean) * inv_std

    def unapply(self, y):
        """Inverse of :meth:`apply`, on arrays."""
        return np.asarray(y, dtype=np.float64) * self.std + self.mean

    def state(self):
        return {
            "count": np.asarray([self.count, float(self.n_accumulations)]),
            "sum": self.sum.copy(),
            "sum_sq": self.sum_sq.copy(),
        }

    def load_state(self, state):
        self.count = float(state["count"][0])
        self.n_accumulations = int(state["count"][1])
        self.sum = state["sum"].copy()
        self.sum_sq = state["sum_sq"].copy()
