"""Adam optimizer with the conventional defaults."""

from __future__ import annotations

import numpy as np


def adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; mutates ``param``, ``m`` and ``v`` in place.

    ``t`` is the 1-based step index used for bias correction. The update is
    ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g g`` and
    ``param -= lr m_hat / (sqrt(v_hat) + eps)``, each operation rounded
    as written. The terms go through two work arrays (the last division
    needs its numerator and denominator at once), not one fresh array per
    operation.
    """
    if param.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    work, denom = np.empty_like(param), np.empty_like(param)
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=work)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=work)
    v += np.multiply(work, grad, out=work)
    np.divide(m, 1.0 - beta1**t, out=work)
    work *= lr
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    work /= denom
    param -= work


class Adam:
    """Adam over a list of parameter tensors (beta 0.9/0.999, eps 1e-8)."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads, lr=None):
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        lr = self.lr if lr is None else lr
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            adam_step(p.data, g, m, v, self.t, lr, self.beta1, self.beta2, self.eps)

    def state(self):
        out = {"t": np.asarray([float(self.t)])}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"m{i}"] = m.copy()
            out[f"v{i}"] = v.copy()
        return out

    def load_state(self, state):
        self.t = int(state["t"][0])
        for i in range(len(self.params)):
            self.m[i] = state[f"m{i}"].copy()
            self.v[i] = state[f"v{i}"].copy()
