"""Hand-rolled differentiable blocks: dense layers, a GRU cell, and
single-head scaled dot-product attention.

Only these fixed block types are differentiable; there is no general
graph engine.  Every forward pass returns an explicit cache and every
backward consumes one.  A whole episode goes through a block in one
call as a (T, rows, ·) stack, one slot per leading index; the GRU alone
steps through time.  The stacked products keep each slot's operand
shapes (a one-row slot is a (1, n) matrix, which numpy multiplies with
the same BLAS call as an n-vector), and weight gradients add the slots'
terms in a fixed order, so a stack gives bit for bit what one call per
slot would.  All arithmetic is double precision; central-difference
verification of each backward pass is part of the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


@dataclass
class Param:
    """A weight array paired with its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        self.grad = np.zeros_like(self.value)


def uniform_init(rng: np.random.Generator, n_in: int, shape) -> np.ndarray:
    bound = math.sqrt(1.0 / n_in)
    return rng.uniform(-bound, bound, size=shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added strictly left to right, as a loop
    of += adds them.  numpy's axis-0 sum adds whole terms in order when a
    term has more than one element, but a stack of one-element terms
    collapses into a single run that it sums pairwise; that case goes
    through cumsum.  terms must not be a reversed view, whose axis numpy
    may walk backwards."""
    if terms[0].size > 1:
        return terms.sum(axis=0)
    return np.cumsum(terms, axis=0)[-1]


def _as_stack(a: np.ndarray) -> np.ndarray:
    """A vector or a single block as a one-slot (1, rows, n) stack."""
    return a.reshape((1,) * (3 - a.ndim) + a.shape)


def _weight_grad(x: np.ndarray, dy: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Gradient of x @ w for the output gradient dy: the per-slot x.T @ dy
    of a (T, rows, ·) stack summed over the slots in order, last slot
    first with reverse (a vector or one block is a single slot)."""
    x, dy = _as_stack(x), _as_stack(dy)
    if reverse:
        x, dy = x[::-1], dy[::-1]
    xt = x.swapaxes(1, 2)
    # one row per slot: the outer product, as np.outer forms it
    return ordered_sum(xt * dy if x.shape[1] == 1 else np.matmul(xt, dy))


def _bias_grad(dy: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Gradient of a bias added to every row of dy, summed like _weight_grad."""
    dy = _as_stack(dy)
    return ordered_sum((dy[::-1] if reverse else dy).sum(axis=1))


class Module:
    """Minimal parameter registry shared by all blocks."""

    def params(self) -> list[Param]:
        raise NotImplementedError

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def named_values(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + p.name: p.value for p in self.params()}

    def load_values(self, values: dict[str, np.ndarray], prefix: str = ""):
        for p in self.params():
            key = prefix + p.name
            if key not in values:
                raise ShapeError(f"missing parameter {key}")
            src = values[key]
            if src.shape != p.value.shape:
                raise ShapeError(f"shape mismatch for {key}: "
                                 f"{src.shape} vs {p.value.shape}")
            p.value[...] = src

    def copy_from(self, other: "Module"):
        for dst, src in zip(self.params(), other.params()):
            dst.value[...] = src.value


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 name: str = "linear"):
        self.n_in, self.n_out = n_in, n_out
        self.w = Param(f"{name}.w", uniform_init(rng, n_in, (n_in, n_out)))
        self.b = Param(f"{name}.b", uniform_init(rng, n_in, (n_out,)))

    def params(self):
        return [self.w, self.b]

    def forward(self, x: np.ndarray):
        """x is a vector, a block of rows or a (T, rows, n_in) stack."""
        x = np.asarray(x, float)
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"expected last dim {self.n_in}, got {x.shape}")
        return x @ self.w.value + self.b.value, x

    def backward(self, dy: np.ndarray, cache, reverse: bool = False) -> np.ndarray:
        """Accumulate the weight gradients (over a stack's slots in order,
        last slot first with reverse) and return the input gradient."""
        x = cache
        self.w.grad += _weight_grad(x, dy, reverse)
        self.b.grad += _bias_grad(dy, reverse)
        return dy @ self.w.value.T


class MLP(Module):
    """Dense stack with rectifier activations between layers, linear output."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 name: str = "mlp"):
        if len(sizes) < 2:
            raise ShapeError("MLP needs at least input and output sizes")
        self.layers = [Linear(sizes[i], sizes[i + 1], rng, f"{name}.{i}")
                       for i in range(len(sizes) - 1)]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray):
        caches = []
        h = x
        for i, layer in enumerate(self.layers):
            h, c = layer.forward(h)
            act_mask = None
            if i + 1 < len(self.layers):
                act_mask = h > 0.0
                h = relu(h)
            caches.append((c, act_mask))
        return h, caches

    def backward(self, dy: np.ndarray, caches, reverse: bool = False) -> np.ndarray:
        for i in reversed(range(len(self.layers))):
            c, act_mask = caches[i]
            if act_mask is not None:
                dy = dy * act_mask
            dy = self.layers[i].backward(dy, c, reverse)
        return dy


class GRUCell(Module):
    """Standard gated recurrent unit, tanh candidate, sigmoid gates."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator,
                 name: str = "gru"):
        self.n_in, self.n_hidden = n_in, n_hidden

        def mk(tag, rows):
            return Param(f"{name}.{tag}", uniform_init(rng, rows, (rows, n_hidden)))

        self.wz, self.uz = mk("wz", n_in), mk("uz", n_hidden)
        self.wr, self.ur = mk("wr", n_in), mk("ur", n_hidden)
        self.wh, self.uh = mk("wh", n_in), mk("uh", n_hidden)
        self.bz = Param(f"{name}.bz", np.zeros(n_hidden))
        self.br = Param(f"{name}.br", np.zeros(n_hidden))
        self.bh = Param(f"{name}.bh", np.zeros(n_hidden))

    def params(self):
        return [self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                self.wh, self.uh, self.bh]

    def project(self, x: np.ndarray):
        """The input-side products (x @ wz, x @ wr, x @ wh), for any
        leading shape: they do not depend on the recurrent state."""
        return x @ self.wz.value, x @ self.wr.value, x @ self.wh.value

    def step(self, xw, h: np.ndarray):
        """One recurrence step from the input-side products xw = project(x)
        and the state h: the new state and the step's gates."""
        xz, xr, xh = xw
        z = sigmoid(xz + h @ self.uz.value + self.bz.value)
        r = sigmoid(xr + h @ self.ur.value + self.br.value)
        rh = r * h
        c = np.tanh(xh + rh @ self.uh.value + self.bh.value)
        return (1.0 - z) * h + z * c, (z, r, rh, c)

    def forward(self, xs: np.ndarray, h0: np.ndarray):
        """Run the cell over a (T, rows, n_in) sequence from the (rows,
        n_hidden) state h0: the (T, rows, n_hidden) states and the cache.
        Only the recurrence steps slot by slot."""
        xs = np.asarray(xs, float)
        if xs.shape[-1] != self.n_in or h0.shape[-1] != self.n_hidden:
            raise ShapeError("GRU input/hidden size mismatch")
        xz, xr, xh = self.project(xs)
        hs = np.empty(xs.shape[:-1] + (self.n_hidden,))
        gates = []
        h = h0
        for t in range(len(xs)):
            h, g = self.step((xz[t], xr[t], xh[t]), h)
            hs[t] = h
            gates.append(g)
        z, r, rh, c = (np.stack(g) for g in zip(*gates))
        prev = np.concatenate([h0[None], hs[:-1]])     # each step's input state
        return hs, (xs, prev, z, r, rh, c)

    def backward(self, dhs: np.ndarray, cache):
        """Backprop through time of the gradient dhs on every step's output
        state: returns (dxs, dh0).  The state gradient runs back slot by
        slot; the weight gradients are summed afterwards, last slot first,
        the order in which BPTT reaches them."""
        xs, prev, z, r, rh, c = cache
        uz, ur, uh = self.uz.value.T, self.ur.value.T, self.uh.value.T
        daz, dar, dac = (np.empty_like(z) for _ in range(3))
        dh = np.zeros_like(prev[0])
        for t in reversed(range(len(z))):
            dh_new = dhs[t] + dh
            dz = dh_new * (c[t] - prev[t])
            dc = dh_new * z[t]
            dh = dh_new * (1.0 - z[t])
            dac[t] = dc * (1.0 - c[t] * c[t])
            drh = dac[t] @ uh
            dh += drh * r[t]
            dar[t] = drh * prev[t] * r[t] * (1.0 - r[t])
            dh += dar[t] @ ur
            daz[t] = dz * z[t] * (1.0 - z[t])
            dh += daz[t] @ uz

        for w, u, b, da, state in ((self.wh, self.uh, self.bh, dac, rh),
                                   (self.wr, self.ur, self.br, dar, prev),
                                   (self.wz, self.uz, self.bz, daz, prev)):
            w.grad += _weight_grad(xs, da, reverse=True)
            u.grad += _weight_grad(state, da, reverse=True)
            b.grad += _bias_grad(da, reverse=True)
        dxs = dac @ self.wh.value.T + dar @ self.wr.value.T + daz @ self.wz.value.T
        return dxs, dh


class AttentionUnit(Module):
    """Single-head scaled dot-product attention over a window of rows.

    Scores are divided by sqrt of the value width; rows flagged False in
    the mask are excluded as keys.  Output keeps one attended row per
    query position.
    """

    def __init__(self, n_in: int, n_att: int, rng: np.random.Generator,
                 name: str = "att"):
        self.n_in, self.n_att = n_in, n_att
        self.wq = Param(f"{name}.wq", uniform_init(rng, n_in, (n_in, n_att)))
        self.wk = Param(f"{name}.wk", uniform_init(rng, n_in, (n_in, n_att)))
        self.wv = Param(f"{name}.wv", uniform_init(rng, n_in, (n_in, n_att)))

    def params(self):
        return [self.wq, self.wk, self.wv]

    def forward(self, window: np.ndarray, mask: np.ndarray | None = None):
        """window is one (rows, n_in) block or a (T, rows, n_in) stack of
        them, with a matching (rows,) or (T, rows) key mask."""
        window = np.asarray(window, float)
        if window.ndim not in (2, 3) or window.shape[-2] == 0:
            raise ShapeError("attention window must be a nonempty 2-D array "
                             "or a stack of them")
        q = window @ self.wq.value
        k = window @ self.wk.value
        v = window @ self.wv.value
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(self.n_att)
        if mask is not None:
            scores = np.where(mask[..., None, :], scores, -1e30)
        probs = softmax_rows(scores)
        out = probs @ v
        return out, (window, q, k, v, probs)

    def backward(self, dout: np.ndarray, cache):
        window, q, k, v, probs = cache
        dprobs = dout @ v.swapaxes(-1, -2)
        dv = probs.swapaxes(-1, -2) @ dout
        # softmax rows: dS = P * (dP - sum(dP * P))
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        scale = 1.0 / math.sqrt(self.n_att)
        dq = dscores @ k * scale
        dk = dscores.swapaxes(-1, -2) @ q * scale
        self.wq.grad += _weight_grad(window, dq)
        self.wk.grad += _weight_grad(window, dk)
        self.wv.grad += _weight_grad(window, dv)
        return dq @ self.wq.value.T + dk @ self.wk.value.T + dv @ self.wv.value.T


# Relative error floor: gradients smaller than this are compared on an
# absolute scale, which keeps pure round-off from reading as failure.
FD_REL_FLOOR = 1e-3


def finite_diff_check(loss_fn, params: list[Param], eps: float = 1e-6) -> float:
    """Worst-case central-difference error over every parameter entry.

    loss_fn must be a deterministic scalar function of the current
    parameter values.  Analytic gradients are read from each Param's
    grad array, so accumulate them before calling.
    """
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            an = gflat[i]
            err = abs(fd - an) / max(abs(fd), abs(an), FD_REL_FLOOR)
            worst = max(worst, err)
    return worst


CHECKPOINT_VERSION = 1


def save_params(path, named_arrays: dict[str, np.ndarray], meta: dict | None = None):
    """Write a checkpoint: npz payload plus a JSON shape manifest."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "shapes": {k: list(v.shape) for k, v in named_arrays.items()},
        "meta": meta or {},
    }
    arrays = {f"param::{k}": np.asarray(v, float) for k, v in named_arrays.items()}
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, validating the manifest against the payload."""
    with np.load(path) as data:
        raw = bytes(data["__manifest__"].tobytes())
        manifest = json.loads(raw.decode())
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ShapeError(f"unsupported checkpoint version "
                             f"{manifest.get('version')}")
        arrays = {}
        for key, shape in manifest["shapes"].items():
            arr = data[f"param::{key}"]
            if list(arr.shape) != shape:
                raise ShapeError(f"manifest mismatch for {key}")
            arrays[key] = arr.astype(float)
    return arrays, manifest.get("meta", {})
