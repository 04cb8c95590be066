"""Hand-rolled differentiable blocks: dense layers, a GRU cell, and
scaled dot-product attention heads.

Only these fixed block types are differentiable; there is no general
graph engine.  Every forward pass returns an explicit cache and every
backward consumes one.  Dense layers, the GRU cell and attention heads
hold one weight set per agent (a head is an agent), as (A, ...) stacks,
so that same-shaped agents run as one module; inputs carry the agent
axis first, as (A, rows, ·) blocks or (A, T, rows, ·) stacks with one
slot per index of the second axis, or, for acting, one episode (all
heads attend over one (T, rows, ·) stack).  A whole episode goes
through a block in one call; the GRU alone steps through time.  Stacked
products keep each (agent, slot) operand shape (a one-row slot is a
(1, n) matrix, which numpy multiplies with the same BLAS call as an
n-vector), and weight gradients add the slots' terms in a fixed order,
so a stack gives bit for bit what one call per agent and slot would.
Arithmetic is double precision, and the tests verify each backward pass
by central differences.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


@dataclass
class Param:
    """A weight array paired with its gradient accumulator (a new zero
    array unless given)."""

    name: str
    value: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


class Stack:
    """One weight per agent: the C-contiguous (A, ...) arrays value and
    grad, and params, agent k's Param, whose value and grad are views of
    row k of the two stacks."""

    def __init__(self, names: list[str], value: np.ndarray):
        self.value = np.ascontiguousarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.params = [Param(n, v, g)
                       for n, v, g in zip(names, self.value, self.grad)]

    def join(self, parts: list["Stack"]):
        """Become the stack of every agent of parts, in order."""
        self.__init__([p.name for s in parts for p in s.params],
                      np.concatenate([s.value for s in parts]))


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


def ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """The terms along axis added strictly in order, as a loop of += adds
    them.  numpy's sum adds whole terms in order when a term has more
    than one element, but one-element terms collapse into a single run
    that it sums pairwise; that case goes through cumsum.  terms must
    not be a reversed view, whose axis numpy may walk backwards."""
    if math.prod(terms.shape[axis + 1:]) > 1:
        return terms.sum(axis=axis)
    return np.take(np.cumsum(terms, axis=axis), -1, axis=axis)


def _lift(a: np.ndarray, ndim: int) -> np.ndarray:
    """An (A, ...) stack with unit axes after the agent axis, so that it
    broadcasts per agent against an ndim-dimensional operand."""
    if a.ndim == ndim:
        return a
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _weight_grad(x: np.ndarray, dy: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Per agent, the gradient of x @ w for the output gradient dy: the
    per-slot x.T @ dy of an (A, T, rows, ·) stack summed over the slots in
    order, last slot first with reverse."""
    if reverse:
        x, dy = x[:, ::-1], dy[:, ::-1]
    if x.shape[2] > 1:
        return ordered_sum(np.matmul(x.swapaxes(2, 3), dy), axis=1)
    if x.shape[3] * dy.shape[3] == 1:
        # a 1x1 weight: einsum's loop would run over the slots and add
        # them in its own order
        return ordered_sum(x * dy, axis=1)
    # one row per slot: einsum adds the slots' outer products in order,
    # each entry one product, as the stack of them summed in order would
    return np.einsum("ati,atj->aij", np.ascontiguousarray(x[:, :, 0]),
                     np.ascontiguousarray(dy[:, :, 0]))


def _bias_grad(dy: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Gradient of a bias added to every row of dy, summed like _weight_grad."""
    return ordered_sum((dy[:, ::-1] if reverse else dy).sum(axis=2), axis=1)


class Module:
    """Minimal parameter registry shared by all blocks.  A block with an
    agent axis lists its weight stacks (stacks); its params are every
    agent's views, agent by agent, in stacks order."""

    def stacks(self) -> list[Stack]:
        raise NotImplementedError

    def params(self) -> list[Param]:
        stacks = self.stacks()
        return [s.params[k] for k in range(len(stacks[0].params)) for s in stacks]

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def named_values(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def load_values(self, values: dict[str, np.ndarray]):
        for p in self.params():
            if p.name not in values:
                raise ShapeError(f"missing parameter {p.name}")
            src = values[p.name]
            if src.shape != p.value.shape:
                raise ShapeError(f"shape mismatch for {p.name}: "
                                 f"{src.shape} vs {p.value.shape}")
            p.value[...] = src

    def copy_from(self, other: "Module"):
        for dst, src in zip(self.params(), other.params()):
            dst.value[...] = src.value


def stack_agents(modules: list[Module]) -> Module:
    """Same-shaped modules as one module with a leading agent axis, whose
    agents are those of modules in order, with their weights and names.
    Returns the first module, its stacks joined with the others'."""
    for parts in zip(*(m.stacks() for m in modules)):
        parts[0].join(parts)
    return modules[0]


def _check_agents(x: np.ndarray, n_agents: int, n_in: int):
    if x.ndim < 3 or x.shape[0] != n_agents or x.shape[-1] != n_in:
        raise ShapeError(f"expected ({n_agents}, ..., rows, {n_in}), "
                         f"got {x.shape}")


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 name: str = "linear"):
        self.n_in, self.n_out = n_in, n_out
        self.w = Stack([f"{name}.w"], uniform_init(rng, n_in, (1, n_in, n_out)))
        self.b = Stack([f"{name}.b"], uniform_init(rng, n_in, (1, n_out)))

    def stacks(self):
        return [self.w, self.b]

    def forward(self, x: np.ndarray):
        """x is an (A, rows, n_in) block or an (A, T, rows, n_in) stack."""
        x = np.asarray(x, float)
        _check_agents(x, len(self.w.params), self.n_in)
        return x @ _lift(self.w.value, x.ndim) + _lift(self.b.value, x.ndim), x

    def backward(self, dy: np.ndarray, cache, reverse: bool = False) -> np.ndarray:
        """For a forward on an (A, T, rows, n_in) stack: accumulate the
        weight gradients (over the slots in order, last slot first with
        reverse) and return the input gradient."""
        x = cache
        self.w.grad += _weight_grad(x, dy, reverse)
        self.b.grad += _bias_grad(dy, reverse)
        return dy @ _lift(self.w.value.swapaxes(1, 2), dy.ndim)


class MLP(Module):
    """Dense stack with rectifier activations between layers, linear output."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 name: str = "mlp"):
        if len(sizes) < 2:
            raise ShapeError("MLP needs at least input and output sizes")
        self.layers = [Linear(sizes[i], sizes[i + 1], rng, f"{name}.{i}")
                       for i in range(len(sizes) - 1)]

    def stacks(self):
        return [s for layer in self.layers for s in layer.stacks()]

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
            return Stack([f"{name}.{tag}"],
                         uniform_init(rng, rows, (1, rows, n_hidden)))

        def zeros(tag):
            return Stack([f"{name}.{tag}"], np.zeros((1, n_hidden)))

        self.wz, self.uz = mk("wz", n_in), mk("uz", n_hidden)
        self.wr, self.ur = mk("wr", n_in), mk("ur", n_hidden)
        self.wh, self.uh = mk("wh", n_in), mk("uh", n_hidden)
        self.bz, self.br, self.bh = zeros("bz"), zeros("br"), zeros("bh")

    def stacks(self):
        return [self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                self.wh, self.uh, self.bh]

    def project(self, x: np.ndarray):
        """The input-side products (x @ wz, x @ wr, x @ wh) of an (A, ...,
        rows, n_in) input: they do not depend on the recurrent state."""
        return tuple(x @ _lift(w.value, x.ndim) for w in (self.wz, self.wr, self.wh))

    def step(self, xw, h: np.ndarray):
        """One recurrence step from the input-side products xw = project(x)
        of an (A, ..., rows, n_in) input and the (A, ..., rows, n_hidden)
        state h, e.g. an (A, rows, ·) block or an (A, B, rows, ·) stack of
        blocks: the new state and the step's gates."""
        xz, xr, xh = xw
        uz, ur, uh, bz, br, bh = (_lift(s.value, h.ndim) for s in (
            self.uz, self.ur, self.uh, self.bz, self.br, self.bh))
        z = sigmoid(xz + h @ uz + bz)
        r = sigmoid(xr + h @ ur + br)
        rh = r * h
        c = np.tanh(xh + rh @ uh + bh)
        return (1.0 - z) * h + z * c, (z, r, rh, c)

    def forward(self, xs: np.ndarray, h0: np.ndarray):
        """Run the cell over an (A, T, rows, n_in) sequence from the (A,
        rows, n_hidden) state h0: the (A, T, rows, n_hidden) states and the
        cache.  Only the recurrence steps slot by slot."""
        xs = np.asarray(xs, float)
        _check_agents(xs, len(self.wz.params), self.n_in)
        if h0.shape[-1] != self.n_hidden:
            raise ShapeError("GRU input/hidden size mismatch")
        xz, xr, xh = self.project(xs)
        hs = np.empty(xs.shape[:-1] + (self.n_hidden,))
        gates = []
        h = h0
        for t in range(xs.shape[1]):
            h, g = self.step((xz[:, t], xr[:, t], xh[:, t]), h)
            hs[:, t] = h
            gates.append(g)
        z, r, rh, c = (np.stack(g, axis=1) for g in zip(*gates))
        prev = np.concatenate([h0[:, None], hs[:, :-1]], axis=1)  # step inputs
        return hs, (xs, prev, z, r, rh, c)

    def backward(self, dhs: np.ndarray, cache):
        """Backprop through time of the gradient dhs on every step's output
        state: returns (dxs, dh0).  The state gradient runs back slot by
        slot; the weight gradients are summed afterwards, last slot first,
        the order in which BPTT reaches them."""
        xs, prev, z, r, rh, c = cache
        uz, ur, uh = (u.value.swapaxes(1, 2) for u in (self.uz, self.ur, self.uh))
        daz, dar, dac = (np.empty_like(z) for _ in range(3))
        dh = np.zeros_like(prev[:, 0])
        for t in reversed(range(z.shape[1])):
            dh_new = dhs[:, t] + dh
            dz = dh_new * (c[:, t] - prev[:, t])
            dc = dh_new * z[:, t]
            dh = dh_new * (1.0 - z[:, t])
            dac[:, t] = dc * (1.0 - c[:, t] * c[:, t])
            drh = dac[:, t] @ uh
            dh += drh * r[:, t]
            dar[:, t] = drh * prev[:, t] * r[:, t] * (1.0 - r[:, t])
            dh += dar[:, t] @ ur
            daz[:, t] = dz * z[:, t] * (1.0 - z[:, t])
            dh += daz[:, t] @ uz

        for w, u, b, da, state in ((self.wh, self.uh, self.bh, dac, rh),
                                   (self.wr, self.ur, self.br, dar, prev),
                                   (self.wz, self.uz, self.bz, daz, prev)):
            w.grad += _weight_grad(xs, da, reverse=True)
            u.grad += _weight_grad(state, da, reverse=True)
            b.grad += _bias_grad(da, reverse=True)
        wh, wr, wz = (_lift(w.value.swapaxes(1, 2), xs.ndim)
                      for w in (self.wh, self.wr, self.wz))
        return dac @ wh + dar @ wr + daz @ wz, dh


class AttentionUnit(Module):
    """Scaled dot-product attention over a stack of windows, one head per
    agent: every head attends over the same windows with its own (A, n_in,
    n_att) query, key and value stacks.  Scores are divided by sqrt of the
    value width; rows flagged False in the mask are excluded as keys.
    Output keeps one attended row per query position.
    """

    def __init__(self, n_in: int, n_att: int, rng: np.random.Generator,
                 name: str = "att"):
        self.n_in, self.n_att = n_in, n_att
        self.wq, self.wk, self.wv = (
            Stack([f"{name}.{tag}"], uniform_init(rng, n_in, (1, n_in, n_att)))
            for tag in ("wq", "wk", "wv"))

    def stacks(self):
        return [self.wq, self.wk, self.wv]

    def forward(self, window: np.ndarray, mask: np.ndarray):
        """window is a (T, rows, n_in) stack of windows, mask the (T, rows)
        key mask; every head's output is one (A, T, rows, n_att) stack."""
        window = np.asarray(window, float)
        if window.ndim != 3 or window.shape[1] == 0:
            raise ShapeError("attention windows must be a (T, rows, n_in) "
                             "stack with rows > 0")
        q, k, v = (window @ _lift(w.value, 4) for w in self.stacks())
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(self.n_att)
        scores = np.where(mask[:, None, :], scores, -1e30)
        probs = softmax_rows(scores)
        out = probs @ v
        return out, (window, q, k, v, probs)

    def backward(self, dout: np.ndarray, cache):
        """Accumulate each head's weight gradients; return the windows'
        (T, rows, n_in) gradient, the heads' terms added in head order."""
        window, q, k, v, probs = cache
        dprobs = dout @ v.swapaxes(-1, -2)
        dv = probs.swapaxes(-1, -2) @ dout
        # softmax rows: dS = P * (dP - sum(dP * P))
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        scale = 1.0 / math.sqrt(self.n_att)
        dq = dscores @ k * scale
        dk = dscores.swapaxes(-1, -2) @ q * scale
        windows = np.broadcast_to(window, dq.shape[:1] + window.shape)
        for w, dy in ((self.wq, dq), (self.wk, dk), (self.wv, dv)):
            w.grad += _weight_grad(windows, dy)
        wq, wk, wv = (_lift(w.value.swapaxes(1, 2), 4) for w in self.stacks())
        return ordered_sum(dq @ wq + dk @ wk + dv @ wv, axis=0)


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
    """Read a checkpoint, validating the manifest against the payload.  A
    file that is not a readable fasloc checkpoint raises ShapeError
    naming path; one that cannot be opened raises OSError."""
    try:
        with np.load(path) as data:
            manifest = json.loads(bytes(data["__manifest__"].tobytes()).decode())
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported version {manifest.get('version')}")
            arrays = {}
            for key, shape in manifest["shapes"].items():
                arr = data[f"param::{key}"]
                if list(arr.shape) != shape:
                    raise ValueError(f"manifest mismatch for {key}")
                arrays[key] = arr.astype(float)
            return arrays, dict(manifest.get("meta", {}))
    except (ValueError, TypeError, KeyError, AttributeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ShapeError(f"{path} is not a readable fasloc checkpoint "
                         f"({type(exc).__name__}: {exc})") from None
