import gc
import warnings

import numpy as np
import pytest

from fasloc.nn import (MLP, AttentionUnit, GRUCell, Linear, ShapeError, Stack,
                       _bias_grad, _weight_grad, finite_diff_check,
                       load_params, save_params, softmax_rows, stack_agents)

RNG = np.random.default_rng(0)


def _probe(arr, grad):
    """A Stack over arr itself, so finite differences perturb the array a
    loss reads, carrying its analytic gradient."""
    s = Stack("probe", arr)
    s.value, s.grad = arr, grad
    return s


def _assert_near(got, ref, what=None):
    """got equals ref within 1e-12 of ref's largest entry: a sum of the
    same terms added in another order."""
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), what


def _loss_through(forward, proj):
    """Scalar loss: fixed random projection of the forward output."""
    def f():
        return float(np.sum(forward() * proj))
    return f


class TestLinearAndMLP:
    def test_identity_layer_passes_input_through(self):
        layer = Linear(4, 4, np.random.default_rng(1))
        layer.w.value[...] = np.eye(4)
        layer.b.value[...] = 0.0
        x = np.array([0.5, -1.0, 2.0, 0.25])
        y, _ = layer.forward(x[None, None])      # one agent, one row
        np.testing.assert_array_equal(y[0, 0], x)

    def test_zero_weights_give_bias(self):
        layer = Linear(3, 2, np.random.default_rng(2))
        layer.w.value[...] = 0.0
        layer.b.value[...] = [0.7, -0.3]
        y, _ = layer.forward(np.array([[[5.0, 6.0, 7.0]]]))
        np.testing.assert_allclose(y[0, 0], [0.7, -0.3])

    def test_mlp_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        mlp = MLP([4, 6, 3], rng)
        x = rng.standard_normal(4)[None, None, None]   # one agent, slot and row
        proj = rng.standard_normal(3)[None, None, None]

        def forward_and_backward():
            y, cache = mlp.forward(x)
            mlp.zero_grads()
            mlp.backward(proj, cache)
            return y

        forward_and_backward()
        err = finite_diff_check(lambda: float(np.sum(mlp.forward(x)[0] * proj)),
                                mlp.stacks(), eps=1e-6)
        assert err < 1e-5

    @pytest.mark.parametrize("rows", [1, 3])
    def test_stacked_mlp_gradient_matches_central_differences(self, rows):
        rng = np.random.default_rng(25)
        mlp = MLP([4, 6, 3], rng)
        x = rng.standard_normal((5, rows, 4))[None]
        proj = rng.standard_normal((5, rows, 3))[None]
        mlp.zero_grads()
        _, cache = mlp.forward(x)
        dx = mlp.backward(proj, cache)
        loss = _loss_through(lambda: mlp.forward(x)[0], proj)
        assert finite_diff_check(loss, mlp.stacks(), eps=1e-6) < 1e-5
        assert finite_diff_check(loss, [_probe(x, dx)], eps=1e-6) < 1e-5

    def test_stack_matches_slot_by_slot(self):
        # outputs and input gradients bit for bit as one call per slot;
        # weight gradients the per-slot sum up to rounding
        rng = np.random.default_rng(26)
        layer = Linear(7, 1, rng)
        x = rng.standard_normal((30, 1, 7))[None]
        dy = rng.standard_normal((30, 1, 1))[None]
        layer.zero_grads()
        y, cache = layer.forward(x)
        dx = layer.backward(dy, cache)
        stacked = [s.grad.copy() for s in layer.stacks()]
        layer.zero_grads()
        for t in range(30):
            y_t, c_t = layer.forward(x[:, t:t + 1])
            assert y_t.tobytes() == y[:, t:t + 1].tobytes()
            assert (layer.backward(dy[:, t:t + 1], c_t).tobytes()
                    == dx[:, t:t + 1].tobytes())
        for s, g in zip(layer.stacks(), stacked):
            _assert_near(g, s.grad, s.name)

    def test_shape_mismatch_raises(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        for bad in (np.zeros((1, 1, 4)),     # input width
                    np.zeros((2, 1, 3)),     # agent count
                    np.zeros(3)):            # no agent axis
            with pytest.raises(ShapeError):
                layer.forward(bad)


class TestGRU:
    def test_zero_parameters_halve_hidden_state(self):
        gru = GRUCell(3, 5, np.random.default_rng(4))
        for s in gru.stacks():
            s.value[...] = 0.0
        h = np.array([[[1.0, -2.0, 0.5, 4.0, -1.0]]])
        h_new, _ = gru.step(gru.project(np.array([[[0.3, 0.1, -0.2]]])), h)
        # gates sit at 1/2 and the candidate at tanh(0)=0
        np.testing.assert_allclose(h_new, 0.5 * h, rtol=1e-14)

    def test_zero_input_iteration_contracts_to_fixed_point(self):
        rng = np.random.default_rng(5)
        gru = GRUCell(2, 8, rng)
        for s in gru.stacks():
            s.value *= 0.3
        x = np.zeros((1, 1, 2))
        h = rng.standard_normal(8)[None, None]
        prev = h
        for _ in range(300):
            h, _ = gru.step(gru.project(x), h)
            delta = np.linalg.norm(h - prev)
            prev = h
        assert delta < 1e-8

    def test_hidden_state_stays_bounded(self):
        rng = np.random.default_rng(6)
        gru = GRUCell(4, 6, rng)
        hs, _ = gru.forward(rng.standard_normal((100, 1, 4))[None] * 3.0,
                            np.zeros((1, 1, 6)))
        assert np.max(np.abs(hs)) <= 1.0 + 1e-12

    def test_unrolled_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        gru = GRUCell(3, 4, rng)
        xs = rng.standard_normal((8, 1, 3))[None]
        proj = rng.standard_normal(4)

        def loss():
            hs, _ = gru.forward(xs, np.zeros((1, 1, 4)))
            return float(hs[0, -1, 0] @ proj)

        gru.zero_grads()
        _, cache = gru.forward(xs, np.zeros((1, 1, 4)))
        dhs = np.zeros((1, 8, 1, 4))
        dhs[0, -1, 0] = proj
        gru.backward(dhs, cache)
        assert finite_diff_check(loss, gru.stacks(), eps=1e-6) < 1e-4

    def test_sequence_gradient_matches_central_differences(self):
        # a loss on every step's state, two independent rows per step and a
        # nonzero initial state: the parameter, input and initial-state
        # gradients all match central differences
        rng = np.random.default_rng(21)
        gru = GRUCell(3, 4, rng)
        xs = rng.standard_normal((6, 2, 3))[None]
        h0 = rng.standard_normal((2, 4))[None] * 0.5
        proj = rng.standard_normal((6, 2, 4))[None]

        def loss():
            return float(np.sum(gru.forward(xs, h0)[0] * proj))

        gru.zero_grads()
        _, cache = gru.forward(xs, h0)
        dxs, dh0 = gru.backward(proj, cache)
        assert finite_diff_check(loss, gru.stacks(), eps=1e-6) < 1e-4
        for arr, grad in ((xs, dxs), (h0, dh0)):
            assert finite_diff_check(loss, [_probe(arr, grad)], eps=1e-6) < 1e-4

    def test_forward_matches_step_by_step(self):
        rng = np.random.default_rng(22)
        gru = GRUCell(5, 7, rng)
        xs = rng.standard_normal((9, 1, 5))[None]
        hs, _ = gru.forward(xs, np.zeros((1, 1, 7)))
        h = np.zeros((1, 1, 7))
        for t in range(9):
            h, _ = gru.step(gru.project(xs[:, t]), h)
            assert hs[:, t].tobytes() == h.tobytes()


def _all_rows(windows):
    """The key mask that keeps every row of a (T, rows, n) stack."""
    return np.ones(windows.shape[:2], dtype=bool)


class TestAttention:
    # one head is a one-head stack and one window a one-window stack: the
    # output and the probabilities lead with a unit head axis and a unit
    # window axis

    def test_identical_rows_give_uniform_weights(self):
        rng = np.random.default_rng(8)
        att = AttentionUnit(5, 3, rng)
        row = rng.standard_normal(5)
        window = np.tile(row, (1, 6, 1))
        out, cache = att.forward(window, _all_rows(window))
        out, probs = out[0, 0], cache[4][0, 0]
        np.testing.assert_allclose(probs, np.full((6, 6), 1.0 / 6.0), atol=1e-12)
        np.testing.assert_allclose(
            out, np.tile(row @ att.wv.value[0], (6, 1)), atol=1e-12)

    def test_dominant_key_saturates_softmax(self):
        rng = np.random.default_rng(9)
        att = AttentionUnit(2, 2, rng)
        att.wq.value[0] = np.eye(2) * 10.0
        att.wk.value[0] = np.eye(2) * 10.0
        window = np.array([[[5.0, 0.0], [0.1, 0.0], [0.05, 0.0]]])
        _, cache = att.forward(window, _all_rows(window))
        probs = cache[4][0, 0]
        assert probs[0, 0] > 0.99

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        att = AttentionUnit(4, 3, rng)
        window = rng.standard_normal((1, 7, 4))
        _, cache = att.forward(window, _all_rows(window))
        np.testing.assert_allclose(cache[4][0, 0].sum(axis=1), np.ones(7), atol=1e-6)

    def test_mask_excludes_keys(self):
        rng = np.random.default_rng(11)
        att = AttentionUnit(3, 2, rng)
        window = rng.standard_normal((1, 5, 3))
        mask = np.array([[False, False, True, True, True]])
        _, cache = att.forward(window, mask)
        probs = cache[4][0, 0]
        assert np.all(probs[:, :2] < 1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(12)
        att = AttentionUnit(4, 3, rng)
        window = rng.standard_normal((5, 4))[None]
        proj = rng.standard_normal((5, 3))[None, None]
        mask = _all_rows(window)

        def loss():
            return float(np.sum(att.forward(window, mask)[0] * proj))

        att.zero_grads()
        _, cache = att.forward(window, mask)
        att.backward(proj, cache)
        assert finite_diff_check(loss, att.stacks(), eps=1e-6) < 1e-4

    def test_stacked_gradient_matches_central_differences(self):
        rng = np.random.default_rng(23)
        att = AttentionUnit(4, 3, rng)
        windows = rng.standard_normal((3, 5, 4))
        mask = np.ones((3, 5), dtype=bool)
        mask[0, :3] = False
        mask[1, :1] = False
        proj = rng.standard_normal((3, 5, 3))[None]

        def loss():
            return float(np.sum(att.forward(windows, mask)[0] * proj))

        att.zero_grads()
        _, cache = att.forward(windows, mask)
        dwindows = att.backward(proj, cache)
        assert finite_diff_check(loss, att.stacks(), eps=1e-6) < 1e-4
        assert finite_diff_check(loss, [_probe(windows, dwindows)], eps=1e-6) < 1e-4

    def test_stack_matches_window_by_window(self):
        # outputs and input gradients bit for bit as one call per window;
        # weight gradients the per-window sum up to rounding
        rng = np.random.default_rng(24)
        att = AttentionUnit(6, 4, rng)
        windows = rng.standard_normal((5, 8, 6))
        mask = np.arange(8) >= np.array([7, 4, 0, 0, 2])[:, None]
        dout = rng.standard_normal((5, 8, 4))[None]
        att.zero_grads()
        out, cache = att.forward(windows, mask)
        dwin = att.backward(dout, cache)
        stacked = [s.grad.copy() for s in att.stacks()]
        att.zero_grads()
        for t in range(5):
            out_t, cache_t = att.forward(windows[t:t + 1], mask[t:t + 1])
            assert out_t.tobytes() == out[:, t:t + 1].tobytes()
            assert (att.backward(dout[:, t:t + 1], cache_t).tobytes()
                    == dwin[t:t + 1].tobytes())
        for s, g in zip(att.stacks(), stacked):
            _assert_near(g, s.grad, s.name)

    def test_empty_window_rejected(self):
        att = AttentionUnit(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            att.forward(np.zeros((1, 0, 3)), np.zeros((1, 0), dtype=bool))


def _check_weight_grad_against_slot_sums(agents, slots, rows, shapes):
    """_weight_grad and _bias_grad of (agents, slots, rows, ·) stacks
    against the per-slot products summed slot by slot."""
    rng = np.random.default_rng(29)
    for n, m in shapes:
        x = rng.standard_normal((agents, slots, rows, n)) * 10.0 ** rng.integers(
            -6, 6, (agents, slots, rows, n))
        dy = rng.standard_normal((agents, slots, rows, m))
        w_ref = sum(x[:, t].swapaxes(1, 2) @ dy[:, t] for t in range(slots))
        b_ref = sum(dy[:, t].sum(axis=1) for t in range(slots))
        _assert_near(_weight_grad(x, dy), w_ref, (n, m))
        _assert_near(_bias_grad(dy), b_ref, (n, m))


@pytest.mark.parametrize("slots", [1, 2, 5, 25, 100])
@pytest.mark.parametrize("agents", [1, 4])
def test_one_row_weight_grad_equals_the_broadcast_sum(slots, agents):
    # every layer shape of the local nets, one row per slot
    _check_weight_grad_against_slot_sums(
        agents, slots, 1, ((13, 32), (5, 32), (32, 64), (64, 64), (64, 25),
                           (64, 1), (1, 1)))


@pytest.mark.parametrize("slots", [1, 25])
def test_window_weight_grad_equals_the_per_slot_sum(slots):
    # the coordinator's heads: an 8-row window per slot
    _check_weight_grad_against_slot_sums(4, slots, 8, ((32, 16), (16, 16)))


def test_stacked_gru_matches_single_agents():
    # one stacked GRU over four agents gives each agent's states and
    # gradients bit for bit as that agent's own one-agent GRU
    rng = np.random.default_rng(30)
    singles = [GRUCell(6, 8, rng) for _ in range(4)]
    stacked = stack_agents([GRUCell(6, 8, np.random.default_rng(0))
                            for _ in range(4)])
    for s in stacked.stacks():
        s.value[...] = 0.0
    stacked.load_values({name: np.concatenate([g.named_values()[name]
                                               for g in singles])
                         for name in stacked.named_values()})
    xs = rng.standard_normal((4, 25, 1, 6))
    h0 = rng.standard_normal((4, 1, 8)) * 0.5
    dhs = rng.standard_normal((4, 25, 1, 8))
    hs, cache = stacked.forward(xs, h0)
    dxs, dh0 = stacked.backward(dhs, cache)
    for k, g in enumerate(singles):
        hs_k, cache_k = g.forward(xs[k:k + 1], h0[k:k + 1])
        dxs_k, dh0_k = g.backward(dhs[k:k + 1], cache_k)
        assert hs_k.tobytes() == hs[k:k + 1].tobytes()
        assert dxs_k.tobytes() == dxs[k:k + 1].tobytes()
        assert dh0_k.tobytes() == dh0[k:k + 1].tobytes()
        for s, mine in zip(g.stacks(), stacked.stacks()):
            assert s.grad.tobytes() == mine.grad[k:k + 1].tobytes(), s.name


def test_stacked_attention_matches_single_heads():
    # one stacked block of three heads gives each head's output and
    # weight gradients bit for bit as that head's own one-head unit, and
    # the window gradient the heads' gradients summed in head order
    rng = np.random.default_rng(31)
    singles = [AttentionUnit(6, 4, rng) for _ in range(3)]
    stacked = stack_agents([AttentionUnit(6, 4, np.random.default_rng(0))
                            for _ in range(3)])
    for s in stacked.stacks():
        s.value[...] = 0.0
    stacked.load_values({name: np.concatenate([a.named_values()[name]
                                               for a in singles])
                         for name in stacked.named_values()})
    windows = rng.standard_normal((5, 8, 6))
    mask = np.arange(8) >= np.array([7, 4, 0, 0, 2])[:, None]
    dout = rng.standard_normal((3, 5, 8, 4))
    out, cache = stacked.forward(windows, mask)
    dwindows = stacked.backward(dout, cache)
    summed = np.zeros_like(windows)
    for k, a in enumerate(singles):
        out_k, cache_k = a.forward(windows, mask)
        summed += a.backward(dout[k:k + 1], cache_k)
        assert out_k.tobytes() == out[k:k + 1].tobytes()
        for s, mine in zip(a.stacks(), stacked.stacks()):
            assert s.grad.tobytes() == mine.grad[k:k + 1].tobytes(), s.name
    assert summed.tobytes() == dwindows.tobytes()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(13)
    scores = rng.standard_normal((4, 6))
    base = softmax_rows(scores)
    shifted = softmax_rows(scores + 123.456)
    np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestFiniteDiff:
    def test_linear_function_is_near_exact(self):
        rng = np.random.default_rng(14)
        p = Stack("w", rng.standard_normal(6))
        coeff = rng.standard_normal(6)
        p.grad[...] = coeff
        # linear: no truncation term at any stencil width, so a wide stencil
        # leaves only negligible round-off
        err = finite_diff_check(lambda: float(p.value @ coeff), [p], eps=1e-3)
        assert err < 1e-10

    def test_truncation_error_grows_quadratically(self):
        rng = np.random.default_rng(15)
        p = Stack("w", rng.uniform(0.5, 1.5, 5))
        p.grad[...] = 3.0 * p.value ** 2

        def loss():
            return float(np.sum(p.value ** 3))

        errs = [finite_diff_check(loss, [p], eps=e) for e in (1e-2, 1e-3, 1e-4)]
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.5)
        assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.5)

    def test_composed_blocks(self):
        rng = np.random.default_rng(16)
        mlp = MLP([3, 5, 4], rng)
        gru = GRUCell(4, 4, rng)
        att = AttentionUnit(4, 3, rng)
        x = rng.standard_normal((4, 3))
        proj = rng.standard_normal(3)

        def forward(with_grads=False):
            e, c_mlp = mlp.forward(x[None, :, None, :])
            hs, c_gru = gru.forward(e, np.zeros((1, 1, 4)))
            window = hs[:, :, 0]            # one window of four rows
            out, c_att = att.forward(window, _all_rows(window))
            pooled = out[0, 0].mean(axis=0)
            if not with_grads:
                return float(pooled @ proj)
            dout = np.tile(proj / 4.0, (1, 1, 4, 1))
            dwindow = att.backward(dout, c_att)
            de, _ = gru.backward(dwindow[:, :, None, :], c_gru)
            mlp.backward(de, c_mlp)
            return float(pooled @ proj)

        stacks = mlp.stacks() + gru.stacks() + att.stacks()
        for s in stacks:
            s.grad[...] = 0.0
        forward(with_grads=True)
        assert finite_diff_check(lambda: forward(False), stacks, eps=1e-6) < 1e-4


class TestDeterminismAndCheckpoints:
    def test_repeat_forward_is_bit_identical(self):
        rng = np.random.default_rng(17)
        mlp = MLP([4, 8, 2], rng)
        x = rng.standard_normal(4)[None, None]
        y1, _ = mlp.forward(x)
        y2, _ = mlp.forward(x)
        assert np.array_equal(y1, y2)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        arrays = {"a.w": rng.standard_normal((3, 4)),
                  "b.bias": rng.standard_normal(7)}
        path = tmp_path / "ckpt.npz"
        save_params(path, arrays, meta={"note": "test"})
        loaded, meta = load_params(path)
        assert meta["note"] == "test"
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_truncated_checkpoint_closes_its_file(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_params(path, {"w": np.zeros(2)})
        path.write_bytes(path.read_bytes()[:100])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ShapeError, match="BadZipFile"):
                load_params(path)
            gc.collect()
        assert [w.message for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_module_load_rejects_wrong_shapes(self):
        rng = np.random.default_rng(19)
        layer = Linear(3, 2, rng, name="lin")
        with pytest.raises(ShapeError, match="shape mismatch for lin.w"):
            layer.load_values({"lin.w": np.zeros((2, 2)),
                               "lin.b": np.zeros((1, 2))})
        with pytest.raises(ShapeError, match="missing parameter lin.w"):
            layer.load_values({"lin.b": np.zeros((1, 2))})
