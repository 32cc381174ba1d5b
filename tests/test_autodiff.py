"""Tests for the tensor engine: ops, gradients, Adam, checkpoints.

Every analytic gradient is compared against finite_diff_grad, which is
itself pinned first on functions with hand-known derivatives.
"""

from pathlib import Path

import numpy as np
import pytest

from physair import autodiff
from physair.autodiff import (
    Adam,
    Mlp,
    Param,
    Tensor,
    add,
    concat,
    finite_diff_grad,
    is_recording,
    linear,
    linear_pair,
    load_arrays,
    load_params,
    make_op,
    matmul,
    mse,
    mul,
    narrow,
    no_record,
    relu,
    reshape,
    save_arrays,
    save_params,
    softmax,
    take,
    tsum,
)
from physair.errors import ShapeError, ValidationError


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad(f, x0, tol=1e-4):
    """Compare backward() against the finite-difference oracle on f at x0."""
    x = Tensor(x0, requires_grad=True)
    loss = f(x)
    loss.backward()
    fd = finite_diff_grad(f, Tensor(x0)).data
    assert x.grad is not None
    err = max_rel_err(x.grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# The oracle itself, pinned on hand-known derivatives.
# ---------------------------------------------------------------------------

def test_finite_diff_sum_of_squares():
    f = lambda t: tsum(mul(t, t))
    g = finite_diff_grad(f, Tensor([1.0, 2.0])).data
    assert np.allclose(g, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant_function():
    f = lambda t: Tensor(3.5)
    g = finite_diff_grad(f, Tensor([[1.0, -2.0], [0.5, 4.0]])).data
    assert np.array_equal(g, np.zeros((2, 2)))


def test_finite_diff_linear_form():
    # f(x) = c . x has gradient c exactly (up to fd truncation)
    c = np.array([0.3, -1.7, 2.2])
    f = lambda t: tsum(mul(t, Tensor(c)))
    g = finite_diff_grad(f, Tensor([5.0, 6.0, 7.0])).data
    assert np.allclose(g, c, atol=1e-8)


# ---------------------------------------------------------------------------
# Forward values.
# ---------------------------------------------------------------------------

def test_matmul_identity():
    m = np.arange(12.0).reshape(3, 4)
    out = matmul(Tensor(np.eye(3)), Tensor(m))
    assert np.array_equal(out.data, m)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_keeps_nan_like_linear():
    row = Tensor([[np.nan, 1.0]])
    out = relu(row).data
    assert np.isnan(out[0, 0]) and out[0, 1] == 1.0
    # nan * 0 poisons the whole row of the fused form; both keep the NaN
    assert np.isnan(linear(row, Tensor(np.eye(2)), Tensor(np.zeros(2)),
                           activation="relu").data[0, 0])


def test_no_record_builds_no_tape_and_restores_the_flag():
    w = Param(np.ones((2, 2)), name="w")
    x = Tensor(np.ones((3, 2)))
    assert is_recording()
    with no_record():
        assert not is_recording()
        out = relu(linear(x, w, Tensor(np.zeros(2)), activation="relu"))
        with no_record():
            pass
        assert not is_recording()
    assert is_recording()
    assert not out.requires_grad and out._parents == () and out._vjp is None
    recorded = linear(x, w, Tensor(np.zeros(2)))
    assert recorded.requires_grad and recorded._vjp is not None

    with pytest.raises(RuntimeError, match="body"):
        with no_record():
            raise RuntimeError("body failed")
    assert is_recording()


def test_softmax_symmetry():
    for c in (0.0, 5.0, -300.0, 1e6):
        out = softmax(Tensor([c, c, c])).data
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_softmax_positive_and_normalized():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=200.0, size=(50, 3))
    y = softmax(Tensor(logits)).data
    assert np.all(y > 0)
    assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-9


def test_matmul_batched_both_sides():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 6, 3))
    w = rng.normal(size=(3, 5))
    s = rng.normal(size=(2, 6))
    assert np.allclose(matmul(Tensor(a), Tensor(w)).data, a @ w)
    assert np.allclose(matmul(Tensor(s), Tensor(a)).data, s @ a)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(ShapeError) as exc:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_forward_values_stay_finite():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(scale=50.0, size=(8, 5)))
    w = Tensor(rng.normal(size=(5, 5)))
    out = softmax(relu(matmul(x, w)))
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# Backward pass, op by op, against the oracle.
# ---------------------------------------------------------------------------

def test_backward_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    tsum(x).backward()
    assert np.array_equal(x.grad, np.ones(4))


def test_mse_keeps_the_bits_of_a_numpy_mean_of_squared_differences():
    # pred + target * -1 rounds as pred - target, since negation is exact
    rng = np.random.default_rng(11)
    pred = Tensor(rng.normal(size=(32,)) * 10.0 ** rng.integers(-6, 7, 32), requires_grad=True)
    target = rng.normal(size=(32,)) * 10.0 ** rng.integers(-6, 7, 32)
    loss = mse(pred, Tensor(target))
    d = pred.data - target
    assert loss.data.tobytes() == np.asarray((d * d).sum() * (1.0 / 32)).tobytes()
    loss.backward()
    half = np.full(32, 1.0 / 32) * d
    assert pred.grad.tobytes() == (half + half).tobytes()


def test_backward_mse_at_minimum_is_zero():
    x = Tensor([[0.5, -2.0], [3.0, 1.0]], requires_grad=True)
    mse(x, Tensor(x.data.copy())).backward()
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_grad_add_broadcast():
    rng = np.random.default_rng(1)
    b = Tensor(rng.normal(size=(4,)))
    check_grad(lambda t: tsum(mul(add(t, b), add(t, b))), rng.normal(size=(3, 4)))


def test_grad_sub_and_mul_broadcast():
    # t - other as mse builds a difference: t + other * -1
    rng = np.random.default_rng(2)
    other = Tensor(rng.normal(size=(5, 1)))
    check_grad(lambda t: tsum(mul(add(t, mul(other, Tensor(-1.0))), t)), rng.normal(size=(5, 4)))


def test_grad_matmul_2d():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 2)))
    check_grad(lambda t: tsum(mul(matmul(t, w), matmul(t, w))), rng.normal(size=(3, 4)))


def test_grad_matmul_flattened_lhs():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    # gradient with respect to the 2d weight on the right
    check_grad(lambda t: tsum(mul(matmul(x, t), matmul(x, t))), rng.normal(size=(4, 2)))


def test_grad_matmul_batched_rhs():
    rng = np.random.default_rng(5)
    s = Tensor(rng.normal(size=(6, 3)))
    check_grad(lambda t: tsum(mul(matmul(s, t), matmul(s, t))), rng.normal(size=(2, 3, 4)))


def test_grad_relu():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(4, 4))
    x0[np.abs(x0) < 0.05] += 0.1  # keep clear of the kink
    check_grad(lambda t: tsum(mul(relu(t), relu(t))), x0)


def test_linear_matches_unfused_composition():
    rng = np.random.default_rng(40)
    x = Tensor(rng.normal(size=(2, 5, 4)))
    w = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=(3,)))
    assert np.array_equal(linear(x, w, b, activation="relu").data,
                          relu(add(matmul(x, w), b)).data)
    assert np.array_equal(linear(x, w, b).data, add(matmul(x, w), b).data)
    assert np.array_equal(linear(x, w, Tensor(np.zeros(3)), activation="relu").data,
                          relu(matmul(x, w)).data)


def test_grad_linear_each_input():
    rng = np.random.default_rng(41)
    x0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 2))
    b0 = rng.normal(size=(2,))
    x, w, b = Tensor(x0), Tensor(w0), Tensor(b0)
    check_grad(lambda t: mse(linear(t, w, b, activation="relu"), Tensor(np.ones((3, 2)))), x0)
    check_grad(lambda t: mse(linear(x, t, b, activation="relu"), Tensor(np.ones((3, 2)))), w0)
    check_grad(lambda t: mse(linear(x, w, t, activation="relu"), Tensor(np.ones((3, 2)))), b0)
    check_grad(lambda t: mse(linear(t, w, Tensor(np.zeros(2)), activation="identity"),
                             Tensor(np.ones((3, 2)))), x0)


def test_linear_pair_matches_stacked_weight():
    rng = np.random.default_rng(42)
    a = Tensor(rng.normal(size=(2, 6, 3)))
    c = Tensor(rng.normal(size=(2, 6, 4)))
    w = Tensor(rng.normal(size=(7, 5)))
    b = Tensor(rng.normal(size=(5,)))
    wa = narrow(w, 0, 3, axis=0)
    wc = narrow(w, 3, 7, axis=0)
    fused = linear_pair(a, c, wa, wc, b)
    assert np.array_equal(fused.data,
                          relu(add(add(matmul(a, wa), matmul(c, wc)), b)).data)
    # the concat form groups the inner sum differently, so allclose not equal
    joined = relu(add(matmul(concat([a, c]), w), b))
    np.testing.assert_allclose(fused.data, joined.data, rtol=0, atol=1e-12)


def test_grad_linear_pair_each_input():
    rng = np.random.default_rng(43)
    a0 = rng.normal(size=(4, 3))
    c0 = rng.normal(size=(4, 2))
    wa0 = rng.normal(size=(3, 2))
    wc0 = rng.normal(size=(2, 2))
    b0 = rng.normal(size=(2,))
    a, c, wa, wc, b = (Tensor(v) for v in (a0, c0, wa0, wc0, b0))
    target = Tensor(np.ones((4, 2)))
    check_grad(lambda t: mse(linear_pair(t, c, wa, wc, b), target), a0)
    check_grad(lambda t: mse(linear_pair(a, t, wa, wc, b), target), c0)
    check_grad(lambda t: mse(linear_pair(a, c, t, wc, b), target), wa0)
    check_grad(lambda t: mse(linear_pair(a, c, wa, t, b), target), wc0)
    check_grad(lambda t: mse(linear_pair(a, c, wa, wc, t), target), b0)
    # a 3-d operand: the relu mask meets the cotangent's flattened rows
    c3 = Tensor(rng.normal(size=(2, 4, 2)))
    check_grad(lambda t: mse(linear_pair(t, c3, wa, wc, b), Tensor(np.ones((2, 4, 2)))),
               rng.normal(size=(2, 4, 3)))


def test_linear_rejects_bad_shapes():
    x = Tensor(np.zeros((3, 4)))
    w = Tensor(np.zeros((5, 2)))
    b = Tensor(np.zeros(2))
    with pytest.raises(ShapeError):
        linear(x, w, b)
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((3, 5))), w, Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.zeros((4, 2, 1))), b)
    with pytest.raises(ValidationError):
        linear(Tensor(np.zeros((3, 5))), w, b, activation="tanh")
    with pytest.raises(ShapeError):
        linear_pair(x, x, Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))), b)
    with pytest.raises(ShapeError):
        linear_pair(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 2))),
                    Tensor(np.zeros((4, 2))), b)


def test_grad_softmax():
    rng = np.random.default_rng(7)
    c = Tensor(rng.normal(size=(5, 3)))
    check_grad(lambda t: tsum(mul(softmax(t), c)), rng.normal(size=(5, 3)))


def test_grad_concat_and_narrow():
    rng = np.random.default_rng(8)
    other = Tensor(rng.normal(size=(4, 2)))

    def f(t):
        joined = concat([t, other, t])
        left = narrow(joined, 0, 3)
        return tsum(mul(left, left))

    check_grad(f, rng.normal(size=(4, 2)))


def test_take_gathers_rows_per_sample():
    x = Tensor(np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2))
    out = take(x, np.array([[2, 0], [1, 1]]))
    assert np.array_equal(out.data, [[[4, 5], [0, 1]], [[8, 9], [8, 9]]])
    with pytest.raises(ShapeError):
        take(x, np.array([0, 1]))


def test_grad_take_with_repeated_index():
    rng = np.random.default_rng(12)
    weights = Tensor(rng.normal(size=(2, 4, 3)))
    # sample 0 reads row 1 three times, sample 1 never reads row 0
    index = np.array([[1, 3, 1, 1], [2, 2, 3, 1]])

    def f(t):
        picked = take(t, index)
        return tsum(mul(mul(picked, picked), weights))

    check_grad(f, rng.normal(size=(2, 5, 3)))


def test_grad_reshape_mean_axis_sum():
    rng = np.random.default_rng(9)

    def f(t):
        r = reshape(t, (2, 6))
        m = mul(tsum(r, axis=1), Tensor(1.0 / 6))
        return tsum(mul(m, m))

    check_grad(f, rng.normal(size=(3, 4)))


def test_grad_mse():
    rng = np.random.default_rng(10)
    target = Tensor(rng.normal(size=(6, 2)))
    check_grad(lambda t: mse(t, target), rng.normal(size=(6, 2)))


def test_grad_two_layer_mlp_all_params():
    rng = np.random.default_rng(11)
    hidden = Mlp(3, 8, rng, name="hidden", activation="relu")
    head = Mlp(8, 2, rng, name="head")

    def net(x):
        return head(hidden(x))

    x = np.random.default_rng(12).normal(size=(5, 3))
    target = Tensor(np.random.default_rng(13).normal(size=(5, 2)))

    loss = mse(net(Tensor(x)), target)
    loss.backward()

    for p in hidden.params() + head.params():
        def f(t, p=p):
            saved = p.data
            p.data = t.data
            try:
                return mse(net(Tensor(x)), target)
            finally:
                p.data = saved

        fd = finite_diff_grad(f, Tensor(p.data)).data
        err = max_rel_err(p.grad, fd)
        assert err < 1e-4, f"{p.name}: rel err {err:.3e}"


def test_mlp_input_gradient_matches_oracle():
    rng = np.random.default_rng(14)
    layers = [Mlp(4, 6, rng, name="deep0", activation="relu"),
              Mlp(6, 6, rng, name="deep1", activation="relu"),
              Mlp(6, 1, rng, name="deep2")]

    def net(x):
        for layer in layers:
            x = layer(x)
        return x

    target = Tensor(np.zeros((3, 1)))
    check_grad(lambda t: mse(net(t), target), rng.normal(size=(3, 4)))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        add(x, x).backward()


def test_backward_needs_a_trainable_path():
    with pytest.raises(ValidationError):
        tsum(Tensor(np.ones(3))).backward()


def test_unreachable_param_untouched():
    rng = np.random.default_rng(15)
    used = Param(rng.normal(size=(3,)), name="used")
    idle = Param(rng.normal(size=(3,)), name="idle")
    tsum(mul(used, used)).backward()
    assert np.any(used.grad != 0)
    assert np.array_equal(idle.grad, np.zeros(3))


def test_two_backwards_accumulate_exactly_twice():
    # leaves accumulate; each backward walks a fresh forward's tape
    rng = np.random.default_rng(16)
    p = Param(rng.normal(size=(4, 3)), name="p")
    x = Tensor(rng.normal(size=(2, 4)))
    mse(matmul(x, p), Tensor(np.zeros((2, 3)))).backward()
    once = p.grad.copy()
    mse(matmul(x, p), Tensor(np.zeros((2, 3)))).backward()
    assert np.array_equal(p.grad, 2.0 * once)


def test_diamond_graph_accumulates_both_paths():
    # y = x*x + x*x: grad should be 4x, catching missed accumulation
    x = Tensor([3.0], requires_grad=True)
    tsum(add(mul(x, x), mul(x, x))).backward()
    assert np.allclose(x.grad, [12.0])


def test_asymmetric_diamond_orders_shared_node_after_consumers():
    # c = x*x is consumed twice at different depths: directly by the final
    # product and through b = c + 1. A traversal that emits c before b has
    # fired loses b's contribution. y = c*(c+1), dy/dx = (2c+1)*2x.
    x = Tensor([3.0], requires_grad=True)
    c = mul(x, x)
    b = add(c, Tensor([1.0]))
    tsum(mul(c, b)).backward()
    assert np.allclose(x.grad, [(2.0 * 9.0 + 1.0) * 2.0 * 3.0])


def test_shared_intermediate_three_consumers_matches_finite_diff():
    rng = np.random.default_rng(7)
    w = Param(rng.standard_normal((4, 4)) * 0.3, name="w")
    x = Tensor(rng.standard_normal((5, 4)))

    def loss_fn(wt):
        h = relu(matmul(x, wt))
        deep = relu(matmul(h, wt))
        deeper = mul(h, add(deep, h))
        return mse(concat([h, deeper], axis=-1), Tensor(np.zeros((5, 8))))

    loss_fn(w).backward()
    fd = finite_diff_grad(loss_fn, w)
    denom = max(1.0, np.abs(w.grad).max())
    assert np.abs(w.grad - fd.data).max() / denom < 1e-6


# ---------------------------------------------------------------------------
# The walk that frees its tape, and cotangents added in place.
# ---------------------------------------------------------------------------

def test_consumed_tape_refuses_a_second_backward():
    rng = np.random.default_rng(17)
    p = Param(rng.normal(size=(4, 3)), name="p")
    x = Tensor(rng.normal(size=(2, 4)))
    pred = matmul(x, p)
    loss = mse(pred, Tensor(np.zeros((2, 3))))
    loss.backward()
    once = p.grad.copy()
    for again in (loss, tsum(pred)):
        with pytest.raises(ValidationError, match="walked and freed"):
            again.backward()
    # the refused walks added nothing
    assert np.array_equal(p.grad, once)
    assert loss._parents == () and pred._parents == ()


def _aliasing_graphs():
    """name -> (f, x0): graphs in which a VJP hands its g, or views of it,
    to parents that receive a second cotangent."""
    rng = np.random.default_rng(18)
    c1, c2, c3, c4 = (Tensor(rng.normal(size=(3, 4))) for _ in range(4))
    wide = Tensor(rng.normal(size=(3, 8)))
    rows = Tensor(rng.normal(size=(2, 5, 3)))
    index = np.array([[1, 3, 1, 1, 0], [2, 2, 4, 1, 2]])

    def add_shared_operands(t):
        # add hands one g to a and b; each has a second consumer
        a, b = mul(t, c1), mul(mul(t, t), c2)
        s = add(a, b)
        return add(tsum(mul(s, s)), add(tsum(mul(a, c3)), tsum(mul(b, c4))))

    def add_self(t):
        h = mul(t, c1)
        twice = add(h, h)
        return add(tsum(mul(twice, twice)), tsum(mul(h, c2)))

    def reshape_and_concat_views(t):
        # both views are of one g that add also hands to a sibling
        h, k = mul(t, c1), mul(t, t)
        r = reshape(h, (4, 3))
        joined = concat([h, k], axis=-1)
        s = add(joined, mul(joined, wide))
        flat = add(reshape(r, (3, 4)), k)
        return add(add(tsum(mul(s, s)), tsum(mul(flat, flat))),
                   add(tsum(mul(r, r)), tsum(mul(joined, wide))))

    def take_repeated_rows(t):
        e = mul(t, t)
        picked = take(e, index)
        return add(tsum(mul(picked, picked)), tsum(mul(e, rows)))

    def one_fresh_array_for_both_parents(t):
        # an add whose VJP copies g once and hands the copy to both operands
        a, b = mul(t, c1), mul(t, t)
        s = make_op(a.data + b.data, (a, b), lambda g: (g.copy(),) * 2)
        return add(tsum(mul(s, s)), add(tsum(mul(a, c3)), tsum(mul(b, c4))))

    return {
        "add_shared_operands": (add_shared_operands, rng.normal(size=(3, 4))),
        "add_self": (add_self, rng.normal(size=(3, 4))),
        "reshape_and_concat_views": (reshape_and_concat_views, rng.normal(size=(3, 4))),
        "take_repeated_rows": (take_repeated_rows, rng.normal(size=(2, 5, 3))),
        "one_fresh_array_for_both_parents": (one_fresh_array_for_both_parents,
                                             rng.normal(size=(3, 4))),
    }


@pytest.mark.parametrize("name", sorted(_aliasing_graphs()))
def test_in_place_accumulation_never_adds_into_an_alias(name):
    f, x0 = _aliasing_graphs()[name]
    grads = []
    for _ in range(2):
        # each backward walks a fresh forward's tape
        x = Tensor(x0, requires_grad=True)
        f(x).backward()
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()
    fd = finite_diff_grad(f, Tensor(x0)).data
    assert max_rel_err(grads[1], fd) < 1e-6, name


def _signed_zero_rows(repeats):
    """A (2, 5, 3) dense cotangent and take's rows for it, both with -0.0
    entries, on a hit and an unhit row."""
    rng = np.random.default_rng(7)
    dense = rng.normal(size=(2, 5, 3))
    dense[0, 1] = -0.0  # hit by the index
    dense[1, 4] = -0.0  # not hit
    dense[1, 0, 0] = -0.0
    index = np.array([[1, 3, 0], [0, 3, 2]])
    if repeats:
        index[1, 2] = 0
    values = rng.normal(size=(2, 3, 3))
    values[0, 0, 1] = values[1, 1] = -0.0
    return dense, autodiff._Rows((np.arange(2)[:, None], index), values, dense.shape)


@pytest.mark.parametrize("owned", [True, False])
@pytest.mark.parametrize("repeats", [False, True])
def test_take_rows_meet_a_dense_cotangent_with_the_zero_filled_bits(repeats, owned):
    dense, rows = _signed_zero_rows(repeats)
    full = np.zeros(dense.shape)
    np.add.at(full, rows.index, rows.values)
    expected = dense + full  # the sum from a zero-filled array, -0.0 -> +0.0
    assert (np.signbit(dense) & (dense == 0)).any()
    kept = dense.copy()
    got = rows.added_to(dense, owned)
    assert got.tobytes() == expected.tobytes()
    assert (got is dense) == owned
    if not owned:
        assert dense.tobytes() == kept.tobytes()
    assert rows.dense().tobytes() == full.tobytes()


@pytest.mark.parametrize("dense_first", [True, False])
@pytest.mark.parametrize("repeats", [False, True])
def test_take_rows_reach_a_leaf_with_the_zero_filled_bits(repeats, dense_first):
    # sparse rows alone, and meeting a dense cotangent in either order
    dense, rows = _signed_zero_rows(repeats)
    full = np.zeros(dense.shape)
    np.add.at(full, rows.index, rows.values)
    for with_dense in (False, True):
        x = Tensor(np.ones(dense.shape), requires_grad=True)
        picked = tsum(mul(take(x, rows.index[1]), Tensor(rows.values)))
        terms = [picked]
        if with_dense:
            terms.insert(0 if dense_first else 1, tsum(mul(x, Tensor(dense))))
        loss = terms[0] if len(terms) == 1 else add(*terms)
        loss.backward()
        want = dense + full if with_dense else full
        assert x.grad.tobytes() == want.tobytes(), with_dense


def test_a_cotangent_add_hands_to_both_parents_reaches_each_vjp_read_only():
    rng = np.random.default_rng(8)
    seen, handed = [], []

    def spy(t):
        def vjp(g):
            seen.append(g.flags.writeable)
            return (g,)
        return make_op(t.data.copy(), (t,), vjp)

    def tap(t):
        # hands add one cotangent the walk owns
        def vjp(g):
            out = g * 3.0
            handed.append((out, out.copy()))
            return (out,)
        return make_op(t.data.copy(), (t,), vjp)

    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(4, 4)), requires_grad=True), Tensor(rng.normal(size=4))
    for wrap in (spy, lambda t: t):
        seen.clear()
        handed.clear()
        s = add(wrap(linear(x, w, b, "relu")), wrap(linear(x, w, b)))
        tsum(mul(tap(s), Tensor(rng.normal(size=(6, 4))))).backward()
        ((given, kept),) = handed
        assert given.tobytes() == kept.tobytes()
        assert seen == ([False, False] if wrap is spy else [])
    # a fresh, owned cotangent reaches the VJP writeable
    tsum(mul(spy(x), Tensor(np.ones((6, 4))))).backward()
    assert seen[-1] is True


@pytest.mark.parametrize("block", [2, 3, 1024])
@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_linear_writes_its_input_gradient_over_an_owned_cotangent(monkeypatch, block, activation):
    # a cotangent the walk owns (mul's) and one it does not (add's, shared
    # with a constant) give the same bits, and finite differences agree
    monkeypatch.setattr(autodiff, "_ROW_BLOCK", block)
    rng = np.random.default_rng(9)
    x0, w0 = rng.normal(size=(3, 3, 5)), rng.normal(size=(5, 5))
    b, c = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=(3, 3, 5)))

    def owned(t):
        return tsum(mul(linear(t, Tensor(w0), b, activation), c))

    def shared(t):
        y = add(linear(t, Tensor(w0), b, activation), Tensor(np.zeros((3, 3, 5))))
        return tsum(mul(y, c))

    grads = []
    for f in (owned, shared):
        x = Tensor(x0, requires_grad=True)
        f(x).backward()
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]
    check_grad(owned, x0)


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------

def test_adam_zero_grad_means_no_update():
    p = Param(np.array([1.0, -2.0]), name="p")
    opt = Adam([p])
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.t == 1


def test_adam_first_step_hand_value():
    # With p=1 and g=1 at t=1: m_hat = v_hat = 1, so the update is
    # lr * 1 / (sqrt(1) + eps). Evaluate that recurrence by hand.
    p = Param(np.array([1.0]), name="p")
    opt = Adam([p])
    p.grad = np.array([1.0])
    opt.step()
    expected = 1.0 - 1e-4 / (1.0 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15
    assert abs(p.data[0] - 0.9999) < 1e-6


def test_adam_three_steps_match_reference_recurrence():
    # Independent replay of the published update rule on fixed gradients.
    rng = np.random.default_rng(17)
    p0 = rng.normal(size=(3,))
    grads = [rng.normal(size=(3,)) for _ in range(3)]

    p = Param(p0.copy(), name="p")
    opt = Adam([p], lr=0.01)
    for g in grads:
        p.grad = g.copy()
        opt.step()

    ref, m, v = p0.copy(), np.zeros(3), np.zeros(3)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p.data, ref, atol=1e-15)


def test_adam_deterministic_bit_for_bit():
    def run():
        p = Param(np.array([0.3, -1.2, 7.0]), name="p")
        opt = Adam([p], lr=3e-3)
        for k in range(5):
            p.grad = np.array([1.0, -0.5, 0.25]) * (k + 1)
            opt.step()
        return p.data.tobytes()

    assert run() == run()


def test_adam_identical_params_stay_identical():
    a = Param(np.array([2.0, 3.0]), name="a")
    b = Param(np.array([2.0, 3.0]), name="b")
    opt = Adam([a, b])
    g = np.array([0.7, -0.1])
    a.grad = g.copy()
    b.grad = g.copy()
    opt.step()
    assert np.array_equal(a.data, b.data)


def test_adam_state_roundtrip():
    p = Param(np.array([1.0, 2.0]), name="p")
    opt = Adam([p])
    p.grad = np.array([0.5, -0.5])
    opt.step()
    state = {k: v.copy() for k, v in opt.state_arrays().items()}

    p2 = Param(np.array([1.0, 2.0]), name="p")
    opt2 = Adam([p2])
    opt2.load_state_arrays(state)
    assert opt2.t == 1
    assert np.array_equal(opt2.m[0], opt.m[0])
    assert np.array_equal(opt2.v[0], opt.v[0])


def test_zero_grad_resets():
    p = Param(np.ones(3), name="p")
    tsum(mul(p, p)).backward()
    assert np.any(p.grad != 0)
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(3))


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    net = Mlp(3, 5, rng, name="net")
    path = str(tmp_path / "model.ckpt")
    save_params(path, net.params(), extra={"preset": "S", "seed": 4})

    clone = Mlp(3, 5, np.random.default_rng(99), name="net")
    extra = load_params(path, clone.params())
    assert extra == {"preset": "S", "seed": 4}
    for p, q in zip(net.params(), clone.params()):
        assert np.array_equal(p.data, q.data)


def test_checkpoint_layout_is_as_documented(tmp_path):
    # little-endian u64 header length, JSON manifest, then raw <f8 values
    import json
    import struct

    path = str(tmp_path / "tiny.ckpt")
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([5.0])
    save_arrays(path, [("a", a), ("b", b)])

    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + hlen].decode("utf-8"))
    assert manifest["schema_version"] == 1
    assert manifest["params"] == [
        {"name": "a", "shape": [2, 2]},
        {"name": "b", "shape": [1]},
    ]
    values = np.frombuffer(raw[8 + hlen:], dtype="<f8")
    assert np.array_equal(values, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_checkpoint_rejects_missing_and_mismatched(tmp_path):
    path = str(tmp_path / "model.ckpt")
    p = Param(np.zeros((2, 2)), name="w")
    save_params(path, [p])

    with pytest.raises(ValidationError):
        load_params(path, [Param(np.zeros((2, 2)), name="other")])
    with pytest.raises(ValidationError):
        load_params(path, [Param(np.zeros((3, 2)), name="w")])


def test_checkpoint_rejects_truncation(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_arrays(path, [("a", np.arange(16.0))])
    raw = Path(path).read_bytes()
    clipped = str(tmp_path / "clipped.ckpt")
    with open(clipped, "wb") as fh:
        fh.write(raw[:-8])
    with pytest.raises(ValidationError):
        load_arrays(clipped)


def test_checkpoint_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_arrays(path, [("a", np.ones(4))])
    save_arrays(path, [("a", np.zeros(4))])  # overwrite in place
    leftovers = [f for f in tmp_path.iterdir() if f.name != "model.ckpt"]
    assert leftovers == []
    _, arrays = load_arrays(path)
    assert np.array_equal(arrays["a"], np.zeros(4))
