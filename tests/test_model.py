"""Tests for the physics-guided GNN layers and the stacked model.

The convection module is checked against a literal loop-over-edges
re-implementation; diffusion and local against their closed formulas;
gradients against the finite-difference oracle.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from physair import autodiff
from physair.autodiff import (Mlp, Tensor, add, finite_diff_grad, mse, mul, narrow, no_record,
                              reshape, tsum)
from physair.errors import ShapeError, ValidationError
from physair.geo import (Graph, SensorMeta, build_graph, build_matrices,
                         convection_edge_features, last_node_edges)
from physair.model import (
    FIXED_DESIGN,
    PRESETS,
    ConvectionModule,
    DiffusionModule,
    EdgePath,
    FusionHead,
    GraphWiring,
    LocalModule,
    ModelConfig,
    PhysicsGnn,
    _blend,
    _sum_incoming,
)


def random_sensors(n, seed=0):
    rng = np.random.default_rng(seed)
    return [SensorMeta(f"s{i}", 36.0 + 0.3 * rng.random(), -120.0 + 0.3 * rng.random())
            for i in range(n)]


def wiring_for(n, seed=0):
    return GraphWiring(build_graph(random_sensors(n, seed)))


def manual_graph(n, dist_km=1.0):
    """A complete graph with every pairwise distance set by hand."""
    dist = np.full((n, n), float(dist_km))
    np.fill_diagonal(dist, 0.0)
    idx = np.arange(n)
    dst = np.repeat(idx, n - 1)
    src = np.concatenate([np.delete(idx, i) for i in range(n)])
    sensors = tuple(SensorMeta(f"m{i}", 36.0, -120.0 + 0.001 * i) for i in range(n))
    e = n * (n - 1)
    return Graph(sensors=sensors, dist=dist, src=src, dst=dst,
                 edge_east=np.zeros(e), edge_north=np.zeros(e))


def zero_biases(params):
    for p in params:
        if p.name.endswith(("b0", "b1")):
            p.data = np.zeros_like(p.data)


def set_identity_mlp(mlp):
    w, b, _ = mlp.layers[0]
    w.data = np.eye(w.shape[0])
    b.data = np.zeros_like(b.data)


# ---------------------------------------------------------------------------
# Config.
# ---------------------------------------------------------------------------

def test_presets_pin_exact_sizes():
    assert PRESETS == {"S": (3, 128), "M": (4, 256), "L": (5, 512)}
    for name, (layers, dim) in PRESETS.items():
        cfg = ModelConfig(preset=name)
        assert (cfg.n_layers, cfg.hidden_dim) == (layers, dim)


def test_config_rejects_conflicts_and_gaps():
    with pytest.raises(ValidationError):
        ModelConfig(preset="S", hidden_dim=64)
    with pytest.raises(ValidationError):
        ModelConfig(preset=None, n_layers=2)
    # inference shares the first layer, so no model is that layer alone
    with pytest.raises(ValidationError, match="at least 2 layers"):
        ModelConfig(preset=None, n_layers=1, hidden_dim=8)
    with pytest.raises(ValidationError, match="at least 2 layers"):
        ModelConfig.from_dict(dict(preset=None, n_layers=1, hidden_dim=8, window=1))
    with pytest.raises(ValidationError):
        ModelConfig(preset="XL")
    with pytest.raises(ValidationError):
        ModelConfig(preset="S", window=0)


def test_config_roundtrip():
    cfg = ModelConfig(preset=None, n_layers=2, hidden_dim=16, window=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.input_dim == 4


def test_config_records_the_one_design_and_refuses_another():
    # the local module divides by M, convection sums its messages and every
    # physics module applies relu; a checkpoint that names another local
    # norm, aggregation or activation was trained by some other model
    cfg = ModelConfig(preset="S")
    assert cfg.to_dict() == {"preset": "S", "n_layers": 3, "hidden_dim": 128, "window": 1,
                             "local_norm": "inverse", "aggregation": "sum",
                             "activation": "relu"}
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    for key, other in (("activation", "identity"), ("local_norm", "direct"),
                       ("aggregation", "mean")):
        with pytest.raises(ValidationError, match=f"{key} must be .*'{other}'"):
            ModelConfig.from_dict({**cfg.to_dict(), key: other})
        with pytest.raises(TypeError):
            ModelConfig(preset="S", **{key: FIXED_DESIGN[key]})


# ---------------------------------------------------------------------------
# Diffusion module.
# ---------------------------------------------------------------------------

def test_diffusion_zero_scale_annihilates():
    w = wiring_for(5)
    mod = DiffusionModule(4, np.random.default_rng(0), "diff")
    mod.scale.data = np.zeros(4)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 4)))
    assert np.array_equal(mod(x, w).data, np.zeros((2, 5, 4)))


def identity_diffusion(dim, wiring):
    mod = DiffusionModule(dim, np.random.default_rng(0), "diff")
    set_identity_mlp(mod.node_mlp)
    mod.gcn_weight.data = np.eye(dim)
    mod.scale.data = np.ones(dim)
    return mod


def test_diffusion_identity_setting_applies_scaled_laplacian():
    # identity weights leave the module's two relus: relu(L_D . relu(x))
    w = wiring_for(6, seed=2)
    mod = identity_diffusion(3, w)
    x = np.random.default_rng(3).normal(size=(1, 6, 3))
    out = mod(Tensor(x), w).data
    expected = np.maximum(w.lap_scaled.data @ np.maximum(x[0], 0.0), 0.0)
    assert np.allclose(out[0], expected, atol=1e-12)
    assert (out[0] == 0.0).any() and (out[0] > 0.0).any()


def test_diffusion_never_grows_the_norm():
    for seed in range(5):
        n = int(np.random.default_rng(seed).integers(3, 10))
        w = wiring_for(n, seed=seed)
        mod = identity_diffusion(4, w)
        x = np.random.default_rng(seed + 50).normal(size=(1, n, 4))
        out = mod(Tensor(x), w).data
        assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12


def test_diffusion_two_node_hand_case():
    # unit-weight K2 has scaled Laplacian [[0,-1],[-1,0]]: L_D x = [0, -1],
    # which a weight of -1 turns into [0, 1] ahead of the relu
    g = manual_graph(2, dist_km=1.0)
    w = GraphWiring(g)
    mod = identity_diffusion(1, w)
    mod.gcn_weight.data = -np.eye(1)
    out = mod(Tensor([[[1.0], [0.0]]]), w).data
    assert np.allclose(out[0], [[0.0], [1.0]], atol=1e-6)
    assert np.array_equal(mod(Tensor([[[-1.0], [-2.0]]]), w).data, np.zeros((1, 2, 1)))


# ---------------------------------------------------------------------------
# Convection module.
# ---------------------------------------------------------------------------

def reference_convection(mod, x, efeat):
    """Literal transcription: loops over edges and nodes, plain numpy."""

    def apply_mlp(mlp, v):
        for wt, bs, act in mlp.layers:
            v = v @ wt.data + bs.data
            if act == "relu":
                v = np.maximum(v, 0.0)
        return v

    b, n, d = x.shape
    e = efeat.shape[1]
    out = np.zeros((b, n, d))
    for s in range(b):
        h = apply_mlp(mod.node_mlp, x[s])
        ef = apply_mlp(mod.edge_mlp, efeat[s])
        m = np.zeros((n, d))
        for k in range(e):
            j, i = int(mod._src[k]), int(mod._dst[k])
            phi = apply_mlp(mod.message_mlp, np.concatenate([h[i] + ef[k], h[j] + ef[k]]))
            m[i] += phi
        for i in range(n):
            out[s, i] = apply_mlp(mod.update_mlp, np.concatenate([m[i], h[i] + m[i]]))
    return out


@pytest.mark.parametrize("aggregation", ["sum"])
def test_convection_matches_straight_line_reference(aggregation):
    # convection sums its messages; "sum" is the only aggregation a
    # checkpoint may record
    assert ModelConfig.from_dict({"aggregation": aggregation}).to_dict()["aggregation"] == "sum"
    w = wiring_for(5, seed=4)
    mod = ConvectionModule(6, 3, np.random.default_rng(5), "conv")
    mod._src, mod._dst = w.src, w.dst  # expose wiring to the reference
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5, 6))
    efeat = rng.normal(size=(3, w.n_edges, 3))
    out, _ = mod(Tensor(x), Tensor(efeat), w)
    ref = reference_convection(mod, x, efeat)
    assert np.max(np.abs(out.data - ref)) < 1e-12


def test_convection_two_nodes_single_message():
    # with N=2 each node has exactly one incoming edge: aggregate == message
    g = manual_graph(2)
    w = GraphWiring(g)
    mod = ConvectionModule(4, 3, np.random.default_rng(7), "conv")
    mod._src, mod._dst = w.src, w.dst
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 2, 4))
    efeat = rng.normal(size=(1, 2, 3))
    out, _ = mod(Tensor(x), Tensor(efeat), w)
    assert np.max(np.abs(out.data - reference_convection(mod, x, efeat))) < 1e-12


@pytest.mark.parametrize("slot", range(4))
def test_convection_message_gradients_each_input(slot):
    # the reassociated message op, gradient checked input by input
    from physair.model import _convection_messages

    wiring = wiring_for(4, seed=13)
    rng = np.random.default_rng(14)
    dim = 3
    fixed = [Tensor(rng.normal(size=(2, 4, dim))),
             Tensor(rng.normal(size=(2, wiring.n_edges, dim))),
             Tensor(rng.normal(size=(2 * dim, dim))),
             Tensor(rng.normal(size=(dim,)))]

    def loss(t):
        args = list(fixed)
        args[slot] = t
        phi = _convection_messages(*args, wiring, "relu")
        return tsum(mul(phi, phi))

    x = Tensor(fixed[slot].data.copy(), requires_grad=True)
    loss(x).backward()
    numeric = finite_diff_grad(loss, Tensor(fixed[slot].data.copy())).data
    rel = np.max(np.abs(x.grad - numeric) / np.maximum(1.0, np.abs(numeric)))
    assert rel < 1e-4, f"slot {slot}: rel err {rel:.3e}"


def test_convection_messages_refuse_an_activation_but_relu():
    from physair.model import _convection_messages

    wiring = wiring_for(3, seed=15)
    rng = np.random.default_rng(16)
    args = [Tensor(rng.normal(size=shape)) for shape in ((1, 3, 2), (1, wiring.n_edges, 2),
                                                          (4, 2), (2,))]
    with pytest.raises(ValidationError, match="'identity'"):
        _convection_messages(*args, wiring, "identity")


def take_messages_oracle(h, e, w, b, graph, g):
    """The edge-gather formulation of the message op: np.take puts node rows
    on edges, and the source adjoint sums a (node, slot) position table.
    Returns the forward output and the four VJP outputs for cotangent g."""
    bsz, n, dim = h.shape
    w_recv, w_send = w[:dim], w[dim:]
    w_sum = w_recv + w_send
    h2 = h.reshape(-1, dim)
    hr = (h2 @ w_recv).reshape(bsz, n, dim)
    hs = (h2 @ w_send).reshape(bsz, n, dim)
    out = (e.reshape(-1, dim) @ w_sum).reshape(bsz, graph.n_edges, dim)
    buf = np.take(hr, graph.dst, axis=1)
    np.add(out, buf, out=out)
    np.take(hs, graph.src, axis=1, out=buf)
    np.add(out, buf, out=out)
    np.add(out, b, out=out)
    np.maximum(out, 0.0, out=out)

    g_pre = g * (out > 0)
    g2 = g_pre.reshape(-1, dim)
    src_positions = np.argsort(graph.src, kind="stable").reshape(n, n - 1)
    g_recv = g_pre.reshape(bsz, n, n - 1, dim).sum(axis=2)
    g_send = g_pre[:, src_positions, :].sum(axis=2)
    gh = (g_recv.reshape(-1, dim) @ w_recv.T + g_send.reshape(-1, dim) @ w_send.T).reshape(h.shape)
    ge = (g2 @ w_sum.T).reshape(e.shape)
    shared = e.reshape(-1, dim).T @ g2
    gw = np.empty_like(w)
    gw[:dim] = shared + h2.T @ g_recv.reshape(-1, dim)
    gw[dim:] = shared + h2.T @ g_send.reshape(-1, dim)
    gb = g2.sum(axis=0)
    return out, (gh, ge, gw, gb)


@pytest.mark.parametrize("activation", ["relu"])
@pytest.mark.parametrize("n", [2, 3, 7, 28])
def test_convection_messages_bitwise_match_gather_oracle(n, activation):
    # the fused op returns each node's summed messages; the oracle's edge
    # messages, summed per destination, and its gradients under the node
    # cotangent gathered onto every edge must match bit for bit
    from physair.model import _convection_messages

    wiring = wiring_for(n, seed=60 + n)
    rng = np.random.default_rng(61)
    bsz, dim = 3, 5
    arrays = [rng.normal(size=(bsz, n, dim)), rng.normal(size=(bsz, wiring.n_edges, dim)),
              rng.normal(size=(2 * dim, dim)), rng.normal(size=(dim,))]
    g = rng.normal(size=(bsz, n, dim))
    # negative zeros meet the relu mask and the source-side sums; in sample
    # 0, feature 0, every edge carries one
    g[0, :, 0] = -0.0
    g[1, ::2, 1] = -0.0

    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = _convection_messages(*inputs, wiring, activation)
    tsum(mul(out, Tensor(g))).backward()
    grads = [t.grad for t in inputs]
    ref_out, ref_grads = take_messages_oracle(*arrays, wiring.graph,
                                              np.take(g, wiring.dst, axis=1))

    assert out.data.tobytes() == ref_out.reshape(bsz, n, n - 1, dim).sum(axis=2).tobytes()
    for name, got, want in zip(("h", "e", "w", "b"), grads, ref_grads):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"gradient wrt {name} differs"


@pytest.mark.parametrize("kind", ["leaf", "constant", "recorded"])
def test_finish_messages_releases_only_a_recorded_pre(kind):
    # a recorded pre is released: its VJP never reads its output, and the
    # messages live on only as node sums; one a caller passes keeps the
    # finished messages
    from physair.model import _finish_messages, _message_pre

    wiring = wiring_for(5, seed=62)
    rng = np.random.default_rng(63)
    bsz, n, dim = 2, 5, 4
    h = Tensor(rng.normal(size=(bsz, n, dim)), requires_grad=True)
    w = Tensor(rng.normal(size=(2 * dim, dim)), requires_grad=True)
    b = Tensor(rng.normal(size=(dim,)), requires_grad=True)
    rows = rng.normal(size=(bsz, wiring.n_edges, dim))
    if kind == "recorded":
        pre = _message_pre(Tensor(rows, requires_grad=True), w)
    else:
        pre = Tensor(rows, requires_grad=kind == "leaf")
    out = _finish_messages(h, pre, w, b, wiring)
    if kind == "recorded":
        assert pre.data.size == 0
    else:
        assert pre.shape == (bsz, wiring.n_edges, dim)
        sums = pre.data.reshape(bsz, n, n - 1, dim).sum(axis=2)
        assert sums.tobytes() == out.data.tobytes()
    tsum(mul(out, out)).backward()
    assert h.grad.shape == h.shape and np.isfinite(h.grad).all()
    assert (pre.grad is not None) == (kind == "leaf")


def test_convection_returns_next_layer_edge_features():
    w = wiring_for(4, seed=9)
    mod = ConvectionModule(5, 3, np.random.default_rng(10), "conv")
    rng = np.random.default_rng(11)
    _, e_out = mod(Tensor(rng.normal(size=(2, 4, 5))), Tensor(rng.normal(size=(2, w.n_edges, 3))), w)
    assert e_out.shape == (2, w.n_edges, 5)
    # a second-layer module consumes them directly
    mod2 = ConvectionModule(5, 5, np.random.default_rng(12), "conv2")
    out2, _ = mod2(Tensor(rng.normal(size=(2, 4, 5))), e_out, w)
    assert out2.shape == (2, 4, 5)


# ---------------------------------------------------------------------------
# Local module.
# ---------------------------------------------------------------------------

def reference_local(mod, x, wiring):
    def apply_mlp(mlp, v):
        for wt, bs, act in mlp.layers:
            v = v @ wt.data + bs.data
            if act == "relu":
                v = np.maximum(v, 0.0)
        return v

    f = wiring.loop_adj.data @ apply_mlp(mod.node_mlp, x) @ mod.conv_weight.data
    return np.maximum(f, 0.0)


def test_local_constant_field_equal_degrees():
    g = manual_graph(4, dist_km=2.0)
    w = GraphWiring(g)
    mod = LocalModule(3, np.random.default_rng(13), "loc")
    x = np.tile(np.array([0.7, -0.2, 1.1]), (1, 4, 1))
    out = mod(Tensor(x), w).data[0]
    assert np.max(np.abs(out - out[0])) < 1e-12


def test_local_inverse_halves_for_m_equals_two():
    g = manual_graph(2, dist_km=1.0)  # M = diag(2, 2)
    w = GraphWiring(g)
    mod = LocalModule(3, np.random.default_rng(16), "loc")
    x = np.random.default_rng(17).normal(size=(1, 2, 3))
    f = reference_local(mod, x[0], w)
    assert np.allclose(mod(Tensor(x), w).data[0], f / 2.0, atol=1e-12)


@pytest.mark.parametrize("module", [DiffusionModule, LocalModule])
def test_nan_pre_activation_passes_the_module_relu(module):
    # the module's relu must keep NaN as linear's does, not map it to 0
    w = wiring_for(4, seed=19)
    mod = module(3, np.random.default_rng(20), "mod")
    x = np.random.default_rng(21).normal(size=(2, 4, 3))
    x[0, 1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        out = mod(Tensor(x), w).data
    assert np.isnan(out[0]).all()
    assert np.isfinite(out[1]).all()


# ---------------------------------------------------------------------------
# Fusion.
# ---------------------------------------------------------------------------

def test_fusion_constant_logits_average():
    head = FusionHead(4, np.random.default_rng(18), "fus")
    wgt, bias, _ = head.mlp.layers[0]
    wgt.data = np.zeros_like(wgt.data)
    bias.data = np.zeros_like(bias.data)
    rng = np.random.default_rng(19)
    xd, xc, xl = (Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3))
    blended, weights = head(xd, xc, xl)
    assert np.allclose(weights.data, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(blended.data, (xd.data + xc.data + xl.data) / 3.0, atol=1e-12)


def test_fusion_equal_inputs_pass_through():
    head = FusionHead(5, np.random.default_rng(20), "fus")
    x = Tensor(np.random.default_rng(21).normal(size=(3, 4, 5)))
    blended, _ = head(x, x, x)
    assert np.allclose(blended.data, x.data, atol=1e-12)


def test_fusion_weights_positive_normalized_shift_invariant():
    head = FusionHead(4, np.random.default_rng(22), "fus")
    rng = np.random.default_rng(23)
    xd, xc, xl = (Tensor(rng.normal(size=(4, 6, 4))) for _ in range(3))
    _, weights = head(xd, xc, xl)
    assert np.all(weights.data > 0)
    assert np.max(np.abs(weights.data.sum(axis=-1) - 1.0)) < 1e-9

    _, bias, _ = head.mlp.layers[0]
    bias.data = bias.data + 250.0  # same constant on all three logits
    _, shifted = head(xd, xc, xl)
    assert np.allclose(shifted.data, weights.data, atol=1e-9)


# ---------------------------------------------------------------------------
# Full model.
# ---------------------------------------------------------------------------

def tiny_config(**kw):
    """Read as a checkpoint's model_config, whose fixed design is checked."""
    base = dict(preset=None, n_layers=2, hidden_dim=8, window=1)
    base.update(kw)
    return ModelConfig.from_dict(base)


def winds_for(b):
    """The winds of batch_for's samples, (b, 2)."""
    return np.column_stack([5.0 + np.arange(b), 40.0 * np.arange(b)])


def batch_for(wiring, b, cfg, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, wiring.n_nodes, cfg.input_dim))
    return x, convection_edge_features(wiring.graph, winds_for(b))


def test_model_output_shape_and_node_count_freedom():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=0)
    for n in (4, 7):
        w = wiring_for(n, seed=n)
        x, feats = batch_for(w, 3, cfg, seed=n)
        out = model.forward(x, w, feats)
        assert out.shape == (3, n, 1)
        assert np.all(np.isfinite(out.data))


def test_model_rejects_mismatched_inputs():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=0)
    w = wiring_for(4)
    x, feats = batch_for(w, 2, cfg)
    with pytest.raises(ShapeError):
        model.forward(x[:, :3, :], w, feats)
    with pytest.raises(ShapeError):
        model.forward(x, w, feats[:, :5, :])
    with pytest.raises(ShapeError):
        model.forward(x, w, feats, masked_pos=[0, 1, 2])
    for bad in (4, -1, 1.0, [0, 4]):
        with pytest.raises(ValidationError):
            model.forward(x, w, feats, masked_pos=bad)


def test_window_changes_only_the_embedding():
    m1 = PhysicsGnn(tiny_config(window=1), seed=0)
    m2 = PhysicsGnn(tiny_config(window=2), seed=0)
    assert m1.input_embed.layers[0][0].shape == (2, 8)
    assert m2.input_embed.layers[0][0].shape == (3, 8)
    n1 = [p.shape for p in m1.params()[2:]]
    n2 = [p.shape for p in m2.params()[2:]]
    assert n1 == n2


def test_zero_inputs_zero_biases_give_zero_output():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=1)
    zero_biases(model.params())
    w = wiring_for(5)
    x = np.zeros((2, 5, cfg.input_dim))
    feats = np.zeros((2, w.n_edges, 3))
    out = model.forward(x, w, feats)
    assert np.array_equal(out.data, np.zeros((2, 5, 1)))


def test_model_deterministic_construction():
    a = PhysicsGnn(tiny_config(), seed=7)
    b = PhysicsGnn(tiny_config(), seed=7)
    for p, q in zip(a.params(), b.params()):
        assert p.name == q.name
        assert np.array_equal(p.data, q.data)
    c = PhysicsGnn(tiny_config(), seed=8)
    assert any(not np.array_equal(p.data, q.data) for p, q in zip(a.params(), c.params()))


def test_permutation_equivariance():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=3)
    sensors = random_sensors(6, seed=30)
    rng = np.random.default_rng(31)
    perm = rng.permutation(6)
    wind = [[8.0, 211.0]] * 2

    w1 = GraphWiring(build_graph(sensors))
    w2 = GraphWiring(build_graph([sensors[p] for p in perm]))
    x = rng.normal(size=(2, 6, cfg.input_dim))
    f1 = convection_edge_features(w1.graph, wind)
    f2 = convection_edge_features(w2.graph, wind)

    out1 = model.forward(x, w1, f1).data
    out2 = model.forward(x[:, perm, :], w2, f2).data
    assert np.max(np.abs(out2 - out1[:, perm, :])) < 1e-10


def test_param_names_are_unique_and_reach_every_layer():
    small = PhysicsGnn(ModelConfig(preset=None, n_layers=3, hidden_dim=16), seed=0)
    names = [p.name for p in small.params()]
    assert len(names) == len(set(names))
    assert any(name.startswith("layer2.") for name in names)


def max_rel_err(analytic, numeric):
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def model_loss(model, x, w, feats, target):
    pred = model.forward(x, w, feats)
    return mse(pred, Tensor(target))


def test_full_model_gradients_match_finite_differences():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=4)
    w = wiring_for(5, seed=40)
    x, feats = batch_for(w, 2, cfg, seed=41)
    target = np.random.default_rng(42).normal(size=(2, 5, 1))

    loss = model_loss(model, x, w, feats, target)
    loss.backward()

    picked = [p for p in model.params() if p.name in (
        "input_embed.w0",
        "layer0.diffusion.scale",
        "layer0.convection.message_mlp.w0",
        "layer0.convection.edge_mlp.b0",
        "layer1.local.conv_weight",
        "layer1.fusion.mlp.w0",
        "output_head.w0",
    )]
    assert len(picked) == 7
    for p in picked:
        def f(t, p=p):
            saved = p.data
            p.data = t.data
            try:
                return model_loss(model, x, w, feats, target)
            finally:
                p.data = saved

        fd = finite_diff_grad(f, Tensor(p.data)).data
        err = max_rel_err(p.grad, fd)
        assert err < 1e-4, f"{p.name}: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# Readout: the last layer at the masked node only.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 7, 28])
@pytest.mark.parametrize("aggregation", ["sum"])
@pytest.mark.parametrize("activation", ["relu"])
def test_readout_matches_full_forward_masked_rows(n, aggregation, activation):
    cfg = tiny_config(aggregation=aggregation, activation=activation)
    model = PhysicsGnn(cfg, seed=n)
    w = wiring_for(n, seed=n)
    x, feats = batch_for(w, 4, cfg, seed=n)
    full = model.forward(x, w, feats).data[:, :, 0]
    per_sample = np.random.default_rng(n).integers(0, n, size=4)
    for masked_pos, expected in ((n - 1, full[:, n - 1]),
                                 (per_sample, full[np.arange(4), per_sample])):
        out = model.forward(x, w, feats, masked_pos).data
        assert out.shape == (4,)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def tape_nodes(out):
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_readout_leaves_no_edge_sized_tensor_in_the_last_layer():
    cfg = tiny_config(n_layers=3)
    model = PhysicsGnn(cfg, seed=2)
    w = wiring_for(6, seed=2)
    x, feats = batch_for(w, 2, cfg)

    def edge_sized(out):
        return len({t.data.__array_interface__["data"][0] for t in tape_nodes(out)
                    if t.ndim == 3 and t.shape[1] == w.n_edges})

    # distinct buffers: each full layer's edge_mlp output, plus the wind
    # input; the messages are summed per node in the op that finishes
    # them, and their buffer leaves the tape
    assert edge_sized(model.forward(x, w, feats)) == 3 + 1
    assert edge_sized(model.forward(x, w, feats, 0)) == 2 + 1


def tape_buffers(out):
    """The distinct base arrays a tape holds: each node's data and the
    arrays its VJP closure captured."""
    found = {}
    for node in tape_nodes(out):
        cells = node._vjp.__closure__ if node._vjp is not None else None
        arrays = [node.data] + [c.cell_contents for c in cells or ()
                                if isinstance(c.cell_contents, np.ndarray)]
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            found[id(a)] = a
    return list(found.values())


@pytest.mark.parametrize("activation", ["relu"])
def test_recorded_forward_keeps_a_bool_mask_and_no_float_message_buffer(activation):
    cfg = tiny_config(n_layers=3, activation=activation)
    model = PhysicsGnn(cfg, seed=2)
    w = wiring_for(6, seed=2)
    x, feats = batch_for(w, 2, cfg)
    edge_size = 2 * w.n_edges * cfg.hidden_dim
    for masked_pos, full_layers in ((None, 3), (0, 2)):
        held = [a for a in tape_buffers(model.forward(x, w, feats, masked_pos))
                if a.size == edge_size]
        # per full layer: the edge_mlp output and its message relu mask
        assert sum(a.dtype == np.float64 for a in held) == full_layers
        masks = [a for a in held if a.dtype != np.float64]
        assert len(masks) == full_layers
        assert all(a.dtype == bool for a in masks)


def test_readout_gradients_match_finite_differences():
    cfg = tiny_config()
    model = PhysicsGnn(cfg, seed=6)
    w = wiring_for(5, seed=60)
    x, feats = batch_for(w, 3, cfg, seed=61)
    masked = np.array([4, 1, 1])
    target = np.random.default_rng(62).normal(size=3)

    def loss_fn():
        return mse(model.forward(x, w, feats, masked), Tensor(target))

    loss_fn().backward()
    picked = [p for p in model.params() if p.name in (
        "layer1.convection.edge_mlp.w0",
        "layer1.convection.message_mlp.w0",
        "layer1.convection.update_mlp.w0",
        "layer1.fusion.mlp.w0",
        "layer0.convection.edge_mlp.w0",
    )]
    assert len(picked) == 5
    for p in picked:
        def f(t, p=p):
            saved = p.data
            p.data = t.data
            try:
                return loss_fn()
            finally:
                p.data = saved

        fd = finite_diff_grad(f, Tensor(p.data)).data
        err = max_rel_err(p.grad, fd)
        assert err < 1e-4, f"{p.name}: rel err {err:.3e}"


def train_step_loss(model, n=6, bsz=3, seed=80):
    """A training step's loss as train_model builds it: the readout at a
    masked node per sample, against a target."""
    w = wiring_for(n, seed=seed)
    x, feats = batch_for(w, bsz, model.config, seed=seed + 1)
    masked = np.arange(bsz) % n
    target = np.random.default_rng(seed + 2).normal(size=bsz)
    return mse(model.forward(x, w, feats, masked), Tensor(target)), w


@pytest.mark.parametrize("activation", ["relu"])
def test_consumed_backward_equals_the_retained_one_and_frees_the_tape(activation):
    grads = {}
    for consume in (False, True):
        model = PhysicsGnn(tiny_config(n_layers=3, activation=activation), seed=8)
        loss, w = train_step_loss(model)
        edge = next(t for t in tape_nodes(loss)
                    if t._parents and t.ndim == 3 and t.shape[1] == w.n_edges)
        ref = weakref.ref(edge)
        del edge
        loss.backward(consume=consume)
        grads[consume] = [p.grad.tobytes() for p in model.params()]
        assert (ref() is None) == consume
    assert grads[True] == grads[False]
    # the consumed loss keeps its value and nothing else
    assert np.isfinite(loss.data) and tape_nodes(loss) == [loss]


def test_consumed_backward_peaks_lower_by_at_least_an_edge_array():
    cfg = tiny_config(n_layers=3, hidden_dim=16)
    peaks = {}
    for consume in (False, True):
        model = PhysicsGnn(cfg, seed=9)
        tracemalloc.start()
        try:
            loss, w = train_step_loss(model, n=8, bsz=4)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward(consume=consume)
            peaks[consume] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    edge_bytes = 4 * w.n_edges * cfg.hidden_dim * 8
    assert peaks[True] + edge_bytes <= peaks[False], peaks


def test_consumed_backward_peaks_under_an_edge_array_above_the_forward():
    # the walk drops every VJP's outputs once they are filed, and the
    # message kernel turns a node cotangent into one masked edge cotangent;
    # an edge cotangent kept alive into the next VJP lifts this shape's
    # peak past one edge array
    cfg = tiny_config(n_layers=3)
    model = PhysicsGnn(cfg, seed=9)
    tracemalloc.start()
    try:
        loss, w = train_step_loss(model, n=20, bsz=8)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward(consume=True)
        peak = tracemalloc.get_traced_memory()[1] - after_forward
    finally:
        tracemalloc.stop()
    edge_bytes = 8 * w.n_edges * cfg.hidden_dim * 8
    assert peak <= edge_bytes, (peak, edge_bytes)


def test_a_train_step_peaks_under_six_and_a_half_edge_arrays():
    # forward and consumed backward together: the take rows stay sparse,
    # linear and message_pre write their input gradients over the
    # cotangents they own, and each layer's edge step runs just before its
    # node step; without those this shape peaks at 7.2 edge arrays
    cfg = tiny_config(n_layers=3, hidden_dim=32)
    model = PhysicsGnn(cfg, seed=9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, w = train_step_loss(model, n=20, bsz=8)
        loss.backward(consume=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    edge_bytes = 8 * w.n_edges * cfg.hidden_dim * 8
    assert peak <= 6.5 * edge_bytes, (peak, edge_bytes)


@pytest.mark.parametrize("activation", ["relu"])
def test_nan_at_any_context_node_reaches_the_masked_prediction(activation):
    # every layer before the last mixes all nodes (dense L_D and I + A,
    # one message from every node), so one bad reading anywhere poisons
    # the masked node's prediction instead of being silently dropped
    cfg = tiny_config(activation=activation)
    model = PhysicsGnn(cfg, seed=7)
    n, masked = 6, 2
    w = wiring_for(n, seed=70)
    x, feats = batch_for(w, 2, cfg, seed=71)
    for node in range(n):
        if node == masked:
            continue
        bad = x.copy()
        bad[0, node, 0] = np.nan
        with np.errstate(invalid="ignore"):
            out = model.forward(bad, w, feats, masked).data
        assert np.isnan(out[0]), f"NaN at node {node} was lost"
        assert np.isfinite(out[1])


def test_gather_and_aggregate_gradients():
    # ConvectionModule's aggregation: edges are grouped by destination, so
    # summing the N-1 axis of (B, N, N-1, d) adds each node's incoming messages
    w = wiring_for(4, seed=50)
    n = w.n_nodes
    rng = np.random.default_rng(51)
    e0 = rng.normal(size=(2, w.n_edges, 3))

    def aggregate(t):
        return tsum(reshape(t, (-1, n, n - 1, 3)), axis=2)

    by_dst = np.zeros((2, n, 3))
    np.add.at(by_dst, (slice(None), w.dst), e0)
    assert np.allclose(aggregate(Tensor(e0)).data, by_dst, rtol=0, atol=1e-12)
    e = Tensor(e0, requires_grad=True)
    y = aggregate(e)
    tsum(mul(y, y)).backward()
    fd = finite_diff_grad(lambda t: tsum(mul(aggregate(t), aggregate(t))), Tensor(e0)).data
    assert max_rel_err(e.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# Inference without a tape, and the precomputed edge path.
# ---------------------------------------------------------------------------

def test_no_record_forward_leaves_no_tape():
    cfg = tiny_config(n_layers=3)
    model = PhysicsGnn(cfg, seed=9)
    w = wiring_for(5, seed=90)
    x, feats = batch_for(w, 2, cfg, seed=91)
    with no_record():
        outs = [model.forward(x, w, feats), model.forward(x, w, feats, 4)]
    for out in outs:
        assert tape_nodes(out) == [out]
        assert out._vjp is None and not out.requires_grad
    recorded = model.forward(x, w, feats, 4)
    assert len(tape_nodes(recorded)) > 1


def edge_path_for(model, w, x, winds):
    """The EdgePath of w's graph as the predictor builds it: its first N-1
    sensors' graph for the context rows, then the last node's 2C rows."""
    context = build_graph(w.graph.sensors[:-1])
    context_rows = convection_edge_features(context, winds)
    query_rows = convection_edge_features(w.graph, winds, last_node_edges(w.n_nodes)).reshape(-1, 3)
    with no_record():
        shared = model.share_context(x, context_rows)
    return EdgePath(*shared, *model.edge_path(query_rows))


@pytest.mark.parametrize("later_layers", [1, 2, 3])
def test_precomputed_edge_path_matches_the_forward(later_layers):
    # the layers after the shared first one: the readout, and 0-2 stacked
    cfg = tiny_config(n_layers=1 + later_layers)
    model = PhysicsGnn(cfg, seed=10)
    w = wiring_for(6, seed=100)
    x, feats = batch_for(w, 3, cfg, seed=101)
    want = model.forward(x, w, feats, 5).data
    with no_record():
        got = model.forward(x, w, None, 5, edges=edge_path_for(model, w, x, winds_for(3))).data
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_precomputed_pre_activations_refused_while_recording():
    cfg = tiny_config(n_layers=2)
    model = PhysicsGnn(cfg, seed=11)
    w = wiring_for(5, seed=110)
    x, feats = batch_for(w, 2, cfg, seed=111)
    with pytest.raises(ValidationError, match="no_record"):
        model.forward(x, w, None, 4, edges=edge_path_for(model, w, x, winds_for(2)))
    with no_record():
        for masked_pos in (None, 0):
            with pytest.raises(ValidationError, match="masked_pos"):
                model.forward(x, w, None, masked_pos, edges=edge_path_for(model, w, x, winds_for(2)))


@pytest.mark.parametrize("bsz,c,dim", [(64, 28, 128), (4, 28, 128), (1, 8, 128), (64, 10, 8), (3, 2, 8)])
def test_shared_partial_sums_keep_the_full_reduction_order(bsz, c, dim):
    # the predictor sums each context node's C-1 context messages once per
    # call and adds its query message per target; that equals the full
    # per-destination sum bit for bit only while numpy reduces that axis
    # one row at a time (numpy only: no BLAS call here)
    n = c + 1
    rng = np.random.default_rng([bsz, c, dim])
    msgs = rng.standard_normal((bsz, n * c, dim)) * 10.0 ** rng.integers(-12, 13, (bsz, n * c, dim))
    msgs[rng.random(msgs.shape) < 0.1] = -0.0
    msgs[..., 0] = -0.0
    full = msgs.reshape(bsz, n, c, dim).sum(axis=2)
    # the context graph's edges are the first C-1 into each context node
    partial = msgs.reshape(bsz, n, c, dim)[:, :c, :c - 1].sum(axis=2)
    got = _sum_incoming(partial, msgs[:, last_node_edges(n)])
    assert got[:, :c].tobytes() == np.ascontiguousarray(full[:, :c]).tobytes()
    assert got[:, c].tobytes() == np.ascontiguousarray(full[:, c]).tobytes()


@pytest.mark.parametrize("k,width", [(128, 128), (3, 128), (256, 128), (8, 8), (3, 8),
                                     (384, 3), (24, 3), (128, 1), (8, 1)])
def test_stacked_products_keep_each_blocks_bits(k, width):
    # a stacked predictor forward multiplies G targets' rows at once and
    # gives each target the bits of its own forward only while these hold
    # (numpy and its BLAS only): a 2-d product over stacked blocks of >= 2
    # rows with a d-wide output, and a 3-d product over (G, rows, k) for
    # any row count and width, including 1 row and the 3- and 1-wide heads
    for rows in (1, 2, 3, 7, 28, 112):
        for blocks in (2, 9, 16):
            rng = np.random.default_rng([rows, blocks, k, width])
            w = rng.standard_normal((k, width))
            x = rng.standard_normal((blocks, rows, k)) * 10.0 ** rng.integers(-8, 9, (blocks, rows, 1))
            own = [(x[g] @ w).tobytes() for g in range(blocks)]
            grouped = np.matmul(x, w)
            assert [grouped[g].tobytes() for g in range(blocks)] == own, (rows, blocks)
            if rows >= 2 and width not in (1, 3):
                stacked = (x.reshape(-1, k) @ w).reshape(blocks, rows, width)
                assert [stacked[g].tobytes() for g in range(blocks)] == own, (rows, blocks)


@pytest.mark.parametrize("dim", [8, 128, 256, 512])
@pytest.mark.parametrize("block", [64, autodiff._ROW_BLOCK])
def test_row_blocked_in_place_product_equals_one_gemm(monkeypatch, dim, block):
    # linear's and message_pre's VJPs write g @ w.T over g block by block,
    # and each row must keep the bits of one whole GEMM (dims of the tiny
    # test models and presets S, M and L), the leftover rows too
    monkeypatch.setattr(autodiff, "_ROW_BLOCK", block)
    for rows in (2 * block, 2 * block + 1, 3 * block - 1, 3 * block + 5):
        rng = np.random.default_rng([dim, block, rows])
        w = rng.standard_normal((dim, dim))
        g = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-8, 9, (rows, 1))
        for m in (w, w.T):
            whole = g @ m
            got = autodiff._times(g.copy(), m)
            assert got.tobytes() == whole.tobytes(), (rows, m is w)


def test_blend_equals_the_chained_ops_bit_for_bit():
    rng = np.random.default_rng(31)
    logits = rng.normal(size=(3, 5, 3))
    parts = [rng.normal(size=(3, 5, 4)) for _ in range(3)]
    parts[0][0, 1] = 0.0  # a dead node: its weight gradient sums to -0.0
    cot = rng.normal(size=(3, 5, 4))
    cot[0, 1] = -np.abs(cot[0, 1])

    def run(blend):
        weights = Tensor(np.exp(logits) / np.exp(logits).sum(-1, keepdims=True), requires_grad=True)
        xs = [Tensor(p.copy(), requires_grad=True) for p in parts]
        out = blend(weights, *xs)
        tsum(mul(out, Tensor(cot))).backward(consume=True)
        return [out.data.tobytes()] + [t.grad.tobytes() for t in (weights, *xs)]

    def chained(weights, x_d, x_c, x_l):
        w_d, w_c, w_l = (narrow(weights, j, j + 1) for j in range(3))
        return add(add(mul(w_d, x_d), mul(w_c, x_c)), mul(w_l, x_l))

    assert run(_blend) == run(chained)
