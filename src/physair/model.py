"""The physics-guided graph network: diffusion, convection, and local
modules fused per layer by dynamic softmax weights.

Layer k computes three candidate feature maps from the incoming node
features and blends them per node:

    x_D = l * relu(L_D . node_mlp(x) . W)              graph diffusion
    x_C = update(concat(m, node_mlp(x) + m))           wind-driven transport,
          with m_i the sum of edge messages into i
    x_L = M^-1 relu((I + A) . node_mlp(x) . W_c)       local-source response
    x'  = w_D x_D + w_C x_C + w_L x_L,  (w_D, w_C, w_L) = softmax(fusion(x_D|x_C|x_L))

The model never sees node count at construction time: every parameter acts
on the feature axis, so a network trained on N sensors runs unchanged on
the (N+1)-node inference graph that adds a dummy target node.

Node inputs are (window + 1)-vectors: the window of hourly readings plus
an observed flag that is 0 on the masked or dummy node. Batches are dense
(B, N, features) arrays; per-sample wind enters through the convection
edge features (B, E, 3).

Training and inference read one node per sample, the masked one. Given
its position, the last layer computes only the rows the caller reads:
its convection runs over that node's N-1 incoming edges rather than all
N(N-1). At preset S that cuts the edge-sized d x d GEMMs from 5 to 3 per
forward and from 10 to 6 per backward. Predictions equal the full
forward's masked rows to rounding.

Edge features go through each layer's edge MLP and meet the summed
message weight without reading a node state, so for layers 0..L-2 both
are functions of the edge's wind triple: ``PhysicsGnn.edge_path`` runs
them over any table of edge rows. In training and in a plain forward a
full layer's messages are one op (``_edge_messages``): it forms their
edge side in a buffer of its own, finishes them there and sums them per
node. A predictor forward never runs it: its layer 0 runs
``ConvectionModule.share``/``finish`` and layers 1..L-2
``ConvectionModule.stacked``. While training records, the op keeps only
a bool relu mask, so each full layer's tape holds one edge-sized float
array, the edge MLP's output. Training runs each layer's edge MLP just before its node step,
so one layer's message buffer is gone before the next one's is
allocated, and the backward writes the edge gradients over the
cotangents it owns (autodiff.linear). A predictor call is a context
graph of C sensors plus its targets, each joining it as the masked last
node. The context graph's C(C-1) edges are in every target's graph, so
the predictor in ``training`` runs their rows once for all of its targets
and hands them to ``forward`` as an ``EdgePath``, which is refused
while autodiff records.

Its targets share more than rows at layer 0. There every target sees
the same node states: the inputs are the call's, and the query node's
row is zero. So the three node_mlp outputs, the message halves, and the
finished messages on the C(C-1) context edges are the same for every
target, and ``PhysicsGnn.share_context`` computes them once per call
(``SharedLayer0``). It keeps each context node's sum over its context
messages, not the messages. A target then finishes its 2C query-edge
messages and adds each context node's query message to that sum. This
is exact, not just close: numpy sums the (N, N-1) edge axis one row at
a time, and each context node's query edge is its last row, so the
shared sum plus the query row is the full sum bit for bit
(``tests/test_model.py`` pins that order). Later layers read node
states that differ per target, and ``forward`` runs a stack of G targets
as one batch of G·B samples. A d-wide GEMM runs once over the stack, exact
at four or more rows per target (at d = 512 a 2- or 3-row block rounds
otherwise), so the predictor stacks no target with fewer; the GEMMs whose
blocks can be narrow or one row make each target's own BLAS call
(``autodiff.linear``). So each target gets the bits of a forward of its own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .autodiff import (Mlp, Tensor, _grouped_product, _times, _unbroadcast, add, concat, init_param,
                       is_recording, linear_pair, make_op, matmul, mul, narrow, relu, reshape, softmax,
                       take, tsum)
from .errors import ShapeError, ValidationError
from .geo import Graph, build_matrices

PRESETS = {"S": (3, 128), "M": (4, 256), "L": (5, 512)}

# The one design every checkpoint records: the local module divides by its
# normalization, convection sums its messages, and every module applies ReLU.
FIXED_DESIGN = {"local_norm": "inverse", "aggregation": "sum", "activation": "relu"}


@dataclass
class ModelConfig:
    """Architecture knobs. A preset fixes (n_layers, hidden_dim) exactly.

    The rest of the design is fixed; checkpoints record it as FIXED_DESIGN.
    """

    preset: str | None = "S"
    n_layers: int | None = None
    hidden_dim: int | None = None
    window: int = 1

    def __post_init__(self):
        if self.preset is not None:
            if self.preset not in PRESETS:
                raise ValidationError(f"unknown preset {self.preset!r}, expected one of {sorted(PRESETS)}")
            layers, dim = PRESETS[self.preset]
            if self.n_layers not in (None, layers) or self.hidden_dim not in (None, dim):
                raise ValidationError(
                    f"preset {self.preset} fixes n_layers={layers}, hidden_dim={dim}; "
                    f"drop preset to use custom sizes")
            self.n_layers, self.hidden_dim = layers, dim
        if self.n_layers is None or self.hidden_dim is None:
            raise ValidationError("need a preset or explicit n_layers and hidden_dim")
        if self.n_layers < 2 or self.hidden_dim < 1:
            # inference shares layer 0 across its targets (SharedLayer0), so
            # a model's first layer is never its readout
            raise ValidationError(f"bad architecture: {self.n_layers} layers, dim {self.hidden_dim}; "
                                  "need at least 2 layers and dim >= 1")
        if self.window < 1:
            raise ValidationError(f"window must be >= 1 hour, got {self.window}")

    @property
    def input_dim(self) -> int:
        """Hourly window plus the observed-flag bit."""
        return self.window + 1

    def to_dict(self) -> dict:
        return {"preset": self.preset, "n_layers": self.n_layers, "hidden_dim": self.hidden_dim,
                "window": self.window, **FIXED_DESIGN}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        for key, value in FIXED_DESIGN.items():
            if d.get(key, value) != value:
                raise ValidationError(f"{key} must be {value!r}, got {d[key]!r}")
        return cls(**{k: d[k] for k in ("preset", "n_layers", "hidden_dim", "window") if k in d})


class GraphWiring:
    """Constant per-graph arrays in the form the model consumes.

    Holds the scaled Laplacian and self-loop adjacency as constant tensors,
    the inverse of the local normalization's diagonal, and the
    edge order: edges are grouped by destination, so (B, E, d) edge
    messages reshape to (B, N, N-1, d) by destination node. Everything
    here is read-only once built.
    """

    def __init__(self, graph: Graph):
        matrices = build_matrices(graph)
        n = graph.n_nodes
        self.graph = graph
        self.groups = 1  # targets whose samples it stacks (stack)
        self.n_nodes = n
        self.n_edges = graph.n_edges
        self.src = graph.src
        self.dst = graph.dst
        self.lap_scaled = Tensor(matrices.lap_scaled)
        self.loop_adj = Tensor(np.eye(n) + matrices.a)
        self.norm_inverse = Tensor((1.0 / matrices.m)[:, None])

    @staticmethod
    def stack(wirings, bsz: int) -> "GraphWiring":
        """One wiring for G·B samples of G same-size graphs, whose edge order
        is the same: sample g·B + b reads graph g's matrices, in its own matmul."""
        if len(wirings) == 1:
            return wirings[0]  # its matrices broadcast over the samples
        out = copy.copy(wirings[0])
        out.groups = len(wirings)
        for name in ("lap_scaled", "loop_adj", "norm_inverse"):
            setattr(out, name, Tensor(np.repeat([getattr(w, name).data for w in wirings], bsz, axis=0)))
        return out


def _incoming(rows: np.ndarray, n: int) -> np.ndarray:
    """Edge positions of the N-1 edges into node rows[b], in edge order.

    With destination-grouped edges, node i's incoming edges are rows
    i(N-1), ..., (i+1)(N-1)-1.
    """
    return rows * (n - 1) + np.arange(n - 1)


@dataclass
class SharedLayer0:
    """The part of layer 0 that every target of a predictor call shares
    (see the module docstring); built by GnnLayer.share.

    h_d, h_c and h_l are the three modules' node_mlp outputs, hr and hs
    the message halves h_c @ w_recv and h_c @ w_send, all (B, N, d).
    partial (B, C, d) is each context node's sum over its C-1 context
    messages.
    """

    h_d: Tensor
    h_c: Tensor
    h_l: Tensor
    hr: np.ndarray
    hs: np.ndarray
    partial: np.ndarray


@dataclass
class EdgePath:
    """The edge side of an inference forward on a context graph plus one
    query node, its last and masked, computed ahead of it:
    PhysicsGnn.share_context on the context graph's edges gives layer0
    and context, PhysicsGnn.edge_path on the query rows the rest.

    context[k-1] and query[k], for each layer k < L-1, hold the message
    pre-activations e_k @ (w_recv + w_send) on the context graph's
    C(C-1) edges (k >= 1) and on the 2C query rows, the edges that touch
    the query node (geo.last_node_edges). query_last holds the edge
    features that enter the last layer on the query rows. Every target
    of one context shares layer0 and context.

    layer0 is layer 0's shared part. With it, layer 0 reads no context
    row and allocates no edge-sized buffer per target: it finishes the 2C
    query messages of query[0] and adds them to layer0's per-node context
    sums, which equals the full layer bit for bit (see the module
    docstring). The query rows may hold G targets', one after another.
    forward reads every row and layer0 as constants.
    """

    layer0: SharedLayer0
    context: list
    query: list
    query_last: Tensor


def _message_pre(e: Tensor, w: Tensor, groups: int = 1) -> Tensor:
    """e @ (w_recv + w_send), the edge side of each message, in a new buffer.

    w is the stacked message weight [w_recv; w_send]; both halves get the
    same gradient e.T @ g. The backward writes e's gradient over a g it
    owns, as autodiff.linear does. groups as in autodiff.linear. Only the
    readout and the inference edge path call it (see _edge_messages).
    """
    dim = e.shape[-1]
    w_sum = w.data[:dim] + w.data[dim:]
    e2 = e.data.reshape(-1, dim)

    def vjp(g):
        g2 = g.reshape(-1, dim)
        gw = np.concatenate([e2.T @ g2] * 2) if w.requires_grad else None
        # last, since it may overwrite g2
        ge = _times(g2, w_sum.T).reshape(e.shape) if e.requires_grad else None
        return ge, gw

    return make_op(_grouped_product(e2, w_sum, groups).reshape(e.shape), (e, w), vjp)


def _message_halves(h: Tensor, w: Tensor) -> tuple:
    """(h @ w_recv, h @ w_send), each (B, N, d): the node side of every
    message, from the stacked message weight w = [w_recv; w_send]."""
    bsz, n, dim = h.shape
    h2 = h.data.reshape(-1, dim)
    return (h2 @ w.data[:dim]).reshape(bsz, n, dim), (h2 @ w.data[dim:]).reshape(bsz, n, dim)


def _act_messages(by_dst: np.ndarray, hr_dst: np.ndarray, by_src: np.ndarray,
                  hs_src: np.ndarray, b: np.ndarray) -> None:
    """relu(pre + hr[dst] + hs[src] + b), in place, in that float order.

    by_dst and by_src are two views of one pre-activation buffer, each
    covering all of it; hr_dst and hs_src broadcast against them to each
    edge's receiver and sender rows. Every message, on whichever rows,
    is finished here.
    """
    np.add(by_dst, hr_dst, out=by_dst)
    np.add(by_src, hs_src, out=by_src)
    np.add(by_dst, b, out=by_dst)
    np.maximum(by_dst, 0.0, out=by_dst)


def _finish_graph(out: np.ndarray, hr: np.ndarray, hs: np.ndarray, b: np.ndarray) -> None:
    """_act_messages on every edge of an n-node graph, n >= 2: out is its
    (B, n(n-1), d) destination-grouped pre buffer, hr and hs (B, n, d).

    Node rows reach the edges through views of the edge axis, never
    through an edge-sized gather. As (n, n-1), row i holds the n-1 edges
    into node i. As (n-1, n), row r holds the edges from sources r+1,
    ..., n-1, 0, ..., r: window r+1 of length n over [hs; hs].
    """
    bsz, n, dim = hr.shape
    twice = np.concatenate([hs, hs], axis=1)
    src_rows = np.lib.stride_tricks.sliding_window_view(twice[:, 1:-1], n, axis=1)
    _act_messages(out.reshape(bsz, n, n - 1, dim), hr[:, :, None, :],
                  out.reshape(bsz, n - 1, n, dim), src_rows.transpose(0, 1, 3, 2), b)


def _sum_incoming(partial: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Each node's summed incoming messages, (..., B, N, d), from a context's
    per-node partial sums (B, C, d) and any number of targets' finished
    query-edge messages (..., B, 2C, d), ordered as geo.last_node_edges.

    Equal bit for bit to summing the whole (B, N, N-1, d) message buffer
    over its third axis: numpy adds those rows one at a time, and each
    context node's query edge is its last.
    """
    c = query.shape[-2] // 2
    m = np.empty(query.shape[:-2] + (c + 1, query.shape[-1]))
    np.add(partial, query[..., :c, :], out=m[..., :c, :])
    m[..., c, :] = query[..., c:, :].sum(axis=-2)
    return m


def _edge_messages(h: Tensor, e: Tensor, w: Tensor, b: Tensor,
                   wiring: "GraphWiring") -> Tensor:
    """Each node's sum over its N-1 incoming messages, (B, N, d), where a
    message is relu(e @ (w_recv + w_send) + h[dst] @ w_recv + h[src] @ w_send + b):
    the message MLP over concat(h[dst] + e, h[src] + e), reassociated so
    that h meets each half of w on the nodes, not on the edges. Values
    agree to rounding, and the gradient is checked against finite_diff_grad.

    One op forms e's side of the messages in a buffer of its own, finishes
    them there (_finish_graph) and sums them per node with the numpy
    reduction of a separate sum (Zhang et al., MLSys 2022, fuse finishing
    and aggregation the same way). While recording it keeps a bool relu
    mask, so a layer's tape holds one edge-sized float array, e.

    Seen as (N-1, N), the buffer's row r holds the edges from sources r+1,
    ..., N-1, 0, ..., r, so every row meets every source once and rows run
    in ascending edge order. The backward masks each node's cotangent onto
    its incoming edges in one pass and sums each source's cotangents row
    by row in that order. It adds w's node-side and edge-side gradients
    once and writes e's over the edge cotangent it allocated (autodiff._times).
    """
    bsz, n, dim = h.shape
    n_edges = wiring.n_edges
    if w.shape != (2 * dim, dim) or b.shape != (dim,):
        raise ShapeError(f"message weight must be ({2 * dim}, {dim}) with ({dim},) bias, "
                         f"got {w.shape} and {b.shape}")
    if e.shape != (bsz, n_edges, dim):
        raise ShapeError(f"edge rows {e.shape}, expected ({bsz}, {n_edges}, {dim})")

    w_recv, w_send = w.data[:dim], w.data[dim:]
    w_sum = w_recv + w_send
    h2, e2 = h.data.reshape(-1, dim), e.data.reshape(-1, dim)
    msgs = (e2 @ w_sum).reshape(bsz, n, n - 1, dim)
    _finish_graph(msgs.reshape(bsz, n_edges, dim), *_message_halves(h, w), b.data)
    mask = None

    def vjp(g):
        g_pre = g[:, :, None, :] * mask
        g_recv = g_pre.sum(axis=2)
        # row 0 holds every source's first edge; later rows add in order
        g_rows = g_pre.reshape(bsz, n - 1, n, dim)
        g_send = np.concatenate([g_rows[:, 0, -1:], g_rows[:, 0, :-1]], axis=1)
        for r in range(1, n - 1):
            g_send[:, r + 1:] += g_rows[:, r, :n - 1 - r]
            g_send[:, :r + 1] += g_rows[:, r, n - 1 - r:]
        g2 = g_pre.reshape(-1, dim)
        gh = ge = gw = gb = None
        if h.requires_grad:
            gh = (g_recv.reshape(-1, dim) @ w_recv.T
                  + g_send.reshape(-1, dim) @ w_send.T).reshape(h.shape)
        if w.requires_grad:
            # both halves get the edge side's e.T @ g
            shared = e2.T @ g2
            gw = np.concatenate([h2.T @ g_recv.reshape(-1, dim) + shared,
                                 h2.T @ g_send.reshape(-1, dim) + shared])
        if b.requires_grad:
            gb = g2.sum(axis=0)
        if e.requires_grad:
            # last, since it overwrites g2
            ge = _times(g2, w_sum.T).reshape(e.shape)
        return gh, ge, gw, gb

    sums = make_op(msgs.sum(axis=2), (h, e, w, b), vjp)
    if sums.requires_grad:
        # the VJP reads only the mask, never the messages
        mask = msgs > 0
    return sums


def _release(t: Tensor) -> None:
    """Drop a recorded node's buffer once its consumers have read it, for
    a node whose own VJP never reads its output. A leaf or constant keeps
    its data."""
    if t._vjp is not None:
        t.data = np.empty(0)


def _convection_messages(h: Tensor, e: Tensor, w: Tensor, b: Tensor,
                         wiring: "GraphWiring", activation: str) -> Tensor:
    """Each node's sum over relu((h[dst] + e) @ w_r + (h[src] + e) @ w_s + b)
    on its incoming edges; activation, the message MLP's, must be relu."""
    if activation != "relu":
        raise ValidationError(f"messages apply relu, got activation {activation!r}")
    return _edge_messages(h, e, w, b, wiring)


def _readout_messages(h: Tensor, pre: Tensor, w: Tensor, b: Tensor,
                      rows: np.ndarray, src: np.ndarray) -> Tensor:
    """The messages of _edge_messages on the N-1 edges into one node per
    sample, unsummed.

    h is (B, N, d); pre is (B, N-1, d), on the incoming edges of node
    rows[b] in edge order, and src (B, N-1) their sources. Built from
    autodiff ops in the same float order as the full kernel (pre, + hr,
    + hs, + b), so each message equals its full-graph one to rounding.
    """
    dim = h.shape[2]
    out = add(pre, take(matmul(h, narrow(w, 0, dim, axis=0)), rows))
    return relu(add(add(out, take(matmul(h, narrow(w, dim, 2 * dim, axis=0)), src)), b))


class DiffusionModule:
    """x_D = l * relu(L_D . node_mlp(x) . W): spectral smoothing over the graph.

    The learnable vector l plays the role of a per-feature diffusion rate.
    It starts at ones (neutral scaling) rather than random values.
    """

    def __init__(self, dim: int, rng: np.random.Generator | None, name: str):
        self.node_mlp = Mlp(dim, dim, rng, f"{name}.node_mlp", "relu")
        self.gcn_weight = init_param(rng, f"{name}.gcn_weight", (dim, dim), 1.0 / np.sqrt(dim))
        self.scale = init_param(rng, f"{name}.scale", (dim,))

    def __call__(self, x: Tensor, wiring: GraphWiring) -> Tensor:
        return self.propagate(self.node_mlp(x), wiring)

    def propagate(self, h: Tensor, wiring: GraphWiring) -> Tensor:
        """x_D from node_mlp's output h."""
        pre = matmul(matmul(wiring.lap_scaled, h), self.gcn_weight)
        f = relu(pre)
        _release(pre)
        return mul(self.scale, f)

    def params(self):
        return self.node_mlp.params() + [self.gcn_weight, self.scale]


class ConvectionModule:
    """Wind-driven message passing with residual edge features.

    Each edge carries its own feature e' (from the wind triple in the
    first layer, from the previous layer's e' afterwards). e' is added to
    both endpoint features before the message MLP, the messages into each
    node are aggregated, and the update MLP mixes the aggregate with the
    node's own feature. PhysicsGnn runs a layer's edge MLP just before
    its node side (nodes).
    """

    def __init__(self, dim: int, edge_in_dim: int, rng: np.random.Generator | None, name: str):
        self.dim = dim
        self.node_mlp = Mlp(dim, dim, rng, f"{name}.node_mlp", "relu")
        self.edge_mlp = Mlp(edge_in_dim, dim, rng, f"{name}.edge_mlp", "relu")
        self.message_mlp = Mlp(2 * dim, dim, rng, f"{name}.message_mlp", "relu")
        self.update_mlp = Mlp(2 * dim, dim, rng, f"{name}.update_mlp", "relu")

    def message_pre(self, e: Tensor, groups: int = 1) -> Tensor:
        """This layer's message pre-activations from its edge features e'."""
        return _message_pre(e, self.message_mlp.layers[0][0], groups)

    def __call__(self, x: Tensor, edge_feats: Tensor, wiring: GraphWiring) -> tuple:
        """(x_C, e') on every node, from the incoming edge features."""
        e = self.edge_mlp(edge_feats)
        return self.nodes(x, e, wiring), e

    def nodes(self, x: Tensor, e: Tensor, wiring: GraphWiring, rows=None) -> Tensor:
        """x_C from the edge features e, (B, E, d), whose messages
        _edge_messages finishes and sums per node; or with rows, an int
        (B, 1) array of node positions, x_C (B, 1, d) at those nodes from e
        on their N-1 incoming edges, (B, N-1, d) in edge order."""
        h = self.node_mlp(x)
        w, b, _ = self.message_mlp.layers[0]
        if rows is None:
            m = _edge_messages(h, e, w, b, wiring)
        else:
            src = wiring.src[_incoming(rows, wiring.n_nodes)]
            pre = self.message_pre(e, wiring.groups)
            m = tsum(_readout_messages(h, pre, w, b, rows, src), axis=1, keepdims=True)
            h = take(h, rows)
        return self.update(h, m, wiring)

    def stacked(self, x: Tensor, edges: EdgePath, k: int, wiring: GraphWiring) -> Tensor:
        """x_C on every node of the G targets stacked in wiring, as layer k,
        k >= 1, of an inference forward over edges: each target's messages
        are finished as on its graph alone, in one reused (B, N, N-1, d) buffer."""
        h = self.node_mlp(x)
        w, b, _ = self.message_mlp.layers[0]
        hr, hs = _message_halves(h, w)
        groups, (rows, n, d) = wiring.groups, hr.shape
        bsz, c = rows // groups, n - 1
        query = edges.query[k].data.reshape(groups, bsz, 2 * c, d)
        buf, m = np.empty((bsz, n, c, d)), np.empty_like(hr)
        for g in range(groups):
            own = slice(g * bsz, (g + 1) * bsz)
            buf[:, :c, :c - 1] = edges.context[k - 1].data.reshape(bsz, c, c - 1, d)
            buf[:, :c, c - 1], buf[:, c] = query[g, :, :c], query[g, :, c:]
            _finish_graph(buf.reshape(bsz, n * c, d), hr[own], hs[own], b.data)
            buf.sum(axis=2, out=m[own])
        return self.update(h, Tensor(m), wiring)

    def share(self, h: Tensor, context: Tensor) -> tuple:
        """(hr, hs, partial) of SharedLayer0 from node_mlp's output h,
        (B, N, d), and the message pre-activations on the context graph's
        C(C-1) edges, (B * C(C-1), d), in its edge order.

        hr and hs are computed on all N rows and then sliced, since a GEMM
        over the first C rows need not equal those rows of the N-row one.
        The context messages are finished in context's own buffer, which
        no one may read afterwards, and only their per-node sums are kept.
        """
        w, b, _ = self.message_mlp.layers[0]
        hr, hs = _message_halves(h, w)
        bsz, n, dim = h.shape
        c = n - 1
        out = context.data.reshape(bsz, c * (c - 1), dim)
        _finish_graph(out, hr[:, :c], hs[:, :c], b.data)
        return hr, hs, out.reshape(bsz, c, c - 1, dim).sum(axis=2)

    def finish(self, shared: SharedLayer0, query: Tensor, wiring: GraphWiring) -> Tensor:
        """x_C on every node of the G targets stacked in wiring from layer
        0's shared part and their pre-activations on 2C query rows each."""
        groups, h, hr, hs = wiring.groups, shared.h_c, shared.hr, shared.hs
        bsz, n, dim = h.shape
        c = n - 1
        w, b, _ = self.message_mlp.layers[0]
        msgs = query.data.reshape(groups, bsz, 2 * c, dim).copy()
        # first the edges from the query node into each context node, then
        # the edges from each context node into the query node
        into_ctx, into_query = msgs[..., :c, :], msgs[..., c:, :]
        _act_messages(into_ctx, hr[:, :c], into_ctx, hs[:, c:], b.data)
        _act_messages(into_query, hr[:, c:], into_query, hs[:, :c], b.data)
        m = _sum_incoming(shared.partial, msgs).reshape(-1, n, dim)
        return self.update(Tensor(np.tile(h.data, (groups, 1, 1))), Tensor(m), wiring)

    def update(self, h: Tensor, m: Tensor, wiring: GraphWiring) -> Tensor:
        """x_C from node_mlp's output h and the summed messages m into the
        same nodes of wiring's graph, or of the targets it stacks."""
        uw, ub, _ = self.update_mlp.layers[0]
        return linear_pair(m, add(h, m),
                           narrow(uw, 0, self.dim, axis=0),
                           narrow(uw, self.dim, 2 * self.dim, axis=0),
                           ub, groups=wiring.groups)

    def params(self):
        return (self.node_mlp.params() + self.edge_mlp.params()
                + self.message_mlp.params() + self.update_mlp.params())


class LocalModule:
    """x_L = M^-1 relu((I + A) . node_mlp(x) . W_c): one self-loop graph convolution.

    M is the diagonal built from 1/dist edge features; dividing by it
    shrinks each node's response.
    """

    def __init__(self, dim: int, rng: np.random.Generator | None, name: str):
        self.node_mlp = Mlp(dim, dim, rng, f"{name}.node_mlp", "relu")
        self.conv_weight = init_param(rng, f"{name}.conv_weight", (dim, dim), 1.0 / np.sqrt(dim))

    def __call__(self, x: Tensor, wiring: GraphWiring) -> Tensor:
        return self.propagate(self.node_mlp(x), wiring)

    def propagate(self, h: Tensor, wiring: GraphWiring) -> Tensor:
        """x_L from node_mlp's output h."""
        pre = matmul(matmul(wiring.loop_adj, h), self.conv_weight)
        f = relu(pre)
        _release(pre)
        return mul(wiring.norm_inverse, f)

    def params(self):
        return self.node_mlp.params() + [self.conv_weight]


class FusionHead:
    """Per-node softmax blending of the three module outputs."""

    def __init__(self, dim: int, rng: np.random.Generator | None, name: str):
        self.mlp = Mlp(3 * dim, 3, rng, f"{name}.mlp")

    def __call__(self, x_d: Tensor, x_c: Tensor, x_l: Tensor, groups: int = 1):
        if not (x_d.shape == x_c.shape == x_l.shape):
            raise ShapeError(f"fusion inputs differ: {x_d.shape}, {x_c.shape}, {x_l.shape}")
        weights = softmax(self.mlp(concat([x_d, x_c, x_l]), groups))
        return _blend(weights, x_d, x_c, x_l), weights

    def params(self):
        return self.mlp.params()


def _blend(weights: Tensor, x_d: Tensor, x_c: Tensor, x_l: Tensor) -> Tensor:
    """w_D x_D + w_C x_C + w_L x_L, (w_D, w_C, w_L) the columns of weights,
    as one op with the bits and gradients of add(add(mul, mul), mul) over
    the narrowed columns, and none of that chain's node-sized products.

    Each column's gradient + 0.0 is what the chain's three zero-filled
    narrow cotangents sum to: the sum turns -0.0 into +0.0.
    """
    w = weights.data
    parts = (x_d, x_c, x_l)
    out = w[..., 0:1] * x_d.data
    out += w[..., 1:2] * x_c.data
    out += w[..., 2:3] * x_l.data

    def vjp(g):
        gw = None
        if weights.requires_grad:
            gw = np.empty_like(w)
            for j, x in enumerate(parts):
                gw[..., j:j + 1] = _unbroadcast(g * x.data, w[..., j:j + 1].shape)
            np.add(gw, 0.0, out=gw)
        return (gw, *(g * w[..., j:j + 1] if x.requires_grad else None
                      for j, x in enumerate(parts)))

    # weights first: the walk then visits x_l's, x_c's and x_d's subgraphs
    # in the chain's order, so a node they share sums its cotangents alike
    return make_op(out, (weights, *parts), vjp)


class GnnLayer:
    """One stacked layer: the three physics modules plus their fusion head."""

    def __init__(self, dim: int, edge_in_dim: int, rng: np.random.Generator | None, name: str):
        self.diffusion = DiffusionModule(dim, rng, f"{name}.diffusion")
        self.convection = ConvectionModule(dim, edge_in_dim, rng, f"{name}.convection")
        self.local = LocalModule(dim, rng, f"{name}.local")
        self.fusion = FusionHead(dim, rng, f"{name}.fusion")

    def __call__(self, x: Tensor, e: Tensor, wiring: GraphWiring, rows=None) -> tuple:
        """(blended, fusion weights) on every node, or with rows only at
        those nodes; e as in ConvectionModule.nodes."""
        x_d = self.diffusion(x, wiring)
        x_c = self.convection.nodes(x, e, wiring, rows)
        x_l = self.local(x, wiring)
        if rows is not None:
            x_d, x_l = take(x_d, rows), take(x_l, rows)
        return self.fusion(x_d, x_c, x_l, wiring.groups)

    def share(self, h: Tensor, context: Tensor) -> SharedLayer0:
        """This layer's part that every target of a predictor call shares,
        as layer 0, from the embedded inputs h and the message
        pre-activations on the context rows (see ConvectionModule.share)."""
        h_c = self.convection.node_mlp(h)
        return SharedLayer0(self.diffusion.node_mlp(h), h_c, self.local.node_mlp(h),
                            *self.convection.share(h_c, context))

    def finish(self, shared: SharedLayer0, query: Tensor, wiring: GraphWiring) -> tuple:
        """(blended, fusion weights) on every node of the targets stacked in
        wiring, from the shared part, repeated per target, and their query rows."""
        x_d = self.diffusion.propagate(Tensor(np.tile(shared.h_d.data, (wiring.groups, 1, 1))), wiring)
        x_c = self.convection.finish(shared, query, wiring)
        x_l = self.local.propagate(Tensor(np.tile(shared.h_l.data, (wiring.groups, 1, 1))), wiring)
        return self.fusion(x_d, x_c, x_l, wiring.groups)

    def params(self):
        return (self.diffusion.params() + self.convection.params()
                + self.local.params() + self.fusion.params())


class PhysicsGnn:
    """Input embedding, the stacked physics layers, and the scalar head.

    Construction is a pure function of (config, seed): the parameter count
    and every initial value are reproducible. With seed None nothing is
    drawn: every param is unfilled (autodiff.init_param), with its name
    and shape but no values and no grad buffer, for load_params to fill
    from a checkpoint, as training.load_trained does. Node count is a
    property of the wiring passed to forward, never of the model.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        self.config = config
        rng = None if seed is None else np.random.default_rng(
            np.random.SeedSequence([0x9A1D, int(seed)]))
        d = config.hidden_dim
        self.input_embed = Mlp(config.input_dim, d, rng, "input_embed")
        self.layers = []
        for k in range(config.n_layers):
            edge_in = 3 if k == 0 else d
            self.layers.append(GnnLayer(d, edge_in, rng, f"layer{k}"))
        self.output_head = Mlp(d, 1, rng, "output_head")

    def edge_path(self, feats) -> tuple:
        """The edge side of layers 0..L-2 over wind triples (..., 3): a
        batch's (B, E, 3), or a flat (R, 3) table of edge rows.

        Returns (pre, e): pre[k] is layer k's _message_pre(e_k, w), and e
        the edge features that enter the last layer. Each output row
        depends on its input row alone.
        """
        e = feats if isinstance(feats, Tensor) else Tensor(feats)
        pre = []
        for layer in self.layers[:-1]:
            # e_{k-1} is free before pre_k is allocated, when nothing records
            e = layer.convection.edge_mlp(e)
            pre.append(layer.convection.message_pre(e))
        return pre, e

    def share_context(self, x, context_feats) -> tuple:
        """(layer0, context) of an EdgePath, shared by every target of a
        predictor call: x its (B, N, window+1) node inputs, N = C + 1, and
        context_feats the wind triples of the context graph's C(C-1)
        edges, (B, C(C-1), 3) or flattened to (B * C(C-1), 3).

        context holds layers 1..L-2's message pre-activations on those
        rows; layer 0's are finished, summed and dropped by GnnLayer.share.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        pre = self.edge_path(context_feats)[0]
        return self.layers[0].share(self.input_embed(x), pre.pop(0)), pre

    def forward(self, x, wiring: GraphWiring, conv_feats, masked_pos=None,
                edges: EdgePath | None = None) -> Tensor:
        """Predict one scalar per node, or only at each sample's masked node.

        x: (B, N, window+1) array or Tensor; conv_feats: (B, E, 3) wind
        triples, one row per edge per sample. Returns (B, N, 1), or with
        masked_pos (an int or a (B,) int array of node positions) the (B,)
        predictions at those nodes. Then the last layer computes only the
        rows the caller reads: its convection runs over the N-1 edges into
        each masked node instead of all N(N-1), and its diffusion and local
        modules, node-sized, run on every node and keep the masked row.
        The layers before it run in full, since the masked node's
        prediction reads every node through them.

        Without edges, each layer runs its edge MLP, over every edge, just
        before its node step, and one op forms, finishes and sums a full
        layer's messages (_edge_messages); with edges, layer 0 runs
        ConvectionModule.share/finish and layers 1..L-2
        ConvectionModule.stacked instead.
        edges replaces conv_feats (pass None) with the edge side
        computed ahead; it needs masked_pos = N-1 and
        no_record(), since its rows are constants. Its layer0 must come
        from the same x: layer 0 then finishes only the query rows.
        With edges, wiring may stack G targets' wirings (GraphWiring.stack)
        in the order of edges' query rows: the forward then predicts their
        G·B samples, target-major, (G·B,), as the module docstring says.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        groups = wiring.groups
        if x.ndim != 3 or x.shape[1] != wiring.n_nodes:
            raise ShapeError(f"inputs {x.shape} do not match graph with {wiring.n_nodes} nodes")
        if x.shape[2] != self.config.input_dim:
            raise ShapeError(f"inputs have {x.shape[2]} features, model expects {self.config.input_dim}")
        if edges is None:
            edge_feats = conv_feats if isinstance(conv_feats, Tensor) else Tensor(conv_feats)
            if edge_feats.ndim != 3 or edge_feats.shape[1] != wiring.n_edges or edge_feats.shape[2] != 3:
                raise ShapeError(f"conv features {edge_feats.shape} do not match {wiring.n_edges} edges")
        elif conv_feats is not None or np.any(np.asarray(masked_pos) != wiring.n_nodes - 1):
            raise ValidationError("a precomputed edge path replaces conv_feats and needs "
                                  f"masked_pos = {wiring.n_nodes - 1}, the last node")
        elif len(edges.query) != len(self.layers) - 1:
            raise ShapeError(f"edge path has {len(edges.query)} layers, "
                             f"expected {len(self.layers) - 1}")
        elif is_recording():
            raise ValidationError("a precomputed edge path is inference-only: the edge MLPs "
                                  "would get no gradient; run the forward inside autodiff.no_record()")

        bsz, n = x.shape[0], wiring.n_nodes
        rows = None
        if masked_pos is not None:
            try:
                rows = np.broadcast_to(np.asarray(masked_pos), (bsz,))[:, None]
            except ValueError:
                raise ShapeError(f"masked_pos {np.shape(masked_pos)} does not match batch {bsz}") from None
            if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
                raise ValidationError(f"masked_pos must be node positions in [0, {n}), got {masked_pos!r}")

        if edges is None:
            e = edge_feats
            h = self.input_embed(x)
            # a layer's edge MLP just before its node step: the message op
            # drops its buffer before the next layer's is allocated
            for layer in self.layers[:-1]:
                e = layer.convection.edge_mlp(e)
                h, _ = layer(h, e, wiring)
            last = e if rows is None else take(e, _incoming(rows, n))
        else:
            rows = np.tile(rows, (groups, 1))
            last = Tensor(edges.query_last.data.reshape(groups * bsz, 2 * (n - 1), -1)[:, n - 1:])
            h, _ = self.layers[0].finish(edges.layer0, edges.query[0], wiring)
            for k, layer in enumerate(self.layers[1:-1], start=1):
                x_c = layer.convection.stacked(h, edges, k, wiring)
                h, _ = layer.fusion(layer.diffusion(h, wiring), x_c, layer.local(h, wiring), groups)
        e = self.layers[-1].convection.edge_mlp(last, groups)
        h, _ = self.layers[-1](h, e, wiring, rows)
        out = self.output_head(h, groups)
        return out if rows is None else reshape(out, (len(rows),))

    def params(self) -> list:
        out = self.input_embed.params()
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.output_head.params())
        return out
