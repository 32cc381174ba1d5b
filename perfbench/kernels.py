"""Per-module forward/backward timings on fixed inputs, and kernel facts.

Each physics module of layer 1 (the first layer whose edge features are
hidden_dim wide) runs on seeded random inputs at two shapes: the train
shape (B=32 rows on the 27-node train graph) and the inference shape
(B=64 rows on the 28-node graph that adds one held-out sensor). Times
are medians over repeats, in milliseconds.

Bytes and flops for the convection edge path are computed from array
shapes (compulsory traffic: read the input and weights once, write the
output once); they are not measured. No achieved-bandwidth ratio is
reported: a valid bandwidth probe needs arrays of at least four times
the last-level cache, which on the reference machine (300 MB LLC) means
over 1.2 GB per array, too much for an 8 GB machine shared with others.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from physair.autodiff import Param, Tensor, mul, tsum
from physair.model import _convection_messages

BYTES_PER_FLOAT = 8


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def _time_fwd_bwd(forward, cotangent_seed: int, reps: int):
    """Median forward and backward ms of forward(); backward of sum(out * g)."""
    fwd, bwd = [], []
    g = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = forward()
        t1 = time.perf_counter()
        if g is None:
            g = Tensor(np.random.default_rng(cotangent_seed).standard_normal(out.shape))
        loss = tsum(mul(out, g))
        t2 = time.perf_counter()
        loss.backward()
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return _median_ms(fwd), _median_ms(bwd)


def module_timings(model, shapes, seed: int, reps: int) -> dict:
    """name -> (value, unit) for every module and convection-kernel metric.

    shapes maps a label ("train", "infer") to (wiring, batch rows).
    """
    layer = model.layers[1]
    conv = layer.convection
    dim = model.config.hidden_dim
    out = {}
    for label, (wiring, rows) in shapes.items():
        n, e = wiring.n_nodes, wiring.n_edges
        rng = np.random.default_rng([seed, rows, n])
        x = Param(rng.standard_normal((rows, n, dim)), name="x")
        x_c = Param(rng.standard_normal((rows, n, dim)), name="x_c")
        x_l = Param(rng.standard_normal((rows, n, dim)), name="x_l")
        edges = Param(rng.standard_normal((rows, e, dim)), name="edges")
        cases = {
            "diffusion": lambda: layer.diffusion(x, wiring),
            "convection": lambda: conv(x, edges, wiring)[0],
            "local": lambda: layer.local(x, wiring),
            "fusion": lambda: layer.fusion(x, x_c, x_l)[0],
        }
        for name, forward in cases.items():
            fwd, bwd = _time_fwd_bwd(forward, seed, reps)
            out[f"model.{name}.{label}.fwd_ms"] = (fwd, "ms")
            out[f"model.{name}.{label}.bwd_ms"] = (bwd, "ms")

        w, b, act = conv.message_mlp.layers[0]
        fwd, bwd = _time_fwd_bwd(
            lambda: _convection_messages(x, edges, w, b, wiring, act), seed, reps)
        out[f"model.convection.messages.{label}.fwd_ms"] = (fwd, "ms")
        out[f"model.convection.messages.{label}.bwd_ms"] = (bwd, "ms")

        # the d -> d edge_mlp against the raw GEMM of the same
        # (rows*E, dim) x (dim, dim) shape, written into a reused buffer
        edge_mlp = conv.edge_mlp
        edge_mlp_ms = _median_ms(_repeat(lambda: edge_mlp(edges), reps))
        a = edges.data.reshape(-1, dim)
        weight = edge_mlp.layers[0][0].data
        buf = np.empty((a.shape[0], dim))
        gemm_ms = _median_ms(_repeat(lambda: np.matmul(a, weight, out=buf), reps))
        edge_rows = rows * e
        flops = 2.0 * edge_rows * dim * dim + 2.0 * edge_rows * dim  # matmul, bias, relu
        nbytes = BYTES_PER_FLOAT * (2 * edge_rows * dim + dim * dim + dim)
        out[f"model.convection.edge_mlp.{label}.fwd_ms"] = (edge_mlp_ms, "ms")
        out[f"model.convection.gemm_floor.{label}.ms"] = (gemm_ms, "ms")
        out[f"model.convection.edge_mlp_over_gemm.{label}"] = (edge_mlp_ms / gemm_ms, "ratio")
        out[f"model.convection.edge_bytes.{label}"] = (nbytes, "B")
        out[f"model.convection.edge_flops.{label}"] = (flops, "flop")
        out[f"model.convection.ops_per_byte.{label}"] = (flops / nbytes, "flop/B")
    return out


def _repeat(fn, reps):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def tape_bytes(out: Tensor, params) -> int:
    """Bytes of arrays reachable from out's autodiff record.

    Walks parents and the arrays captured by each node's VJP closure,
    counting every distinct underlying buffer once. Model weights are not
    tape and are left out.
    """
    weights = {id(p.data) for p in params}
    seen_nodes, seen_buffers = set(), set()
    total = 0
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        arrays = [] if isinstance(node, Param) else [node.data]
        closure = node._vjp.__closure__ if node._vjp is not None else None
        for cell in closure or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, Tensor):
                stack.append(value)
        for array in arrays:
            base = array
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in seen_buffers and id(base) not in weights:
                seen_buffers.add(id(base))
                total += base.nbytes
        stack.extend(node._parents)
    return total
