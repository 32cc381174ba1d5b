"""Per-layer metrics computed from the spans of one traced run.

Conventions, so a value means the same thing on every workload:

* ``*.ms``, ``*.self_ms``, ``*_us``: mean per call of the named span.
  Self time is the span's duration minus the time its direct children
  cover.
* ``*.calls`` and counts: per workload op (one epoch on train, one cycle
  of the timed loop on the other workloads; see workloads.py).
* ``geo.graph_reuse_ratio``: distinct node sets over graphs built, within
  one cycle, averaged over cycles.
* Spans of the timed phase feed every metric except the set-up ones
  (simulate, data, checkpoint load, GP selection), which also read the
  set-up phase.
* A layer the workload does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.child_time = defaultdict(float)
        for s in spans:
            if s[1]:
                self.child_time[s[1]] += s[4] - s[3]

    def select(self, name, phases=("timed",)):
        return [s for s in self.spans if s[2] == name and s[5] in phases]

    def root(self, span):
        """The outermost span enclosing span: its cycle, in the timed phase."""
        while span[1] in self.by_id:
            span = self.by_id[span[1]]
        return span[0]

    def under(self, span, name) -> bool:
        """True when some ancestor of span is called name."""
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def total(self, spans) -> float:
        return sum(s[4] - s[3] for s in spans)

    def self_total(self, spans) -> float:
        return sum(s[4] - s[3] - self.child_time[s[0]] for s in spans)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, cycles: int, fallbacks: dict) -> dict:
    """name -> (value, unit) for every span-derived per-layer metric."""
    ix = SpanIndex(spans)
    out = {}
    train_calls = ix.select("training.train_model")
    epochs = sum(s[6]["epochs"] for s in train_calls)
    steps = len(ix.select("autodiff.adam_step"))
    ops = epochs or cycles

    def per_call(metric, name, unit="ms", scale=1e3, phases=("timed",), self_time=False):
        sel = ix.select(name, phases)
        total = ix.self_total(sel) if self_time else ix.total(sel)
        out[metric] = (_mean(total * scale, len(sel)), unit)

    def per_op(metric, count, unit="count/op"):
        out[metric] = (_mean(count, ops), unit)

    # autodiff
    per_call("autodiff.backward.self_ms", "autodiff.backward", self_time=True)
    per_call("autodiff.adam_step.self_ms", "autodiff.adam_step", self_time=True)
    writes = ix.select("autodiff.checkpoint_write")
    out["autodiff.checkpoint_write.ms"] = (_mean(ix.total(writes) * 1e3, epochs), "ms/epoch")
    out["autodiff.checkpoint_write.bytes"] = (
        _mean(sum(s[6]["bytes"] for s in writes), epochs), "B/epoch")
    loads = ix.select("autodiff.checkpoint_load", ("setup", "timed"))
    n_ckpt = sum(1 for s in loads if s[6].get("checkpoint"))
    out["autodiff.checkpoint_load.ms"] = (_mean(ix.total(loads) * 1e3, n_ckpt), "ms")

    # model
    forwards = ix.select("model.forward")
    per_op("model.forward.calls", len(forwards))
    out["model.forward.rows_mean"] = (
        _mean(sum(s[6]["rows"] for s in forwards), len(forwards)), "rows")
    per_call("model.forward.self_ms", "model.forward", self_time=True)

    # training
    builds = [s for s in ix.select("training.batch_build")
              if not ix.under(s, "training.validation")]
    out["training.batch_build.ms"] = (_mean(ix.total(builds) * 1e3, steps), "ms/step")
    validation = ix.select("training.validation")
    loop = (ix.total(train_calls) - ix.total(validation)
            - ix.total([s for s in writes if ix.under(s, "training.train_model")]))
    out["training.step.ms"] = (_mean(loop * 1e3, steps), "ms/step")
    out["training.validation.s"] = (_mean(ix.total(validation), epochs), "s/epoch")
    out["training.validation.share"] = (
        _mean(ix.total(validation), ix.total(train_calls)), "ratio")
    targets = ix.select("training.evaluate_target_sensor")
    per_op("training.evaluate_target_sensor.calls", len(targets))
    per_call("training.evaluate_target_sensor.ms", "training.evaluate_target_sensor")

    # geo
    graphs = ix.select("geo.build_graph")
    per_op("geo.build_graph.calls", len(graphs))
    per_call("geo.build_graph.ms", "geo.build_graph")
    per_call("geo.wiring.ms", "geo.wiring")
    per_call("geo.scaled_laplacian.ms", "geo.scaled_laplacian")
    per_call("geo.conv_features.ms", "geo.conv_features")
    by_cycle = defaultdict(list)
    for s in graphs:
        by_cycle[ix.root(s)].append(s[6]["nodes"])
    out["geo.graph_reuse_ratio"] = (_mean(
        sum(len(set(nodes)) / len(nodes) for nodes in by_cycle.values()), len(by_cycle)),
        "ratio")
    per_op("geo.laplacian_fallbacks",
           sum(1 for s in ix.select("geo.scaled_laplacian") if s[6]["fallback"]))

    # evaluation
    for runner in ("gnn", "mean_fill", "idw", "kriging", "gp"):
        sel = ix.select(f"evaluation.runner.{runner}")
        out[f"evaluation.runner.{runner}.s"] = (_mean(ix.total(sel), ops), "s/op")
    sweeps = len(ix.select("evaluation.density_experiment"))
    out["evaluation.density.cells_evaluated"] = (
        _mean(len(ix.select("evaluation.density_evaluate")), sweeps), "count/sweep")
    out["evaluation.density.cells_total"] = (
        _mean(len(ix.select("evaluation.density_cell")), sweeps), "count/sweep")

    # baselines
    for model in ("mean_fill", "idw", "kriging", "gp"):
        per_call(f"baselines.{model}.fit_us", f"baselines.{model}.fit", unit="us", scale=1e6)
        per_call(f"baselines.{model}.predict_us", f"baselines.{model}.predict", unit="us", scale=1e6)
    per_call("baselines.gp_select.s", "baselines.gp_select", unit="s", scale=1.0,
             phases=("setup", "timed"))
    per_op("baselines.kriging_fallbacks", fallbacks.get("timed", 0))

    # simulate, data
    sims = ix.select("simulate.simulate_field", ("setup",))
    out["simulate.hours_per_s"] = (
        _mean(sum(s[6]["hours"] for s in sims), ix.total(sims)), "hours/s")
    per_call("data.export.ms", "data.export", phases=("setup",))
    per_call("data.load.ms", "data.load", phases=("setup", "timed"))

    # cli
    per_call("cli.interpolate.self_ms", "cli.interpolate", self_time=True)
    per_call("cli.load_ensemble.ms", "cli.load_ensemble")
    return out
