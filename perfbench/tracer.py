"""Spans recorded from outside physair, around calls into its modules.

A span is (id, parent id, name, start, end, phase, attrs). Spans stay in
memory and are written out once, when the run ends. The wrappers are
installed on the module attribute that the *calling* module looks up:
``from .geo import build_graph`` binds a separate name in training and in
evaluation, so each binding is wrapped on its own.

Wrapper health is part of the contract: installing a wrapper on a name
that no longer exists raises WrapperError, and so does a wrapper that
never fired on a workload that must reach it. A refactor that removes or
bypasses a traced path therefore fails the traced run instead of
reporting a per-layer zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import logging
import os
import time


class WrapperError(RuntimeError):
    """A traced name is gone, or a wrapper never fired where it must."""


TRAIN, EVALUATE, INTERPOLATE, BASELINES = "train", "evaluate", "interpolate", "baselines"
ALL = (TRAIN, EVALUATE, INTERPOLATE, BASELINES)


def _rows(args, kwargs, result):
    # PhysicsGnn.forward(self, x, wiring, conv_feats): rows = batch size
    return {"rows": int(result.shape[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _checkpoint(args, kwargs, result):
    # load_trained reads the manifest with load_arrays, then the values
    # with load_params; marking the second counts checkpoints
    return {"checkpoint": 1}


def _node_set(args, kwargs, result):
    return {"nodes": tuple((s.sensor_id, s.latitude, s.longitude) for s in result.sensors)}


def _lambda_max(args, kwargs, result):
    # scaled_laplacian returns (L, lambda_max, L_D); 2.0 is its fallback bound
    return {"fallback": result[1] == 2.0}


def _sim_hours(args, kwargs, result):
    return {"hours": int(result.spec.hours)}


# (owner, attribute, span name, attrs hook, workloads on which it must fire).
# The owner is the module whose code calls the name, or the class that
# defines the method.
WRAPS = (
    ("physair.autodiff:Tensor", "backward", "autodiff.backward", None, (TRAIN,)),
    ("physair.autodiff:Adam", "step", "autodiff.adam_step", None, (TRAIN,)),
    ("physair.training", "save_params", "autodiff.checkpoint_write", _written_bytes, (TRAIN,)),
    ("physair.training", "save_arrays", "autodiff.checkpoint_write", _written_bytes, (TRAIN,)),
    ("physair.training", "load_arrays", "autodiff.checkpoint_load", None, (EVALUATE, INTERPOLATE)),
    ("physair.training", "load_params", "autodiff.checkpoint_load", _checkpoint, (EVALUATE, INTERPOLATE)),
    ("physair.model:PhysicsGnn", "forward", "model.forward", _rows, (TRAIN, EVALUATE, INTERPOLATE)),
    ("physair.training", "build_node_inputs", "training.batch_build", None, (TRAIN, EVALUATE)),
    ("physair.training", "hourly_conv_features", "training.batch_build", None, (TRAIN, EVALUATE)),
    ("physair.training", "validation_mse", "training.validation", None, (TRAIN,)),
    ("physair.training", "evaluate_target_sensor", "training.evaluate_target_sensor", None, (TRAIN,)),
    ("physair.evaluation", "evaluate_target_sensor", "training.evaluate_target_sensor", None, (EVALUATE,)),
    ("physair.training", "build_graph", "geo.build_graph", _node_set, (TRAIN, EVALUATE)),
    ("physair.evaluation", "build_graph", "geo.build_graph", _node_set, (INTERPOLATE,)),
    ("physair.model:GraphWiring", "__init__", "geo.wiring", None, (TRAIN, EVALUATE, INTERPOLATE)),
    ("physair.geo", "scaled_laplacian", "geo.scaled_laplacian", _lambda_max, (TRAIN, EVALUATE, INTERPOLATE)),
    ("physair.training", "convection_edge_features", "geo.conv_features", None, (TRAIN, EVALUATE, INTERPOLATE)),
    ("physair.evaluation", "density_removal", "evaluation.density_cell", None, (EVALUATE, BASELINES)),
    ("physair.evaluation", "evaluate_models", "evaluation.density_evaluate", None, (EVALUATE, BASELINES)),
    ("physair.evaluation", "select_gp_hyperparameters", "baselines.gp_select", None, (EVALUATE, BASELINES)),
    ("physair.baselines:MeanFill", "fit", "baselines.mean_fill.fit", None, (EVALUATE, BASELINES)),
    ("physair.baselines:MeanFill", "predict", "baselines.mean_fill.predict", None, (EVALUATE, BASELINES)),
    ("physair.baselines:Idw", "fit", "baselines.idw.fit", None, (EVALUATE, BASELINES)),
    ("physair.baselines:Idw", "predict", "baselines.idw.predict", None, (EVALUATE, BASELINES)),
    ("physair.baselines:OrdinaryKriging", "fit", "baselines.kriging.fit", None, (EVALUATE, BASELINES)),
    ("physair.baselines:OrdinaryKriging", "predict", "baselines.kriging.predict", None, (EVALUATE, BASELINES)),
    ("physair.baselines:GaussianProcess", "fit", "baselines.gp.fit", None, (EVALUATE, BASELINES)),
    ("physair.baselines:GaussianProcess", "predict", "baselines.gp.predict", None, (EVALUATE, BASELINES)),
    ("physair.simulate", "simulate_field", "simulate.simulate_field", _sim_hours, ALL),
    ("physair.cli", "load_dataset", "data.load", None, (INTERPOLATE,)),
    ("physair.cli", "cmd_interpolate", "cli.interpolate", None, (INTERPOLATE,)),
    ("physair.cli", "_load_ensemble", "cli.load_ensemble", None, (INTERPOLATE,)),
    ("physair.cli", "infer_at_location", "cli.infer_at_location", None, (INTERPOLATE,)),
)


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise WrapperError(f"module {module_name} is gone: {exc}") from None
    if not cls:
        return module
    if not hasattr(module, cls):
        raise WrapperError(f"{module_name}.{cls} is gone")
    return getattr(module, cls)


class FallbackCounter(logging.Handler):
    """Counts the kriging -> IDW fallback warnings, per tracer phase."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer
        self.counts = {}

    def emit(self, record):
        if "falling back" in record.getMessage():
            phase = self.tracer.phase
            self.counts[phase] = self.counts.get(phase, 0) + 1


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.phase = "setup"
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)
        self.fired = {}  # "owner.attr" -> calls through that wrapper
        self.fallbacks = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block; the yielded dict becomes the span's attrs."""
        if not self.enabled:
            yield attrs
            return
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.phase, attrs))

    def _wrap(self, key, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.fired[key] += 1
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
            if hook:  # the span holds this dict, so the hook's attrs land in it
                attrs.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every name in WRAPS; a missing name raises WrapperError."""
        for owner, attr, name, hook, _ in WRAPS:
            target = _resolve(owner)
            if not hasattr(target, attr):
                raise WrapperError(f"{owner}.{attr} is gone; span {name!r} cannot be recorded")
            key = f"{owner}.{attr}"
            self.fired[key] = 0
            setattr(target, attr, self._wrap(key, name, getattr(target, attr), hook))
        self.fallbacks = FallbackCounter(self)
        logging.getLogger("physair.baselines").addHandler(self.fallbacks)

    def check_fired(self, workload: str) -> dict:
        """Calls per wrapper; raises if one this workload must reach never fired."""
        silent = [f"{owner}.{attr}" for owner, attr, _, _, must in WRAPS
                  if workload in must and self.fired.get(f"{owner}.{attr}", 0) == 0]
        if silent:
            raise WrapperError(f"wrappers never fired on {workload}: {', '.join(silent)}")
        return dict(self.fired)

    def write(self, path):
        """Write every span as one JSON line, after the run has ended."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, phase, attrs in self.spans:
                row = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1, "phase": phase}
                if attrs:
                    row["attrs"] = {k: v for k, v in attrs.items() if k != "nodes"}
                fh.write(json.dumps(row) + "\n")
