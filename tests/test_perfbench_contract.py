"""The names and call shapes through which the benchmark reaches physair.

perfbench/ is frozen: it wraps physair names for its traced runs and
calls physair functions in fixed shapes. A change under src/ that breaks
one of them would otherwise show only when the benchmark runs. These
checks read perfbench's own files and change none of them; they install
no perfbench wrapper, only monkeypatched counters of their own.
"""

import functools
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import physair
from physair import cli, evaluation, geo, model
from physair.autodiff import save_params
from physair.data import load_dataset
from physair.evaluation import benchmark_runners, density_experiment, evaluate_models
from physair.geo import SensorMeta, build_graph
from physair.model import GraphWiring, ModelConfig, PhysicsGnn
from physair.training import (Normalizer, SensorSplit, TrainConfig, load_trained, make_split,
                              train_ensemble)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py run as a module of its own, writing no bytecode
    cache next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracer():
    return perfbench_module("tracer")


@pytest.fixture(scope="module")
def kernels():
    return perfbench_module("kernels")


def tiny_model():
    return PhysicsGnn(ModelConfig(preset=None, n_layers=2, hidden_dim=4), seed=0)


def tiny_wiring(n):
    return GraphWiring(build_graph([SensorMeta(f"s{i}", 36.0 + 0.01 * i, -120.0 + 0.02 * i)
                                    for i in range(n)]))


def test_every_traced_name_resolves(tracer):
    for owner, attr, span, _, _ in tracer.WRAPS:
        target = tracer._resolve(owner)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr} ({span}) is gone"


def test_the_laplacian_hook_reads_scaled_laplacians_result(tracer):
    result = geo.scaled_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert len(result) == 3
    assert tracer._lambda_max((), {}, result) == {"fallback": True}


def test_the_kernel_probes_run_on_a_small_model(kernels):
    # the layer calls the probes time: (w, b, act) triples of the message and
    # edge MLPs, layer.diffusion, conv(x, edges, wiring), layer.local,
    # layer.fusion, and _convection_messages with six positional arguments
    assert kernels._convection_messages is model._convection_messages
    inspect.signature(model._convection_messages).bind(*range(6))
    w, b, act = tiny_model().layers[1].convection.message_mlp.layers[0]
    assert act == "relu"
    shapes = {"train": (tiny_wiring(3), 2), "infer": (tiny_wiring(4), 2)}
    out = kernels.module_timings(tiny_model(), shapes, seed=0, reps=1)
    assert all(np.isfinite(value) for value, _ in out.values())
    assert "model.convection.messages.infer.bwd_ms" in out


def test_the_workload_call_shapes_bind():
    inspect.signature(physair.infer_at_location).bind(
        "models", "normalizer", "dataset", "ids", 36.0, -120.0, hours=[0])
    inspect.signature(physair.benchmark_runners).bind("dataset", "ids")
    inspect.signature(physair.benchmark_runners).bind(
        "dataset", "ids", models=[], normalizer=None)
    inspect.signature(physair.density_experiment).bind(
        "dataset", "ids", "targets", "runners", hours=[0])
    # the configs that workloads.py builds, each in the shape it builds it
    inspect.signature(physair.TrainConfig).bind(max_epochs=2, val_hour_stride=4, seed=0)
    inspect.signature(physair.ModelConfig).bind(preset="S")
    inspect.signature(physair.ModelConfig).bind(preset=None, n_layers=2, hidden_dim=8)


def test_load_trained_returns_the_four_parts(tmp_path):
    net = tiny_model()
    split = SensorSplit(train=("a", "b"), val=("c",), test=("d",), seed=0)
    path = tmp_path / "best.ckpt"
    save_params(str(path), net.params(), extra={
        "model_config": net.config.to_dict(), "normalizer": Normalizer(1.0, 2.0).to_dict(),
        "split": split.to_dict(), "train_config": {"seed": 0}})
    loaded, normalizer, got_split, extra = load_trained(path)
    assert isinstance(loaded, PhysicsGnn) and normalizer == Normalizer(1.0, 2.0)
    assert got_split.to_dict() == split.to_dict() and extra["train_config"] == {"seed": 0}


def test_every_train_interpolate_and_evaluate_wrapper_fires(tracer, tmp_path, monkeypatch,
                                                            capsys):
    # a tiny version of the three workloads: every name that WRAPS says must
    # fire on train, interpolate or evaluate is counted where the tracer would
    # wrap it, so a refactor that bypasses one fails here, not only in a
    # traced run
    rows = [(owner, attr) for owner, attr, _, _, must in tracer.WRAPS
            if tracer.TRAIN in must or tracer.INTERPOLATE in must or tracer.EVALUATE in must]
    fired = dict.fromkeys(rows, 0)

    def counted(key, real):
        @functools.wraps(real)
        def spy(*args, **kwargs):
            fired[key] += 1
            return real(*args, **kwargs)
        return spy

    for owner, attr in rows:
        target = tracer._resolve(owner)
        monkeypatch.setattr(target, attr, counted((owner, attr), getattr(target, attr)))

    data, runs = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--out", str(data), "--hours", "8", "--n-sensors", "8",
                     "--height", "12", "--width", "12", "--seed", "3"]) == 0
    capsys.readouterr()
    dataset = load_dataset(data)
    split = make_split(dataset.sensor_ids(), seed=0)
    train_ensemble(dataset, split, ModelConfig(preset=None, n_layers=2, hidden_dim=4),
                   TrainConfig(batch_size=8, max_epochs=1), runs, seeds=(0, 1))
    lat = sorted(s.latitude for s in dataset.sensors)
    lon = sorted(s.longitude for s in dataset.sensors)
    assert cli.main(["interpolate", "--dataset", str(data), "--models", str(runs),
                     f"--grid-lat={lat[1]!r}:{lat[-2]!r}:2", f"--grid-lon={lon[1]!r}:{lon[-2]!r}:2",
                     "--hours", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4

    models = [load_trained(runs / f"seed{k}" / "best.ckpt")[0] for k in (0, 1)]
    normalizer = load_trained(runs / "seed0" / "best.ckpt")[1]
    runners = benchmark_runners(dataset, split.train, models=models, normalizer=normalizer)
    evaluate_models(dataset, split.train, split.test, runners, hours=[0, 1])
    monkeypatch.setattr(evaluation, "DENSITY_FRACTIONS", (0.0, 0.4))
    monkeypatch.setattr(evaluation, "DENSITY_SEED_COUNT", 1)
    density_experiment(dataset, split.train, split.test, runners, hours=[0, 1])
    assert [key for key, calls in fired.items() if not calls] == []
