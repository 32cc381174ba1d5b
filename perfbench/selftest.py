"""Self-test of the benchmark on its short tier.

    python -m pytest perfbench/selftest.py -q

Every workload runs untraced and traced; the output must match the
metric names and units in BENCHMARK.json, pass its correctness checks,
and fire every span wrapper on at least one workload. The file is not
named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    """Run the benchmark command on the short tier; (exit code, facts, result)."""
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tier", "short"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode, None, lines
    return 0, json.loads(lines[-2])["facts"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_output_matches_declaration(workload):
    code, facts, result = bench(workload, 0)
    assert code == 0
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] != 0 for m in result["metrics"].values())
    assert facts["failing_checks"] == [] and facts["checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_output_matches_declaration(traced, workload):
    code, facts, result = traced[workload]
    assert code == 0
    _check_result(result, SPEC["per_layer"])


def test_every_wrapper_fires_on_some_workload(traced):
    fired = {name for _, facts, _ in traced.values()
             for name, calls in facts["wrapper_calls"].items() if calls}
    assert fired == {f"{owner}.{attr}" for owner, attr, _, _, _ in tracer.WRAPS}


def test_train_checkpoint_hash_repeats_across_runs():
    hashes = {bench("train", 0, seed=3)[1]["workload_facts"]["best_ckpt_sha256"]
              for _ in range(2)}
    assert len(hashes) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, lines = bench("train", 0, cwd=tmp_path)
    assert code != 0 and not lines


def test_missing_wrapped_name_is_an_error(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPS", (("physair.training", "no_such_function",
                                           "x", None, ("train",)),))
    with pytest.raises(tracer.WrapperError, match="no_such_function"):
        tracer.Tracer("t", enabled=True).install()


def test_silent_wrapper_is_an_error():
    with pytest.raises(tracer.WrapperError, match="never fired on train"):
        tracer.Tracer("t", enabled=True).check_fired("train")


def test_reference_mismatch_counts_as_failure():
    run = workloads.Run(0, workloads.TIERS["short"], ROOT, None, reference={"train_mse": [1.0]})
    assert run.reference_failures({"train_mse": [1.0 + 1e-6]}) == {"train_mse"}
    assert run.reference_failures({"train_mse": [1.0 + 1e-12]}) == set()
    assert run.checks["reference"] == {"passed": 1, "failed": 1,
                                       "first_failure": run.checks["reference"]["first_failure"]}


def test_reference_digest_sees_predictions_moved_to_another_target():
    import numpy as np

    import physair as pa

    preds = np.arange(6, dtype=float).reshape(2, 3)
    main = pa.EvalRun(label="test", context_ids=(), target_ids=("a", "b", "c"),
                      hours=np.arange(2), truths=preds + 1.0, sh=np.zeros(2),
                      predictions={"m": preds, "swapped": preds[:, ::-1]})
    kept, swapped = workloads.digest(main, "m"), workloads.digest(main, "swapped")
    assert kept[:4] == swapped[:4]  # the order-blind part cannot tell them apart
    assert not np.allclose(kept, swapped, rtol=workloads.RTOL, atol=workloads.ATOL)
