"""The physair benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {train,evaluate,interpolate,baselines}
        --seed N --seconds S --trace {0,1} [--tier {full,short}]

Run it from the root of a checkout; physair is imported from ``src/``.
Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS pinned to one thread, so set-up time and peak RSS belong to it.

``--trace 0`` prints the end-to-end metrics. setup_s is the median of
several set-ups, each in its own process and timed from process start
to the first timed operation.

``--trace 1`` runs the workload twice, untraced and traced, and prints
the per-layer metrics of the traced run plus, for every end-to-end
metric, the tracing overhead (traced minus untraced value).

The last stdout line is the result JSON; the line before it holds the
run's facts (machine, seed, check details, sample counts, named metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("train", "evaluate", "interpolate", "baselines")
DEADLINE_S = 170.0          # a run, all workers included, ends within 180 s
SETUPS = {"full": 3, "short": 1}
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "op_p50_ms": "ms"}
BLAS_THREADS = "1"          # at or below nproc; one thread keeps a shared box steady
KERNEL_NOTE = ("convection edge bytes and flops are computed from array shapes, not "
               "measured. No bandwidth ratio: a valid probe needs arrays of at least 4x "
               "the LLC ({llc}), over {probe} each, which does not fit an 8 GB shared machine.")


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, trace: int, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--tier", args.tier, "--mode", mode, "--t0", repr(time.monotonic())]
    # its own session, so a timeout also stops the checkpoint trainer it spawns
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(ROOT / ".perfbench" / f"work-{proc.pid}", ignore_errors=True)
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[_read(index / "level")] = _read(index / "size")
    llc = caches[max(caches)] if caches else "unknown"
    commit = ""
    if (ROOT / ".git").exists():  # not an enclosing repository's commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "physair").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "llc": llc, "python": platform.python_version(),
            "blas_threads_set": BLAS_THREADS,
            "git_commit": commit or "unavailable: not a git checkout",
            "src_sha256": src.hexdigest()}


def _llc_probe(llc: str) -> str:
    if llc.endswith("K") and llc[:-1].isdigit():
        return f"{4 * int(llc[:-1]) / 1024 / 1024:.1f} GB"
    return "4x LLC"


def failing_checks(worker: dict) -> list:
    return sorted(name for name, rec in worker["checks"].items() if rec.get("failed", 0))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tier", choices=tuple(SETUPS), default="full")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "physair" / "__init__.py").is_file():
        print(f"perfbench: no physair sources under {ROOT / 'src'}; "
              "run from the root of a physair checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    machine = machine_facts()
    try:
        plain = spawn(args, "run", 0, deadline)
        workers = [plain]
        if args.trace:
            traced = spawn(args, "run", 1, deadline)
            workers.append(traced)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in sorted(traced["layers"].items())}
            for name, unit in E2E_UNITS.items():
                metrics[f"trace_overhead.{name}"] = {
                    "value": traced[name] - plain[name], "unit": unit}
        else:
            setups = [plain["setup_s"]] + [spawn(args, "setup", 0, deadline)["setup_s"]
                                           for _ in range(SETUPS[args.tier] - 1)]
            plain["setup_s"] = statistics.median(setups)
            plain["facts"]["setup_samples_s"] = setups
            metrics = {name: {"value": plain[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    bad_checks = sorted({c for w in workers for c in failing_checks(w)})
    facts = {
        "workload": args.workload, "seed": args.seed, "tier": args.tier,
        "seconds": args.seconds, "trace": args.trace,
        "reason": plain["facts"].pop("reason"), "e2e_meaning": plain["facts"].pop("e2e_meaning"),
        "machine": machine, "named": plain["named"],
        "failed_frac": failed / attempted if attempted else None,
        "op_samples": plain["op_samples"], "op_p90_ms": plain["op_p90_ms"],
        "cycles": plain["cycles"],
        "checks": plain["checks"], "failing_checks": bad_checks, "workload_facts": plain["facts"],
        "convection_kernel_note": KERNEL_NOTE.format(llc=machine["llc"],
                                                     probe=_llc_probe(machine["llc"])),
    }
    if args.trace:
        facts["traced_named"] = traced["named"]
        facts["wrapper_calls"] = traced["wrapper_calls"]
        facts["trace_file"] = traced["facts"]["trace_file"]
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": failed == 0 and not bad_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
