"""One workload in one fresh process: set up, run the timed loop, report.

run.py starts this script; it is not meant to be run by hand. It prints
one JSON object as its last stdout line. ``--mode setup`` stops after
set-up (setup_s is a median over several processes), ``--mode
reference`` runs one cycle and prints the values the correctness check
compares against, and ``--trace 1`` installs the span wrappers before
anything else runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


def blas_facts() -> dict:
    """BLAS library, version and the thread count it reports, where it can say."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                facts["threads"] = fn()
                return facts
    facts["threads"] = "unknown: no OpenBLAS thread query found"
    return facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tier", default="full")
    p.add_argument("--mode", choices=("run", "setup", "reference"), default="run")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    from tracer import Tracer  # noqa: E402  (needs the path above)

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    if args.trace:
        tracer.install()

    import numpy as np  # noqa: E402
    import workloads  # noqa: E402

    tier = workloads.TIERS[args.tier]
    reference = None
    if args.mode == "run":
        stored = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        reference = stored["values"].get(args.tier, {}).get(args.workload, {}).get(str(args.seed))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    run = workloads.Run(args.seed, tier, work, tracer, reference)
    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.setup(run)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.mode == "reference":
            wl.cycle(run)
            print(json.dumps({"reference": wl.values}))
            return 0

        tracer.phase = "timed"
        started = time.perf_counter()
        cycles = 0
        while cycles < wl.min_cycles or time.perf_counter() - started < args.seconds:
            with tracer.span("cycle"):
                wl.cycle(run)
            cycles += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work_per_s, ops, named, wl_facts = wl.results()
        result = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": work_per_s,
            "op_p50_ms": workloads.percentile(ops, 50),
            "op_p90_ms": workloads.percentile(ops, 90),
            "op_samples": len(ops),
            "cycles": cycles,
            "attempted": run.attempted,
            "failed": run.failed,
            "checks": run.checks,
            "named": named,
            "facts": {**wl_facts, "reason": wl.reason, "e2e_meaning": wl.e2e_meaning,
                      "blas": blas_facts(), "numpy": np.__version__,
                      "reference_stored": reference is not None},
        }
        if args.trace:
            result["layers"], result["wrapper_calls"] = traced_layers(
                args, run, wl, tracer, cycles)
            trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            result["facts"]["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_layers(args, run, wl, tracer, cycles):
    """Per-layer metrics of a traced run, plus the fixed-input module timings."""
    import numpy as np

    import kernels
    import layers
    import physair as pa
    from physair.model import GraphWiring
    from physair.training import graph_for_ids, hourly_conv_features

    calls = tracer.check_fired(args.workload)
    out = layers.layer_metrics(tracer.spans, cycles, tracer.fallbacks.counts)

    tracer.enabled = False  # fixed-input timings are not part of the span record
    dataset, split = wl.dataset, wl.split
    train_graph = graph_for_ids(dataset, split.train)
    infer_graph = graph_for_ids(dataset, split.train + split.test[:1])
    infer_wiring = GraphWiring(infer_graph)
    shapes = {"train": (GraphWiring(train_graph), 32), "infer": (infer_wiring, 64)}
    model = pa.PhysicsGnn(run.tier.model, seed=args.seed)
    out.update(kernels.module_timings(model, shapes, args.seed, run.tier.kernel_reps))

    hours = np.arange(64) % dataset.hours
    x = np.random.default_rng(args.seed).standard_normal((64, infer_wiring.n_nodes, 2))
    conv = hourly_conv_features(infer_graph, dataset, hours)
    tape = model.forward(x, infer_wiring, conv)
    out["autodiff.infer_tape_bytes"] = (kernels.tape_bytes(tape, model.params()), "B")
    return out, calls


if __name__ == "__main__":
    sys.exit(main())
