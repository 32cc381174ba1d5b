"""Record the values the benchmark's correctness checks compare against.

    python3 perfbench/make_reference.py --tier full --seeds 0-31

For every seed and every workload that has reference values (train:
per-epoch losses; evaluate and baselines: a digest of each runner's
main-table predictions), a fresh worker runs the workload's set-up and
one cycle and reports that cycle's values; they are stored in
perfbench/reference.json, which the benchmark reads. Seeds without a
stored entry still run every other check and say in their facts that
no reference was stored.

Re-record only in a change that is meant to alter the numbers physair
produces, so the new values are reviewed with it.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WITH_REFERENCE = ("train", "evaluate", "baselines")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tier", choices=tuple(run.SETUPS), default="full")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="N or LO-HI")
    args = p.parse_args(argv)
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    values = stored["values"].setdefault(args.tier, {})
    for workload in WITH_REFERENCE:
        for seed in args.seeds:
            job = argparse.Namespace(workload=workload, seed=seed, seconds=0, tier=args.tier)
            got = run.spawn(job, "reference", 0, time.monotonic() + run.DEADLINE_S)
            values.setdefault(workload, {})[str(seed)] = got["reference"]
            print(f"{args.tier} {workload} seed {seed}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
