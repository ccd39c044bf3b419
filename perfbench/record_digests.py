"""Record the reference output digests that run.py compares against.

    python3 perfbench/record_digests.py --seeds 0-19 [--workload NAME ...]

Run from the repository root.  Runs one checked unit of each workload per
seed and writes the sha256 digests of curves.csv, summary.txt and the
emitted logs to perfbench/reference_digests.json, merging with what is
there.  Rerun it, and say why in the change log, when a change alters
output bits on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seed: int) -> dict[str, str]:
    work = run.WORK / f"record-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if workload == "log_replay":
            run.run_setup(workload, seed, work / "log")
            unit = run.ReplayUnit(workload, seed, work / "log")
        else:
            unit = run.SimulationUnit(workload, seed)
        out = work / "out"
        out.mkdir()
        unit.run(out)
        errors = unit.check(out)
        if errors:
            raise RuntimeError(f"{workload} seed {seed}: {'; '.join(errors)}")
        return unit.reference
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="N or LO-HI")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    path = run.REFERENCE_DIGESTS
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or list(run.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed} recorded", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
