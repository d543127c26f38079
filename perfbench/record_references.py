"""Record the expected exit code and output digest of every op.

    python3 perfbench/record_references.py

Runs each workload's op list once for each of two seeds, requires both
seeds to agree (the digests drop the seed-dependent keys), and writes
``references.json``.  Equiv ops record the exit code only: any valid
translation is a correct witness, so ``run.py`` re-verifies witnesses
instead of comparing digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

SEEDS = (0, 1)


def record(workload: str, seed: int) -> dict:
    workdir = run.BENCH_DIR / "_work" / f"record-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        lib = run.import_library()
        refs = {}
        for op in WORKLOADS[workload](lib, seed, workdir):
            code, stdout, stderr, _ = run.run_op(lib, op.argv)
            if code is None:
                raise RuntimeError(f"{op.name} raised:\n{stderr}")
            if op.pairs is not None:
                expected = 0 if "positive" in op.name else 1
                if code != expected or (code == 0 and not run.witness_verifies(lib, op, stdout)):
                    raise RuntimeError(f"{op.name}: exit {code}, expected {expected}")
            refs[op.name] = {"exit": code, "sha256": None if op.pairs else run.output_digest(stdout)}
        return refs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    os.environ.pop("TORIC_COBORDISM_SEED", None)
    references = {}
    for workload in WORKLOADS:
        first, second = (record(workload, seed) for seed in SEEDS)
        if first != second:
            print(f"{workload}: references depend on the seed", file=sys.stderr)
            return 1
        references.update(first)
        print(f"{workload}: {len(first)} ops recorded")
    run.REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
