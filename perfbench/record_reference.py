#!/usr/bin/env python3
"""Record the CSV sha256 reference digests the benchmark's gate compares to.

    python3 perfbench/record_reference.py --seeds 10

For every workload and every run seed below ``--seeds``, generates the
ensembles that ``run.py --seconds 40`` measures, runs ``cmd_matrix`` once
per method on each of an ensemble's corpora and stores, per ensemble and
method, the digest of those CSVs in order in ``perfbench/reference.json``.
Re-record only when a change is meant to alter the distances, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    if run.load_mtdist() is None:
        print("error: no mtdist sources under src/", file=sys.stderr)
        return 2
    from mtdist import harness

    reference = {}
    work = run.SCRATCH / "record"
    try:
        for workload in sorted(run.WORKLOADS):
            table = reference[workload] = {}
            ensembles = max(1, round(args.seconds / run.ENSEMBLE_SECONDS[workload]))
            for seed in range(args.seeds):
                for gen_seed in run.gen_seeds(seed, ensembles):
                    files = harness.cmd_gen(
                        work / f"{workload}-{gen_seed}", count=run.MEMBERS, seed=gen_seed,
                        **run.WORKLOADS[workload],
                    )
                    table[str(gen_seed)] = {}
                    for m in run.METHODS:
                        blobs = []
                        for q, group in enumerate(run.groups_of(files)):
                            out = work / f"{workload}-{gen_seed}-{q}-{m}"
                            harness.cmd_matrix(m, group, out)
                            blobs.append((out / f"distances_{m}.csv").read_bytes())
                        table[str(gen_seed)][m] = run.ensemble_digest(blobs)
                    print(workload, gen_seed, flush=True)
        run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
