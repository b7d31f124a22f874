#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py --seeds 32

For every workload and each seed 0..seeds-1 it runs one set-up and one
repetition, untimed, and stores the best seed's held-out NLL, the stopped
iterations per fit seed and coordinate, and the summed log-likelihood of the
scored held-out windows in perfbench/reference.json. Runs whose invariant
checks fail are not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32, help="capture seeds 0..seeds-1")
    args = parser.parse_args(argv)
    pkg = run._import_package()
    reference: dict[str, dict] = {"environment": run.environment()}
    for name, workload in run.WORKLOADS.items():
        reference[name] = {}
        for seed in range(args.seeds):
            bench = run.Bench(pkg, workload, seed, reference=None)
            try:
                bench.setup()
                bench.rep()
            finally:
                bench.close()
            if bench.failures:
                print(f"{name} seed {seed}: not recorded\n" + "\n".join(bench.failures),
                      file=sys.stderr)
                return 1
            nll, stops = bench.fit_outputs[0]
            reference[name][str(seed)] = {
                "heldout_nll": nll,
                "stopped_iterations": stops,
                "loglik_sum": bench.loglik_sums[0],
            }
            print(f"{name} seed {seed}: {reference[name][str(seed)]}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
