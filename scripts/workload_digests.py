#!/usr/bin/env python3
"""Fingerprint the results of the benchmark workloads.

    python3 scripts/workload_digests.py WORKLOAD... --seeds N...

For each workload of ``perfbench/workloads.py`` and each seed, this sets the
workload up, runs one round, and prints one line: the workload, the seed, the
first 16 hex digits of the sha256 of ``digest(inputs, round(inputs))``, and
the set-up ``stats`` as JSON where the workload has them.  Two checkouts that
print the same lines computed the same results on those inputs, so running it
in each is how a refactoring shows that it changed no output.

It imports the library from the checkout's ``src/`` and the workloads from
its ``perfbench/``, and runs from the checkout's root as the benchmark does,
wherever it is started.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest_line(workload, seed: int) -> str:
    inputs = workload.setup(seed)
    out, _ = workload.round(inputs)
    text = repr(workload.digest(inputs, out))
    line = f"{workload.name} {seed} {hashlib.sha256(text.encode()).hexdigest()[:16]}"
    stats = inputs.get("stats")
    return f"{line} {json.dumps(stats, sort_keys=True)}" if stats else line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of benchmark rounds")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    parser.add_argument("--seeds", nargs="+", type=int, required=True, metavar="N")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # cli-docs reads data/ and src/ relative to the root
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS

    unknown = [name for name in args.workloads if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    for name in args.workloads:
        for seed in args.seeds:
            print(digest_line(WORKLOADS[name], seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
