"""Measure the class mix of each in-process workload's input generator.

    python3 bench/class_shares.py [--draws N]

For every workload that stratifies its inputs, draws N inputs per prime
straight from the generator (with the workload's own parameters and a fixed
seed), sorts them by the workload's class key, and prints each class's share
next to the share recorded in the workload's ``shares`` table and the number
of inputs a round gives it.  Rerun it, and copy the measured shares into the
table, whenever a generator or a class key changes.
"""

from __future__ import annotations

import argparse
import collections
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


def measure(workload, draws: int) -> dict:
    counts = collections.Counter()
    for p in workload.primes:
        rng = random.Random(f"class-shares:{workload.name}:{p}")
        for _ in range(draws):
            counts[workload.class_key(workload.draw(rng, p))] += 1
    total = sum(counts.values())
    return {key: counts[key] / total for key in sorted(counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=3000)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    for cls in workloads.WORKLOADS.values():
        if not cls.in_process:
            continue
        workload = cls(lib, 0)
        measured = measure(workload, args.draws)
        alloc = workloads.allocate(workload.shares, workload.round_size)
        print(f"{cls.name}: {args.draws} draws per prime, {workload.round_size} kept per round")
        print(f"  {'class':<14} {'measured':>9} {'table':>7} {'per round':>9}")
        for key in sorted(set(measured) | set(workload.shares)):
            print(f"  {str(key):<14} {measured.get(key, 0):9.3f}"
                  f" {workload.shares.get(key, 0):7.3f} {alloc.get(key, 0):9d}")
        table = ", ".join(f"{key}: {share:.3f}" for key, share in measured.items())
        print(f"  shares = {{{table}}}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
