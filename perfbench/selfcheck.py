"""Determinism self-check: two traced runs of each workload under one seed
must print identical per-operation counts (inversions, aux exponentiations,
bytes hashed, RL bytes, primality tests, ...) and, on cli-gm, byte-identical
artifacts.

    python3 perfbench/selfcheck.py --seed 7

Exits 1 on any difference.
"""

import argparse
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("members", "dept-revoked", "cli-gm")
MARKERS = ("exact-counts ", "artifacts-sha256 ")


def fingerprint(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=RUN.parent.parent, check=True)
    return [line for line in proc.stdout.splitlines()
            if line.startswith(MARKERS)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    same = True
    for workload in WORKLOADS:
        first = fingerprint(workload, args.seed)
        second = fingerprint(workload, args.seed)
        ok = first == second and len(first) == 1 + (workload == "cli-gm")
        same &= ok
        print(f"{workload}: {'identical' if ok else 'DIFFERENT'}")
        for a, b in zip(first, second):
            print(f"  run 1: {a}")
            if a != b:
                print(f"  run 2: {b}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
