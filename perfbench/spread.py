"""Run-to-run spread of the end-to-end metrics: one untraced run per seed and
workload, then per metric the median and the interquartile range as a share
of the median, next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 --out /tmp/spread.json

The target is a spread below a third of the bound for every metric but
setup_s (whose spread is not bounded, only its median). Exits 1 when a run
fails, reports an incorrect result or counts a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(args.seconds),
                                    "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            out = json.loads(proc.stdout.splitlines()[-1]) \
                if proc.stdout.strip() else None
            if proc.returncode or not out or not out["correct"] \
                    or out["failed"]:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            runs.append({"seed": seed, "attempted": out["attempted"],
                         "failed": out["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in out["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        results[workload] = {"runs": runs, "summary": {}}
        if len(runs) < 4:
            continue
        for metric, bound in bounds.items():
            median, share = spread([r["metrics"][metric] for r in runs])
            results[workload]["summary"][metric] = {"median": median,
                                                    "iqr_share": share}
            flag = "" if metric == "setup_s" or share < bound / 3 else \
                "  <-- above a third of the bound"
            print(f"  {workload:12s} {metric:20s} median {median:12.6g}  "
                  f"spread {share:7.4f}  bound {bound}{flag}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True)
                            + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
