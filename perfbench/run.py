"""hrpks benchmark: end-to-end latencies per workload, per-layer costs from a
traced run.

    python3 perfbench/run.py --workload members --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): members, dept-revoked, cli-gm; `all` runs each
in its own process, one after the other. Each is a closed loop with one
caller in one process. A run sets the workload up several times (setup_s is
the median), runs one untimed warm-up cycle, then runs cycles of operations
for --seconds and checks the verdict of every operation.

--trace 0 prints the end-to-end metrics. A shared host runs the same Python
code faster or slower for stretches of seconds to minutes, so every timing
is scaled to a fixed reference host speed: a probe of fixed work that does
not touch hrpks is timed between operations (and around each set-up), and
each operation's time is multiplied by PROBE_REF_NS over the median probe
time around it (see host_speed).

--trace 1 alternates cycles traced through spans.py with untraced ones for
--seconds. It prints per-layer metrics per operation of the first
TRACED_CYCLES traced cycles, whose counts depend only on the seed, and the
tracing overhead: ops/s of traced against untraced cycles.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. `failed` counts operations with an unexpected verdict,
and the run exits 1 when there is one. A probe whose wrong verdict is a
documented defect of the program (Op.known_defect) is attempted and timed
like any operation; its wrong verdicts are counted and printed on their own
line, apart from `failed`, and do not fail the run. The program is
imported from src/ next to this directory and from nowhere else.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("members", "dept-revoked", "cli-gm")

# Timings are reported at the host speed at which host_probe takes
# PROBE_REF_NS. The host speed around operation i is the median of the
# probes within PROBE_WINDOW of it.
PROBE_REF_NS = 300_000
PROBE_WINDOW = 5
PROBE_MODULUS = (1 << 127) - 1
PROBE_DOC = {f"k{i}": [i, str(i) * 3, {"a": i}] for i in range(30)}
# (modular multiplications, JSON round trips) per probe, about PROBE_REF_NS
# on a quiet host either way. members is curve arithmetic only; the JSON
# half tracks the list and artifact handling of the other two.
PROBE_MIX = {"members": (1000, 0), "dept-revoked": (500, 3),
             "cli-gm": (500, 3)}

SETUP_REPEATS = {"members": 7, "dept-revoked": 7, "cli-gm": 31}
TRACED_CYCLES = {"members": 4, "dept-revoked": 4, "cli-gm": 4}

END_TO_END = [
    ("setup_s", "s"),
    ("sign_ms.p50", "ms"),
    ("sign_ms.p90", "ms"),
    ("verify_ms.p50", "ms"),
    ("verify_ms.p90", "ms"),
    ("verify_cert_ms.p50", "ms"),
    ("join_ms.p50", "ms"),
    ("revoke_ms.p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]

# Per operation of the traced cycles. `<span>.calls|ms|self_ms|bytes` come
# from spans; the rest from the counting shims in spans.py.
PER_LAYER = [
    ("curve_fp.msm.calls", "count"),
    ("curve_fp.msm.ms", "ms"),
    ("curve_fp.scalar_mul_fp.ms", "ms"),
    ("curve_fp.add_fp.ms", "ms"),
    ("curve_fp.inversions", "count"),
    ("sigma.sign.self_ms", "ms"),
    ("sigma.verify.self_ms", "ms"),
    ("sigma.aux_pow.calls", "count"),
    ("sigma.aux_pow.ms", "ms"),
    ("sigma.collapse_constraints.calls", "count"),
    ("sigma.collapse_constraints.ms", "ms"),
    ("encoding.hash_to_challenge.calls", "count"),
    ("encoding.hash_to_challenge.ms", "ms"),
    ("encoding.encode.bytes", "bytes"),
    ("hierarchy.SystemParams.digest.calls", "count"),
    ("hierarchy.SystemParams.digest.ms", "ms"),
    ("revocation.rl_hash.calls", "count"),
    ("revocation.rl_hash.ms", "ms"),
    ("revocation.rl_hash.bytes", "bytes"),
    ("revocation.is_member_revoked.ms", "ms"),
    ("revocation.coalesce.ms", "ms"),
    ("revocation.revoke_group.ms", "ms"),
    ("revocation.revoke_member.ms", "ms"),
    ("hierarchy.verify_cert.ms", "ms"),
    ("hierarchy.join.ms", "ms"),
    ("hierarchy.gm_certify.ms", "ms"),
    ("hierarchy.add_department.ms", "ms"),
    ("serial.serialize_artifact.ms", "ms"),
    ("serial.serialize_artifact.bytes", "bytes"),
    ("serial.deserialize_artifact.ms", "ms"),
    ("serial.deserialize_artifact.bytes", "bytes"),
    ("modmath.is_probable_prime.calls", "count"),
    ("modmath.is_probable_prime.ms", "ms"),
    ("modmath.rank_mod.ms", "ms"),
    ("modmath.solve_affine_mod.ms", "ms"),
    ("cli.build_parser.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

# per-layer metrics fed by a counting shim instead of a span
SHIM_COUNTERS = {
    "curve_fp.inversions": "curve_fp.inversions",
    "encoding.encode.bytes": "encoding.sha256_bytes",
    "revocation.rl_hash.bytes": "revocation.sha256_bytes",
}


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def import_program():
    """Import hrpks from ROOT/src; exit 2 when the checkout lacks it."""
    if not (SRC / "hrpks" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program source at {SRC}/hrpks\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hrpks
    if Path(hrpks.__file__).resolve().parent != SRC / "hrpks":
        sys.stderr.write(f"benchmark: imported hrpks from {hrpks.__file__}, "
                         f"not {SRC}\n")
        sys.exit(2)


def host_probe(mulmods, round_trips):
    """ns for a fixed loop of 127-bit modular multiplications and JSON
    round trips of a small document (see PROBE_MIX): a reading of how fast
    the host runs Python right now, independent of hrpks."""
    t0 = time.perf_counter_ns()
    x = 0x1234567890ABCDEF1234567890ABCDEF
    y = 0xFEDCBA0987654321FEDCBA0987654321
    for i in range(mulmods):
        x = (x * y + i) % PROBE_MODULUS
    for _ in range(round_trips):
        json.loads(json.dumps(PROBE_DOC))
    return time.perf_counter_ns() - t0


def host_speed(probes, i):
    """Reference-speed scale for a time measured next to probes[i]: the
    median of the probes within PROBE_WINDOW of it, as a share of
    PROBE_REF_NS."""
    near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
    return PROBE_REF_NS / statistics.median(near)


def p90(samples):
    """90th percentile (inclusive method) of a non-empty sample list."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Run:
    """One workload in this process: set-up, warm-up and measured cycles."""

    def __init__(self, name, seed, workdir):
        import workloads
        cls = workloads.WORKLOADS[name]
        self.workload = cls(seed, workdir)
        self.probe_mix = PROBE_MIX[name]
        self.cycle_no = 0
        self.samples = {}        # op kind -> [(ns, index of next probe)]
        self.probes = []         # every host probe reading, ns
        self.attempted = 0
        self.failed = 0
        self.known = Counter()   # known-defect note -> wrong verdicts
        self.known_tried = Counter()  # known-defect note -> probes run
        self.unexpected = []     # descriptions of unexpected verdicts
        self.digest = hashlib.sha256()
        self.hash_artifacts = False

    def probe(self):
        return host_probe(*self.probe_mix)

    def setup(self, repeats):
        """Set the workload up `repeats` times, the last one for good,
        with PROBE_WINDOW host probes before and after each. Returns the
        seconds each took at the reference host speed."""
        probes = [self.probe() for _ in range(PROBE_WINDOW)]
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.workload.setup()
            elapsed = time.perf_counter() - t0
            after = [self.probe() for _ in range(PROBE_WINDOW)]
            scale = PROBE_REF_NS / statistics.median(probes + after)
            times.append(elapsed * scale)
            probes = after
        return times

    def cycles(self, deadline=None, count=None, record=True, tracer=None,
               probe=False):
        """Run cycles until `count` are done or `deadline` passes (it is
        checked before every operation). With `probe`, a host probe runs
        between operations. Returns the ops completed."""
        done = cycles = 0
        while count is None or cycles < count:
            c = self.cycle_no
            self.cycle_no += 1
            cycles += 1
            ops, finished = self._cycle(c, deadline, record, tracer, probe)
            done += ops
            if not finished:
                break
        return done

    def _cycle(self, c, deadline, record, tracer, probe):
        gen = self.workload.cycle(c)
        ops = 0
        finished = True
        clock = time.perf_counter_ns
        try:
            op = next(gen)
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    finished = False
                    break
                t0 = clock()
                try:
                    if tracer is not None:
                        out = tracer.op(self.attempted, op.kind, op.call)
                    else:
                        out = op.call()
                except Exception as exc:  # the verdict check judges it
                    out = exc
                elapsed = clock() - t0
                ok = op.expect(out)
                ops += 1
                if probe:
                    self.probes.append(self.probe())
                if record:
                    self.attempted += 1
                    self.samples.setdefault(op.kind, []).append(
                        (elapsed, len(self.probes) - 1))
                    if op.known_defect:
                        self.known_tried[op.known_defect] += 1
                        if not ok:
                            self.known[op.known_defect] += 1
                    elif not ok:
                        self.failed += 1
                if not ok and not op.known_defect:
                    self.unexpected.append(
                        f"cycle {c}: {op.what}: got {out!r}")
                op = gen.send(out)
        except StopIteration:
            pass
        finally:
            gen.close()
        if self.hash_artifacts:
            for fname, data in self.workload.artifacts(c):
                self.digest.update(fname.encode() + b"\0" + data)
        self.workload.end_cycle(c)
        return ops, finished


def end_to_end(run, setup_times):
    """Latencies and ops/s over every operation of the timed loop, and
    setup_s as the median of every set-up, all at the reference host
    speed (see host_speed)."""
    ms = {kind: [ns / 1e6 * host_speed(run.probes, i) for ns, i in pairs]
          for kind, pairs in run.samples.items()}
    all_ms = [x for xs in ms.values() for x in xs]
    metrics, counts = {}, {}

    def put(name, value, n):
        metrics[name] = value
        counts[name] = n

    put("setup_s", statistics.median(setup_times), len(setup_times))
    for kind in ("sign", "verify"):
        xs = ms.get(kind, [])
        put(f"{kind}_ms.p50", statistics.median(xs) if xs else 0.0, len(xs))
        put(f"{kind}_ms.p90", p90(xs) if xs else 0.0, len(xs))
    for kind in ("verify_cert", "join", "revoke"):
        xs = ms.get(kind, [])
        put(f"{kind}_ms.p50", statistics.median(xs) if xs else 0.0, len(xs))
    put("ops_per_s", len(all_ms) / (sum(all_ms) / 1e3), len(all_ms))
    put("peak_rss_mib",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return metrics, counts


def per_layer(tracer, ops, overhead_pct):
    calls, total, own, nbytes = tracer.layer_totals()
    shim = Counter()
    for (key, _kind), n in tracer.counts.items():
        shim[key] += n
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name in SHIM_COUNTERS:
            value = shim[SHIM_COUNTERS[name]] / ops
        else:
            span, stat = name.rsplit(".", 1)
            value = {"calls": calls, "ms": total, "self_ms": own,
                     "bytes": nbytes}[stat][span] / ops
            if stat.endswith("ms"):
                value /= 1e6
        metrics[name] = value
    return metrics


def kind_table(tracer, say):
    """Mean calls and ms per operation, by operation kind."""
    table = tracer.by_op_kind()
    per_kind_inv = Counter()
    for (key, kind), n in tracer.counts.items():
        if key == "curve_fp.inversions":
            per_kind_inv[kind] += n
    say("per operation kind (mean calls / mean ms per op):")
    for kind in sorted(table):
        n = table[kind][f"op.{kind}"][0]
        say(f"  {kind} (n={n}): inversions {per_kind_inv[kind] / n:.1f}")
        for span, (k, ns) in sorted(table[kind].items(),
                                    key=lambda kv: -kv[1][1]):
            if span.startswith("op."):
                continue
            say(f"    {span:36s} {k / n:9.2f} calls {ns / n / 1e6:10.3f} ms")


def run_one(args):
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    report = []
    try:
        # cli-gm commands print; keep the benchmark's stdout for its report
        with contextlib.redirect_stdout(_Discard()), \
                contextlib.redirect_stderr(_Discard()):
            result = measure(args, workdir, report.append)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def measure(args, workdir, say):
    run = Run(args.workload, args.seed, workdir)
    setup_times = run.setup(SETUP_REPEATS[args.workload])
    run.cycles(count=1, record=False)                       # warm-up
    if args.trace:
        metrics, units = traced(args, run, say)
    else:
        t0 = time.perf_counter()
        run.cycles(deadline=t0 + args.seconds, probe=True)
        loop_s = time.perf_counter() - t0
        metrics, counts = end_to_end(run, setup_times)
        units = dict(END_TO_END)
        probe_ms = [ns / 1e6 for ns in run.probes]
        say(f"workload {args.workload} seed {args.seed}: {run.attempted} ops "
            f"in {loop_s:.2f} s; host probe median "
            f"{statistics.median(probe_ms):.4f} ms (min {min(probe_ms):.4f}, "
            f"max {max(probe_ms):.4f}); times below are scaled to a probe "
            f"of {PROBE_REF_NS / 1e6:g} ms")
        for name, unit in END_TO_END:
            say(f"{name} = {metrics[name]:.6g} {unit} (n={counts[name]})")
        ratio = run.failed / run.attempted if run.attempted else 0.0
        say(f"failed_ratio = {ratio:.6g} (failed {run.failed} of "
            f"{run.attempted} attempted)")
        for note, tried in run.known_tried.items():
            say(f"known defect: {run.known[note]} of {tried} probes gave the "
                f"wrong verdict, not counted in failed_ratio: {note}")
    for line in run.unexpected[:20]:
        say(f"UNEXPECTED {line}")
    return {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def traced(args, run, say):
    """Alternate traced and untraced cycles until --seconds have passed and
    at least TRACED_CYCLES cycles were traced. Per-layer metrics come from
    the first TRACED_CYCLES traced cycles, so their counts depend only on
    the seed; the overhead compares all traced with all untraced cycles."""
    import spans
    window = spans.Tracer()
    spare = spans.Tracer()
    want = TRACED_CYCLES[args.workload]
    deadline = time.perf_counter() + args.seconds
    traced_cycles = window_ops = 0
    ops = {True: 0, False: 0}
    busy = {True: 0.0, False: 0.0}
    while traced_cycles < want or time.perf_counter() < deadline:
        for trace_on in (True, False):
            tracer = window if traced_cycles < want else spare
            spare.spans.clear()
            run.hash_artifacts = trace_on and tracer is window
            if trace_on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                n = run.cycles(count=1, tracer=tracer if trace_on else None)
            finally:
                if trace_on:
                    tracer.uninstall()
            busy[trace_on] += time.perf_counter() - t0
            ops[trace_on] += n
            if trace_on:
                if tracer is window:
                    window_ops += n
                traced_cycles += 1
    traced_rate = ops[True] / busy[True]
    untraced_rate = ops[False] / busy[False]
    overhead = 100 * (1 - traced_rate / untraced_rate)
    metrics = per_layer(window, window_ops, overhead)
    units = dict(PER_LAYER)
    trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
    window.write(trace_path)

    say(f"workload {args.workload} seed {args.seed}: per-layer metrics from "
        f"{want} traced cycles, {window_ops} ops; spans in "
        f"{trace_path.relative_to(ROOT)}")
    kind_table(window, say)
    for name, unit in PER_LAYER:
        say(f"{name} = {metrics[name]:.6g} {unit}"
            + ("" if unit == "%" else " per op"))
    say(f"tracing overhead: {traced_rate:.3f} ops/s over {traced_cycles} "
        f"traced cycles, {untraced_rate:.3f} ops/s over as many untraced "
        f"cycles in between, {overhead:.1f}% fewer ops/s")
    exact = {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}
    say("exact-counts " + json.dumps(exact, sort_keys=True))
    if args.workload == "cli-gm":
        say(f"artifacts-sha256 {run.digest.hexdigest()}")
    return metrics, units


def run_all(args):
    """Each workload in its own process; print every report and a summary."""
    code = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": code == 0 and len(results) == len(WORKLOAD_NAMES)
        and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else max(code, 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
