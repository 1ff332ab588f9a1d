"""cwlab benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; cwlab is imported from the checkout's
src.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.  See benchmark/README.md.
"""

import time

T_TOP = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import PaceLog, pace  # noqa: E402


def _process_age() -> float:
    """Seconds from this process's start to now, from /proc on Linux; 0.0
    where that is unavailable (set-up then starts at this script's top)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 10.0 else 0.0


AGE_AT_TOP = _process_age()
PACE_AT_TOP = pace()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # set-ups per run: this process and two fresh ones

# one thread per numeric library, and no environment override of the work
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("CWLAB_BUDGET", None)


def setup_seconds() -> float:
    """Reference seconds from process start to now (set-up ends here)."""
    wall = AGE_AT_TOP + time.perf_counter() - T_TOP
    return wall / ((PACE_AT_TOP + pace()) / 2)


def run_pass(ops, log: PaceLog):
    """Closed loop: each operation starts when the previous one has ended.
    Returns the results, the timings of the operations that completed, and
    the number that failed."""
    results, timings, failed = [], [], 0
    for label, fn in ops:
        try:
            res, timing = log.run(fn)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {label}: {exc!r}", file=sys.stderr)
            failed += 1
            res = None
        else:
            timings.append(timing)
        results.append(res)
    return results, timings, failed


def tail(values) -> float:
    """Nearest-rank value at the highest whole percentile with at least ten
    values beyond it."""
    ordered = sorted(values)
    p = math.floor(100 - 1000 / len(ordered))
    return ordered[max(1, -(-len(ordered) * p // 100)) - 1]


def setup_sample(args) -> float:
    """Set-up time of a fresh process running this workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus-sweep", "coset-classes", "extension-fields", "cli-oneshot"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "cwlab" / "__init__.py").is_file():
        print(f"benchmark: no cwlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads  # imports cwlab from SRC

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.make(args.workload, args.seed, args.seconds)
    setup_s = setup_seconds()
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    log = wl.pace_log = PaceLog()
    try:
        if tracer:
            tracer.uninstall()
        if wl.in_process:
            log.start_timer()
        run_pass(wl.warmup, log)
        if tracer:
            # an untraced pass, then the traced one: their times give the overhead
            _, plain, _ = run_pass(wl.ops, log)
            tracer.install()
            wl.traced = True
        results, timings, failed = run_pass(wl.ops, log)
        if wl.in_process:
            log.stop_timer()
        if tracer:
            tracer.uninstall()
            wl.traced = False
        latencies = [log.reference_seconds(t) for t in timings]
        wall = sum(t[1] - t[0] for t in timings)
        problems = wl.check(results)
        peak_rss = (wl.peak_rss_mb() if wl.peak_rss_mb
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        if wl.in_process:
            log.stop_timer()
        wl.close()
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer:
        overhead = 100.0 * (sum(latencies) / sum(log.reference_seconds(t) for t in plain) - 1.0)
        summaries = [tracer.summary()] + [summary for _, summary in wl.child_traces]
        metrics = tracing.layer_metrics(summaries, overhead)
        workloads.OUT.mkdir(exist_ok=True)
        trace_path = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            tracer.write(fh, proc=0, t0=T_TOP)
            for proc, (lines, _) in enumerate(wl.child_traces, start=1):
                for line in lines:
                    fh.write(json.dumps(dict(json.loads(line), proc=proc)) + "\n")
            for i, summary in enumerate(summaries):
                fh.write(json.dumps({"proc": i, "summary": summary}) + "\n")
        print(f"trace written to {trace_path}", file=sys.stderr)
    else:
        setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        n = len(latencies)
        metrics = {
            "ops_per_s": {"value": n / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail(latencies), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    print(f"timed pass: {len(wl.ops)} operations in {wall:.2f} s wall, "
          f"{sum(latencies):.2f} reference s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(wl.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
