"""Steadiness check: run each workload several times and compare the spread
of every end-to-end metric with its bound in BENCHMARK.json.

    python3 benchmark/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--save FILE] [--compare FILE]

Run i uses seed first-seed + i.  For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4), the range, the spread
(q3 - q1) / median against the metric's bound, and the share of failed
operations.  --save writes every value as JSON; --compare reads such a file
and prints how far each median moved in the worse direction, against the
bound.  The exit code is 1 when a spread (setup_s aside) exceeds its bound
or a moved median exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    before = json.loads(Path(args.compare).read_text()) if args.compare else {}
    values: dict = {}
    worst_ok = True
    for wl in names:
        runs = []
        for i in range(args.runs):
            res = run_once(wl, args.first_seed + i, spec["run_seconds"])
            runs.append(res)
            print(f"{wl} seed {args.first_seed + i}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        values[wl] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                      "correct": all(r["correct"] for r in runs),
                      "metrics": {m: [r["metrics"][m]["value"] for r in runs] for m in bounds}}
        print(f"\n{wl}: correct={values[wl]['correct']} failed share={values[wl]['failed_share']}")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'min':>10} {'max':>10}"
              f" {'spread':>7} {'bound':>6}")
        for m, (bound, better) in bounds.items():
            vals = values[wl]["metrics"][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m != "setup_s" and spread > bound:
                flag, worst_ok = " SPREAD > BOUND", False
            elif spread > bound / 3:
                flag = " (over a third of the bound)"
            if wl in before:
                old = statistics.median(before[wl]["metrics"][m])
                worse = (med - old) / old if better == "lower" else (old - med) / old
                flag += f"  moved {worse:+.3f} worse"
                if worse > bound:
                    flag, worst_ok = flag + " > BOUND", False
            print(f"  {m:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {min(vals):>10.4g} "
                  f"{max(vals):>10.4g} {spread:>7.3f} {bound:>6.2f}{flag}")
        if wl in before and before[wl]["failed_share"] != values[wl]["failed_share"]:
            print(f"  failed share changed: {before[wl]['failed_share']} -> {values[wl]['failed_share']}")
            worst_ok = False
        print(flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
