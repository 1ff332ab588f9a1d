#!/usr/bin/env python3
"""Dimension-estimate survey over a seeded random corpus.

Writes a CSV with one row per system (extension counts, estimated dimension
and multiplicity, the n - d floor, and a flag column for estimates below the
floor).  Flags mark candidates for human inspection, nothing more: the
estimator is a heuristic.
"""

import argparse
import sys
from pathlib import Path

# cwlab is imported from this checkout's src, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cwlab.geometry import SCAN_CSV_HEADER, conjecture_scan  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-cell", type=int, default=2)
    ap.add_argument("--qs", default="2,3")
    ap.add_argument("--out", default="conjecture_survey.csv")
    args = ap.parse_args()
    qs = tuple(int(q) for q in args.qs.split(","))
    rows, flagged = conjecture_scan(qs=qs, per_cell=args.per_cell, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(SCAN_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")
    print(f"{len(rows)} systems -> {args.out}; {len(flagged)} flagged")
    for row in flagged:
        print("  candidate:", row.to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
