#!/usr/bin/env python3
"""Run the full acceptance battery and print one line per criterion.

Equivalent to `cwlab suite --preset acceptance`; exists as a script so the
battery can be driven without installing the console entry point.
"""

import argparse
import sys
from pathlib import Path

# cwlab is imported from this checkout's src, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cwlab.suite import run_preset  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--preset", default="acceptance",
                    choices=("acceptance", "lemma2-exhaustive", "examples"))
    args = ap.parse_args()
    results = run_preset(args.preset, seed=args.seed)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 2


if __name__ == "__main__":
    sys.exit(main())
