"""A seeded input fuzzer: mutated `.sys`/`.sub` files and flag values, each
case one in-process `cli.main` call that must end within CASE_SECONDS with
an exit code in {0, 1, 2, 3}, nothing on stdout after a nonzero exit and
no traceback.  Tier-1 runs TIER1_CASES cases; a longer run is

    PYTHONPATH=src:tests python -c 'import test_fuzz; test_fuzz.main(seeds, cases)'
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import tempfile
import time
from pathlib import Path

from cwlab import cli
from cwlab.counting import DEFAULT_BUDGET, FAST_CAP, ORACLE_CAP
from cwlab.fields import FIELD_SIZE_CAP
from cwlab.laws import DEFAULT_CLASS_BUDGET
from cwlab.polynomials import MAX_NESTING, MAX_POWER_DEGREE, MAX_POWER_TERMS
from cwlab.rng import SplitMix64, derive_seed

# wall seconds one case may take: the slowest of 12,150 cases (seeds 0 to 80)
# (oracle counts over an extension field) took about 3.5 s on a 2-core
# machine, and a case that once ran unbounded ran past it
CASE_SECONDS = 20.0
TIER1_CASES = 150

# integers at and just past every cap, large primes and composites
PRIMES = [2, 3, 5, 7, 251, 257, 65537, 1048573, 1048583, 2305843009213693951, 1000000000000000003]
COMPOSITES = [1, 4, 6, 9, 1024, 1048576, 4294967297, 2**61, 10**18]
SPECIAL = sorted(
    {0, -1, -2**63, 2**63, 2**64 + 1, 10**100}
    | {c + d for c in (FIELD_SIZE_CAP, MAX_POWER_DEGREE, MAX_POWER_TERMS, MAX_NESTING) for d in (-1, 0, 1)}
    | {c + d for c in (ORACLE_CAP, FAST_CAP, DEFAULT_BUDGET, DEFAULT_CLASS_BUDGET, 40, 64) for d in (0, 1)}
    | set(PRIMES)
    | set(COMPOSITES)
)

SYSTEMS = [
    "field p=3 k=1\nvars x1 x2 x3\npoly x1*x2 + x3^2\npoly x1 + 2\n",
    "field p=2 k=2\nvars x y\npoly g*x^2 + y + 1\n",
    "field p=5 k=1\nvars x1 x2 x3 x4\npoly x1^2 + x2^2 - x3*x4\n",
    "field p=2 k=1 modulus=1,1\nvars a b c d\npoly a*b + c*d\npoly (a + b)^3 - c\n",
    "field p=3 k=2\nvars x1 x2\npoly -(x1 - g)*(x2 + 1)\n",
]
SUBSPACES = [
    "ambient 3\noffset 0 1 0\nbasis 1 0 2\n",
    "ambient 2\noffset 0 0\nbasis 1 1\n",
    "ambient 4\noffset 1 0 0 0\nbasis 1 0 0 1\nbasis 0 1 1 0\n",
]
LAWS = ["chevalley", "ax", "warning-hyperplanes", "theorem1", "parallel-subspaces", "bogus"]


class CaseTimeout(Exception):
    """A case ran past CASE_SECONDS."""


class _Draw:
    """Seeded choices from one `SplitMix64` stream."""

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def below(self, n: int) -> int:
        return self.rng.below(n)

    def chance(self, num: int, den: int) -> bool:
        return self.rng.below(den) < num

    def pick(self, seq):
        return seq[self.rng.below(len(seq))]

    def integer(self) -> int:
        """A small integer mostly, else a special one."""
        return self.pick(SPECIAL) if self.chance(1, 2) else self.below(12) - 1


def _long_sum(d: _Draw, names: list[str]) -> str:
    """A sum of up to 4,000 terms, repeated monomials included."""
    terms = [f"{d.below(7)}*{d.pick(names)}^{d.below(9)}*{d.pick(names)}" for _ in range(d.below(4000) + 1)]
    return " + ".join(terms)


def _mutate_sys(d: _Draw, text: str) -> str:
    """text with one to three mutations: an integer made special, a line
    repeated or dropped, an attribute repeated, a poly made a long sum, a
    large exponent, a deep nesting, a power of a sum, or a byte changed."""
    lines = text.splitlines()
    names = next(line.split()[1:] for line in lines if line.startswith("vars"))
    for _ in range(d.below(3) + 1):
        i = d.below(len(lines))
        kind = d.below(10)
        if kind == 0:
            words = lines[i].split(" ")
            j = d.below(len(words))
            head, sep, _ = words[j].partition("=")
            words[j] = f"{head}={d.integer()}" if sep else str(d.integer())
            lines[i] = " ".join(words)
        elif kind == 1:
            lines.insert(d.below(len(lines) + 1), lines[i])
        elif kind == 2 and len(lines) > 1:
            del lines[i]
        elif kind == 3:
            lines[0] = lines[0] + " " + d.pick(["p", "k", "modulus"]) + "=" + str(d.pick(PRIMES + COMPOSITES))
        elif kind == 4:
            lines.append("poly " + _long_sum(d, names))
        elif kind == 5:
            lines.append(f"poly {d.pick(names)}^{d.pick(SPECIAL)} + 1")
        elif kind == 6:
            depth = MAX_NESTING + d.below(3) - 1
            lines.append("poly " + "(" * depth + d.pick(names) + ")" * depth + " - " * d.below(2) + "1")
        elif kind == 7:
            lines.append(f"poly ({' + '.join(names)} + 1)^{d.pick([2, 3, 5, 8, 20, 100, MAX_POWER_DEGREE])}")
        elif kind == 8:
            line = lines[i]
            if line:
                j = d.below(len(line))
                lines[i] = line[:j] + d.pick(list("+-*^()=,. 0123456789²٣xg\t#é")) + line[j + 1 :]
        else:
            lines[i] = lines[i][: d.below(len(lines[i]) + 1)]
    return "\n".join(lines) + "\n" * d.below(2)


def _mutate_sub(d: _Draw, text: str) -> str:
    """text with one or two mutations: an entry made special, a line
    repeated or dropped, or a line truncated."""
    lines = text.splitlines()
    for _ in range(d.below(2) + 1):
        i = d.below(len(lines))
        kind = d.below(4)
        if kind == 0:
            words = lines[i].split() or [""]
            words[d.below(len(words) - 1) + 1 if len(words) > 1 else 0] = str(d.integer())
            lines[i] = " ".join(words)
        elif kind == 1:
            lines.insert(d.below(len(lines) + 1), lines[i])
        elif kind == 2 and len(lines) > 1:
            del lines[i]
        else:
            lines[i] = lines[i][: d.below(len(lines[i]) + 1)]
    return "\n".join(lines) + "\n"


def _case(d: _Draw, tmp: Path) -> list[str]:
    """One case's argv, its input files written under tmp."""
    sys_path, sub_path = tmp / "case.sys", tmp / "case.sub"
    text = d.pick(SYSTEMS)
    sys_path.write_text(_mutate_sys(d, text) if d.chance(3, 4) else text, encoding="utf-8")
    flag = lambda: str(d.integer())  # noqa: E731
    command = d.pick(["count", "count", "count", "check", "check", "audit", "estimate-dim", "factor-test", "lemma", "construct"])
    if command == "lemma":
        which = d.pick(["cover", "saturation"])
        argv = ["lemma", which, "--p", str(d.pick(PRIMES + COMPOSITES) if d.chance(1, 3) else d.pick([2, 3, 5]))]
        for name in d.pick([["--k"], ["--n", "--trials"], ["--t"], ["--t", "--m"], []]):
            argv += [name, flag() if d.chance(1, 2) else str(d.below(4) + 1)]
        if which == "saturation":
            argv += ["--part", d.pick(["i", "ii", "iii", "iv"])] + ["--exhaustive"] * d.chance(1, 4)
        return argv
    if command == "construct":
        argv = ["construct", d.pick(["norm-form", "example1", "example2", "random"]), "--p", str(d.pick(PRIMES[:4] + COMPOSITES[:3]))]
        for name in d.pick([["--k"], ["--n"], ["--degree"], ["--n", "--seed"], []]):
            argv += [name, flag() if d.chance(1, 2) else str(d.below(4) + 1)]
        if d.chance(1, 3):
            argv += ["--degrees", ",".join(str(d.pick([1, 2, 3, d.integer()])) for _ in range(d.below(3) + 1))]
        return argv + ["--out", str(tmp / "built.sys")]
    argv = [command, "--system", str(sys_path)]
    if command == "count":
        if d.chance(1, 3):
            sub_path.write_text(_mutate_sub(d, d.pick(SUBSPACES)), encoding="utf-8")
            argv += ["--subspace", str(sub_path)]
        if d.chance(1, 3):
            argv += ["--ext", flag() if d.chance(1, 2) else str(d.below(3) + 1)]
        argv += d.pick([[], ["--engine", "oracle"], ["--format", "csv"]])
    elif command == "check":
        argv += ["--law", d.pick(LAWS)]
        for name in d.pick([[], ["--class-budget"], ["--sampled"], ["--dim"], ["--sampled", "--dim"]]):
            argv += [name, flag()]
    elif command == "audit":
        argv += ["--homogenization"] * d.chance(1, 2)
    elif command == "estimate-dim":
        argv += ["--smax", flag() if d.chance(1, 2) else str(d.below(3) + 1)]
    else:
        argv += ["--ext", flag() if d.chance(1, 2) else str(d.below(3) + 1)] + ["--trials", flag()] * d.chance(1, 3)
    if d.chance(1, 4):
        argv += ["--budget", flag()]
    if d.chance(1, 8):
        argv += ["--out", str(tmp / "missing" / "report.json")]
    return argv


def _alarm(signum, frame):
    raise CaseTimeout(f"past {CASE_SECONDS} s")


def run_case(argv: list[str]) -> tuple[int | None, str, str, float, str | None]:
    """(exit code, stdout, stderr, wall seconds, escaped exception) of one
    in-process `cli.main` call, stopped at CASE_SECONDS."""
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a timeout, or anything else cli.main let escape
        escaped = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0, escaped


def fuzz(seed: int, cases: int, tmp: Path) -> list[str]:
    """The failures of cases seeded cases, one line each."""
    failures = []
    for i in range(cases):
        d = _Draw(derive_seed(seed, i))
        argv = _case(d, tmp)
        code, out, err, wall, escaped = run_case(argv)
        what = f"seed {seed} case {i}: cwlab {' '.join(argv)}"
        if escaped is not None:
            failures.append(f"{what}: {escaped}")
        elif code not in (0, 1, 2, 3):
            failures.append(f"{what}: exit {code}")
        elif code and out:
            failures.append(f"{what}: exit {code} with stdout {out[:200]!r}")
        elif "Traceback" in err:
            failures.append(f"{what}: traceback on stderr")
        elif wall > CASE_SECONDS:
            failures.append(f"{what}: {wall:.1f} s")
    return failures


def test_seeded_fuzz_cases_end_cleanly(tmp_path):
    # about 3 s on a 2-core machine
    assert fuzz(0, TIER1_CASES, tmp_path) == []


def main(seeds, cases: int = TIER1_CASES) -> None:
    """Run cases cases at each seed; exit 1 with the failures listed."""
    failures = []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            failures += fuzz(seed, cases, Path(tmp))
    print(f"{len(seeds) * cases} cases, {len(failures)} failures, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for line in failures:
        print(line, file=sys.stderr)
    sys.exit(1 if failures else 0)
