"""The command line's byte-identity golden: a fixed, seeded matrix of
commands, each one in-process `cli.main` call, against
tests/cli_bodies_golden.jsonl.  Each line of that file holds one case's id,
argv, exit code and the sha256 of its body, with the body itself when it is
under BODY_CAP bytes, so a diff of the file shows what changed.  A body is
the case's stdout, then each file a `construct` case wrote, after a
"==> name <==" line.  A change that alters any body or exit code fails the
check and names the case; one that means to alters the file with --write
and lists every changed case.

    PYTHONPATH=src:tests python tests/cli_golden.py          # check every case
    PYTHONPATH=src:tests python tests/cli_golden.py --write  # regenerate the file

Tier-1 checks the cases of TIER1_GROUPS (test_cli_golden.py).

The fields run from F_2 to F_2^11 and F_3^7, so the bodies cover every
evaluation the counting step's rule picks: s = 0, digit products on a
split, and the log-domain sums (XOR for p = 2, int64 mod p over a prime
field, the Zech tree over an odd-p extension).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from test_fuzz import run_case

GOLDEN = Path(__file__).with_name("cli_bodies_golden.jsonl")
BODY_CAP = 4096  # bodies under this many bytes are stored whole

LAWS = ("chevalley", "ax", "warning-hyperplanes", "theorem1")

# (p, k, n, degrees, seed, extras) of each field's seeded system, and which
# commands it runs besides count, audit and the laws: "oracle" (the
# per-point count), "ext" (count over F_{q^2}), "dim" (estimate-dim with
# --smax 2), "factor" (factor-test at --ext 1 and 2 on a binary form),
# "budgets" (each law at three class budgets and one sampled scope)
FIELDS = (
    (2, 1, 6, "3,2", 1, {"oracle", "ext", "dim", "budgets"}),
    (3, 1, 4, "2", 2, {"oracle", "ext", "dim", "factor", "budgets"}),
    (2, 2, 4, "3", 3, {"oracle", "ext", "dim", "factor", "budgets"}),
    (5, 1, 3, "3", 4, {"oracle", "ext", "dim", "factor", "budgets"}),
    (7, 1, 3, "2,1", 5, {"oracle", "ext", "dim", "factor", "budgets"}),
    (2, 3, 3, "3", 6, {"oracle", "ext", "dim", "factor"}),
    (3, 2, 3, "2", 7, {"oracle", "ext", "dim", "factor", "budgets"}),
    (2, 4, 3, "3", 8, {"oracle", "dim", "factor"}),
    (5, 2, 2, "3", 9, {"oracle", "ext", "dim", "factor"}),
    (3, 3, 2, "2,2", 10, {"oracle", "ext", "dim", "factor"}),
    (3, 4, 2, "3", 11, {"oracle", "factor"}),
    (5, 4, 2, "3", 12, {"factor"}),
    (2, 10, 2, "3", 13, {"factor"}),
    (2, 11, 2, "2", 14, {"factor"}),
    (3, 7, 1, "3", 15, {"factor"}),
)

# larger passes, count only: splits past the s = 0 bounds, and the
# log-domain sums over F_2^10, F_2^11 and F_3^7
LARGE = (
    (2, 1, 14, "3", 1, []),
    (3, 1, 9, "3", 2, []),
    (5, 1, 6, "3", 3, []),
    (2, 2, 7, "3", 4, []),
    (3, 2, 5, "2", 5, []),
    (2, 4, 4, "3", 6, []),
    (2, 10, 2, "3", 7, []),
    (2, 11, 2, "2,2", 8, []),
    (3, 7, 2, "3", 9, ["--budget", "5000000"]),
)

# inputs no construction writes: sparse systems whose passes the rule sums
# in the log domain over a prime field (mod p for odd p, XOR for p = 2),
# and binary forms over the fields whose norm forms are past the size cap
FILES = {
    "sparse-F3": "field p=3 k=1\nvars x1 x2 x3 x4 x5 x6 x7 x8\npoly x1*x2*x3 + x4^2*x5 + x6*x7*x8 + 1\n",
    "sparse-F2": "field p=2 k=1\nvars x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13\npoly x1*x2*x3 + x4*x5 + x13 + 1\n",
    "form-F2048": "field p=2 k=11\nvars x y\npoly x^2 + g*x*y + y^2\n",
    "form-F2187": "field p=3 k=7\nvars x y\npoly x^2 + g*y^2\n",
}

# groups Tier-1 runs: small fields, every command kind and every sum, about 2 s
TIER1_GROUPS = ("F2", "F9", "F25", "large-F2187-n2", "sparse", "lemma", "construct", "exit3")


def _built(name: str, p: int, k: int, n: int, degrees: str, seed: int) -> tuple[list[str], list]:
    """(--system argv, [its construct case]) of a seeded random system."""
    path = f"{{dir}}/{name}.sys"
    build = ["construct", "random", "--p", str(p), "--k", str(k), "--n", str(n), "--degrees", degrees,
             "--seed", str(seed), "--out", path]
    return ["--system", path], [(f"{name}/construct", build)]


def _factor_cases(name: str, p: int, k: int) -> list:
    """factor-test at --ext 1 and 2 on the norm form of degree 2, or on a
    binary form of FILES where F_{q^2} is past the size cap."""
    if f"form-{name}" in FILES:
        form, cases = f"{{dir}}/form-{name}.sys", []
    else:
        form = f"{{dir}}/{name}-norm.sys"
        cases = [(f"{name}/construct-norm-form", ["construct", "norm-form", "--p", str(p), "--k", str(k), "--out", form])]
    return cases + [(f"{name}/factor-test-ext{e}", ["factor-test", "--system", form, "--ext", e]) for e in ("1", "2")]


def matrix() -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """The groups of cases, in run order: (group, [(case id, argv)]), each
    argv's "{dir}" the run's scratch directory, which holds FILES.  A
    group's first cases build the files its later cases read."""
    groups = []
    for p, k, n, degrees, seed, extras in FIELDS:
        name = f"F{p**k}"
        system, cases = _built(name, p, k, n, degrees, seed)
        cases.append((f"{name}/count", ["count", *system]))
        cases.append((f"{name}/count-csv", ["count", *system, "--format", "csv"]))
        if "oracle" in extras:
            cases.append((f"{name}/count-oracle", ["count", *system, "--engine", "oracle"]))
        if "ext" in extras:
            cases.append((f"{name}/count-ext2", ["count", *system, "--ext", "2"]))
        for law in LAWS:
            cases.append((f"{name}/check-{law}", ["check", *system, "--law", law]))
            if "budgets" in extras:
                for budget in ("1", "7"):
                    cases.append((f"{name}/check-{law}-classes{budget}", ["check", *system, "--law", law, "--class-budget", budget]))
        if "budgets" in extras:
            cases.append((f"{name}/check-sampled", ["check", *system, "--law", "theorem1", "--sampled", "3", "--seed", "5"]))
        cases.append((f"{name}/audit", ["audit", *system]))
        cases.append((f"{name}/audit-homogenization", ["audit", *system, "--homogenization"]))
        if "dim" in extras:
            cases.append((f"{name}/estimate-dim", ["estimate-dim", *system, "--smax", "2"]))
        if "factor" in extras:
            cases += _factor_cases(name, p, k)
        groups.append((name, cases))
    for p, k, n, degrees, seed, flags in LARGE:
        name = f"large-F{p**k}-n{n}"
        system, cases = _built(name, p, k, n, degrees, seed)
        groups.append((name, cases + [(f"{name}/count", ["count", *system, *flags])]))
    groups.append(("sparse", [
        (f"sparse/{law}-{name}", ["check", "--system", f"{{dir}}/{name}.sys", "--law", law])
        for name in ("sparse-F3", "sparse-F2") for law in ("chevalley", "warning-hyperplanes")
    ]))
    groups.append(("lemma", [
        ("lemma/cover", ["lemma", "cover", "--p", "3", "--n", "3", "--trials", "5", "--seed", "4"]),
        ("lemma/cover-F4", ["lemma", "cover", "--p", "2", "--k", "2", "--n", "3", "--trials", "3", "--seed", "9"]),
        ("lemma/saturation-ii", ["lemma", "saturation", "--p", "5", "--t", "2"]),
        ("lemma/saturation-i", ["lemma", "saturation", "--p", "2", "--t", "3", "--part", "i"]),
        ("lemma/saturation-iv", ["lemma", "saturation", "--p", "5", "--t", "2", "--part", "iv", "--m", "2"]),
        ("lemma/saturation-exhaustive", ["lemma", "saturation", "--p", "2", "--k", "2", "--t", "2", "--part", "iii", "--exhaustive"]),
        ("lemma/saturation-i-odd", ["lemma", "saturation", "--p", "3", "--t", "3", "--part", "i"]),
    ]))
    groups.append(("construct", [
        ("construct/example1", ["construct", "example1", "--p", "3", "--out", "{dir}/example1.sys"]),
        ("construct/example1-n6", ["construct", "example1", "--p", "3", "--n", "6", "--out", "{dir}/example1_n6.sys"]),
        ("construct/example1-n6-count", ["count", "--system", "{dir}/example1_n6.sys"]),
        ("construct/example2", ["construct", "example2", "--p", "5", "--out", "{dir}/example2.sys"]),
        ("construct/norm-form", ["construct", "norm-form", "--p", "3", "--k", "2", "--degree", "3", "--out", "{dir}/norm.sys"]),
        ("construct/norm-form-count", ["count", "--system", "{dir}/norm.sys"]),
        ("construct/factor-test-not-a-form", ["factor-test", "--system", "{dir}/example1.sys"]),
    ]))
    f9 = "{dir}/exit3.sys"
    groups.append(("exit3", [
        ("exit3/construct", ["construct", "random", "--p", "3", "--k", "2", "--n", "4", "--degrees", "2", "--seed", "3", "--out", f9]),
        ("exit3/count-budget", ["count", "--system", f9, "--budget", "100"]),
        ("exit3/count-ext-budget", ["count", "--system", f9, "--ext", "3"]),
        ("exit3/check-budget", ["check", "--system", f9, "--law", "ax", "--budget", "100"]),
        ("exit3/audit-budget", ["audit", "--system", f9, "--budget", "100"]),
        ("exit3/estimate-dim-budget", ["estimate-dim", "--system", f9, "--smax", "4"]),
        ("exit3/lemma-cover-budget", ["lemma", "cover", "--p", "2", "--n", "40", "--trials", "2"]),
        ("exit3/field-cap", ["construct", "random", "--p", "2", "--k", "21", "--out", "{dir}/cap.sys"]),
    ]))
    return groups


def run(cases: list[tuple[str, list[str]]], tmp: Path) -> list[dict]:
    """One record per case: id, argv (with "{dir}"), exit code, sha256 of
    the body and, under BODY_CAP bytes, the body."""
    for name, text in FILES.items():
        (tmp / f"{name}.sys").write_text(text, encoding="utf-8")
    records = []
    for cid, argv in cases:
        before = set(tmp.iterdir())
        code, out, err, _, escaped = run_case([a.replace("{dir}", str(tmp)) for a in argv])
        assert escaped is None, (cid, escaped)
        if argv[0] == "construct":
            for path in sorted(set(tmp.iterdir()) - before):
                out += f"==> {path.name} <==\n{path.read_text(encoding='utf-8')}"
        assert str(tmp) not in out, (cid, "the body names the scratch directory")
        data = out.encode("utf-8")
        record = {"id": cid, "argv": argv, "exit": code, "sha256": hashlib.sha256(data).hexdigest()}
        if len(data) < BODY_CAP:
            record["body"] = out
        records.append(record)
    return records


def load() -> dict[str, dict]:
    """The committed records by case id."""
    return {r["id"]: r for r in map(json.loads, GOLDEN.read_text(encoding="utf-8").splitlines())}


def differences(groups=None) -> list[str]:
    """One line per case of the named groups (every group if None) whose
    argv, exit code or body differs from the committed record."""
    want, out = load(), []
    selected = [(g, cases) for g, cases in matrix() if groups is None or g in groups]
    with tempfile.TemporaryDirectory() as tmp:
        for _, cases in selected:
            for got in run(cases, Path(tmp)):
                rec = want.get(got["id"])
                if rec is None:
                    out.append(f"{got['id']}: no committed record")
                elif (rec["argv"], rec["exit"], rec["sha256"]) != (got["argv"], got["exit"], got["sha256"]):
                    shown = got.get("body", "")[:300]
                    out.append(f"{got['id']}: exit {rec['exit']} -> {got['exit']}, body {rec['sha256'][:12]} -> {got['sha256'][:12]} {shown!r}")
    if groups is None:
        ran = {cid for _, cases in selected for cid, _ in cases}
        out += [f"{cid}: committed but not in the matrix" for cid in sorted(set(want) - ran)]
    return out


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            records = [r for _, cases in matrix() for r in run(cases, Path(tmp))]
        GOLDEN.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")
        print(f"wrote {len(records)} cases to {GOLDEN.name}", file=sys.stderr)
        return 0
    diffs = differences()
    print(f"{sum(len(c) for _, c in matrix())} cases, {len(diffs)} differ", file=sys.stderr)
    for line in diffs:
        print(line, file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
