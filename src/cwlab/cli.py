"""The command line.  Exit codes: 0 pass (or vacuous), 1 input or usage
error, 2 law violation, 3 budget exceeded (a field past the size cap
included).  Bodies are deterministic; timing goes to stderr."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .constructions import (
    ConstructionRecipe, example_one, example_two, norm_form, random_system, random_system_recipe,
)
from .counting import _coordinates, count_zeros, count_zeros_ext
from .errors import BudgetExceeded, CwlabError, DegreeTooLarge, FormatError, InvalidArgument
from .fields import build_field
from .formats import read_sub, read_sys, write_sys
from .geometry import SCAN_CSV_HEADER, conjecture_scan, estimate_dimension, linear_factor_test
from .laws import (
    DEFAULT_CLASS_BUDGET, CheckScope, check_congruence, covering_trial, covering_trial_budget,
    homogenization_identity, lower_bound_audit, saturated_set_check, saturated_set_exhaustive,
    saturation_check_budget,
)
from .polynomials import PolySystem
from .rng import SplitMix64, derive_seed
from .subspaces import PointSet
from .suite import run_preset

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1 (EXIT_INPUT), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    """An input file's text, newlines universal; FormatError at line 0 when
    unreadable, or at its first byte that is not UTF-8."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    except OSError as exc:
        raise FormatError(str(exc), 0) from exc
    except UnicodeDecodeError as exc:
        line, col = data.count(b"\n", 0, exc.start) + 1, exc.start - data.rfind(b"\n", 0, exc.start)
        raise FormatError(f"{path} is not UTF-8 ({exc.reason})", line, col) from None


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc.strerror}") from exc


def _load_system(path: str):
    return read_sys(_read_text(path))


def _emit(payload: str, out: str | None) -> None:
    if out:
        _write(out, payload + "\n")
    else:
        print(payload)


def cmd_count(args) -> int:
    """`count`: the zero count over the full space, a subspace or an extension."""
    field, _, system = _load_system(args.system)
    budget = args.budget
    if args.subspace:
        if args.ext != 1:
            raise InvalidArgument(f"--subspace counts over F_q and takes no --ext, got --ext {args.ext}")
        L = read_sub(_read_text(args.subspace), field)
        rep = count_zeros(system, L, engine=args.engine, budget=budget)
    elif args.ext != 1:
        rep = count_zeros_ext(system, args.ext, engine=args.engine, budget=budget)
    else:
        rep = count_zeros(system, engine=args.engine, budget=budget)
    print(f"elapsed {rep.elapsed:.3f}s", file=sys.stderr)
    if args.format == "csv":
        body = (
            "q,n,region,count,scanned,workers\n"
            f'{rep.q},{rep.n},"{rep.region}",{rep.count},{rep.scanned},{rep.workers}'
        )
    else:
        body = rep.to_json()
    _emit(body, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    """`check`: one congruence law."""
    _, _, system = _load_system(args.system)
    scope = CheckScope(
        all_pairs=args.sampled is None,
        budget=args.class_budget,
        sample=args.sampled,
        seed=args.seed,
        dim=args.dim,
    )
    rep = check_congruence(system, args.law, scope, budget=args.budget)
    if args.format == "csv":
        body = f"law,applicable,pass\n{rep.law},{int(rep.applicable)},{int(rep.passed)}"
    else:
        body = rep.to_json()
    _emit(body, args.out)
    return rep.exit_code


def cmd_audit(args) -> int:
    """`audit`: the lower bounds, and the homogenization identity if asked."""
    _, _, system = _load_system(args.system)
    reports = [lower_bound_audit(system, budget=args.budget)]
    if args.homogenization:
        reports.append(homogenization_identity(system, budget=args.budget))
    _emit("\n".join(r.to_json() for r in reports), args.out)
    return max(r.exit_code for r in reports)


def cmd_construct(args) -> int:
    """`construct`: a named construction's .sys file and its recipe sidecar."""
    F = build_field(args.p, args.k)
    if args.kind == "norm-form":
        poly = norm_form(F, args.degree)
        system = PolySystem([poly])
        recipe = ConstructionRecipe(
            "norm_form",
            {"p": args.p, "k": args.k, "degree": args.degree},
            {"modulus": list(F.modulus)},
        )
        names = [f"x{i+1}" for i in range(poly.nvars)]
    elif args.kind == "example1":
        built = example_one(F, args.n or 4)
        system, recipe = built.system, built.recipe
        names = [f"x{i+1}" for i in range(system.nvars)]
        if built.display_mismatch:
            print(
                "note: for n > 4 the closed-form display value "
                f"{built.display_count} differs from the true count "
                f"{built.inclusion_exclusion_count}; recorded in the recipe",
                file=sys.stderr,
            )
            recipe.provenance["display_count"] = built.display_count
            recipe.provenance["true_count"] = built.inclusion_exclusion_count
    elif args.kind == "example2":
        built = example_two(F)
        system, recipe = built.system, built.recipe
        names = [f"x{i+1}" for i in range(system.nvars)]
    else:  # random
        try:
            degrees = [int(d) for d in args.degrees.split(",")]
        except ValueError:
            raise InvalidArgument(
                f"--degrees must be a comma list of integers, got {args.degrees!r}"
            ) from None
        system = random_system(F, args.n or 3, degrees, args.seed)
        recipe = random_system_recipe(F, args.n or 3, degrees, args.seed)
        names = [f"x{i+1}" for i in range(system.nvars)]
    out = Path(args.out or f"{args.kind.replace('-', '_')}.sys")
    _write(out, write_sys(F, names, system))
    sidecar = out.with_suffix(".recipe.json")
    _write(sidecar, recipe.to_json() + "\n")
    print(f"wrote {out} and {sidecar}", file=sys.stderr)
    return EXIT_OK


def cmd_lemma(args) -> int:
    """`lemma`: covering trials, or a saturation part on the full space or exhaustively."""
    F = build_field(args.p, args.k)
    if args.which == "cover":
        covering_trial_budget(F.q, args.n, args.trials)
        rng = SplitMix64(derive_seed(args.seed, 90))
        failures = sum(not covering_trial(F, args.n, rng).passed for _ in range(args.trials))
        payload = {"law": "covering-bound", "trials": args.trials, "failures": failures}
        _emit(json.dumps(payload), args.out)
        return EXIT_OK if failures == 0 else EXIT_VIOLATION
    # saturation laws
    if args.exhaustive:
        rep = saturated_set_exhaustive(F, args.t, args.part, args.m)
    else:
        saturation_check_budget(F.q, args.t, args.part, args.m)
        pts = _coordinates(np.arange(F.q**args.t), F.q, args.t).T.tolist()
        rep = saturated_set_check(PointSet(F, args.t, pts), args.part, args.m)
    _emit(rep.to_json(), args.out)
    return rep.exit_code


def cmd_estimate_dim(args) -> int:
    """`estimate-dim`: the dimension estimate."""
    _, _, system = _load_system(args.system)
    est = estimate_dimension(system, args.smax, budget=args.budget)
    _emit(json.dumps(est.to_dict()), args.out)
    return EXIT_OK


def cmd_scan_conjecture(args) -> int:
    """`scan-conjecture`: the seeded scan as CSV; exit 2 if a row is flagged."""
    try:
        qs = tuple(int(q) for q in args.qs.split(","))
    except ValueError:
        raise InvalidArgument(f"--qs must be a comma list of integers, got {args.qs!r}") from None
    if args.preset == "small":
        rows, flagged = conjecture_scan(
            qs=qs, seed=args.seed, budget=args.budget, per_cell=args.per_cell
        )
    else:
        print(f"unknown preset {args.preset!r}", file=sys.stderr)
        return EXIT_INPUT
    lines = [SCAN_CSV_HEADER] + [r.to_csv() for r in rows]
    _emit("\n".join(lines), args.out)
    print(f"{len(rows)} systems scanned, {len(flagged)} flagged", file=sys.stderr)
    return EXIT_OK if not flagged else EXIT_VIOLATION


def cmd_factor_test(args) -> int:
    """`factor-test`: the linear-factor search on a one-polynomial system."""
    _, _, system = _load_system(args.system)
    if system.r != 1:
        print("the factor test works on single-polynomial systems", file=sys.stderr)
        return EXIT_INPUT
    verdict = linear_factor_test(
        system.polys[0], args.ext, trials=args.trials, seed=args.seed
    )
    _emit(json.dumps(verdict.to_dict()), args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    """`suite`: a preset battery; the body on stdout, the timed lines on stderr."""
    # each criterion's progress line carries its wall time, which varies
    # from run to run, so it goes to stderr and the body stays deterministic
    results = run_preset(args.preset, seed=args.seed, echo=lambda line: print(line, file=sys.stderr))
    summary = {
        "preset": args.preset,
        "seed": args.seed,
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "criteria": [{"id": r.cid, "title": r.title, "pass": r.passed} for r in results],
    }
    if args.format == "csv":
        # titles hold commas, so the csv module quotes them
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "pass", "title"])
        writer.writerows([r.cid, int(r.passed), r.title] for r in results)
        _emit(buf.getvalue().rstrip("\n"), args.out)
    else:
        _emit(json.dumps(summary), args.out)
    return EXIT_OK if summary["failed"] == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand."""
    ap = _Parser(
        prog="cwlab",
        description="Exact zero counting over finite fields, with congruence "
        "and bound checkers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, system=True, formats=False):
        if system:
            p.add_argument("--system", required=True, help="path to a .sys file")
        p.add_argument("--budget", type=int,
                       help="point budget (env CWLAB_BUDGET overrides the default)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report to a file instead of stdout")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("count", help="count common zeros")
    common(p, formats=True)
    p.add_argument("--subspace", help="path to a .sub file")
    p.add_argument("--ext", type=int, default=1, help="count over F_{q^s}")
    p.add_argument("--engine", choices=("fast", "oracle"), default="fast")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check", help="check a congruence law")
    common(p, formats=True)
    p.add_argument(
        "--law",
        required=True,
        help="chevalley | ax | warning-hyperplanes | theorem1 (parallel-subspaces)",
    )
    scope = p.add_mutually_exclusive_group()  # a usage error together, exit 1
    scope.add_argument("--all-pairs", action="store_true",
                       help="check every direction space (the default without --sampled)")
    scope.add_argument("--sampled", type=int, help="sample this many direction spaces")
    p.add_argument("--class-budget", type=int, default=DEFAULT_CLASS_BUDGET)
    p.add_argument("--dim", type=int, help="restrict to one qualifying dimension")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="audit the lower bounds")
    common(p)
    p.add_argument("--homogenization", action="store_true",
                   help="also check the homogenization count identity")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("construct", help="write a named construction to a .sys file")
    p.add_argument("kind", choices=("norm-form", "example1", "example2", "random"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int)
    p.add_argument("--degree", type=int, default=2, help="norm form degree")
    p.add_argument("--degrees", default="2", help="comma list for random systems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lemma", help="exercise the covering/saturation laws")
    p.add_argument("which", choices=("cover", "saturation"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=2, help="ambient dimension (cover)")
    p.add_argument("--t", type=int, default=2, help="ambient dimension (saturation)")
    p.add_argument("--part", choices=("i", "ii", "iii", "iv"), default="ii")
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("estimate-dim", help="estimate zero-set dimension from extension counts")
    common(p)
    p.add_argument("--smax", type=int, default=3)
    p.set_defaults(func=cmd_estimate_dim)

    p = sub.add_parser("scan-conjecture", help="survey dimension estimates on a seeded corpus")
    p.add_argument("--preset", default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)
    p.add_argument("--per-cell", type=int, default=2)
    p.add_argument("--qs", default="2,3", help="comma list of field sizes (prime powers)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan_conjecture)

    p = sub.add_parser("factor-test", help="search for linear factors over an extension")
    common(p)
    p.add_argument("--ext", type=int, default=1)
    p.add_argument("--trials", type=int, default=6)
    p.set_defaults(func=cmd_factor_test)

    p = sub.add_parser("suite", help="run a verification battery")
    p.add_argument("--preset", default="acceptance",
                   choices=("acceptance", "lemma2-exhaustive", "examples"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    """Run one command; its exit code (module docstring), errors on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, DegreeTooLarge) as exc:  # both are size limits
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CwlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
