"""File formats round-trip and the command-line surface."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cwlab.errors import FormatError
from cwlab.fields import build_field
from cwlab.formats import read_sub, read_sys, write_sub, write_sys
from cwlab.polynomials import PolySystem, parse_poly
from cwlab.subspaces import AffineSubspace

F3 = build_field(3, 1)
F4 = build_field(2, 2)


SYS_TEXT = """# a comment
field p=3 k=1
vars x1 x2 x3
poly x1*x2 + x3^2   # trailing comment
poly x1 + 2
"""


def test_read_sys():
    field, names, system = read_sys(SYS_TEXT)
    assert field.q == 3 and names == ["x1", "x2", "x3"]
    assert system.r == 2 and system.degrees == (2, 1)


def test_sys_round_trip():
    field, names, system = read_sys(SYS_TEXT)
    text = write_sys(field, names, system)
    field2, names2, system2 = read_sys(text)
    assert (field2, names2, system2) == (field, names, system)
    assert write_sys(field2, names2, system2) == text


def test_sys_round_trip_extension_field():
    f = parse_poly("g*x1^2 + x2 + 1", F4, ["x1", "x2"])
    text = write_sys(F4, ["x1", "x2"], PolySystem([f]))
    field2, names2, system2 = read_sys(text)
    assert system2.polys[0] == f
    assert "modulus=1,1,1" in text


def test_sys_crlf_and_explicit_modulus():
    text = "field p=2 k=2 modulus=1,1,1\r\nvars x y\r\npoly g*x + y\r\n"
    field, names, system = read_sys(text)
    assert field.q == 4 and names == ["x", "y"]


def test_sys_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        read_sys("field p=3 k=1\nvars x1\npoly x1 + * 2\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        read_sys("vars x1\npoly x1\n")
    with pytest.raises(FormatError):
        read_sys("field p=9 k=1\nvars x\npoly x\n")


def test_zero_polynomial_reported_on_its_own_line():
    with pytest.raises(FormatError) as err:
        read_sys("field p=3 k=1\nvars x\n# comment\npoly x + 1\npoly x - x\n")
    assert err.value.line == 5
    assert "zero polynomial" in str(err.value)


def test_sub_round_trip():
    L = AffineSubspace(F3, (1, 2, 0), [(1, 0, 2), (0, 1, 1)])
    text = write_sub(L)
    assert read_sub(text, F3) == L


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(*args, cwd, extra_env=None, timeout=300):
    # The subprocess runs in ``cwd``, where a relative ``PYTHONPATH=src`` no
    # longer resolves; put this checkout's absolute ``src`` first instead, so
    # the CLI under test is always the one in this tree.
    inherited = os.environ.get("PYTHONPATH")
    path = SRC + os.pathsep + inherited if inherited else SRC
    env = {**os.environ, "PYTHONPATH": path, **(extra_env or {})}
    return subprocess.run(
        [sys.executable, "-m", "cwlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "hyp.sys").write_text(
        "field p=2 k=1\nvars x1 x2 x3 x4\npoly x1*x2 + x3*x4\n", encoding="utf-8"
    )
    return tmp_path


def test_cli_count(workdir):
    res = _run("count", "--system", "hyp.sys", cwd=workdir)
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["count"] == 10
    assert list(body) == ["q", "n", "region", "count", "scanned", "workers", "points_evaluated"]


def test_cli_count_rejects_an_ext_it_cannot_use(workdir):
    # a subspace count is over F_q, and an extension degree is at least 1:
    # neither is silently replaced by the plain F_q count
    L = AffineSubspace(build_field(2, 1), (0, 0, 0, 0), [(1, 0, 0, 0)])
    (workdir / "L.sub").write_text(write_sub(L), encoding="utf-8")
    for args in (("--subspace", "L.sub", "--ext", "2"), ("--ext", "0"), ("--ext", "-1")):
        res = _run("count", "--system", "hyp.sys", *args, cwd=workdir)
        assert res.returncode == 1 and res.stdout == "", (args, res.stderr)
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, (args, res.stderr)
    res = _run("count", "--system", "hyp.sys", "--subspace", "L.sub", "--ext", "1", cwd=workdir)
    assert res.returncode == 0 and json.loads(res.stdout)["count"] == 2


def test_cli_class_budget_default_is_the_laws_default(monkeypatch):
    from cwlab import cli

    args = ["check", "--system", "f.sys", "--law", "theorem1"]
    assert cli.build_parser().parse_args(args).class_budget == cli.DEFAULT_CLASS_BUDGET == 10_000
    monkeypatch.setattr(cli, "DEFAULT_CLASS_BUDGET", 7)
    assert cli.build_parser().parse_args(args).class_budget == 7


def test_cli_count_deterministic_body(workdir):
    a = _run("count", "--system", "hyp.sys", cwd=workdir)
    b = _run("count", "--system", "hyp.sys", cwd=workdir)
    assert a.stdout == b.stdout


def test_cli_check_laws(workdir):
    for law in ("ax", "chevalley", "warning-hyperplanes", "theorem1"):
        res = _run("check", "--system", "hyp.sys", "--law", law, cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["pass"] is True


def test_cli_check_unknown_law_is_an_input_error(workdir):
    res = _run("check", "--system", "hyp.sys", "--law", "theorem2", cwd=workdir)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: unknown law 'theorem2'") and "Traceback" not in res.stderr
    assert "theorem1" in res.stderr and "warning-hyperplanes" in res.stderr


@pytest.mark.parametrize("args", [["--class-budget", "-5"], ["--sampled", "-3"], ["--sampled", "0"]])
def test_cli_check_malformed_scope_is_an_input_error(workdir, args):
    (workdir / "f5.sys").write_text(
        "field p=5 k=1\nvars x1 x2 x3 x4\npoly x1*x2 + x3^2 + x4 + 1\n", encoding="utf-8"
    )
    res = _run("check", "--system", "f5.sys", "--law", "theorem1", *args, cwd=workdir)
    assert res.returncode == 1 and res.stdout == "", (args, res.stdout)
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, (args, res.stderr)


def test_cli_check_dim_restriction(workdir):
    res = _run(
        "check", "--system", "hyp.sys", "--law", "theorem1", "--all-pairs",
        "--dim", "2", cwd=workdir,
    )
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["pass"] is True and body["evidence"]["per_dim"] == {"2": 35}


def test_cli_check_all_pairs_conflicts_with_sampled(workdir):
    res = _run(
        "check", "--system", "hyp.sys", "--law", "theorem1", "--all-pairs",
        "--sampled", "3", cwd=workdir,
    )
    assert res.returncode == 1 and res.stdout == ""
    assert "--sampled" in res.stderr


def test_cli_check_violation_exit_code(workdir, monkeypatch, capsys):
    # no system violates a law where the law applies, so a sweep that
    # reports a witness stands in for a violation: the body carries the
    # witness, and the exit code is 2
    from cwlab import cli, laws

    witness = {"rows": [[0, 0, 1]], "offsets": [[0, 0, 0], [0, 0, 1]], "counts": [0, 1], "dim": 2}
    monkeypatch.setattr(laws, "_sweep_classes", lambda Z, F, dims, modulus, scope, agreed: (2, {"2": 2}, False, witness))
    code = cli.main(["check", "--system", str(workdir / "hyp.sys"), "--law", "warning-hyperplanes"])
    body = json.loads(capsys.readouterr().out)
    assert code == 2 and body["applicable"] is True and body["pass"] is False
    assert body["witness"] == witness


def test_cli_check_hyperplanes_need_n_above_d(workdir):
    # a hyperplane has dimension n - 1, so at n = d the hyperplane
    # congruence does not apply: x1*x2*x3 + 1 over F_2 (one zero, counts 1
    # and 0 on the hyperplanes x3 = 1 and x3 = 0) is not a violation
    (workdir / "cube.sys").write_text("field p=2 k=1\nvars x1 x2 x3\npoly x1*x2*x3 + 1\n", encoding="utf-8")
    res = _run("check", "--system", "cube.sys", "--law", "warning-hyperplanes", cwd=workdir)
    assert res.returncode == 0, res.stderr
    body = json.loads(res.stdout)
    assert body["applicable"] is False and body["pass"] is True
    assert body["evidence"] == {"reason": "requires n > d", "n": 3, "d": 3}


def test_cli_input_error_exit_code(workdir):
    (workdir / "bad.sys").write_text("field p=4 k=1\nvars x\npoly x\n", encoding="utf-8")
    res = _run("count", "--system", "bad.sys", cwd=workdir)
    assert res.returncode == 1
    assert "line 1" in res.stderr


def test_cli_malformed_budget_env_is_an_input_error(workdir):
    res = _run("count", "--system", "hyp.sys", cwd=workdir, extra_env={"CWLAB_BUDGET": "abc"})
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: CWLAB_BUDGET")


@pytest.mark.parametrize(
    "args,env",
    [
        (("count", "--budget", "-1"), None),
        (("audit", "--budget", "-2"), None),
        (("check", "--law", "theorem1", "--budget", "-1"), None),
        (("count",), {"CWLAB_BUDGET": "-3"}),
        (("audit",), {"CWLAB_BUDGET": "-3"}),
    ],
)
def test_cli_negative_point_budget_is_an_input_error(workdir, args, env):
    # a negative point budget is malformed input (exit 1); a budget of 0
    # is well formed and admits no point (exit 3)
    res = _run(args[0], "--system", "hyp.sys", *args[1:], cwd=workdir, extra_env=env)
    assert res.returncode == 1 and res.stdout == "", (args, env, res.stderr)
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, (args, env, res.stderr)
    zero_args = ["0" if a.startswith("-") and a[1:].isdigit() else a for a in args[1:]]
    zero_env = {"CWLAB_BUDGET": "0"} if env else None
    res = _run(args[0], "--system", "hyp.sys", *zero_args, cwd=workdir, extra_env=zero_env)
    assert res.returncode == 3 and res.stderr.startswith("budget exceeded:"), (args, env, res.stderr)


def test_cli_budget_exit_code(workdir):
    (workdir / "wide.sys").write_text(
        "field p=5 k=1\nvars " + " ".join(f"x{i}" for i in range(9)) + "\npoly x0\n",
        encoding="utf-8",
    )
    res = _run("count", "--system", "wide.sys", "--budget", "1000", cwd=workdir)
    assert res.returncode == 3


def test_cli_adversarial_expressions_exit_cleanly(workdir):
    # deep nesting is an input error (1); a power or a product too big to
    # expand is a budget error (3), even with a small point budget
    product = "*".join(["(a+b+c+d+e+f)^5"] * 5)
    for p, names, expr, code in (
        (3, "x y", "(" * 5000 + "x" + ")" * 5000, 1),
        (3, "x y", "(x+y)^100000", 3),
        (65521, "a b c d e f", product, 3),
    ):
        (workdir / "adv.sys").write_text(f"field p={p} k=1\nvars {names}\npoly {expr}\n", encoding="utf-8")
        t0 = time.perf_counter()
        res = _run("count", "--system", "adv.sys", "--budget", "10", cwd=workdir)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""
        assert time.perf_counter() - t0 < 10  # interpreter start included; the parse itself is milliseconds


def test_cli_count_subspace_and_ext(workdir):
    (workdir / "x1.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1\n", encoding="utf-8")
    (workdir / "line.sub").write_text("ambient 2\noffset 0 0\nbasis 0 1\n", encoding="utf-8")
    res = _run("count", "--system", "x1.sys", "--subspace", "line.sub", cwd=workdir)
    assert json.loads(res.stdout)["count"] == 3
    res2 = _run("count", "--system", "x1.sys", "--ext", "2", cwd=workdir)
    assert json.loads(res2.stdout)["count"] == 9


def test_cli_construct_and_recount(workdir):
    res = _run("construct", "example1", "--p", "3", "--out", "q.sys", cwd=workdir)
    assert res.returncode == 0
    res2 = _run("count", "--system", "q.sys", cwd=workdir)
    assert json.loads(res2.stdout)["count"] == 21
    recipe = json.loads((workdir / "q.recipe.json").read_text())
    assert recipe["kind"] == "example1" and recipe["parameters"]["p"] == 3
    # round-trip: the written file reparses to an identical canonical object
    text = (workdir / "q.sys").read_text()
    field, names, system = read_sys(text)
    assert write_sys(field, names, system) == text


def test_cli_audit(workdir):
    (workdir / "pair.sys").write_text(
        "field p=5 k=1\nvars x1 x2 x3\npoly x1*x2\n", encoding="utf-8"
    )
    res = _run("audit", "--system", "pair.sys", cwd=workdir)
    assert res.returncode == 0
    assert json.loads(res.stdout)["pass"] is True


def test_cli_estimate_dim(workdir):
    (workdir / "x1.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1\n", encoding="utf-8")
    res = _run("estimate-dim", "--system", "x1.sys", "--smax", "3", cwd=workdir)
    body = json.loads(res.stdout)
    assert body["d_hat"] == 1 and body["k_hat"] == 1


def test_cli_factor_test_rejects_negative_trials(workdir):
    # a negative trial count is an input error (1), not an error bound
    # computed from it; zero trials is allowed and bounds nothing
    res = _run("construct", "example2", "--p", "3", "--out", "ex2.sys", cwd=workdir)
    assert res.returncode == 0
    res = _run("factor-test", "--system", "ex2.sys", "--trials", "-3", cwd=workdir)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    res = _run("factor-test", "--system", "ex2.sys", "--trials", "0", cwd=workdir)
    assert res.returncode == 0 and json.loads(res.stdout)["error_bound"] == "1"


def test_cli_lemma_saturation(workdir):
    res = _run(
        "lemma", "saturation", "--p", "3", "--t", "2", "--part", "ii", "--exhaustive",
        cwd=workdir,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["pass"] is True


def test_cli_lemma_cover(workdir):
    res = _run("lemma", "cover", "--p", "2", "--n", "2", "--trials", "25", cwd=workdir)
    assert res.returncode == 0
    assert json.loads(res.stdout)["failures"] == 0


def test_cli_lemma_adversarial_inputs_exit_cleanly(workdir):
    # inputs outside a law's domain are input errors (1), for the sweep and
    # for the object-level check alike; a sweep past q^t = 27 is a budget
    # error (3), however large t is
    cases = [
        ("saturation", "--p", "3", "--t", "2", "--part", "i", "--exhaustive"),
        ("saturation", "--p", "2", "--part", "iii", "--exhaustive"),
        ("saturation", "--p", "2", "--part", "ii", "--exhaustive"),
        ("saturation", "--p", "5", "--part", "iv", "--exhaustive"),
        ("saturation", "--p", "5", "--part", "iv", "--exhaustive", "--m", "1"),
        ("saturation", "--p", "5", "--part", "iv"),
        ("saturation", "--p", "3", "--t", "2", "--part", "i"),
        ("saturation", "--p", "3", "--t", "-1"),
        ("saturation", "--p", "3", "--t", "-1", "--exhaustive"),
        ("saturation", "--p", "3", "--k", "0"),
        ("cover", "--p", "3", "--n", "0"),
        ("cover", "--p", "3", "--n", "-1"),
    ]
    for args in cases:
        res = _run("lemma", *args, cwd=workdir)
        assert res.returncode == 1, (args, res.stderr)
        assert res.stdout == "" and res.stderr.startswith("error:"), (args, res.stderr)
        assert "Traceback" not in res.stderr
    for t in ("5", "1000000000"):
        res = _run("lemma", "saturation", "--p", "3", "--t", t, "--exhaustive", cwd=workdir)
        assert res.returncode == 3 and "Traceback" not in res.stderr, res.stderr
        assert "q^t <= 27" in res.stderr
    # the object-level check counts the lines (planes for part i) it would
    # walk before building anything: past the cap it is a budget error
    for args in (("--p", "3", "--t", "7"), ("--p", "2", "--t", "9", "--part", "i"),
                 ("--p", "3", "--t", "1000000000")):
        res = _run("lemma", "saturation", *args, cwd=workdir, timeout=20)
        assert res.returncode == 3 and "Traceback" not in res.stderr, (args, res.stderr)
        assert res.stderr.startswith("budget exceeded:"), (args, res.stderr)
    # a covering trial bounds its membership tests before it lists any
    # point, and a run bounds those of all its trials (100 by default)
    for args in (("--n", "14", "--trials", "1"), ("--n", "1000000000"), ("--n", "6")):
        res = _run("lemma", "cover", "--p", "3", *args, cwd=workdir, timeout=20)
        assert res.returncode == 3 and res.stdout == "", (args, res.stderr)
        assert res.stderr.startswith("budget exceeded:") and "Traceback" not in res.stderr, (args, res.stderr)


def test_cli_construct_adversarial_inputs_exit_cleanly(workdir):
    cases = [
        ("norm-form", "--p", "3", "--degree", "0"),
        ("example1", "--p", "3", "--n", "3"),
        ("random", "--p", "3", "--degrees", "0"),
        ("random", "--p", "3", "--degrees", "a"),
        ("random", "--p", "3", "--degrees", ""),
        ("random", "--p", "3", "--n", "-1"),
    ]
    for args in cases:
        res = _run("construct", *args, "--out", "bad.sys", cwd=workdir)
        assert res.returncode == 1, (args, res.stderr)
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, (args, res.stderr)
        assert not (workdir / "bad.sys").exists()
    # a random system's size is checked before any monomial is listed
    for args in (("--n", "30", "--degrees", "6"), ("--n", "2", "--degrees", "2,1000000000"),
                 ("--n", "1000000000", "--degrees", "1000000000")):
        res = _run("construct", "random", "--p", "3", *args, "--out", "bad.sys", cwd=workdir, timeout=20)
        assert res.returncode == 3, (args, res.stderr)
        assert res.stderr.startswith("budget exceeded:") and "Traceback" not in res.stderr, (args, res.stderr)
        assert not (workdir / "bad.sys").exists()
    # so is a norm form whose extension field is past the field size cap
    res = _run("construct", "norm-form", "--p", "7", "--k", "2", "--degree", "4", "--out", "bad.sys", cwd=workdir)
    assert res.returncode == 3 and res.stderr.startswith("budget exceeded:"), res.stderr
    assert not (workdir / "bad.sys").exists()


def test_cli_caps_are_checked_before_the_work_they_bound(tmp_path, capsys):
    # a field past the cap, from a huge p or k, and a count or factor search
    # over an extension past it end at once: exponents are compared, not
    # powers formed, and the field cap comes before the primality test (so a
    # composite p past it exits 3, where it exited 1 as not prime)
    from cwlab import cli

    (tmp_path / "two.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1^2 + x2^2 + 1\n")
    (tmp_path / "form.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1^2 + x2^2\n")
    (tmp_path / "big.sys").write_text("field p=2305843009213693951 k=1\nvars x\npoly x\n")
    cases = [
        ("lemma cover --p 3 --k 100000000", 3, "p^k = 3^100000000 exceeds the cap"),
        ("lemma cover --p 2305843009213693951", 3, "p^k = 2305843009213693951^1 exceeds the cap"),
        ("lemma cover --p 2097152", 3, "p^k = 2097152^1 exceeds the cap"),
        ("lemma saturation --p 1000000000000000003", 3, "exceeds the cap"),
        ("construct random --p 2305843009213693951 --out {dir}/x.sys", 3, "exceeds the cap"),
        ("construct norm-form --p 3 --degree 100000000 --out {dir}/x.sys", 3, "q^k = 3^100000000"),
        ("count --system {dir}/two.sys --ext 100000000", 3, "region size 3^200000000 exceeds"),
        ("count --system {dir}/two.sys --ext 32", 3, "region size 3433683820292512484657849089281 exceeds"),  # 3^64
        ("count --system {dir}/two.sys --ext 33", 3, "region size 3^66 exceeds"),  # past 2^64 and the budget
        ("factor-test --system {dir}/form.sys --ext 100000000", 3, "p^k = 3^100000000 exceeds the cap"),
        ("count --system {dir}/big.sys", 1, "p^k = 2305843009213693951^1 exceeds the cap"),
        ("lemma cover --p 2305843009213693951 --k 0", 1, "extension degree must be >= 1"),
    ]
    for args, exit_code, words in cases:
        t0 = time.perf_counter()
        code = cli.main(args.format(dir=tmp_path).split())
        out, err = capsys.readouterr()
        assert (code, out) == (exit_code, ""), (args, err)
        assert words in err and "Traceback" not in err, (args, err)
        assert time.perf_counter() - t0 < 1, args
    assert not (tmp_path / "x.sys").exists()


def test_cli_scan_conjecture(workdir):
    res = _run(
        "scan-conjecture", "--preset", "small", "--per-cell", "1",
        "--budget", "10000", "--out", "scan.csv", cwd=workdir,
    )
    assert res.returncode == 0
    lines = (workdir / "scan.csv").read_text().splitlines()
    assert lines[0].startswith("q,n,degrees")
    assert len(lines) > 1
    res = _run("scan-conjecture", "--qs", "4,5", "--per-cell", "1", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert {line.split(",")[0] for line in res.stdout.splitlines()[1:]} == {"4", "5"}
    for qs in ("6", "2,a", "", "1", "0"):
        res = _run("scan-conjecture", "--qs", qs, cwd=workdir)
        assert res.returncode == 1 and res.stderr.startswith("error:"), (qs, res.stderr)
        assert res.stdout == ""
    res = _run("scan-conjecture", "--qs", str(1 << 21), cwd=workdir)
    assert res.returncode == 3 and res.stderr.startswith("budget exceeded:"), res.stderr


def test_cli_suite_examples_preset(workdir):
    res = _run("suite", "--preset", "examples", "--seed", "0", cwd=workdir)
    assert res.returncode == 0, res.stdout + res.stderr
    body = json.loads(res.stdout.splitlines()[-1])
    assert body["failed"] == 0


def test_cli_suite_body_is_deterministic(workdir):
    # each criterion's wall time goes to stderr, so two runs print the same body
    first, second = (_run("suite", "--preset", "examples", "--seed", "0", cwd=workdir) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    body = json.loads(first.stdout)
    assert [sorted(c) for c in body["criteria"]] == [["id", "pass", "title"]] * 2
    assert "C6" in first.stderr and "C7" in first.stderr


def test_cli_suite_csv_reads_back(workdir):
    # C6's and C7's titles hold commas; a CSV reader gets 3 fields per row
    # and the titles of the JSON body
    csv_out, json_out = (
        _run("suite", "--preset", "examples", "--seed", "0", "--format", fmt, cwd=workdir) for fmt in ("csv", "json")
    )
    assert csv_out.returncode == json_out.returncode == 0, csv_out.stderr
    rows = list(csv.reader(io.StringIO(csv_out.stdout)))
    assert [len(row) for row in rows] == [3] * 3
    assert rows[0] == ["id", "pass", "title"]
    criteria = json.loads(json_out.stdout)["criteria"]
    assert rows[1:] == [[c["id"], str(int(c["pass"])), c["title"]] for c in criteria]
    assert any("," in c["title"] for c in criteria)


def test_cli_suite_lemma2_preset_csv(workdir):
    res = _run(
        "suite", "--preset", "lemma2-exhaustive", "--format", "csv", cwd=workdir
    )
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert any(line.startswith("C8,1,") for line in lines)


# -- malformed inputs, usage errors and the less used commands, in process ------------

OK_SYS = "field p=3 k=1\nvars x1 x2\npoly x1\n"
OK_SUB = "ambient 2\noffset 0 0\nbasis 0 1\n"


def _case(name, sys_text=OK_SYS, sub_text=None, args=(), error="input error: line 1, col 1:"):
    return pytest.param(sys_text, sub_text, args, error, id=name)


MALFORMED = [
    # every FormatError of read_sys
    _case("empty-sys", ""),
    _case("comments-only", "# nothing\n\n"),
    _case("duplicate-field", "field p=3 k=1\nfield p=3 k=1\nvars x\npoly x\n", error="input error: line 2,"),
    _case("unknown-field-attribute", "field p=3 k=1 q=3\nvars x\npoly x\n"),
    _case("p-not-an-integer", "field p=x k=1\nvars x\npoly x\n"),
    _case("p-empty", "field p= k=1\nvars x\npoly x\n"),
    _case("modulus-not-integers", "field p=5 k=1 modulus=a\nvars x\npoly x\n"),
    _case("field-without-k", "field p=3\nvars x\npoly x\n"),
    _case("p-not-prime", "field p=4 k=1\nvars x\npoly x\n"),
    _case("modulus-reducible", "field p=2 k=2 modulus=1,0,1\nvars x\npoly x\n"),
    _case("vars-before-field", "vars x\nfield p=3 k=1\npoly x\n"),
    _case("duplicate-vars", "field p=3 k=1\nvars x\nvars y\npoly x\n", error="input error: line 3,"),
    _case("vars-empty", "field p=3 k=1\nvars\npoly x\n", error="input error: line 2,"),
    _case("vars-repeated", "field p=3 k=1\nvars x x\npoly x\n", error="input error: line 2,"),
    _case("vars-g", "field p=3 k=1\nvars g x\npoly x\n", error="input error: line 2,"),
    _case("poly-before-vars", "field p=3 k=1\npoly x\n", error="input error: line 2,"),
    _case("poly-syntax", "field p=3 k=1\nvars x\npoly x + * 2\n", error="input error: line 3, col 5:"),
    _case("poly-unknown-variable", "field p=3 k=1\nvars x\npoly y\n", error="input error: line 3,"),
    _case("poly-zero", "field p=3 k=1\nvars x\npoly x - x\n", error="input error: line 3,"),
    _case("sys-unknown-directive", "field p=3 k=1\nvars x\nequation x\n", error="input error: line 3,"),
    _case("no-poly-line", "field p=3 k=1\nvars x\n"),
    _case("sys-not-utf8", b"field p=3 k=1\nvars x\npoly x\xff\n", error="input error: line 3, col 7:"),
    _case("sys-missing", None, error="input error: line 0,"),
    # every FormatError of read_sub
    _case("ambient-empty", sub_text="ambient\noffset 0 0\n"),
    _case("ambient-not-an-integer", sub_text="ambient z\noffset 0 0\n"),
    _case("ambient-two-values", sub_text="ambient 2 3\noffset 0 0\n"),
    _case("offset-before-ambient", sub_text="offset 0 0\nambient 2\n"),
    _case("offset-length", sub_text="ambient 2\noffset 0\n", error="input error: line 2,"),
    _case("offset-literal", sub_text="ambient 2\noffset 0 a\n", error="input error: line 2,"),
    _case("offset-colon-literal", sub_text="ambient 2\noffset 0 1:1\n", error="input error: line 2,"),
    _case("basis-before-ambient", sub_text="basis 1 0\nambient 2\n"),
    _case("basis-length", sub_text="ambient 2\noffset 0 0\nbasis 1\n", error="input error: line 3,"),
    _case("basis-literal", sub_text="ambient 2\noffset 0 0\nbasis 1 z\n", error="input error: line 3,"),
    _case("sub-unknown-directive", sub_text="ambient 2\noffset 0 0\nshift 1 0\n", error="input error: line 3,"),
    _case("no-offset-line", sub_text="ambient 2\n"),
    _case("dependent-basis", sub_text="ambient 2\noffset 0 0\nbasis 1 0\nbasis 2 0\n"),
    _case("sub-not-utf8", sub_text=b"ambient 2\noffset 0 \xff\n", error="input error: line 2, col 10:"),
    _case("sub-missing", sub_text=None, args=("--subspace", "{dir}/missing.sub"), error="input error: line 0,"),
    # a report that cannot be written
    _case("out-missing-directory", args=("--out", "{dir}/missing/count.json"), error="error: cannot write"),
]


@pytest.mark.parametrize("sys_text, sub_text, args, error", MALFORMED)
def test_cli_malformed_input_is_an_input_error(tmp_path, capsys, sys_text, sub_text, args, error):
    # a malformed .sys or .sub file, one that is not UTF-8 or cannot be
    # read, and an --out path that cannot be written: exit 1 with the error
    # (naming its line, 0 for a file that cannot be read) on stderr, nothing
    # on stdout and no traceback
    from cwlab import cli

    argv = ["count", "--system", str(tmp_path / "f.sys")]
    for name, text in (("f.sys", sys_text), ("L.sub", sub_text)):
        if text is not None:
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    if sub_text is not None:
        argv += ["--subspace", str(tmp_path / "L.sub")]
    code = cli.main(argv + [a.format(dir=tmp_path) for a in args])
    out, err = capsys.readouterr()
    assert code == 1 and out == "", (code, out, err)
    assert err.splitlines()[-1].startswith(error) and "Traceback" not in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["check", "--system", "f.sys"],
        ["count", "--system", "f.sys", "--budget", "abc"],
        ["construct", "cube", "--p", "3"],
        ["check", "--system", "f.sys", "--law", "ax", "--format", "xml"],
    ],
    ids=["unknown-command", "no-command", "missing-law", "budget-abc", "unknown-kind", "unknown-format"],
)
def test_cli_usage_error_is_an_input_error(argv, capsys):
    # argparse's own exit code for a usage error is 2, the law-violation
    # code; here it is 1, an input error, and --help still exits 0
    from cwlab import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == "" and "error:" in err, (exc.value.code, err)
    for help_argv in (["--help"], [argv[0], "--help"] if argv and argv[0] != "bogus" else ["count", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(help_argv)
        assert exc.value.code in (0, None) and "usage:" in capsys.readouterr().out


def test_cli_csv_bodies(tmp_path, capsys):
    from cwlab import cli

    (tmp_path / "f.sys").write_text(OK_SYS, encoding="utf-8")
    assert cli.main(["count", "--system", str(tmp_path / "f.sys"), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["q", "n", "region", "count", "scanned", "workers"], ["3", "2", "full", "3", "9", "1"]]
    assert cli.main(["check", "--system", str(tmp_path / "f.sys"), "--law", "theorem1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "law,applicable,pass\nparallel-subspaces,1,1\n"


def test_cli_audit_with_homogenization(tmp_path, capsys):
    from cwlab import cli

    (tmp_path / "f.sys").write_text("field p=5 k=1\nvars x1 x2 x3\npoly x1*x2 + x3 + 1\n", encoding="utf-8")
    assert cli.main(["audit", "--system", str(tmp_path / "f.sys"), "--homogenization"]) == 0
    audit, identity = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert audit["law"] == "lower-bounds" and audit["pass"] is True
    assert identity["law"] == "homogenization-identity" and identity["pass"] is True
    assert identity["evidence"]["count"] == 25 and identity["evidence"]["congruence_mod_q"] is True


def test_cli_construct_norm_form_and_random(tmp_path, capsys):
    from cwlab import cli

    for argv, nvars in (
        (["norm-form", "--p", "3", "--degree", "2"], 2),
        (["random", "--p", "5", "--n", "4", "--degrees", "2,1", "--seed", "11"], 4),
    ):
        out = tmp_path / f"{argv[0]}.sys"
        assert cli.main(["construct", *argv, "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().err
        field, names, system = read_sys(out.read_text(encoding="utf-8"))
        assert field.p == int(argv[2]) and system.nvars == len(names) == nvars
        recipe = json.loads(out.with_suffix(".recipe.json").read_text(encoding="utf-8"))
        assert recipe["kind"] == argv[0].replace("-", "_")
    assert system.degrees == (2, 1)


def test_cli_lemma_saturation_object_level(capsys):
    from cwlab import cli

    for part, passed in (("ii", True), ("iii", True), ("iv", True)):
        argv = ["lemma", "saturation", "--p", "5", "--t", "2", "--part", part] + (["--m", "2"] if part == "iv" else [])
        assert cli.main(argv) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["law"] == f"line-saturation-{part}" and body["pass"] is passed and body["evidence"]["size"] == 25


def test_cli_factor_test_needs_one_polynomial(tmp_path, capsys):
    from cwlab import cli

    (tmp_path / "two.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1\npoly x2\n", encoding="utf-8")
    assert cli.main(["factor-test", "--system", str(tmp_path / "two.sys")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "single-polynomial" in err


def test_cli_theorem1_with_d_above_n_is_vacuous(tmp_path, capsys):
    from cwlab import cli

    (tmp_path / "cubic.sys").write_text("field p=3 k=1\nvars x1 x2\npoly x1^3 + x2\npoly x1\n", encoding="utf-8")
    assert cli.main(["check", "--system", str(tmp_path / "cubic.sys"), "--law", "theorem1"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["applicable"] is False and body["pass"] is True
    assert body["evidence"] == {"reason": "no subspace dimension reaches d", "n": 2, "d": 4}
