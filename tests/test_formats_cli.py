"""File formats round-trip and the command-line surface."""

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


def test_cli_check_violation_exit_code(workdir):
    (workdir / "bad.sys").write_text(
        "field p=2 k=1\nvars x1 x2\npoly x1*x2 + 1\n", encoding="utf-8"
    )
    res = _run("check", "--system", "bad.sys", "--law", "warning-hyperplanes", cwd=workdir)
    assert res.returncode == 2
    assert json.loads(res.stdout)["witness"] is not None


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


def test_cli_suite_lemma2_preset_csv(workdir):
    res = _run(
        "suite", "--preset", "lemma2-exhaustive", "--format", "csv", cwd=workdir
    )
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert any(line.startswith("C8,1,") for line in lines)
