"""The four workloads: inputs made from a seed, the operations, the checks.

`make(name, seed, seconds)` does the workload's set-up (cold field
construction and input generation) and returns a Workload whose `ops` is the
fixed list of timed operations and `warmup` the untimed warm-up round.
`check(results)` compares the outputs of the timed pass with counts made by
the benchmark's own brute-force evaluator (gf.py) and with the laws' own
properties, and returns a list of problems (empty when all is well).

Every cwlab call goes through a module attribute (cw.laws.check_congruence,
not a name imported here), so the traced run's wrappers see it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import cwlab as cw
import cwlab.cli  # noqa: F401  (compiled and cached before the CLI children start)
import cwlab.constructions
import cwlab.formats

import gf

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

# Shapes (q, n, degrees) the seeded corpus draws from: q in {2,3,4,5}, one or
# two polynomials of degree <= 3 with total degree d <= 4, and d < n <= 5.
PROFILES = ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
SHAPES = [(q, n, prof) for q in (2, 3, 4, 5) for prof in PROFILES for n in range(sum(prof) + 1, 6)]

# coset-classes keeps the shapes whose two congruence checks hold at most
# this many classes (64 of the 76; about 30 000 classes a round).  The larger
# ones (q = 4, 5 with n = 5 and d <= 3: 6 000 to 43 000 classes) would each
# take from half a second to three seconds.
CLASS_CAP = 3000
COSET_GROUPS = 14

CORPUS_DRAWS = 3000
# corpus-sweep times a batch of systems as one operation: per round, one
# system of every shape, split into this many batches of about equal cost,
# so every operation holds the same mix and the median has no gap to jump
CORPUS_GROUPS = 15
# extension-fields: planted products per round, by q.  The 14 over F_3 hold
# the median; with the 4 over F_4 and the F_4 quartic they make a cluster of
# ten per two rounds where the tail's rank falls.
PLANTED = {3: 14, 4: 4}

# nominal reference seconds per round on the reference machine, and the
# least rounds that give the 40 operations a tail needs.
ROUND_S = {"corpus-sweep": 2.2, "coset-classes": 1.9, "extension-fields": 5.8, "cli-oneshot": 6.0}
MIN_ROUNDS = {"corpus-sweep": 3, "coset-classes": 3, "extension-fields": 2, "cli-oneshot": 6}


def rounds_for(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS[name], round(seconds / ROUND_S[name]))


class Workload:
    def __init__(self, ops, warmup, check):
        self.ops = ops  # [(label, callable)]
        self.warmup = warmup
        self.check = check
        self.peak_rss_mb = None  # set by workloads whose memory is a child's
        self.child_traces: list[tuple[list[str], dict]] = []  # (span lines, summary)
        self.traced = False
        self.in_process = True  # False: operations run in child processes
        self.pace_log = None  # set by the runner; samples while children run

    def close(self) -> None:
        pass


_gf_cache: dict = {}


def gf_of(F) -> gf.GF:
    """The benchmark's own model of a cwlab field, on its documented modulus."""
    key = (F.p, F.k, F.modulus)
    if key not in _gf_cache:
        _gf_cache[key] = gf.GF(F.p, F.k, F.modulus)
    return _gf_cache[key]


def _ext_of(p: int, m: int) -> gf.GF:
    key = ("ext", p, m)
    if key not in _gf_cache:
        _gf_cache[key] = gf.extension(p, m)
    return _gf_cache[key]


def terms(f):
    return list(f.terms.items())


def recount(system, s: int = 1) -> int:
    """N(system) over F_{q^s}, by the benchmark's own evaluator."""
    F = system.field
    polys = [terms(f) for f in system.polys]
    if s == 1:
        return gf.count(gf_of(F), polys, system.nvars)
    K = _ext_of(F.p, F.k * s)
    table = gf.embedding(gf_of(F), K)
    return gf.count(K, [gf.lift(t, table) for t in polys], system.nvars)


def ax_katz_ok(N: int, q: int, n: int, degrees) -> bool:
    e = max(0, -(-(n - sum(degrees)) // max(degrees)))
    return N % q**e == 0


def random_rows(rng: random.Random, F, n: int, m: int):
    """m random independent vectors of F_q^n (rank tested by gf.echelon)."""
    G = gf_of(F)
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]
        if len(gf.echelon(G, rows)[0]) == m:
            return rows


def stratified_corpus(seed: int, shapes, per_shape: int):
    """The first per_shape systems of each shape in corpus(seed), index order.

    Returned round-major: round j holds the j-th system of every shape, in
    index order.  A fixed shape mix keeps the work of a run the same for
    every seed.  At least CORPUS_DRAWS systems are drawn, so that set-up
    does the same work whatever the seed (the quotas fill within about
    1500 draws)."""
    want = set(shapes)
    got: dict = defaultdict(list)
    i = 0
    while i < CORPUS_DRAWS or any(len(got[s]) < per_shape for s in shapes):
        if i > 200_000:
            raise RuntimeError("corpus shapes did not fill")
        system = cw.constructions.corpus_system(seed, i)
        key = (system.field.q, system.nvars, system.degrees)
        if key in want and len(got[key]) < per_shape:
            got[key].append((i, system))
        i += 1
    return [[s for _, s in sorted(got[sh][j] for sh in shapes)] for j in range(per_shape)]


# -- corpus-sweep -------------------------------------------------------------------


def shape_groups(shapes, groups: int, weight):
    """Split shapes into groups of about equal weight: heaviest first, each
    into the lightest group so far (ties keep the shapes' order)."""
    out = [[] for _ in range(groups)]
    load = [0] * groups
    for sh in sorted(shapes, key=lambda sh: -weight(sh)):
        g = load.index(min(load))
        out[g].append(sh)
        load[g] += weight(sh)
    return out


def batched(seed: int, shapes, rounds: int, groups: int, weight):
    """Per round, one system of every shape (stratified_corpus), split into
    the same groups of shapes; returns rounds x groups lists of systems.
    Timing a group as one operation gives every operation the same mix, so
    the median has no gap between two kinds of operation to jump across."""
    group_of = {sh: g for g, grp in enumerate(shape_groups(shapes, groups, weight)) for sh in grp}
    out = []
    for rnd in stratified_corpus(seed, shapes, rounds):
        row = [[] for _ in range(groups)]
        for system in rnd:
            row[group_of[(system.field.q, system.nvars, system.degrees)]].append(system)
        out.append(row)
    return out


def corpus_sweep(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"corpus-sweep/{seed}")
    # a count costs about q^n point evaluations plus a fixed cost per call
    batches = batched(seed, SHAPES, rounds, CORPUS_GROUPS, lambda sh: sh[0] ** sh[1] + 30)
    for row in batches:  # each system with a seeded direction space of dimension d
        for batch in row:
            for i, system in enumerate(batch):
                F, n, d = system.field, system.nvars, system.total_degree
                rows = random_rows(rng, F, n, d)
                batch[i] = (system, cw.subspaces.AffineSubspace(F, (0,) * n, rows), rows)

    def verdicts(system, L):
        return (
            cw.laws.check_congruence(system, "chevalley"),
            cw.laws.check_congruence(system, "ax"),
            cw.laws.homogenization_identity(system),
            cw.laws.lower_bound_audit(system),
            cw.counting.counts_over_parallel_class(system, L),
        )

    def op(r, g, batch):
        return (f"round {r} group {g}", lambda: [verdicts(system, L) for system, L, _ in batch])

    ops = [op(r, g, batch) for r, row in enumerate(batches) for g, batch in enumerate(row)]
    warmup = ops[:CORPUS_GROUPS]
    flat = [batch for row in batches for batch in row]

    def check(results) -> list[str]:
        bad = []
        pairs = [(x, v) for batch, res in zip(flat, results) if res is not None for x, v in zip(batch, res)]
        for (system, L, rows), (chev, ax, hom, audit, pclass) in pairs:
            F = system.field
            q, p, n, d = F.q, F.p, system.nvars, system.total_degree
            G = gf_of(F)
            polys = [terms(f) for f in system.polys]
            mask = gf.zero_mask(G, polys, n)
            N = int(mask.sum())
            N_lead = gf.count(G, [gf.leading(t) for t in polys], n)
            N_hom = gf.count(G, [gf.homogenized(t) for t in polys], n + 1)
            tag = f"{system!r}"
            if not (chev.passed and chev.evidence.get("count") == N and N % p == 0):
                bad.append(f"{tag}: chevalley {chev.evidence} vs N={N}")
            if not (ax.passed and ax.evidence.get("count") == N and N % q == 0):
                bad.append(f"{tag}: ax {ax.evidence} vs N={N}")
            if not ax_katz_ok(N, q, n, system.degrees):
                bad.append(f"{tag}: Ax-Katz divisibility fails for N={N}")
            ev = hom.evidence
            if not (
                hom.passed
                and (ev["count"], ev["count_leading"], ev["count_homogenized"]) == (N, N_lead, N_hom)
                and N_hom == (q - 1) * N + N_lead
                and (N - N_lead) % q == 0
            ):
                bad.append(f"{tag}: homogenization {ev} vs {(N, N_lead, N_hom)}")
            if not (audit.passed and audit.evidence.get("count") == N):
                bad.append(f"{tag}: lower bounds {audit.evidence} vs N={N}")
            counts = [c for _, c in pclass]
            mine = gf.coset_counts(G, mask, n, rows)
            if sorted(counts) != sorted(mine) or len(counts) != q ** (n - len(rows)):
                bad.append(f"{tag}: parallel class counts {counts} vs {mine}")
            elif sum(counts) != N or len({c % q for c in counts}) != 1:
                bad.append(f"{tag}: parallel class counts {counts} break sum/congruence")
        return bad

    return Workload(ops, warmup, check)


# -- coset-classes ------------------------------------------------------------------


def class_total(q: int, n: int, d: int) -> dict:
    """Classes each law checks, by dimension (Gaussian binomials)."""
    return {
        "parallel-subspaces": {m: gf.gaussian_binomial(q, n, m) for m in range(d, n + 1)},
        "warning-hyperplanes": {n - 1: gf.gaussian_binomial(q, n, n - 1)},
    }


def classes_of(shape) -> int:
    q, n, prof = shape
    return sum(sum(t.values()) for t in class_total(q, n, sum(prof)).values())


def coset_classes(seed: int, rounds: int) -> Workload:
    shapes = [sh for sh in SHAPES if classes_of(sh) <= CLASS_CAP]
    batches = batched(seed, shapes, rounds, COSET_GROUPS, classes_of)

    def checks(system):
        F, n, d = system.field, system.nvars, system.total_degree
        return [
            cw.laws.check_congruence(
                system, law, cw.laws.CheckScope(all_pairs=True, budget=sum(t.values()) + 1)
            )
            for law, t in class_total(F.q, n, d).items()
        ]

    def op(r, g, batch):
        return (f"round {r} group {g}", lambda: [checks(system) for system in batch])

    ops = [op(r, g, batch) for r, row in enumerate(batches) for g, batch in enumerate(row)]
    warmup = ops[:COSET_GROUPS]
    flat = [batch for row in batches for batch in row]

    def check(results) -> list[str]:
        bad = []
        pairs = [(x, v) for batch, res in zip(flat, results) if res is not None for x, v in zip(batch, res)]
        for system, res in pairs:
            F, n, d = system.field, system.nvars, system.total_degree
            N = recount(system)
            for rep, (law, per_dim) in zip(res, class_total(F.q, n, d).items()):
                ev = rep.evidence
                if not (
                    rep.law == law
                    and rep.applicable
                    and rep.passed
                    and ev.get("truncated") is False
                    and ev.get("per_dim") == per_dim
                    and ev.get("classes_checked") == sum(per_dim.values())
                    and ev.get("zero_count") == N
                    and ev.get("modulus") == (F.q if law == "parallel-subspaces" else F.p)
                ):
                    bad.append(f"{system!r} {law}: {ev} vs per_dim={per_dim} N={N}")
        return bad

    return Workload(ops, warmup, check)


# -- extension-fields -----------------------------------------------------------------


def _linear_form(rng: random.Random, F, n: int):
    """A seeded linear form with every coefficient nonzero: a planted product
    then has the same terms, and about the same cost, for every seed."""
    coeffs = [1 + rng.randrange(F.q - 1) for _ in range(n)]
    items = [(tuple(int(j == i) for j in range(n)), c) for i, c in enumerate(coeffs) if c]
    return coeffs, cw.MultiPoly.from_terms(F, n, items)


def _normalized(G: gf.GF, coeffs):
    lead = next(c for c in coeffs if c)
    inv = G.inv(lead)
    return [G.m(inv, c) for c in coeffs]


def _conjugates(G: gf.GF, coeffs):
    """coeffs under every automorphism of F_q over F_p."""
    out, cur = [], list(coeffs)
    for _ in range(G.k):
        out.append(tuple(cur))
        cur = [gf.frobenius(G, c) for c in cur]
    return out


def _witness_problems(f, s: int, verdict, planted) -> list[str]:
    """A found witness is a normalized form over cwlab's F_{q^s} whose
    hyperplane lies in the zero set (for one of the embeddings, which differ
    by an automorphism of F_q); a planted factor is found as itself."""
    F = f.field
    K = cw.fields.build_field(F.p, F.k * s)  # read for its documented modulus
    KG = gf.GF(K.p, K.k, K.modulus)
    G = gf_of(F)
    table = gf.embedding(G, KG)
    w = list(verdict.witness)
    bad = []
    j = next(i for i, c in enumerate(w) if c)
    if w[j] != KG.one:
        bad.append(f"witness {w} is not normalized")
    n = f.nvars
    free = [i for i in range(n) if i != j]
    X = [None] * n
    for i, col in zip(free, gf.grid(KG.q, n - 1)):
        X[i] = col
    acc = 0
    for i in free:
        acc = KG.add_flat[acc * KG.q + KG.mul_flat[w[i] * KG.q + X[i]]]
    X[j] = KG.neg[acc]
    size = KG.q ** (n - 1)
    conj_terms = [list(zip(f.terms.keys(), cs)) for cs in _conjugates(G, list(f.terms.values()))]
    if not any(
        (gf.evaluate(KG, gf.lift(t, table), X, size) == 0).all() for t in conj_terms
    ):
        bad.append(f"witness {w} hyperplane is not in the zero set")
    if planted is not None:
        images = {tuple(int(table[c]) for c in cs) for cs in _conjugates(G, _normalized(G, planted))}
        if tuple(w) not in images:
            bad.append(f"witness {w} is not the planted form {planted}")
    return bad


def extension_fields(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"extension-fields/{seed}")
    F3, F4, F5, F25 = (cw.build_field(p, k) for p, k in ((3, 1), (2, 2), (5, 1), (5, 2)))
    quartic = {F.q: cw.constructions.example_two(F).poly for F in (F3, F4, F5)}
    fixed = [  # (label, form, ladder s_max, factor-test exts, planted coeffs, example 2?)
        ("norm q=3 k=4", cw.constructions.norm_form(F3, 4), 2, (1, 2), None, False),
        ("example2 q=4", quartic[4], 2, (1, 2), None, True),
        ("norm q=25 k=2", cw.constructions.norm_form(F25, 2), 2, (1, 2), None, False),
        ("example2 q=5", quartic[5], 2, (1, 2), None, True),
        ("example2 q=3", quartic[3], 3, (1, 2, 4), None, True),
    ]

    def planted(F):
        coeffs, lin = _linear_form(rng, F, 4)
        return (f"planted q={F.q}", quartic[F.q] * lin, 2, (1, 2), coeffs, False)

    specs = [
        spec
        for _ in range(rounds)
        for spec in fixed + [planted(F4) for _ in range(PLANTED[4])] + [planted(F3) for _ in range(PLANTED[3])]
    ]
    for _, f, s_max, exts, _, _ in fixed:  # every field a lift uses, built cold here
        for s in set(range(1, s_max + 1)) | set(exts):
            cw.fields.embed_subfield(f.field, cw.build_field(f.field.p, f.field.k * s))
    trial_seed = rng.randrange(1 << 30)

    def op(spec):
        label, f, s_max, exts, _, _ = spec

        def run():
            est = cw.geometry.estimate_dimension(cw.PolySystem([f]), s_max)
            return est, [cw.geometry.linear_factor_test(f, s, seed=trial_seed) for s in exts]

        return (f"{label}: ladder to s={s_max}, factor tests at s in {exts}", run)

    ops = [op(spec) for spec in specs]
    # each kind of form once, but the two largest
    warmup = [op(spec) for spec in fixed[:3] + [planted(F4), planted(F3)]]

    def check(results) -> list[str]:
        bad = []
        recounts: dict = {}
        for (label, f, s_max, exts, coeffs, ex2), res in zip(specs, results):
            if res is None:
                continue
            est, verdicts = res
            q, n, d = f.field.q, f.nvars, int(f.total_degree)
            for s, N in est.counts:
                key = (id(f), s)
                if key not in recounts:
                    recounts[key] = recount(cw.PolySystem([f]), s)
                if N != recounts[key]:
                    bad.append(f"{label}: N_{s} = {N}, recount {recounts[key]}")
                if (N - 1) % (q**s - 1):
                    bad.append(f"{label}: N_{s} = {N} is not 1 mod q^s - 1")
            if ex2 and est.counts[0][1] != 1:
                bad.append(f"{label}: N_1 = {est.counts[0][1]}, the quartic has one zero")
            for s, v in zip(exts, verdicts):
                Q = q**s
                if v.forms_checked != (Q**n - 1) // (Q - 1) or v.field_size != Q:
                    bad.append(f"{label} s={s}: {v.forms_checked} forms over F_{v.field_size}")
                if not v.error_bound <= Fraction(d, Q) ** v.trials:
                    bad.append(f"{label} s={s}: error bound {v.error_bound} > (d/Q)^T")
                if ex2 and 4 % s == 0 and v.found:
                    bad.append(f"{label} s={s}: linear factor {v.witness} of the non-split quartic")
                if coeffs is not None and not v.found:
                    bad.append(f"{label} s={s}: planted factor not found")
                if v.found:
                    bad.extend(f"{label} s={s}: {m}" for m in _witness_problems(f, s, v, coeffs))
        return bad

    return Workload(ops, warmup, check)


# -- cli-oneshot --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_oneshot(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"cli-oneshot/{seed}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    names4 = ["x1", "x2", "x3", "x4"]
    F5, F25, F3 = cw.build_field(5, 1), cw.build_field(5, 2), cw.build_field(3, 1)
    mk = cw.constructions.random_system
    s5 = mk(F5, 4, (2,), rng.randrange(1 << 30))
    s25 = [mk(F25, 2, (2,), rng.randrange(1 << 30)) for _ in range(2)]
    s3 = mk(F3, 3, (2,), rng.randrange(1 << 30))
    coeffs, lin = _linear_form(rng, F3, 4)
    planted = cw.PolySystem([cw.constructions.example_two(F3).poly * lin])
    sub_off = [rng.randrange(5) for _ in range(4)]
    sub_rows = random_rows(rng, F5, 4, 2)
    L = cw.subspaces.AffineSubspace(F5, sub_off, sub_rows)
    files = {
        "f5.sys": cw.formats.write_sys(F5, names4, s5),
        "f5.sub": cw.formats.write_sub(L),
        "f25a.sys": cw.formats.write_sys(F25, ["x1", "x2"], s25[0]),
        "f25b.sys": cw.formats.write_sys(F25, ["x1", "x2"], s25[1]),
        "f3.sys": cw.formats.write_sys(F3, names4[:3], s3),
        "planted.sys": cw.formats.write_sys(F3, names4, planted),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")

    # two F_625 counts a cycle: with six cycles the tail's rank (ten from the
    # top) falls among their twelve runs, not on the edge below them
    commands = [
        ["count", "--system", "f5.sys"],
        ["count", "--system", "f5.sys", "--subspace", "f5.sub"],
        ["count", "--system", "f25a.sys", "--ext", "2"],
        ["check", "--system", "f5.sys", "--law", "theorem1"],
        ["check", "--system", "f5.sys", "--law", "ax"],
        ["audit", "--system", "f5.sys", "--homogenization"],
        ["count", "--system", "f25b.sys", "--ext", "2"],
        ["estimate-dim", "--system", "f3.sys"],
        ["factor-test", "--system", "planted.sys", "--ext", "2"],
        ["suite", "--preset", "examples"],
    ]
    env = child_env()
    wl = Workload([], [], None)
    wl.in_process = False
    peak = [0]

    def launch(argv):
        """One closed-loop CLI process; returns its stdout, raises on exit != 0."""
        if wl.traced:
            trace_file = work / f"trace-{len(wl.child_traces)}.jsonl"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "cwlab", *argv]
        with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
            _, status, usage = wl.pace_log.wait_child(proc.pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            peak[0] = max(peak[0], usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            text, errs = out.read().decode(), err.read().decode()
        if wl.traced:
            with open(trace_file, encoding="utf-8") as fh:
                lines = fh.readlines()
            wl.child_traces.append((lines[:-1], json.loads(lines[-1])["summary"]))
        if proc.returncode != 0:
            raise RuntimeError(f"cwlab {' '.join(argv)} exited {proc.returncode}: {errs[-300:]}")
        return text

    one_round = [(" ".join(c), lambda c=c: launch(c)) for c in commands]
    wl.ops = one_round * rounds
    # warms the interpreter's files and cached bytecode; not a full round
    wl.warmup = [one_round[0]]

    def check(results) -> list[str]:
        N5 = recount(s5)
        G5 = gf_of(F5)
        mask5 = gf.zero_mask(G5, [terms(f) for f in s5.polys], 4)
        N_sub = int(mask5[gf.points_of(G5, sub_off, sub_rows)].sum())
        N25 = {"f25a.sys": recount(s25[0], 2), "f25b.sys": recount(s25[1], 2)}
        N3 = [recount(s3, s) for s in (1, 2, 3)]
        G3 = gf_of(F3)
        polys5 = [terms(f) for f in s5.polys]
        N5_lead = gf.count(G5, [gf.leading(t) for t in polys5], 4)
        N5_hom = gf.count(G5, [gf.homogenized(t) for t in polys5], 5)
        classes = class_total(5, 4, s5.total_degree)["parallel-subspaces"]
        bad = []
        for (label, _), text in zip(wl.ops, results):
            if text is None:
                continue
            lines = [ln for ln in text.splitlines() if ln.strip()]
            body = json.loads(lines[-1])
            cmd = label.split()[0]
            ok = True
            if label.endswith("--ext 2") and cmd == "count":
                ok = (
                    body["count"] == N25[label.split()[2]]
                    and body["scanned"] == 625**2
                    and body["region"] == "ext s=2"
                )
            elif label.endswith("f5.sub"):
                ok = body["count"] == N_sub
            elif cmd == "count":
                ok = body["count"] == N5 and body["scanned"] == 625
            elif label.endswith("theorem1"):
                ev = body["evidence"]
                ok = (
                    body["pass"]
                    and ev["truncated"] is False
                    and {int(m): c for m, c in ev["per_dim"].items()} == classes
                    and ev["zero_count"] == N5
                )
            elif label.endswith("ax"):
                ok = body["pass"] and body["evidence"]["count"] == N5 and N5 % 5 == 0
            elif cmd == "audit":
                lb, hom = (json.loads(ln) for ln in lines[-2:])
                ev = hom["evidence"]
                ok = (
                    lb["pass"]
                    and lb["evidence"]["count"] == N5
                    and hom["pass"]
                    and (ev["count"], ev["count_leading"], ev["count_homogenized"]) == (N5, N5_lead, N5_hom)
                )
            elif cmd == "estimate-dim":
                ok = [c for _, c in body["counts"]] == N3
            elif cmd == "factor-test":
                K = cw.fields.build_field(3, 2)
                KG = gf.GF(3, 2, K.modulus)
                table = gf.embedding(G3, KG)
                images = {tuple(int(table[c]) for c in cs) for cs in _conjugates(G3, _normalized(G3, coeffs))}
                ok = (
                    body["found"]
                    and tuple(body["witness"]) in images
                    and body["forms_checked"] == (9**4 - 1) // 8
                    and Fraction(body["error_bound"]) <= Fraction(5, 9) ** body["trials"]
                )
            elif cmd == "suite":
                ok = body["passed"] == 2 and body["failed"] == 0
            if not ok:
                bad.append(f"cwlab {label}: {lines[-1][:300]}")
        return bad

    def close():
        shutil.rmtree(work, ignore_errors=True)

    wl.check = check
    wl.close = close
    wl.peak_rss_mb = lambda: peak[0] / 1024
    return wl


WORKLOADS = {
    "corpus-sweep": corpus_sweep,
    "coset-classes": coset_classes,
    "extension-fields": extension_fields,
    "cli-oneshot": cli_oneshot,
}


def make(name: str, seed: int, seconds: float) -> Workload:
    return WORKLOADS[name](seed, rounds_for(name, seconds))
