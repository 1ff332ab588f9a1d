"""Norm forms, the two bundled example systems, seeded random corpora."""

import json
from pathlib import Path

import pytest

import cwlab.constructions as constructions
from cwlab.constructions import (
    CORPUS_BLOCK,
    CORPUS_BLOCKS,
    ConstructionRecipe,
    _monomials_up_to,
    corpus_system,
    embed_in_more_variables,
    example_one,
    example_two,
    norm_form,
    random_system,
)
from cwlab.counting import count_zeros
from cwlab.errors import DegreeTooLarge, FieldTooSmall, InvalidArgument
from cwlab.fields import build_field, embed_subfield
from cwlab.polynomials import PolySystem, parse_poly
from cwlab.rng import SplitMix64
from references import corpus_system_by_index, monomials_by_recursion, random_system_by_coefficient, system_key

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)

# the constructions' term dicts, recorded before their norm-form code was
# folded into one helper: {"q,degree": terms} and {"q": {...}}
RECORDED = json.loads((Path(__file__).parent / "construction_terms.json").read_text())
FIELDS = {F.q: F for F in (build_field(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)))}


def _terms(f):
    return [[list(e), c] for e, c in sorted(f.terms.items())]


def test_norm_forms_match_recorded_terms():
    for key, terms in RECORDED["norm_form"].items():
        q, degree = map(int, key.split(","))
        assert _terms(norm_form(FIELDS[q], degree)) == terms, key
    assert {tuple(map(int, key.split(","))) for key in RECORDED["norm_form"]} == {
        (q, d) for q in FIELDS for d in (2, 3, 4)
    }


def test_example_two_matches_recorded_terms():
    for q, rec in RECORDED["example_two"].items():
        ex = example_two(FIELDS[int(q)])
        assert (_terms(ex.poly), _terms(ex.q1), _terms(ex.q2)) == (rec["poly"], rec["q1"], rec["q2"]), q
        assert (ex.alpha, ex.beta) == (rec["alpha"], rec["beta"])
    assert sorted(map(int, RECORDED["example_two"])) == [3, 4, 5, 7, 9]


def test_norm_form_examples():
    assert norm_form(F2, 2) == parse_poly("x1^2 + x1*x2 + x2^2", F2, ["x1", "x2"])
    assert norm_form(F3, 1) == parse_poly("x1", F3, ["x1"])
    assert count_zeros(PolySystem([norm_form(F3, 2)])).count == 1


def test_norm_form_properties():
    for F, k in ((F2, 2), (F2, 3), (F3, 2), (F4, 2), (F5, 2), (F3, 3)):
        f = norm_form(F, k)
        assert f.nvars == k and f.total_degree == k and f.is_homogeneous
        assert count_zeros(PolySystem([f])).count == 1


def test_example_one_counts():
    for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1)):
        built = example_one(build_field(p, k), 4)
        cnt = count_zeros(built.system).count
        assert cnt == q**3 - q**2 + q == built.expected_quadric_count
        assert not built.display_mismatch


def test_example_one_product_discrepancy_flag():
    built = example_one(F2, 6)
    assert built.system.total_degree == 4  # d = n - 2
    cnt = count_zeros(built.system).count
    assert cnt == 34 == built.inclusion_exclusion_count
    assert built.display_count == 6
    assert built.display_mismatch  # the closed-form display only matches n = 4


def test_example_one_checks_the_norm_cap_first():
    # the norm form's field cap is read before any term in n variables is
    # built: n = 2^32 + 1 (found by the input fuzzer) is refused at once
    # as a field past the cap, and no MemoryError escapes
    with pytest.raises(DegreeTooLarge):
        example_one(build_field(7, 1), 2**32 + 1)


def test_example_one_binary_part_irreducible():
    # x^2 + x + c must have no roots
    for F in (F2, F3, F4, F5):
        built = example_one(F, 4)
        c = built.recipe.provenance["c"]
        assert all(F.add(F.add(F.mul(a, a), a), c) != 0 for a in range(F.q))


def test_example_two_single_zero():
    for q, p, k in ((3, 3, 1), (4, 2, 2), (5, 5, 1)):
        built = example_two(build_field(p, k))
        assert built.poly.is_homogeneous and built.poly.total_degree == 4
        assert count_zeros(built.system).count == 1


def test_example_two_beta_outside_base_field():
    built = example_two(F3)
    B2 = build_field(3, 2)
    emb = embed_subfield(F3, B2)
    assert not emb.in_image(built.beta)
    assert built.beta not in (built.alpha, B2.pow(built.alpha, 3))


def test_example_two_refuses_q2():
    with pytest.raises(FieldTooSmall):
        example_two(F2)


def test_random_system_determinism_and_degrees():
    a = random_system(F3, 3, (2, 1), 42)
    b = random_system(F3, 3, (2, 1), 42)
    assert a == b
    assert a.degrees == (2, 1)
    c = random_system(F3, 3, (2, 1), 43)
    assert a != c  # different seeds give different draws (overwhelmingly)
    d = random_system(F2, 4, (1,), 0)
    assert d.degrees == (1,)


def test_monomial_listing_matches_the_recursion():
    # the monomials a random system draws coefficients for, listed from the
    # multisets of variables, in the recursion's sorted order: the order the
    # seeded draws follow, so the corpus is unchanged
    for n in range(1, 7):
        for d in range(5):
            assert list(_monomials_up_to(n, d)) == monomials_by_recursion(n, d), (n, d)


def test_corpus_constraints():
    for i in range(80):
        system = corpus_system(0, i)
        assert system.field.q in (2, 3, 4, 5)
        assert system.nvars <= 5
        assert all(1 <= d <= 3 for d in system.degrees)
        assert system.nvars > system.total_degree


class _CountingStream(SplitMix64):
    """A stream that counts the draws made past a corpus system's window."""

    __slots__ = ()
    draws = 0

    def draw(self, count, n=None):
        _CountingStream.draws += 1
        return super().draw(count, n)


def test_corpus_draws_match_the_scalar_reference(monkeypatch):
    # field, arity and every polynomial's terms in insertion order; some of
    # these systems redraw past the window their block drew for them
    monkeypatch.setattr(constructions, "SplitMix64", _CountingStream)
    monkeypatch.setattr(_CountingStream, "draws", 0)
    for seed in (0, 1, 21, 2**64 + 5):
        for i in range(3000):
            assert system_key(corpus_system(seed, i)) == system_key(corpus_system_by_index(seed, i)), (seed, i)
    assert _CountingStream.draws > 0


def test_random_systems_match_the_scalar_reference():
    # n = 1 and d = 1 over F_2 redraws half the time
    shapes = [(1, (1,)), (1, (1, 1, 2)), (2, (1, 2)), (3, (3,)), (4, (2, 1)), (6, (2,))]
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 11), (5, 4)):
        F = build_field(p, k)
        for n, degrees in shapes:
            for seed in range(4):
                got, want = random_system(F, n, degrees, seed), random_system_by_coefficient(F, n, degrees, seed)
                assert system_key(got) == system_key(want), (F.q, n, degrees, seed)


def test_corpus_calls_build_fresh_objects():
    a, b = corpus_system(3, 17), corpus_system(3, 17)
    assert system_key(a) == system_key(b)
    assert a is not b and not any(f is g or f.terms is g.terms for f, g in zip(a.polys, b.polys))


def test_corpus_random_access_matches_the_reference():
    # cold calls, each drawing its own block, far from index 0 and below it
    for seed, index in ((0, 10**6 + 5), (7, CORPUS_BLOCK - 1), (7, CORPUS_BLOCK), (2, -1), (2, -CORPUS_BLOCK - 3)):
        CORPUS_BLOCKS.clear()
        assert system_key(corpus_system(seed, index)) == system_key(corpus_system_by_index(seed, index))
        assert CORPUS_BLOCKS.misses == 1 and len(CORPUS_BLOCKS.kept) == 1


def test_corpus_blocks_stay_within_their_bound():
    for block in range(80):  # 80 blocks of 256 indexes hold about 1.5 MB
        corpus_system(9, block * CORPUS_BLOCK)
        assert CORPUS_BLOCKS.held <= CORPUS_BLOCKS.bound
    assert CORPUS_BLOCKS.evictions > 0


def recipe_from_json(text):
    """The recipe a `ConstructionRecipe.to_json` body records."""
    data = json.loads(text)
    return ConstructionRecipe(data["kind"], data["parameters"], data.get("provenance", {}))


def build_from_recipe(recipe):
    """Replay a recipe: the rebuilt object is bit-identical to the original."""
    params = recipe.parameters
    F = build_field(params["p"], params["k"])
    if recipe.kind == "norm_form":
        return norm_form(F, params["degree"])
    if recipe.kind == "example1":
        return example_one(F, params["n"])
    if recipe.kind == "example2":
        return example_two(F)
    if recipe.kind == "random":
        return random_system(F, params["n"], params["degrees"], params["seed"])
    raise InvalidArgument(f"unknown recipe kind {recipe.kind!r}")


def test_recipe_replay_is_bit_identical():
    from cwlab.formats import write_sys

    built = example_one(F3, 5)
    replay = build_from_recipe(built.recipe)
    names = [f"x{i+1}" for i in range(5)]
    assert write_sys(F3, names, built.system) == write_sys(F3, names, replay.system)

    rec = recipe_from_json(built.recipe.to_json())
    assert rec.kind == built.recipe.kind and rec.parameters == built.recipe.parameters

    ex2 = example_two(F3)
    again = build_from_recipe(ex2.recipe)
    assert again.poly == ex2.poly

    rnd = random_system(F4, 3, (2,), 9)
    rec2 = ConstructionRecipe("random", {"p": 2, "k": 2, "n": 3, "degrees": [2], "seed": 9})
    assert build_from_recipe(rec2) == rnd


def test_embed_in_more_variables():
    f = norm_form(F2, 2)
    g = embed_in_more_variables(f, 4, at=2)
    assert g.nvars == 4
    assert g.evaluate((1, 1, 0, 1)) == f.evaluate((0, 1))
