"""The named constructions and the seeded random corpora, each with a
recipe (kind, parameters, provenance) that rebuilds it bit for bit."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, compress
from math import comb
from typing import Sequence

import numpy as np

from .counting import count_zeros
from .errors import BudgetExceeded, DegreeTooLarge, FieldTooSmall, InvalidArgument
from .fields import FIELD_SIZE_CAP, Embedding, FieldSpec, build_field, embed_subfield
from .memo import Memo
from .polynomials import MultiPoly, PolySystem
from .rng import MASK64, SplitMix64, derive_seed, draw_many

# q^k up to which `norm_form` counts its zeros to assert the origin is the only one
_NORM_VERIFY_CAP = 1 << 12
# monomials a random system draws coefficients for, summed over its
# polynomials: at the cap `cwlab construct random` takes about two seconds
RANDOM_MONOMIALS = 250_000


@dataclass
class ConstructionRecipe:
    """What a construction was built from, as the `.recipe.json` sidecar records it."""

    kind: str  # norm_form | example1 | example2 | random
    parameters: dict
    provenance: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        """The sidecar body."""
        return json.dumps(asdict(self))


def _pull_back(emb: Embedding, f: MultiPoly) -> MultiPoly:
    """f with its coefficients pulled back along emb to emb.small."""
    if not all(map(emb.in_image, f.terms.values())):
        raise AssertionError(f"a coefficient escaped F_{emb.small.q}")
    return MultiPoly(emb.small, f.nvars, {e: emb.pull(c) for e, c in f.terms.items()})


def _generic_norm(emb: Embedding, nvars: int) -> MultiPoly:
    """The norm from emb.big to emb.small of x_1 + x_2 g + ... +
    x_nvars g^(nvars-1), g the big generator, pulled back to emb.small."""
    K, q = emb.big, emb.small.q
    conj = MultiPoly.from_terms(
        K,
        nvars,
        [(tuple(int(j == i) for j in range(nvars)), K.pow(K.generator, i)) for i in range(nvars)],
    )
    prod = MultiPoly.constant(K, nvars, K.one)
    for _ in range(K.k // emb.small.k):
        prod = prod * conj
        conj = conj.map_coefficients(lambda c: K.pow(c, q), K)
    return _pull_back(emb, prod)


def norm_form(F: FieldSpec, k: int) -> MultiPoly:
    """The degree-k norm form in k variables (the norm of a general element
    of the degree-k extension in its power basis), zero only at the origin;
    DegreeTooLarge when that extension is past the field cap."""
    if k < 1:
        raise InvalidArgument(f"norm form degree must be >= 1, got {k}")
    # p >= 2: past extension degree 20 q^k is past the cap, and past 64 not formed
    if F.k * k > 20 or F.q**k > FIELD_SIZE_CAP:
        raise DegreeTooLarge(f"q^k = {F.q**k if F.k * k <= 64 else f'{F.q}^{k}'} exceeds the field cap")
    form = _generic_norm(embed_subfield(F, build_field(F.p, F.k * k)), k)
    if F.q**k <= _NORM_VERIFY_CAP:
        cnt = count_zeros(PolySystem([form])).count
        assert cnt == 1, f"norm form must vanish only at 0, counted {cnt}"
    return form


def embed_in_more_variables(f: MultiPoly, n: int, at: int = 0) -> MultiPoly:
    """f in n variables, on the block of them that starts at position at."""
    if f.nvars + at > n:
        raise InvalidArgument("variable block does not fit")
    pad_l = (0,) * at
    pad_r = (0,) * (n - at - f.nvars)
    return MultiPoly(f.field, n, {pad_l + e + pad_r: c for e, c in f.terms.items()})


def _least_irreducible_quadratic_c(F: FieldSpec) -> int:
    """The least c for which x^2 + x + c has no root in F."""
    for c in range(F.q):
        if all(F.add(F.add(F.mul(a, a), a), c) != 0 for a in range(F.q)):
            return c
    raise AssertionError("an irreducible monic quadratic x^2+x+c always exists")


@dataclass
class QuadricTimesNorm:
    """example1: a quadric in four variables times a norm form in the rest."""

    system: PolySystem
    quadric: MultiPoly
    expected_quadric_count: int
    recipe: ConstructionRecipe
    display_count: int  # q^(n+1-d) * (1 - 1/q + 1/q^2), evaluated exactly
    inclusion_exclusion_count: int | None  # exact full count for n > 4
    display_mismatch: bool


def example_one(F: FieldSpec, n: int = 4) -> QuadricTimesNorm:
    """Q = x1 x2 + x3^2 + x3 x4 + c x4^2 (q^3 - q^2 + q zeros in A^4) times
    a norm form in the other n - 4 variables; for n > 4 the display value
    q^(n+1-d)(1 - 1/q + 1/q^2) misses the true count, which is flagged."""
    if n < 4:
        raise InvalidArgument(f"example1 needs at least 4 variables, got {n}")
    tail = norm_form(F, n - 4) if n > 4 else None  # its cap before the n-variable terms
    q = F.q
    c = _least_irreducible_quadratic_c(F)
    one = F.one
    quadric4 = MultiPoly.from_terms(
        F,
        4,
        [
            ((1, 1, 0, 0), one),
            ((0, 0, 2, 0), one),
            ((0, 0, 1, 1), one),
            ((0, 0, 0, 2), c),
        ],
    )
    quadric = embed_in_more_variables(quadric4, n, at=0)
    provenance: dict = {"c": c, "modulus": list(F.modulus)}
    if tail is not None:
        poly = quadric * embed_in_more_variables(tail, n, at=4)
        provenance["norm_degree"] = n - 4
    else:
        poly = quadric
    system = PolySystem([poly])
    expected = q**3 - q**2 + q
    display = int(Fraction(q) ** (n + 1 - system.total_degree) * (1 - Fraction(1, q) + Fraction(1, q) ** 2))
    incl_excl = None
    mismatch = False
    if n > 4:
        # zeros of Q*N = (zeros of Q) x F^(n-4)  union  F^4 x {0}
        incl_excl = expected * q ** (n - 4) + q**4 - expected
        mismatch = display != incl_excl
    recipe = ConstructionRecipe(
        "example1", {"p": F.p, "k": F.k, "n": n}, provenance
    )
    return QuadricTimesNorm(
        system=system,
        quadric=quadric4,
        expected_quadric_count=expected,
        recipe=recipe,
        display_count=display,
        inclusion_exclusion_count=incl_excl,
        display_mismatch=mismatch,
    )


@dataclass
class NonSplitQuartic:
    """example2: a quartic in four variables, irreducible over every
    extension in the sense of having no linear factors, whose only zero
    over F_q is the origin."""

    poly: MultiPoly
    system: PolySystem
    recipe: ConstructionRecipe
    alpha: int  # generator of the quadratic extension, as an element there
    beta: int
    q1: MultiPoly
    q2: MultiPoly


def example_two(F: FieldSpec) -> NonSplitQuartic:
    """f = (Q1 + beta Q2)(Q1 + beta^sigma Q2) over F_q, q >= 3 (FieldTooSmall
    for q = 2), with Q1 + alpha Q2 the norm from the quartic to the quadratic
    extension and beta the least quadratic element outside F_q, alpha and its
    conjugate: a quartic form, zero only at the origin, with no linear factor."""
    if F.q < 3:
        raise FieldTooSmall(
            "q = 2 admits no valid beta: the quadratic extension has only "
            "two elements outside the base field and both are excluded"
        )
    p, k0 = F.p, F.k
    B2 = build_field(p, 2 * k0)
    B4 = build_field(p, 4 * k0)
    e02 = embed_subfield(F, B2)
    # the norm of a generic element of B4 down to B2, in the power basis of B4
    N = _generic_norm(embed_subfield(B2, B4), 4)

    # split N = Q1 + alpha*Q2 with Q1, Q2 over the embedded F_q, alpha = B2.g
    alpha = B2.generator
    img_g = [e02(a) for a in range(F.q)]
    pairs = {}
    for u in range(F.q):
        for v in range(F.q):
            pairs[B2.add(img_g[u], B2.mul(alpha, img_g[v]))] = (u, v)
    q1_terms, q2_terms = [], []
    for exps, cfc in N.terms.items():
        u, v = pairs[cfc]
        if u:
            q1_terms.append((exps, e02(u)))
        if v:
            q2_terms.append((exps, e02(v)))
    Q1 = MultiPoly.from_terms(B2, 4, q1_terms)
    Q2 = MultiPoly.from_terms(B2, 4, q2_terms)

    sigma_alpha = B2.pow(alpha, F.q)
    excluded = {alpha, sigma_alpha}
    beta = next(
        b for b in range(B2.q) if not e02.in_image(b) and b not in excluded
    )
    beta_sigma = B2.pow(beta, F.q)
    f = _pull_back(e02, (Q1 + Q2.scale(beta)) * (Q1 + Q2.scale(beta_sigma)))
    assert f.is_homogeneous and f.total_degree == 4

    recipe = ConstructionRecipe(
        "example2",
        {"p": p, "k": k0},
        {
            "modulus": list(F.modulus),
            "modulus_quadratic": list(B2.modulus),
            "modulus_quartic": list(B4.modulus),
            "alpha": alpha,
            "beta": beta,
        },
    )
    return NonSplitQuartic(
        poly=f,
        system=PolySystem([f]),
        recipe=recipe,
        alpha=alpha,
        beta=beta,
        q1=Q1,
        q2=Q2,
    )


@lru_cache(maxsize=32)  # the corpus draws from 15 shapes (n, d)
def _monomials_up_to(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of total degree <= d, in lexicographic order."""
    words = (w for l in range(d + 1) for w in combinations_with_replacement(range(n), l))
    return tuple(sorted(tuple(map(w.count, range(n))) for w in words))


def _drawn_system(F: FieldSpec, n: int, degrees: Sequence[int], window: Sequence[int], rng: SplitMix64) -> PolySystem:
    """Coefficients on the monomials of degree <= d_i, in order, from window and then rng (values
    below F.q); each polynomial is read again from the next values until its total degree is d_i."""
    polys, at = [], 0
    for d in degrees:
        monos = _monomials_up_to(n, d)
        while True:
            end = at + len(monos)
            if end > len(window):
                window = [*window, *rng.draw(end - len(window), F.q).tolist()]
            cs, at = window[at:end], end
            f = MultiPoly(F, n, dict(compress(zip(monos, cs), cs)))
            if f.total_degree == d:
                polys.append(f)
                break
    return PolySystem(polys)


def random_system(
    F: FieldSpec, n: int, degrees: Sequence[int], seed: int
) -> PolySystem:
    """Uniform seeded coefficients on every monomial of degree <= d_i, redrawn
    until each total degree is d_i; BudgetExceeded, before any draw, past
    RANDOM_MONOMIALS monomials in all."""
    if n < 1:
        raise InvalidArgument(f"a random system needs n >= 1 variables, got {n}")
    if not degrees or any(d < 1 for d in degrees):
        raise InvalidArgument(f"a random system needs degrees, all >= 1, got {list(degrees)}")
    # comb(n + d, d) >= comb(82, 41) > 10^23 once n and d both pass 40
    if any(min(n, d) > 40 for d in degrees) or sum(comb(n + d, d) for d in degrees) > RANDOM_MONOMIALS:
        raise BudgetExceeded(
            f"a random system in {n} variables of degrees {list(degrees)} draws more than "
            f"{RANDOM_MONOMIALS} coefficients"
        )
    return _drawn_system(F, n, degrees, [], SplitMix64(derive_seed(seed, F.p, F.k, n, *degrees)))


def random_system_recipe(F: FieldSpec, n: int, degrees: Sequence[int], seed: int) -> ConstructionRecipe:
    """The recipe of `random_system(F, n, degrees, seed)`."""
    return ConstructionRecipe(
        "random",
        {"p": F.p, "k": F.k, "n": n, "degrees": list(degrees), "seed": seed},
    )


_CORPUS_FIELDS = np.array([(2, 1), (3, 1), (2, 2), (5, 1)], dtype=np.uint64)  # q = 2, 3, 4, 5
_CORPUS_MAX_N = 5
_CORPUS_MAX_DI = 3
_CORPUS_MAX_D = 4
# the most coefficients a corpus system reads without a redraw: degrees (3, 1) in 5 variables
_CORPUS_WINDOW = comb(_CORPUS_MAX_N + _CORPUS_MAX_DI, _CORPUS_MAX_DI) + _CORPUS_MAX_N + 1
# indexes drawn in one pass: 3,000 sequential calls took 61 / 50 / 45 / 42 ms at 64 / 128 / 256 / 512,
# a cold call 0.56 / 0.75 / 1.03 / 1.28 ms (medians of 5, 2-core machine)
CORPUS_BLOCK = 256
# a block holds 256 * (5 + 62 + 8) bytes: 1 MiB keeps 54 blocks, 13,824 indexes (3,000 take 12)
CORPUS_BLOCKS = Memo(1 << 20)


def _corpus_block(seed: int, block: int) -> tuple[bytes, bytes, np.ndarray]:
    """Per index of the block: (p, k, n, d_1, d_2), d_2 = 0 for one polynomial, its first
    _CORPUS_WINDOW coefficient draws, and its coefficient stream's state after them."""
    index = np.arange(CORPUS_BLOCK, dtype=np.uint64) + ((block * CORPUS_BLOCK) & MASK64)
    state = derive_seed(seed, index)
    pick, state = draw_many(state, 1, len(_CORPUS_FIELDS))
    (p, k), deg = _CORPUS_FIELDS[pick[:, 0]].T, np.zeros((CORPUS_BLOCK, 2), dtype=np.uint64)
    todo = np.arange(CORPUS_BLOCK)
    while todo.size:  # one or two degrees, redrawn until their sum is at most _CORPUS_MAX_D
        two, st = draw_many(state[todo], 1, 2)
        two = two[:, 0] == 1
        d1, st = draw_many(st, 1, _CORPUS_MAX_DI)
        d2, st[two] = draw_many(st[two], 1, _CORPUS_MAX_DI)
        deg[todo, 0], deg[todo, 1], state[todo] = d1[:, 0] + 1, 0, st
        deg[todo[two], 1] = d2[:, 0] + 1
        todo = todo[deg[todo].sum(1) > _CORPUS_MAX_D]
    n = deg.sum(1) + 1 + draw_many(state, 1, _CORPUS_MAX_N - deg.sum(1))[0][:, 0]
    one, both = (derive_seed(derive_seed(seed, index, 1), p, k, n, *deg[:, :r].T) for r in (1, 2))
    window, after = draw_many(np.where(deg[:, 1] > 0, both, one), _CORPUS_WINDOW, p**k)
    return np.column_stack([p, k, n, deg]).astype(np.uint8).tobytes(), window.astype(np.uint8).tobytes(), after


def corpus_system(seed: int, index: int) -> PolySystem:
    """System number index of the seeded corpus: q in {2, 3, 4, 5}, one or
    two polynomials of degrees <= 3 and total degree d <= 4, d < n <= 5; a
    fresh object on every call, read from its block of CORPUS_BLOCK indexes."""
    block, i = divmod(index, CORPUS_BLOCK)
    if (drawn := CORPUS_BLOCKS.get((seed, block))) is None:
        drawn = _corpus_block(seed, block)
        CORPUS_BLOCKS.put((seed, block), drawn, len(drawn[0]) + len(drawn[1]) + drawn[2].nbytes)
    shapes, window, after = drawn
    p, k, n, d1, d2 = shapes[5 * i : 5 * i + 5]
    coefficients, rng = window[_CORPUS_WINDOW * i : _CORPUS_WINDOW * (i + 1)], SplitMix64(int(after[i]))
    return _drawn_system(build_field(p, k), n, (d1, d2) if d2 else (d1,), coefficients, rng)
