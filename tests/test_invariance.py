"""Invariance checks where the per-point oracle cannot reach.

Every law checked here is a statement about the zero set as a subset of
affine space, so a fast path must give the same answer on a system and on
its image under x -> Ax + b with A in GL_n(F_q), and under Frobenius on the
coefficients (an extension field's only nontrivial maps of this kind):
- the zero set maps onto the image's, so the counts agree;
- each direction space of dimension m maps to one of dimension m, so the
  coset counts of every dimension are only permuted;
- a form has a linear factor over F_{q^s} exactly when its image does.
The images are built here, with `MultiPoly.substituted` and
`map_coefficients`, from sparse seeded systems, so every image is dense.

Tier-1 runs the sizes below; the larger count shapes are

    PYTHONPATH=src:tests python -c 'import test_invariance; test_invariance.main()'
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest

from cwlab import counting
from cwlab.constructions import norm_form
from cwlab.counting import CHUNK, count_zeros, coset_ids, kernel_points, zero_digits, zero_points
from cwlab.fields import FieldSpec, build_field
from cwlab.geometry import linear_factor_test
from cwlab.laws import check_congruence, direction_batches
from cwlab.polynomials import MultiPoly, PolySystem
from cwlab.rng import SplitMix64, derive_seed
from cwlab.subspaces import rref

# (p, k, n, degrees, pass): the pass that the sparse system and its images
# take.  "gemm": one 4,096-point GEMM-step pass; "trie": one trie-step
# block past GEMM_POINTS; "blocks": a trie-step pass of two blocks past CHUNK
COUNT_SHAPES = [
    (2, 1, 12, (2, 2), "gemm"),
    (2, 2, 6, (2,), "gemm"),
    (3, 2, 4, (2,), "trie"),
    (2, 1, 17, (2,), "blocks"),
    (5, 1, 7, (2,), "blocks"),
]
# the shapes CI runs at larger sizes: a dense cubic image in 20 variables
# over F_2 (16 blocks) and in 12 over F_3 (9 blocks)
LARGE_SHAPES = [(2, 1, 20, (3,), "blocks"), (3, 1, 12, (3,), "blocks")]


def _sparse_system(F: FieldSpec, n: int, degrees, seed: int, terms: int = 4, homogeneous: bool = False) -> PolySystem:
    """A seeded system, each polynomial `terms` random terms of degree at
    most d and one of degree d (all of degree d if homogeneous), redrawn
    until its degree is d."""
    rng = SplitMix64(derive_seed(seed, F.q, n, *degrees))
    polys = []
    for d in degrees:
        f = MultiPoly.zero(F, n)
        while f.total_degree != d:
            items = []
            for t in range(terms + 1):
                exps = [0] * n
                for _ in range(d if homogeneous or t == 0 else rng.below(d + 1)):
                    exps[rng.below(n)] += 1
                items.append((tuple(exps), 1 + rng.below(F.q - 1)))
            f = MultiPoly.from_terms(F, n, items)
        polys.append(f)
    return PolySystem(polys)


def _affine_map(F: FieldSpec, n: int, seed: int, shift: bool = True) -> tuple[list[list[int]], list[int]]:
    """A seeded (A, b), A invertible, b = 0 unless shift."""
    rng = SplitMix64(derive_seed(seed, F.q, n, 7))
    while True:
        A = [[rng.below(F.q) for _ in range(n)] for _ in range(n)]
        if len(rref(F, A)[1]) == n:
            break
    return A, [rng.below(F.q) if shift else 0 for _ in range(n)]


def _composed(f: MultiPoly, A, b) -> MultiPoly:
    """f(Ax + b)."""
    F, n = f.field, f.nvars
    unit = lambda j: (0,) * j + (1,) + (0,) * (n - 1 - j)  # noqa: E731
    subs = [MultiPoly.from_terms(F, n, [(unit(j), a) for j, a in enumerate(row)] + [((0,) * n, c)]) for row, c in zip(A, b)]
    return f.substituted(subs)


def _images(system: PolySystem, seed: int, shift: bool = True):
    """(image, forward) pairs: the system's image under a seeded x -> Ax + b,
    and over an extension field under Frobenius on the coefficients, with
    the map that takes the image's zeros (rows) onto the system's."""
    F = system.field
    T = F.tables
    A, b = _affine_map(F, system.nvars, seed, shift)

    def forward(Z: np.ndarray) -> np.ndarray:
        out = np.empty_like(Z)
        for i, (row, c) in enumerate(zip(A, b)):
            acc = np.full(len(Z), c)
            for j, a in enumerate(row):
                acc = T.add(acc, T.mul(a, Z[:, j]))
            out[:, i] = acc
        return out

    yield PolySystem([_composed(f, A, b) for f in system.polys]), forward
    if F.k > 1:
        frobenius = lambda x: F.pow(x, F.p)  # noqa: E731
        yield PolySystem([f.map_coefficients(frobenius, F) for f in system.polys]), np.vectorize(frobenius, otypes=[np.intp])


def count_invariance(p: int, k: int, n: int, degrees, step: str, seed: int) -> None:
    """The count and the zero set of a sparse seeded system against those of
    its images, on the pass that step names."""
    F = build_field(p, k)
    system = _sparse_system(F, n, degrees, seed)
    Z = zero_points(system)
    for image, forward in _images(system, seed):
        points = kernel_points(image)
        polys = [counting._as_function(f) for f in image.polys]
        gemm = counting._gemm_lengths(F, n, points, polys) is not None
        assert (points, gemm) == (4096, True) if step == "gemm" else not gemm, (F.q, n, step)
        assert (points > CHUNK) == (step == "blocks")  # a pass past CHUNK points has two blocks or more
        assert count_zeros(image).count == count_zeros(system).count == len(Z), (F.q, n, seed)
        assert sorted(forward(zero_points(image)).tolist()) == Z.tolist(), (F.q, n, seed)


@pytest.mark.parametrize("p,k,n,degrees,step", COUNT_SHAPES, ids=[f"{p}^{k}-n{n}-{step}" for p, k, n, _, step in COUNT_SHAPES])
def test_counts_and_zero_sets_are_invariant(p, k, n, degrees, step):
    # GEMM-step and trie-step passes, one and two blocks, over F_2, F_4,
    # F_5 and F_9: the images are dense, the systems sparse
    count_invariance(p, k, n, degrees, step, seed=3)


def test_cone_walks_match_their_images():
    # a homogeneous system walks the cone: its image under x -> Ax does
    # too, and under x -> Ax + b (b != 0) it walks the grid
    for p, k, n in ((2, 2, 6), (5, 1, 5), (3, 2, 4)):
        F = build_field(p, k)
        system = _sparse_system(F, n, (2,), 5, homogeneous=True)
        want = count_zeros(system).count
        walks = set()
        for shift in (False, True):
            for image, _ in _images(system, 5, shift):
                walks.add((shift, counting._on_cone(image)))
                assert count_zeros(image).count == want, (F.q, n, shift)
        # Frobenius keeps a form homogeneous, whatever the shift
        assert counting._on_cone(system) and walks == {(False, True), (True, False)} | {(True, k > 1)}


def _coset_profile(system: PolySystem, m: int) -> np.ndarray:
    """The zeros' coset counts under every direction space of dimension m,
    each space's sorted, the spaces in sorted order: a table that a map
    of affine space leaves as it is."""
    F, n = system.field, system.nvars
    X, classes, rows = zero_digits(system), F.q ** (n - m), []
    for pivots, entries, matrix in direction_batches(F, n, m, 256):
        ids = coset_ids(X, pivots, entries, F, matrix)
        flat = (ids + classes * np.arange(len(ids))[:, None]).ravel()
        rows.append(np.sort(np.bincount(flat, minlength=len(ids) * classes).reshape(len(ids), classes), axis=1))
    table = np.concatenate(rows)
    return table[np.lexsort(table.T[::-1])]


def _body(report) -> dict:
    """A report body, witness aside."""
    body = json.loads(report.to_json())
    del body["witness"]
    return body


@pytest.mark.parametrize("p,k,n,table", [(67, 1, 3, False), (3, 1, 5, True), (2, 2, 4, True)])
def test_congruence_bodies_and_coset_counts_are_invariant(p, k, n, table):
    # over F_67 every packed coset digit is past the read-out table's cap,
    # so the coset product is reduced mod p; over F_3 and F_4 a table reads it
    F = build_field(p, k)
    system = _sparse_system(F, n, (2,), 11)
    assert all((counting._packing(F, m, n - m)[2] is not None) == table for m in range(2, n))
    want = [_body(check_congruence(system, law)) for law in ("warning-hyperplanes", "theorem1")]
    profiles = [_coset_profile(system, m) for m in range(2, n + 1)]
    assert want[0]["pass"] and want[0]["applicable"] and want[1]["evidence"]["classes_checked"] > 1
    for image, _ in _images(system, 11):
        assert [_body(check_congruence(image, law)) for law in ("warning-hyperplanes", "theorem1")] == want
        for m, profile in zip(range(2, n + 1), profiles):
            assert np.array_equal(_coset_profile(image, m), profile), (F.q, n, m)


def test_linear_factors_are_invariant_over_extension_fields():
    # f(Ax) has a linear factor over F_{q^s} exactly when f does, and so
    # does f with Frobenius on its coefficients: products of a linear form
    # and a quadric, norm forms that split only over their extension, and
    # sparse cubic forms
    found = []
    for p, k, n, s in ((2, 1, 3, 3), (3, 1, 3, 2), (2, 2, 3, 2), (2, 1, 4, 2)):
        F = build_field(p, k)
        forms = [_sparse_system(F, n, (1, 2), seed, 8, homogeneous=True).polys for seed in range(2)]
        forms = [a * b for a, b in forms] + [_sparse_system(F, n, (3,), seed, 8, homogeneous=True).polys[0] for seed in range(3)]
        forms.append(norm_form(F, n))
        for f in forms:
            want = linear_factor_test(f, s).found
            found.append(want)
            for image, _ in _images(PolySystem([f]), 2, shift=False):
                assert linear_factor_test(image.polys[0], s).found == want, (F.q, n, s, f)
    assert any(found) and not all(found)


def main(shapes=LARGE_SHAPES, seeds=(3,)) -> None:
    """Run the count invariance at each shape and seed; exit 1 on a failure."""
    failures = 0
    for shape in shapes:
        for seed in seeds:
            t0 = time.perf_counter()
            try:
                count_invariance(*shape, seed=seed)
                status = "ok"
            except AssertionError as exc:
                failures += 1
                status = f"FAILED {exc}"
            print(f"{shape} seed {seed}: {status}, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(1 if failures else 0)
