"""Exact counts of dense systems where the per-point oracle cannot reach.

A block-separable system (`references.separable_system`) has its count
from the blocks' value histograms (`references.separable_count`), in
integers.  Its image under x -> Ax + b, A invertible, has the same count
and is dense, so the counting kernel meets it as it meets any system: the
cases below put the images on every branch of the kernel's step rule.
"""

import pytest

from cwlab.counting import count_zeros, oracle_count
from cwlab.fields import build_field
from cwlab.polynomials import PolySystem
from references import separable_count, separable_system
from test_invariance import _affine_map, _composed

# (p, k, block sizes, degrees, homogeneous): small enough for the oracle
SMALL = [
    (2, 1, (2, 3), (2,), False),
    (2, 1, (2, 2, 2), (3, 2), False),
    (3, 1, (2, 3), (2,), False),
    (3, 1, (2, 2), (3, 2), True),
    (2, 2, (2, 3), (2,), False),
    (5, 1, (2, 2), (2, 2), False),
    (3, 2, (2, 2), (2,), True),
]

# (name, p, k, block sizes, degrees, homogeneous, seed), one or more per
# branch of the step rule, over F_2, odd primes, F_{2^k} and odd-p extension
# fields; each seed draws a system whose count is not q^(n - r), which a
# block with a balanced histogram would give
BRANCHES = [
    ("s=0, F_2", 2, 1, (4, 4, 4), (3,), False, 5),
    ("s=0, F_5", 5, 1, (2, 3), (2, 2), False, 1),
    ("s=0, F_9", 3, 2, (3,), (3,), False, 2),
    ("grid, F_2", 2, 1, (4, 4, 4, 3, 3), (3,), False, 1),
    ("grid, F_3", 3, 1, (3, 3, 4), (2, 3), False, 1),
    ("grid, F_4", 2, 2, (4, 4), (3,), False, 1),
    ("grid, F_25", 5, 2, (2, 2), (2,), False, 1),
    ("cone, F_3", 3, 1, (3, 3, 4), (3,), True, 1),
    ("cone, F_4", 2, 2, (4, 4), (2, 2), True, 1),
    ("cone, F_9", 3, 2, (3, 3), (3,), True, 2),
    ("log, F_32", 2, 5, (2, 2), (2,), False, 1),
]


def _image(system, seed, shift):
    """The system pulled through a seeded x -> Ax + b, A invertible (checked
    by `_affine_map`), b = 0 unless shift."""
    A, b = _affine_map(system.field, system.nvars, seed, shift)
    return PolySystem([_composed(f, A, b) for f in system.polys])


@pytest.mark.parametrize("p,k,sizes,degrees,homogeneous", SMALL)
def test_separable_count_matches_the_oracle(p, k, sizes, degrees, homogeneous):
    # the histogram convolution against the per-point oracle, on the system
    # and on a dense image of it
    F = build_field(p, k)
    counts = set()
    for seed in range(3):
        system = separable_system(F, sizes, degrees, seed, homogeneous)
        want = separable_count(system, sizes)
        counts.add(want)
        assert oracle_count(system) == want, (F.q, sizes, seed)
        assert oracle_count(_image(system, seed, not homogeneous)) == want, (F.q, sizes, seed)
    assert len(counts) > 1 or p == 3 and k == 2  # the counts move with the draw


@pytest.mark.parametrize("name,p,k,sizes,degrees,homogeneous,seed", BRANCHES, ids=[b[0] for b in BRANCHES])
def test_dense_images_count_as_their_blocks(name, p, k, sizes, degrees, homogeneous, seed):
    # a homogeneous system's image under x -> Ax stays homogeneous, so it is
    # counted on the cone; every other image is counted on the grid
    F = build_field(p, k)
    system = separable_system(F, sizes, degrees, seed, homogeneous)
    image = _image(system, seed, not homogeneous)
    assert image.is_homogeneous == homogeneous
    assert max(len(f.terms) for f in image.polys) > max(len(f.terms) for f in system.polys)
    want = separable_count(system, sizes)
    assert want != F.q ** (system.nvars - system.r), name
    assert count_zeros(image, budget=1 << 22).count == want, name
