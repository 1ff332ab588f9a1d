"""The bounded memo against an OrderedDict model, and the caches kept in it."""

import math
from collections import OrderedDict
from random import Random

import numpy as np
import pytest

from cwlab import constructions, counting, laws
from cwlab.counting import fast_count
from cwlab.fields import build_field
from cwlab.memo import MEMOS, Memo
from cwlab.polynomials import PolySystem, parse_poly


def _model_put(model: OrderedDict, key, value, nbytes, bound, entries):
    """The kept entries after a put: the longest run of the most recently
    used ones, the new one last, within bound bytes and entries values."""
    model.pop(key, None)
    if nbytes > bound:
        return False
    order = list(model.items()) + [(key, (value, nbytes))]
    start = len(order)
    while start and sum(size for _, (_, size) in order[start - 1 :]) <= bound and (
        entries is None or len(order) - start + 1 <= entries
    ):
        start -= 1
    model.clear()
    model.update(order[start:])
    return True


@pytest.mark.parametrize("seed", range(40))
def test_memo_matches_an_lru_model(seed):
    rng = Random(seed)
    bound = rng.randrange(0, 60)
    entries = rng.choice([None, 1, 2, 3, 5])
    memo, model = Memo(bound, entries), OrderedDict()
    too_large = 0
    for step in range(300):
        key = rng.randrange(8)
        if rng.random() < 0.5:
            want = model[key][0] if key in model else None
            if key in model:
                model.move_to_end(key)
            assert memo.get(key) == want
        else:
            value, nbytes = (seed, step), rng.randrange(0, bound + 8)
            kept = _model_put(model, key, value, nbytes, bound, entries)
            assert memo.put(key, value, nbytes) is kept
            if not kept:
                too_large += 1
                assert key not in memo.kept and memo.get(key) is None
        assert list(memo.kept.items()) == [(k, v) for k, (v, _) in model.items()]  # least recently used first
        assert memo.sizes == {k: size for k, (_, size) in model.items()}
        assert memo.held == sum(memo.sizes.values()) <= bound
        assert entries is None or len(memo.kept) <= entries
    assert too_large > 0
    memo.clear()
    assert not memo.kept and not memo.sizes and memo.held == 0


@pytest.mark.parametrize("seed", range(20))
def test_memo_counts_hits_misses_and_evictions(seed):
    # hits and misses count the reads, evictions the values a put dropped to
    # make room (not the key's own old value, and not a value past the bound,
    # which is never kept); clear resets all three
    rng = Random(seed)
    bound = rng.randrange(1, 60)
    entries = rng.choice([None, 1, 2, 3, 5])
    memo, model = Memo(bound, entries), OrderedDict()
    hits = misses = evictions = 0
    for step in range(300):
        key = rng.randrange(8)
        if rng.random() < 0.5:
            if key in model:
                hits += 1
                model.move_to_end(key)
            else:
                misses += 1
            memo.get(key)
        else:
            nbytes = rng.randrange(0, bound + 8)
            others = len(model) - (key in model)
            if _model_put(model, key, step, nbytes, bound, entries):
                evictions += others - (len(model) - 1)
            memo.put(key, step, nbytes)
        assert (memo.hits, memo.misses, memo.evictions) == (hits, misses, evictions)
    assert evictions > 0 and hits > 0 and misses > 0
    memo.clear()
    assert (memo.hits, memo.misses, memo.evictions) == (0, 0, 0)


def test_memo_counters_on_a_small_run():
    memo = Memo(10, 2)
    assert memo.get("a") is None
    memo.put("a", 1, 4)
    memo.put("a", 2, 4)  # the key's own old value goes: no eviction
    memo.put("b", 3, 4)
    assert memo.get("a") == 2 and memo.get("b") == 3
    memo.put("c", 4, 4)  # two values at most: "a", the least recently used, goes
    memo.put("d", 5, 11)  # past the bound: not kept, and nothing is dropped
    assert memo.get("a") is None and memo.get("d") is None
    assert (memo.hits, memo.misses, memo.evictions) == (2, 3, 1)


def test_monomial_matrices_are_a_registered_memo():
    # the GEMM step's matrices: the first pass of a shape misses its points
    # and its block of each term length, and a second system of the same
    # shape and term lengths reads them all
    memo = counting.MONOMIALS
    assert id(memo) in {id(m) for m in MEMOS}
    F = build_field(3, 1)
    for text in ("x1^2 + x2 + 1", "2*x1*x2 + x1 + 2"):
        counting.WALKS.clear()
        fast_count(PolySystem([parse_poly(text, F, ["x1", "x2"])]))
    assert (memo.hits, memo.misses, memo.evictions) == (4, 4, 0)
    assert list(memo.kept) == [(F.tables, 2, False)] + [(F.tables, 2, False, l) for l in (0, 1, 2)]


def test_passes_share_the_blocks_of_their_common_lengths():
    # two passes whose term lengths share a length share its block: one
    # miss, then a hit.  Every block holds F_p digits, each below p, in the
    # narrowest unsigned type, (k * words, points) in shape
    memo = counting.MONOMIALS
    for F, n, dtype in ((build_field(3, 2), 3, np.uint8), (build_field(257, 1), 1, np.uint16)):
        memo.clear()
        names = ["x1", "x2", "x3"][:n]
        for text in ("x1^2 + x1 + 1", f"x1*{names[-1]}^2 + x1^2"):
            counting.WALKS.clear()
            fast_count(PolySystem([parse_poly(text, F, names)]))
        # points and lengths 0, 1, 2 built; then the points and length 2 read, 3 built
        assert (memo.misses, memo.hits) == (5, 2)
        T, top = F.tables, 0
        assert sorted(key[3:] for key in memo.kept) == [(), (0,), (1,), (2,), (3,)]
        for l in range(4):
            block = memo.kept[(T, n, False, l)]
            assert block.dtype == dtype and not block.flags.writeable
            assert block.shape == (F.k * math.comb(n + l - 1, l), F.q**n)
            top = max(top, int(block.max()))
        assert top == F.p - 1


def test_monomial_hit_builds_no_point_set():
    # the point set's logs are built on a miss alone: a hit on the same key
    # reads the kept blocks and never calls for them
    T, calls = build_field(3, 1).tables, []

    def grid():
        calls.append(1)
        return T.log.take(counting._coordinates(counting._pass_points(T, 2, False), 3, 2))

    def refused():
        raise AssertionError("a hit built the point set")

    counting.MONOMIALS.clear()
    first, rows = counting._monomials(T, 2, False, (0, 1, 2), grid)
    again, same = counting._monomials(T, 2, False, (0, 1, 2), refused)
    assert all(a is b for a, b in zip(first, again, strict=True)) and same is rows
    assert len(calls) == 1


def test_every_cache_memo_is_registered():
    memos = (counting.MONOMIALS, counting.WALKS, laws.DIRECTIONS, constructions.CORPUS_BLOCKS)
    assert {id(m) for m in memos} <= {id(m) for m in MEMOS}
    assert counting.WALKS.entries == counting.WALK_MEMO
