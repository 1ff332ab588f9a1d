"""Shared fixtures."""

import pytest

from cwlab import counting, geometry
from cwlab.memo import MEMOS

CACHES = (counting._monomial_rows, counting._split_sizes, counting._split_terms, geometry._probe_lines, geometry._tail_map)


def _empty():
    for memo in MEMOS:
        memo.clear()
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Start and end every test with every `Memo` (monomial blocks and
    operands, walks, direction tables, corpus blocks) and the monomial-row,
    split, probe-line and tail-map caches empty, so no test reads a walk, a
    table, a numbering, a split or a map that an earlier test left behind."""
    _empty()
    yield
    _empty()
