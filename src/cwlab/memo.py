"""One bounded memo for the caches of arrays (`counting.GRIDS`, `MONOMIALS`
and `WALKS`, `laws.DIRECTIONS`, `fields.POWER_LOGS`), each bound stated at
its instance.  `MEMOS` holds them all, to empty them at once.  No report
depends on a hit, and no report body reads the counters."""

from __future__ import annotations

from typing import Hashable
from weakref import WeakSet

MEMOS: WeakSet[Memo] = WeakSet()


class Memo:
    """Values by key, least recently used first, within `bound` bytes and,
    if `entries` is given, at most that many values.  A hit is one pop and
    reinsert (`get`); `put` runs on a miss or when a kept value grows, and
    `held` keeps the running total of the sizes it was told.  Since the
    last `clear`, `hits` and `misses` count the reads that found a value
    and those that did not, and `evictions` the values that `put` dropped
    to make room for another."""

    def __init__(self, nbytes: int, entries: int | None = None):
        self.bound, self.entries = nbytes, entries
        self.kept: dict = {}  # key -> value, least recently used first
        self.sizes: dict = {}  # key -> the bytes its value holds
        self.held = self.hits = self.misses = self.evictions = 0
        MEMOS.add(self)

    def get(self, key: Hashable):
        """The value under key, now the most recently used; None if none."""
        value = self.kept.pop(key, None)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.kept[key] = value
        return value

    def put(self, key: Hashable, value, nbytes: int) -> bool:
        """Keep value (nbytes bytes) under key, most recently used, after
        dropping the least recently used others until it fits; True if kept.
        A value past the bound alone is not, and key's old value goes too."""
        kept, sizes, held, bound, entries = self.kept, self.sizes, self.held, self.bound, self.entries
        if key in sizes:
            del kept[key]
            held -= sizes.pop(key)
        if nbytes > bound:
            self.held = held
            return False
        held += nbytes
        while kept and (held > bound or len(kept) == entries):
            old = next(iter(kept))
            del kept[old]
            held -= sizes.pop(old)
            self.evictions += 1
        kept[key], sizes[key] = value, nbytes
        self.held = held
        return True

    def clear(self) -> None:
        self.kept.clear()
        self.sizes.clear()
        self.held = self.hits = self.misses = self.evictions = 0
