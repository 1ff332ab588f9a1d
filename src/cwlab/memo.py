"""One bounded memo for the caches of arrays, each bound stated at its
instance; `MEMOS` holds them all.  No report depends on a hit."""

from __future__ import annotations

from typing import Hashable
from weakref import WeakSet

MEMOS: WeakSet[Memo] = WeakSet()


class Memo:
    """Values by key, least recently used first, within bound bytes (held,
    the sizes told) and at most entries values; hits, misses and evictions
    count since the last clear."""

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
        """Keep value (nbytes) under key, dropping the least recently used
        until it fits; True if kept (not past the bound alone; key's old
        value goes either way)."""
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
        """Drop every value and zero the counters."""
        self.kept.clear()
        self.sizes.clear()
        self.held = self.hits = self.misses = self.evictions = 0
