"""LRU recency tracking (the jukebox's drive-victim order)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)


class LRUTracker(Generic[K]):
    """Tracks recency of a set of keys; O(1) touch and discard.

    This deliberately does not store values: callers keep their data in
    their own tables and only need an ordering over keys, read by
    iterating from least- to most-recently used.
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[K, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: K) -> bool:
        return key in self._order

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from least- to most-recently used."""
        return iter(self._order)

    def touch(self, key: K) -> None:
        """Mark ``key`` most-recently used, inserting it if absent."""
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None

    def discard(self, key: K) -> None:
        """Forget ``key`` if present."""
        self._order.pop(key, None)
