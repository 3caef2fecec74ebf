"""The block buffer cache.

Keyed by (inum, logical block); dirty blocks are pinned until the segment
writer relocates them to the log.  The paper's test machine had 3.2 MB of
buffer cache and the benchmarks flush it before every phase — both
behaviours are supported.  Charging of per-block CPU time happens in the
filesystem layer, not here; this structure is pure bookkeeping.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE
from repro.util.units import MB

BufKey = Tuple[int, int]  # (inum, logical block number)

# Hit/miss/eviction counts sit on the per-block hot path, so they are
# plain integer adds into these pending totals; :func:`flush_metrics`
# publishes them into the obs registry before every snapshot and reset
# (the ``datapath.count_copy`` pattern).
_hits = 0
_misses = 0
_evictions = 0


def flush_metrics() -> None:
    """Publish and zero the pending hit/miss/eviction counts.
    Registered as an ``obs`` flusher at import."""
    global _hits, _misses, _evictions
    for name, help, pending in (
            ("buffercache_hits_total", "block buffer cache hits", _hits),
            ("buffercache_misses_total", "block buffer cache misses",
             _misses),
            ("buffercache_evictions_total",
             "clean blocks evicted to make room", _evictions)):
        if pending:
            obs.counter(name, help).inc(pending)
    _hits = _misses = _evictions = 0


obs.register_flusher(flush_metrics)


class Buffer:
    """One cached block."""

    __slots__ = ("key", "data", "dirty", "seq")

    def __init__(self, key: BufKey, data: bytes, dirty: bool = False) -> None:
        if len(data) != BLOCK_SIZE:
            raise InvalidArgument(
                f"buffer must be {BLOCK_SIZE}B, got {len(data)}")
        self.key = key
        self.data = data
        self.dirty = dirty
        self.seq = 0  # last-touch sequence number (eviction ordering)


class BufferCache:
    """A size-capped LRU cache of file blocks."""

    def __init__(self, capacity_bytes: int = int(3.2 * MB)) -> None:
        self.capacity_blocks = max(8, capacity_bytes // BLOCK_SIZE)
        self._bufs: Dict[BufKey, Buffer] = {}
        # Recency is the touch sequence number alone: every use bumps
        # ``seq``, so LRU order is ascending-seq order.  Dirty buffers
        # are indexed by key (the segment writer's input); clean ones
        # sit in a lazy min-heap of (last-touch seq, key) whose minimum,
        # after discarding stale entries, is the LRU clean buffer.
        self._dirty: Dict[BufKey, Buffer] = {}
        self._seq = 0
        self._clean_heap: List[Tuple[int, BufKey]] = []

    def __len__(self) -> int:
        return len(self._bufs)

    def dirty_count(self) -> int:
        return len(self._dirty)

    # -- lookup/insert -----------------------------------------------------

    def _touch(self, buf: Buffer) -> None:
        """Record a use: touch seq and clean-heap entry."""
        self._seq += 1
        buf.seq = self._seq
        if not buf.dirty:
            self._push_clean(buf)

    def _push_clean(self, buf: Buffer) -> None:
        heap = self._clean_heap
        heapq.heappush(heap, (buf.seq, buf.key))
        # Entries go stale when a buffer is re-touched, dirtied, or
        # invalidated; they are skipped at pop time.  Compact when stale
        # entries dominate so the heap stays O(cache) in memory.
        if len(heap) > 64 and len(heap) > 4 * len(self._bufs):
            self._clean_heap = [(b.seq, k) for k, b in self._bufs.items()
                                if not b.dirty]
            heapq.heapify(self._clean_heap)

    def get(self, key: BufKey) -> Optional[bytes]:
        global _hits, _misses
        buf = self._bufs.get(key)
        if buf is None:
            _misses += 1
            return None
        _hits += 1
        self._touch(buf)
        return buf.data

    def peek(self, key: BufKey) -> Optional[bytes]:
        """Lookup without recency update or hit accounting."""
        buf = self._bufs.get(key)
        return buf.data if buf is not None else None

    def put(self, key: BufKey, data: bytes, dirty: bool) -> None:
        """Insert/overwrite a block; evicts clean LRU blocks to make room."""
        existing = self._bufs.get(key)
        if existing is not None:
            existing.data = data
            if dirty and not existing.dirty:
                existing.dirty = True
                self._dirty[key] = existing
            self._touch(existing)
            return
        self._evict_for_room()
        buf = Buffer(key, data, dirty)
        self._bufs[key] = buf
        if dirty:
            self._dirty[key] = buf
        self._touch(buf)

    def mark_clean(self, key: BufKey) -> None:
        buf = self._bufs.get(key)
        if buf is not None:
            if buf.dirty:
                del self._dirty[key]
                buf.dirty = False
                # Now evictable at its *existing* recency (mark_clean is
                # not a use, so the LRU position must not change).
                self._push_clean(buf)

    def is_dirty(self, key: BufKey) -> bool:
        buf = self._bufs.get(key)
        return buf.dirty if buf is not None else False

    def _evict_for_room(self) -> None:
        global _evictions
        heap = self._clean_heap
        while len(self._bufs) >= self.capacity_blocks:
            victim = None
            while heap:
                seq, key = heap[0]
                buf = self._bufs.get(key)
                if buf is None or buf.dirty or buf.seq != seq:
                    heapq.heappop(heap)  # stale entry
                    continue
                heapq.heappop(heap)
                victim = key
                break
            if victim is None:
                return  # everything dirty: caller must flush soon
            del self._bufs[victim]
            _evictions += 1

    # -- bulk operations -------------------------------------------------------

    def dirty_buffers(self) -> List[Buffer]:
        """All dirty buffers (segment-writer input), LRU-first."""
        return sorted(self._dirty.values(), key=attrgetter("seq"))

    def dirty_for_inode(self, inum: int) -> List[Buffer]:
        return [b for b in self._dirty.values() if b.key[0] == inum]

    def invalidate(self, key: BufKey) -> None:
        """Drop one block regardless of state (truncate/unlink path)."""
        buf = self._bufs.pop(key, None)
        if buf is not None and buf.dirty:
            del self._dirty[key]

    def invalidate_inode(self, inum: int) -> None:
        for key in [k for k in self._bufs if k[0] == inum]:
            self.invalidate(key)

    def drop_clean(self) -> int:
        """Flush-benchmark helper: discard every clean block."""
        victims = [k for k, b in self._bufs.items() if not b.dirty]
        for key in victims:
            self.invalidate(key)
        return len(victims)

    def keys(self) -> Iterator[BufKey]:
        return iter(list(self._bufs.keys()))

    def needs_flush(self, fraction: float = 0.5) -> bool:
        """True when dirty blocks crowd the cache (segment-write trigger)."""
        return self.dirty_count() >= self.capacity_blocks * fraction
