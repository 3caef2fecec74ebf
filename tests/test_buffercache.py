"""Unit tests: the block buffer cache."""

import random
from collections import OrderedDict

import pytest

from repro import obs
from repro.errors import InvalidArgument
from repro.lfs.buffercache import BufferCache
from repro.lfs.constants import BLOCK_SIZE


def block(seed: int) -> bytes:
    return bytes([seed & 0xFF]) * BLOCK_SIZE


def counts():
    """(hits, misses, evictions) as published to the obs registry."""
    reg = obs.metrics()
    return (reg.get("buffercache_hits_total"),
            reg.get("buffercache_misses_total"),
            reg.get("buffercache_evictions_total"))


class TestBufferCache:
    def test_put_get(self):
        bc = BufferCache()
        bc.put((1, 0), block(7), dirty=False)
        assert bc.get((1, 0)) == block(7)

    def test_miss_returns_none(self):
        bc = BufferCache()
        assert bc.get((1, 0)) is None
        assert counts() == (0, 1, 0)

    def test_hit_accounting(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=False)
        bc.get((1, 0))
        assert counts() == (1, 0, 0)

    def test_peek_no_accounting(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=False)
        bc.peek((1, 0))
        bc.peek((2, 0))
        assert counts() == (0, 0, 0)

    def test_pending_counts_die_with_reset(self):
        """Pending counts are published before a reset, so they die
        with it instead of leaking into the next run."""
        bc = BufferCache()
        bc.get((1, 0))
        obs.reset()
        assert counts() == (0, 0, 0)
        bc.get((1, 0))
        assert counts() == (0, 1, 0)

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidArgument):
            BufferCache().put((1, 0), b"tiny", dirty=False)

    def test_overwrite_keeps_dirty(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=True)
        bc.put((1, 0), block(2), dirty=False)
        assert bc.is_dirty((1, 0))
        assert bc.peek((1, 0)) == block(2)

    def test_mark_clean(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=True)
        bc.mark_clean((1, 0))
        assert not bc.is_dirty((1, 0))

    def test_capacity_evicts_clean_lru(self):
        bc = BufferCache(capacity_bytes=8 * BLOCK_SIZE)
        for i in range(8):
            bc.put((1, i), block(i), dirty=False)
        bc.get((1, 0))  # protect block 0
        bc.put((1, 8), block(8), dirty=False)
        assert bc.peek((1, 1)) is None  # LRU victim
        assert bc.peek((1, 0)) is not None
        assert counts()[2] == 1

    def test_dirty_blocks_never_evicted(self):
        bc = BufferCache(capacity_bytes=8 * BLOCK_SIZE)
        for i in range(8):
            bc.put((1, i), block(i), dirty=True)
        bc.put((1, 8), block(8), dirty=False)
        for i in range(8):
            assert bc.peek((1, i)) is not None

    def test_dirty_listing_and_per_inode(self):
        bc = BufferCache()
        bc.put((1, 0), block(0), dirty=True)
        bc.put((2, 0), block(1), dirty=True)
        bc.put((2, 1), block(2), dirty=False)
        assert bc.dirty_count() == 2
        assert {b.key for b in bc.dirty_buffers()} == {(1, 0), (2, 0)}
        assert [b.key for b in bc.dirty_for_inode(2)] == [(2, 0)]

    def test_invalidate_inode(self):
        bc = BufferCache()
        bc.put((5, 0), block(0), dirty=True)
        bc.put((5, 1), block(1), dirty=False)
        bc.put((6, 0), block(2), dirty=False)
        bc.invalidate_inode(5)
        assert bc.peek((5, 0)) is None
        assert bc.peek((6, 0)) is not None

    def test_drop_clean(self):
        bc = BufferCache()
        bc.put((1, 0), block(0), dirty=True)
        bc.put((1, 1), block(1), dirty=False)
        assert bc.drop_clean() == 1
        assert bc.peek((1, 0)) is not None
        assert bc.peek((1, 1)) is None

    def test_dirty_count_matches_scan(self):
        """A test-local OrderedDict LRU model runs the same random
        operations.  After every step the dirty listing (in LRU order),
        the per-inode dirty listing, the resident set (so every
        eviction victim) and the published counters must all agree."""
        rng = random.Random(0xD187)
        bc = BufferCache(capacity_bytes=16 * BLOCK_SIZE)
        model: "OrderedDict[tuple, bool]" = OrderedDict()  # key -> dirty
        hits = misses = evictions = 0
        for step in range(3000):
            op = rng.randrange(12)
            key = (rng.randrange(4), rng.randrange(8))
            if op < 6:  # put, dirty or clean
                dirty = op < 3
                if key in model:
                    model[key] = model[key] or dirty
                    model.move_to_end(key)
                else:
                    while len(model) >= bc.capacity_blocks:
                        victim = next((k for k, d in model.items()
                                       if not d), None)
                        if victim is None:
                            break
                        del model[victim]
                        evictions += 1
                        assert bc.peek(victim) is not None
                    model[key] = dirty
                before = set(bc.keys())
                bc.put(key, block(step), dirty=dirty)
                assert before - set(bc.keys()) == before - set(model), (
                    f"wrong eviction victim at step {step}")
            elif op < 8:
                if key in model:
                    model.move_to_end(key)
                    hits += 1
                else:
                    misses += 1
                assert (bc.get(key) is None) == (key not in model)
            elif op == 8:
                if key in model:
                    model[key] = False
                bc.mark_clean(key)
            elif op == 9:
                model.pop(key, None)
                bc.invalidate(key)
            elif op == 10:
                for k in [k for k in model if k[0] == key[0]]:
                    del model[k]
                bc.invalidate_inode(key[0])
            else:
                for k in [k for k, d in model.items() if not d]:
                    del model[k]
                bc.drop_clean()
            dirty_lru = [k for k, d in model.items() if d]
            assert [b.key for b in bc.dirty_buffers()] == dirty_lru, (
                f"dirty order diverged at step {step}")
            assert bc.dirty_count() == len(dirty_lru)
            for inum in range(4):
                assert sorted(b.key for b in bc.dirty_for_inode(inum)) == [
                    k for k in sorted(dirty_lru) if k[0] == inum]
            assert sorted(bc.keys()) == sorted(model)
        assert evictions > 0 and hits > 0 and misses > 0
        assert counts() == (hits, misses, evictions)

    def test_needs_flush(self):
        bc = BufferCache(capacity_bytes=10 * BLOCK_SIZE)
        assert not bc.needs_flush(0.5)
        for i in range(5):
            bc.put((1, i), block(i), dirty=True)
        assert bc.needs_flush(0.5)
