"""Staleness tests: the content-validated directory parse cache.

LFS and FFS parse a directory only when its bytes differ from the bytes
they last parsed for that inum.  These tests drive namespace mutations,
caller-side mutation of returned images, crash recovery and cleaner
relocation against a plain dict oracle: every lookup and readdir must
still agree with it.
"""

import os
import random

import pytest

from repro.blockdev import profiles
from repro.errors import FileExists
from repro.ffs.filesystem import FFS, FFSConfig
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.lfs.constants import ROOT_INUM
from repro.lfs.filesystem import LFS
from repro.util.units import MB


@pytest.fixture
def ffs(app):
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
    return FFS.mkfs(disk, FFSConfig(), actor=app)


class Oracle:
    """path -> (inum, is_dir) for every live name below the root."""

    def __init__(self):
        self.paths = {"/": (ROOT_INUM, True)}

    def dirs(self):
        return [p for p, (_, d) in self.paths.items() if d]

    def files(self):
        return [p for p, (_, d) in self.paths.items() if not d]

    def children(self, parent):
        prefix = parent.rstrip("/") + "/"
        return sorted(p[len(prefix):] for p in self.paths
                      if p != parent and p.startswith(prefix)
                      and "/" not in p[len(prefix):])

    def check(self, fs):
        for path, (inum, is_dir) in self.paths.items():
            assert fs.lookup(path) == inum, path
            if is_dir:
                assert fs.readdir(path) == self.children(path), path


def join(parent, name):
    return parent.rstrip("/") + "/" + name


def churn_namespace(fs, oracle, rng, steps, rename=True, syncs=True):
    """Random create/mkdir/unlink/rmdir(/rename) interleaved with full
    oracle checks and, if ``syncs``, occasional syncs and cache drops."""
    for step in range(steps):
        op = rng.randrange(6 if rename else 5)
        parent = rng.choice(oracle.dirs())
        name = f"n{rng.randrange(12)}"
        path = join(parent, name)
        if op == 0 or op == 1:
            if path in oracle.paths:
                with pytest.raises(FileExists):
                    (fs.create if op == 0 else fs.mkdir)(path)
            elif op == 0:
                oracle.paths[path] = (fs.create(path), False)
            else:
                oracle.paths[path] = (fs.mkdir(path), True)
        elif op == 2 and oracle.files():
            victim = rng.choice(oracle.files())
            fs.unlink(victim)
            del oracle.paths[victim]
        elif op == 3:
            empty = [d for d in oracle.dirs()
                     if d != "/" and not oracle.children(d)]
            if empty:
                victim = rng.choice(empty)
                fs.rmdir(victim)
                del oracle.paths[victim]
        elif op == 4:
            if syncs and rng.random() < 0.5:
                fs.sync()
            elif syncs:
                fs.drop_caches(drop_inodes=rng.random() < 0.5)
        elif oracle.files() and path not in oracle.paths:
            src = rng.choice(oracle.files())
            fs.rename(src, path)
            oracle.paths[path] = oracle.paths.pop(src)
        oracle.check(fs)


def poison_returned_image(fs, oracle):
    """Mutate what ``_read_dir`` hands out without writing it back, as
    the FileExists paths do; later lookups must not see it."""
    root = fs.get_inode(ROOT_INUM)
    image = fs._read_dir(root, fs.actor)
    image.entries["ghost"] = 9999
    for name in list(image.entries):
        if name not in (".", ".."):
            del image.entries[name]
    existing = oracle.children("/")
    if existing:
        with pytest.raises(FileExists):
            fs.create(join("/", existing[0]))
    oracle.check(fs)
    assert "ghost" not in fs.readdir("/")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lfs_namespace_matches_oracle(lfs, seed):
    oracle = Oracle()
    churn_namespace(lfs, oracle, random.Random(seed), 300)
    poison_returned_image(lfs, oracle)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ffs_namespace_matches_oracle(ffs, seed):
    oracle = Oracle()
    churn_namespace(ffs, oracle, random.Random(seed), 300, rename=False)
    poison_returned_image(ffs, oracle)


def test_reused_inum_reads_new_directory(lfs):
    """A removed directory's inum may come back as a different
    directory; its old parse must not leak into the new one."""
    first = lfs.mkdir("/a")
    lfs.create("/a/x")
    assert lfs.readdir("/a") == ["x"]
    lfs.unlink("/a/x")
    lfs.rmdir("/a")
    again = lfs.mkdir("/b")
    assert again == first
    assert lfs.readdir("/b") == []
    lfs.create("/b/y")
    assert lfs.readdir("/b") == ["y"]


def test_lfs_lookups_after_crash_recovery(lfs, small_disk):
    """Recovery rolls the namespace back to the last synced state; the
    remounted filesystem's lookups follow the media, not an old parse."""
    rng = random.Random(7)
    oracle = Oracle()
    churn_namespace(lfs, oracle, rng, 120)
    lfs.sync()
    synced = dict(oracle.paths)
    churn_namespace(lfs, oracle, rng, 40, syncs=False)  # lost in the crash
    oracle.paths = synced
    fs2 = LFS.mount(small_disk)
    oracle.check(fs2)
    churn_namespace(fs2, oracle, rng, 60)


def test_lfs_lookups_after_cleaner_moves_directory_blocks(lfs):
    """The cleaner relocates live directory blocks to new log addresses;
    lookups, warm and cold, still match the oracle."""
    oracle = Oracle()
    d = join("/", "dir")
    oracle.paths[d] = (lfs.mkdir(d), True)
    for i in range(200):  # several directory blocks
        path = join(d, f"entry-with-a-longish-name-{i:04d}")
        oracle.paths[path] = (lfs.create(path), False)
    lfs.sync()
    dir_ino = lfs.get_inode(oracle.paths[d][0])
    before = [lfs.bmap(dir_ino, lbn) for lbn in range(2)]
    for i in range(6):
        lfs.write_path(f"/churn{i}", os.urandom(MB))
        lfs.sync()
    for i in range(6):
        lfs.unlink(f"/churn{i}")
    lfs.checkpoint()
    oracle.check(lfs)
    Cleaner(lfs, GreedyPolicy(), target_clean=10_000,
            max_per_pass=50).clean_pass()
    after = [lfs.bmap(dir_ino, lbn) for lbn in range(2)]
    assert after != before, "cleaner did not move the directory"
    oracle.check(lfs)
    lfs.drop_caches(drop_inodes=True)
    oracle.check(lfs)
