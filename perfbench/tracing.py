"""In-memory span tracing around the public entry points of each layer.

:class:`Tracer` wraps the entry points listed in :data:`LAYERS` for the
duration of one traced round and restores the originals afterwards, so
untraced rounds run the program unmodified.  Every call becomes a span:
name, host start and end, parent span, and the id of the client request
that caused it (negative ids are background tasks, 0 is unattributed).
A generator entry point gets one span per resumed step.

Self time is a span's duration minus the time its child spans cover.
Time outside every span, plus the benchmark's own code running inside a
simulation step, is the residual ``bench.self_s``.
"""

from __future__ import annotations

import gzip
import inspect
import os
import time
from array import array
from typing import Dict, List, Tuple

from repro import obs
from repro.blockdev.disk import DiskDevice
from repro.blockdev.extent import ExtentStore
from repro.blockdev.jukebox import Jukebox
from repro.cluster.router import ClusterRouter
from repro.core.daemon import AutoMigrationDaemon
from repro.core.ioserver import IOServer
from repro.core.migrator import Migrator
from repro.core.segcache import SegmentCache
from repro.core.service import ServiceProcess
from repro.footprint.robot import JukeboxFootprint
from repro.frontend.session import Client
from repro.lfs.buffercache import BufferCache
from repro.lfs.cleaner import Cleaner
from repro.lfs.filesystem import LFS
from repro.lfs.segwriter import SegmentWriter
from repro.sched.scheduler import TertiaryScheduler
from repro.sim.scheduler import Scheduler

#: layer -> [(owner, entry point names)]; ``owner`` is a class (its
#: subclasses' overrides are wrapped too) or a module.
LAYERS: List[Tuple[str, List[Tuple[object, Tuple[str, ...]]]]] = [
    ("frontend", [(Client, ("open", "read", "write", "close",
                            "migrate"))]),
    ("sched", [(TertiaryScheduler, ("submit", "submit_prefetch",
                                    "submit_writeout", "pump", "fetch"))]),
    ("core.service", [(ServiceProcess, ("demand_fetch", "writeout_line",
                                        "eject"))]),
    ("core.segcache", [(SegmentCache, ("lookup", "acquire_line"))]),
    ("core.ioserver", [(IOServer, ("fetch", "writeout_steps"))]),
    ("core.migrator", [(Migrator, ("migrate_file", "run_once", "flush")),
                       (AutoMigrationDaemon, ("tick",))]),
    ("lfs", [(LFS, ("read", "write", "lookup", "checkpoint", "bmap"))]),
    ("lfs.buffercache", [(BufferCache, ("get", "put", "peek"))]),
    ("lfs.segwriter", [(SegmentWriter, ("flush",))]),
    ("lfs.cleaner", [(Cleaner, ("clean_pass", "clean_segment"))]),
    ("blockdev.disk", [(DiskDevice, ("read", "write", "read_refs",
                                     "write_refs", "writev"))]),
    ("blockdev.datapath", [(ExtentStore, ("read", "write", "read_refs",
                                          "write_refs", "readv",
                                          "writev"))]),
    ("blockdev.jukebox", [(Jukebox, ("load",))]),
    ("footprint", [(JukeboxFootprint, ("read", "write", "read_refs",
                                       "write_refs"))]),
    ("cluster", [(ClusterRouter, ("read_path", "write_path", "shard_of"))]),
    ("obs", [(obs, ("counter", "gauge", "histogram", "event"))]),
    ("sim", [(Scheduler, ("run",))]),
]

LAYER_NAMES = [layer for layer, _ in LAYERS]

#: Pseudo-layer for the benchmark's own code inside simulation steps.
BENCH = "bench"


def _owners(owner: object, name: str) -> List[object]:
    """Every class in ``owner``'s hierarchy that defines ``name`` itself."""
    if not inspect.isclass(owner):
        return [owner]
    out, todo = [], [owner]
    while todo:
        cls = todo.pop()
        if name in vars(cls):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Records spans while installed; aggregates calls and self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.name_id = array("H")
        #: Client request id spans are attributed to (set by ``drive``).
        self.request = 0
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.covered = 0.0
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name(self, layer: str, qualname: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.setdefault(qualname, 0)
        self.self_s.setdefault(layer, 0.0)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        sid = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1][0] if stack else -1)
        self.req.append(self.request)
        self.name_id.append(nid)
        self.end.append(0.0)
        frame = [sid, 0.0, time.perf_counter()]
        self.start.append(frame[2])
        stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[2]
        self.end[frame[0]] = end
        self.self_s[layer] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        else:
            self.covered += dur

    def bench_step(self, gen, request: int):
        """Run each step of one of the benchmark's own tasks inside a
        ``bench`` span attributed to ``request``, so the benchmark's code
        is not charged to the scheduler."""
        nid = self._name(BENCH, "bench.step")
        while True:
            self.request = request
            frame = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self._close(frame, BENCH)
                return
            finally:
                self.request = 0
            self._close(frame, BENCH)
            yield item

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        nid = self._name(layer, qualname)
        calls = self.calls
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapped_gen(*args, **kwargs):
                calls[qualname] += 1
                gen = fn(*args, **kwargs)
                value = None
                try:
                    while True:
                        frame = tracer._open(nid)
                        try:
                            item = gen.send(value)
                        except StopIteration as stop:
                            tracer._close(frame, layer)
                            return stop.value
                        except BaseException:
                            tracer._close(frame, layer)
                            raise
                        tracer._close(frame, layer)
                        value = yield item
                finally:
                    gen.close()
            return wrapped_gen

        def wrapped(*args, **kwargs):
            calls[qualname] += 1
            frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer)
        return wrapped

    def install(self) -> None:
        for layer, entries in LAYERS:
            for owner, methods in entries:
                for method in methods:
                    for target in _owners(owner, method):
                        original = vars(target)[method]
                        label = getattr(target, "__name__", str(target))
                        self._saved.append((target, method, original))
                        setattr(target, method, self._wrap(
                            layer, f"{label}.{method}", original))

    def uninstall(self) -> None:
        for target, method, original in reversed(self._saved):
            setattr(target, method, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYER_NAMES}
        for qualname, count in self.calls.items():
            layer = self.layer_of[self.names.index(qualname)]
            if layer in out:
                out[layer] += count
        return out

    def count(self, qualname: str) -> int:
        return self.calls.get(qualname, 0)

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: id, name, start, end, parent,
        request (times in host seconds from the first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,request\n")
            for sid in range(len(self.start)):
                out.write(f"{sid},{names[self.name_id[sid]]},"
                          f"{self.start[sid] - t0:.9f},"
                          f"{self.end[sid] - t0:.9f},"
                          f"{self.parent[sid]},{self.req[sid]}\n")
