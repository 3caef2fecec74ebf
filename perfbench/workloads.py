"""The four benchmark workloads, driven through the public ``Client`` API.

Each workload is a pair of functions:

* ``setup(seed)`` builds a fresh testbed, populates it, and returns a
  :class:`Bed`: the client, the byte oracle, the timed-phase request
  list and the background tasks that run beside it.  Everything in it is
  derived from ``seed``; the program only ever sees the generated
  requests.
* :func:`drive` replays a bed's requests in virtual time under one
  ``repro.sim`` scheduler (no OS threads), timing every client request on
  the host clock and recording its virtual due/issue/done times.

Sizes below are quoted against the paper's 3.2 MB buffer cache and the
1 MB segment / cache line.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import harness
from repro.cluster import ClusterNode, ClusterRouter
from repro.core.daemon import AutoMigrationDaemon
from repro.core.highlight import HighLightConfig
from repro.core.migrator import Migrator
from repro.core.policies import STPPolicy
from repro.errors import ReproError
from repro.frontend import Client, TenantBudget, open_cluster, open_node
from repro.frontend import load as fe_load
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.sched import CLASS_WRITEOUT, MODE_SCHEDULED
from repro.sim.actor import Actor
from repro.sim.scheduler import Scheduler
from repro.util.units import KB, MB

#: Seed of recorded results (README.md names the held-out seed).
DEFAULT_SEED = 1993

BLOCK = 4 * KB


@dataclass
class Req:
    """One client request of the timed phase.

    ``due`` is the virtual time an open-loop request is due; ``None``
    marks a closed-loop request, due when its lane is free.
    """

    op: str            # "read" | "write" | "migrate"
    tenant: str
    path: str
    offset: int = 0
    nbytes: int = 0
    due: Optional[float] = None
    lane: str = "lane0"
    #: Closed loop only: virtual seconds the client thinks before issuing.
    think: float = 0.0
    #: A synchronous write: the request calls ``Client.flush`` (the
    #: client's fsync: seal, drain queued write-outs, checkpoint) before
    #: it closes the handle.
    sync: bool = False


@dataclass
class Rec:
    """What the benchmark observed for one request."""

    op: str
    nbytes: int
    due: float
    issued: float
    done: float
    #: Host clock when the request started, and its host seconds.
    host_t0: float
    host_s: float
    ok: bool
    #: Exception class name of a request that raised ``ReproError``.
    error: str = ""


@dataclass
class Bed:
    """One set-up testbed, ready for its timed phase."""

    client: Client
    #: path -> the bytes a read must return.
    oracle: Dict[str, bytearray]
    requests: List[Req]
    #: Virtual time the timed phase starts (set-up left the devices busy
    #: until then).
    start: float
    #: Filesystems to fsck after the run.
    filesystems: List[object]
    #: Disk and tertiary devices, for DeviceStats deltas.
    disks: List[object]
    jukeboxes: List[object]
    #: Background task factories: ``fn(done) -> (actor, generator)``;
    #: ``done()`` is true once every client lane has finished.
    background: List[Callable] = field(default_factory=list)
    #: Virtual seconds the background cleaner's passes took.
    cleaner_busy: float = 0.0
    router: Optional[ClusterRouter] = None


def payload(tag: str, nbytes: int) -> bytes:
    """Deterministic content for one write (content derives from its tag)."""
    word = (tag.encode() + b"|") * 8
    return (word * (nbytes // len(word) + 1))[:nbytes]


def _write_file(client: Client, actor: Actor, path: str, data: bytes,
                tenant: Optional[str] = None) -> None:
    handle = client.open(actor, path, tenant=tenant, create=True)
    client.write(actor, handle, data)
    client.close(actor, handle)


def _place(requests: List[fe_load.Request], file_bytes: int,
           rng: random.Random, lane_of,
           sizes: Optional[Tuple[int, int]] = None) -> List[Req]:
    """Turn generator arrivals into requests at random block offsets,
    with sizes drawn uniformly in whole blocks from ``sizes`` (min, max)
    when given."""
    out = []
    for r in requests:
        nbytes = r.nbytes
        if sizes is not None:
            nbytes = rng.randrange(sizes[0], sizes[1] + 1, BLOCK)
        slots = (file_bytes - nbytes) // BLOCK + 1
        out.append(Req(op=r.op, tenant=r.tenant, path=r.path,
                       offset=rng.randrange(slots) * BLOCK,
                       nbytes=nbytes, due=r.t, lane=lane_of(r)))
    return out


# --------------------------------------------------------------------------
# disk_rw: buffer cache, bmap, segment writer and cleaner; no tertiary
# --------------------------------------------------------------------------

DISK_RW_FILES_PER_TENANT = 128
DISK_RW_FILE_BYTES = 64 * KB          # 2 x 128 x 64 KB = 16 MB = 5x bcache
DISK_RW_SIZES = (8 * KB, 64 * KB)      # uniform, in whole blocks
DISK_RW_REQUESTS = 5000
DISK_RW_READS = 0.5                    # read share of requests
DISK_RW_RATE = 2.0                    # aggregate arrivals per virtual s
DISK_RW_ZIPF = 0.8
#: This tenant's overwrites are synchronous; the other's are buffered.
DISK_RW_SYNC_TENANT = "db"
DISK_RW_LANES = 4                     # per tenant
DISK_RW_CLEAN_EVERY = 2.0             # virtual s between cleaner checks
CHECKPOINT_EVERY = 60.0               # virtual s between checkpoints


def setup_disk_rw(seed: int) -> Bed:
    bed = harness.make_highlight(partition_bytes=48 * MB, n_platters=2,
                                 platter_constraint=8 * MB)
    client = open_node(bed)
    tenants = (DISK_RW_SYNC_TENANT, "scratch")
    paths = {t: tuple(f"/{t}/f{i:03d}"
                      for i in range(DISK_RW_FILES_PER_TENANT))
             for t in tenants}
    oracle: Dict[str, bytearray] = {}
    loader = Actor("loader")
    for t in tenants:
        client.tenant(t, TenantBudget())
        for path in paths[t]:
            data = payload(f"init:{path}", DISK_RW_FILE_BYTES)
            _write_file(client, loader, path, data, tenant=t)
            oracle[path] = bytearray(data)
    client.flush(loader)
    spec = fe_load.WorkloadSpec(
        seed=seed,
        mixes=tuple(fe_load.TenantMix(tenant=t, share=share,
                                      read_fraction=DISK_RW_READS,
                                      paths=paths[t])
                    for t, share in zip(tenants, (2.0, 1.0))),
        n_clients=2000, duration=1e9,
        mean_interarrival=2000 / DISK_RW_RATE, zipf_s=DISK_RW_ZIPF,
        max_requests=DISK_RW_REQUESTS)
    rng = random.Random(seed ^ 0x5EED)
    requests = _place(
        fe_load.generate(spec), DISK_RW_FILE_BYTES, rng,
        lambda r: f"{r.tenant}{r.client_id % DISK_RW_LANES}", DISK_RW_SIZES)
    for req in requests:
        req.sync = req.tenant == DISK_RW_SYNC_TENANT
    start = float(loader.time) + 1.0
    out = Bed(client=client, oracle=oracle, requests=requests, start=start,
              filesystems=[bed.fs], disks=list(bed.disks),
              jukeboxes=[bed.jukebox])
    out.background.append(_cleaner_task(out, bed.fs, start))
    return out


def _time_cleaner(cleaner: Cleaner, out: Bed) -> None:
    """Add the virtual time each of ``cleaner``'s passes takes to
    ``out.cleaner_busy``."""
    clean_pass = cleaner.clean_pass

    def timed_pass() -> int:
        t0 = cleaner.actor.time
        try:
            return clean_pass()
        finally:
            out.cleaner_busy += cleaner.actor.time - t0
    cleaner.clean_pass = timed_pass


def _cleaner_task(out: Bed, fs, start: float) -> Callable:
    """A background cleaner actor: every few virtual seconds it runs a
    pass if clean headroom is short, and checkpoints once a minute."""

    def make(done):
        actor = Actor("bg-cleaner")
        cleaner = Cleaner(fs, GreedyPolicy(), actor=actor, max_per_pass=1)
        _time_cleaner(cleaner, out)
        actor.sleep_until(start)

        def gen():
            next_ckpt = start + CHECKPOINT_EVERY
            while not done():
                actor.sleep(DISK_RW_CLEAN_EVERY)
                yield
                if cleaner.needs_cleaning():
                    cleaner.clean_pass()
                    yield
                if actor.time >= next_ckpt:
                    fs.checkpoint(actor)
                    next_ckpt += CHECKPOINT_EVERY
                    yield
        return actor, gen()

    return make


# --------------------------------------------------------------------------
# tier_migrate: ingest under the automigration daemon (write side)
# --------------------------------------------------------------------------

MIGRATE_FILES = 24
MIGRATE_CLIENTS = 3                   # closed-loop ingest clients
MIGRATE_PRELOAD = 12                  # 24 MB already on the 64 MB disk
MIGRATE_FILE_BYTES = 2 * MB
MIGRATE_CHUNK = 32 * KB               # 64 +- 16 write requests per file
MIGRATE_VERIFY = 16 * KB              # read-back sample size
#: Every write but each fourth is followed by one read-back sample.
MIGRATE_UNCHECKED = 4
MIGRATE_THINK = 0.1                   # virtual s between ingest writes
MIGRATE_TICK = 5.0                    # virtual s between daemon ticks


def setup_tier_migrate(seed: int) -> Bed:
    bed = harness.make_highlight(partition_bytes=64 * MB, n_platters=16,
                                 platter_constraint=16 * MB)
    harness.preload_write_volume(bed)
    client = open_node(bed)
    client.tenant("ingest", TenantBudget(qos_class=CLASS_WRITEOUT))
    rng = random.Random(seed)
    # File sizes vary by whole chunks around the 2 MB mean, so the seed
    # moves where files straddle staging segments and platters.
    requests: List[Req] = []
    oracle: Dict[str, bytearray] = {}
    # Client k takes every third file.  After three writes in four it
    # checks one 16 KB sample of the file it finished two files ago (the
    # current file at first): by then it is flushed and usually evicted
    # from the buffer cache.
    finished: Dict[str, List[Tuple[str, int]]] = {}
    for i in range(MIGRATE_FILES):
        path = f"/ingest/d{i % 8}/obj{i:03d}"
        lane = f"ingest{i % MIGRATE_CLIENTS}"
        done = finished.setdefault(lane, [])
        nchunks = (MIGRATE_FILE_BYTES // MIGRATE_CHUNK
                   + rng.randrange(-16, 17))
        oracle[path] = bytearray()
        for c in range(nchunks):
            requests.append(Req(op="write", tenant="ingest", path=path,
                                offset=c * MIGRATE_CHUNK,
                                nbytes=MIGRATE_CHUNK, lane=lane,
                                think=MIGRATE_THINK, sync=True))
            if c % MIGRATE_UNCHECKED == MIGRATE_UNCHECKED - 1:
                continue
            target, span = done[-2] if len(done) > 1 else (path, c + 1)
            offset = rng.randrange(span * MIGRATE_CHUNK // BLOCK
                                   - MIGRATE_VERIFY // BLOCK + 1) * BLOCK
            requests.append(Req(op="read", tenant="ingest", path=target,
                                offset=offset, nbytes=MIGRATE_VERIFY,
                                lane=lane, think=MIGRATE_THINK))
        done.append((path, nchunks))
    # 24 MB of older ingest is on the disk before the timed phase, so the
    # daemon has work from its first ticks.
    loader = Actor("loader")
    for i in range(MIGRATE_PRELOAD):
        path = f"/ingest/d{i % 8}/old{i:03d}"
        data = payload(f"old:{path}", MIGRATE_FILE_BYTES)
        _write_file(client, loader, path, data, tenant="ingest")
        oracle[path] = bytearray(data)
    client.flush(loader)
    fs = bed.fs
    daemon_actor = Actor("bg-daemon")
    migrator = Migrator(fs, policy=STPPolicy(target_bytes=MB,
                                             min_size=MB),
                        actor=daemon_actor)
    daemon = AutoMigrationDaemon(fs, migrator, high_water=0.5,
                                 low_water=0.3, max_policy_rounds=1)
    start = float(loader.time) + 1.0
    out = Bed(client=client, oracle=oracle, requests=requests, start=start,
              filesystems=[fs], disks=list(bed.disks),
              jukeboxes=[bed.jukebox])

    def make(done):
        daemon_actor.sleep_until(start)

        def gen():
            while not done():
                daemon_actor.sleep(MIGRATE_TICK)
                yield
                daemon.tick(daemon_actor)
                yield
        return daemon_actor, gen()

    out.background.append(make)
    _time_cleaner(daemon.cleaner, out)
    return out


# --------------------------------------------------------------------------
# tier_recall / cluster_recall: demand reads of a pre-migrated archive
# --------------------------------------------------------------------------

RECALL_ARCHIVE_FILES = 80            # 80 segments = 3.3x the 24 cache lines
RECALL_FILE_BYTES = 896 * KB          # one staging segment per file
RECALL_PARTITION = 96 * MB            # 25% cache fraction: 24 lines
RECALL_PLATTERS = 20
RECALL_PLATTER_BYTES = 8 * MB         # 8 segments per platter
RECALL_READ_BYTES = (4 * KB, 16 * KB)   # uniform, in whole blocks
RECALL_READS = 2200
RECALL_RATE = 0.05                    # interactive reads per virtual s
RECALL_LANES = 8
RECALL_ZIPF = 1.2
BATCH_FILES = 42                      # ~48 writes each: ~2000 writes
BATCH_FILE_BYTES = (320 * KB, 448 * KB)
BATCH_WRITE = (4 * KB, 12 * KB)        # write sizes, any byte count
BATCH_RATE = 48 * KB                  # batch tenant's token bucket
BATCH_SPAN = 36000.0                  # virtual s the batch jobs' gaps add to
BATCH_MAX_QUEUED = 2                  # batch tenant's write-out queue cap


def recall_requests(seed: int) -> List[Req]:
    """The interactive Zipf read stream plus the paced batch tenant."""
    archive = tuple(f"/archive/a{i:03d}" for i in range(RECALL_ARCHIVE_FILES))
    spec = fe_load.WorkloadSpec(
        seed=seed,
        mixes=(fe_load.TenantMix(tenant="interactive", share=1.0,
                                 read_fraction=1.0, paths=archive),),
        n_clients=5000, duration=1e9,
        mean_interarrival=5000 / RECALL_RATE, zipf_s=RECALL_ZIPF,
        max_requests=RECALL_READS)
    rng = random.Random(seed ^ 0xA11CE)
    reads = _place(fe_load.generate(spec), RECALL_FILE_BYTES, rng,
                   lambda r: f"i{r.client_id % RECALL_LANES}",
                   RECALL_READ_BYTES)
    # Batch jobs arrive after exponential gaps, scaled to span
    # BATCH_SPAN virtual seconds in all; each writes one file of
    # 320-448 KB in writes of 4-12 KB, any byte count, back to back under
    # its token bucket, then migrates it.
    batch: List[Req] = []
    gaps = [rng.expovariate(1.0) for _ in range(BATCH_FILES)]
    scale = BATCH_SPAN / sum(gaps)
    for i in range(BATCH_FILES):
        path = f"/bulk/b{i:03d}"
        size = rng.randrange(BATCH_FILE_BYTES[0], BATCH_FILE_BYTES[1] + 1)
        think, offset = gaps[i] * scale, 0
        while offset < size:
            nbytes = min(rng.randrange(*BATCH_WRITE), size - offset)
            batch.append(Req(op="write", tenant="batch", path=path,
                             offset=offset, nbytes=nbytes, lane="batch",
                             think=think))
            think, offset = 0.0, offset + nbytes
        batch.append(Req(op="migrate", tenant="batch", path=path,
                         nbytes=size, lane="batch"))
    return reads + batch


def _recall_budgets(client: Client) -> None:
    client.tenant("interactive", TenantBudget())
    client.tenant("batch", TenantBudget(
        qos_class=CLASS_WRITEOUT, rate_bytes_per_s=BATCH_RATE,
        burst_bytes=BATCH_WRITE[0], max_queued=BATCH_MAX_QUEUED))


def _load_archive(client: Client, loader: Actor) -> Dict[str, bytearray]:
    oracle: Dict[str, bytearray] = {}
    for i in range(RECALL_ARCHIVE_FILES):
        path = f"/archive/a{i:03d}"
        data = payload(f"archive:{path}", RECALL_FILE_BYTES)
        _write_file(client, loader, path, data)
        client.migrate(loader, path)
        oracle[path] = bytearray(data)
    client.flush(loader)
    client.drop_caches(loader)
    return oracle


def _reclaim(fs, actor: Actor) -> None:
    """Clean every segment the archive's migration left dead, so the
    timed phase starts with the disk's log space free."""
    Cleaner(fs, actor=actor, target_clean=fs.ifile.nsegs).run()
    fs.checkpoint(actor)


def _recall_config() -> HighLightConfig:
    return HighLightConfig(sched_mode=MODE_SCHEDULED,
                           sched_aging_threshold=3600.0)


def setup_tier_recall(seed: int) -> Bed:
    bed = harness.make_highlight(partition_bytes=RECALL_PARTITION,
                                 n_platters=RECALL_PLATTERS,
                                 platter_constraint=RECALL_PLATTER_BYTES,
                                 config=_recall_config())
    harness.preload_write_volume(bed)
    client = open_node(bed)
    _recall_budgets(client)
    loader = Actor("loader")
    oracle = _load_archive(client, loader)
    _reclaim(bed.fs, loader)
    return Bed(client=client, oracle=oracle, requests=recall_requests(seed),
               start=float(loader.time) + 60.0, filesystems=[bed.fs],
               disks=list(bed.disks), jukeboxes=[bed.jukebox])


CLUSTER_SHARDS = 4
#: Per shard: 12 cache lines.  At 8 lines or fewer (the scheduler's
#: write-out queue limit) back-to-back migrations raise StagingFull.
CLUSTER_PARTITION = 48 * MB


def setup_cluster_recall(seed: int) -> Bed:
    nodes = [ClusterNode(i, partition_bytes=CLUSTER_PARTITION,
                         n_platters=RECALL_PLATTERS,
                         platter_bytes=RECALL_PLATTER_BYTES,
                         config=_recall_config())
             for i in range(CLUSTER_SHARDS)]
    router = ClusterRouter(nodes, seed=seed)
    client = open_cluster(router)
    _recall_budgets(client)
    loader = Actor("loader")
    oracle = _load_archive(client, loader)
    for node in nodes:
        _reclaim(node.fs, node.actor)
        loader.sleep_until(node.actor.time)
    return Bed(client=client, oracle=oracle, requests=recall_requests(seed),
               start=float(loader.time) + 60.0,
               filesystems=[n.fs for n in nodes],
               disks=[n.disk for n in nodes],
               jukeboxes=[n.jukebox for n in nodes], router=router)


WORKLOADS: Dict[str, Callable[[int], Bed]] = {
    "disk_rw": setup_disk_rw,
    "tier_migrate": setup_tier_migrate,
    "tier_recall": setup_tier_recall,
    "cluster_recall": setup_cluster_recall,
}


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------

class StepCounter:
    """Scheduler steps taken by the benchmark's tasks, with the host clock
    at the start of each step and the step's host seconds, in the order
    the scheduler ran them (the same order in every replay of one
    seed)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.steps = 0
        self.starts: List[float] = []
        self.times: List[float] = []

    def wrap(self, gen):
        clock, starts, times = self.clock, self.starts, self.times
        while True:
            t0 = clock()
            starts.append(t0)
            try:
                item = next(gen)
            except StopIteration:
                times.append(clock() - t0)
                return
            times.append(clock() - t0)
            self.steps += 1
            yield item


def drive(bed: Bed, tracer=None, clock: Callable[[], float] = time.perf_counter
          ) -> Tuple[List[Rec], int, StepCounter]:
    """Replay ``bed.requests``, timing on the host ``clock``; returns
    (records, wrong reads, steps).

    A request that raises :class:`ReproError` is recorded as failed and
    never retried; a read whose bytes differ from the oracle is recorded
    as failed and counted as wrong.
    """
    client, oracle = bed.client, bed.oracle
    records: List[Rec] = []
    wrong = [0]
    lanes: Dict[str, List[Req]] = {}
    for req in bed.requests:
        lanes.setdefault(req.lane, []).append(req)
    live = [len(lanes)]
    counter = StepCounter(clock)
    next_id = [1]

    def run_one(actor: Actor, req: Req) -> Rec:
        due = actor.time if req.due is None else bed.start + req.due
        issued = actor.time
        rid = next_id[0]
        next_id[0] += 1
        if tracer is not None:
            tracer.request = rid
        ok, error = True, ""
        t0 = clock()
        try:
            if req.op == "migrate":
                client.migrate(actor, req.path, tenant=req.tenant)
            else:
                handle = client.open(actor, req.path, tenant=req.tenant,
                                     create=req.op == "write")
                if req.op == "read":
                    data = client.read(actor, handle, req.offset, req.nbytes)
                else:
                    data = payload(f"{req.path}@{req.offset}:{rid}",
                                   req.nbytes)
                    client.write(actor, handle, data, req.offset)
                    if req.sync:
                        client.flush(actor)
                client.close(actor, handle)
        except ReproError as exc:
            ok, error = False, type(exc).__name__
        host = clock() - t0
        if tracer is not None:
            tracer.request = 0
        if ok and req.op == "read":
            expect = oracle[req.path]
            if data != expect[req.offset:req.offset + req.nbytes]:
                ok = False
                wrong[0] += 1
        elif ok and req.op == "write":
            buf = oracle.setdefault(req.path, bytearray())
            end = req.offset + len(data)
            if len(buf) < end:
                buf.extend(bytes(end - len(buf)))
            buf[req.offset:end] = data
        return Rec(op=req.op, nbytes=req.nbytes, due=due,
                   issued=issued, done=actor.time, host_t0=t0, host_s=host,
                   ok=ok, error=error)

    def lane_task(actor: Actor, reqs: List[Req]):
        try:
            for req in reqs:
                if req.due is not None and actor.time < bed.start + req.due:
                    actor.sleep_until(bed.start + req.due)
                actor.sleep(req.think)
                yield
                records.append(run_one(actor, req))
        finally:
            live[0] -= 1

    def task(gen, request):
        gen = counter.wrap(gen)
        return gen if tracer is None else tracer.bench_step(gen, request)

    sim = Scheduler()
    for name in sorted(lanes):
        reqs = lanes[name]
        reqs.sort(key=lambda r: -1.0 if r.due is None else r.due)
        actor = Actor(f"lane-{name}")
        actor.sleep_until(bed.start)
        sim.add(actor, task(lane_task(actor, reqs), 0))
    for i, make in enumerate(bed.background):
        actor, gen = make(lambda: live[0] == 0)
        sim.add(actor, task(gen, -(i + 1)))
    sim.run()
    return records, wrong[0], counter
