#!/usr/bin/env python3
"""End-to-end HighLight benchmark: four workloads, two clocks.

Run every workload, each in its own process, and print a table::

    python3 perfbench/run.py

Run one workload (what a harness does) and print its result as one JSON
object on the last line::

    python3 perfbench/run.py --workload disk_rw --seed 1993 --seconds 6 --trace 0

A run repeats *rounds* until ``--seconds`` of timed phase have passed
(at least :data:`MIN_ROUNDS`).  A round builds a fresh testbed from the
seed (timed as set-up), replays the seed's request stream through the
public ``Client`` API, then checks every read against a byte oracle and
fscks every filesystem.  Virtual-time results are a pure function of
the seed: every round must report identical virtual metrics and layer
counts, or the run fails.

``--trace 0`` reports the end-to-end metrics: host-clock figures are
scaled to a reference machine's speed by sampling the host's speed
while the run goes on (:mod:`hostspeed`) and are medians over rounds;
virtual-clock figures come from the (identical) rounds.  ``--trace 1``
runs one untraced round, then traced rounds, and reports the per-layer
split: span counts and self time per layer, plus the tracing
overhead.  Spans of the last traced round are written to
``.perfbench/<workload>-<seed>-spans.csv.gz``.

See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_ROUNDS = 3
#: Set-up time spent in the first round (at least two set-ups) for setup_s.
SETUP_SECONDS = 0.6
MB = 1024 * 1024
BLOCK = 4096


def percentile(values, pct):
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(num, den):
    """``num / den``; 0.0 when there is no base (the layer did no work)."""
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# One round
# --------------------------------------------------------------------------

def _device_totals(bed):
    disk = [d.stats.snapshot() for d in bed.disks]
    return {
        "disk_ops": sum(s["read_ops"] + s["write_ops"] for s in disk),
        "disk_bytes": sum(s["bytes_read"] + s["bytes_written"]
                          for s in disk),
        "disk_written": sum(s["bytes_written"] for s in disk),
        "disk_busy": sum(s["seek_seconds"] + s["transfer_seconds"]
                         for s in disk),
        "disk_seek": sum(s["seek_seconds"] for s in disk),
        "io_busy": sum(fs.ioserver.account.total()
                       - fs.ioserver.account.get("queuing")
                       for fs in bed.filesystems),
        "log_blocks": sum(fs.stats.blocks_written for fs in bed.filesystems),
        "checkpoints": sum(fs.stats.checkpoints for fs in bed.filesystems),
        "swaps": sum(j.swap_count for j in bed.jukeboxes),
        "swap_s": sum(j.swap_count * j.swap_time for j in bed.jukeboxes),
    }


def _space_amp(bed):
    """Disk plus tertiary bytes in live segments over live user bytes.
    The log's current segment counts only as far as it is written."""
    held = 0
    for fs in bed.filesystems:
        seg_bytes = fs.config.segment_size
        held += fs.cur_offset * BLOCK
        for segno in range(fs.ifile.nsegs):
            seg = fs.ifile.seguse(segno)
            if (segno != fs.cur_segno and seg.is_dirty()
                    and not seg.is_cached()):
                held += seg_bytes
        held += sum(seg_bytes for vol in fs.tsegfile.segs for seg in vol
                    if seg.live_bytes > 0)
    return held / sum(len(v) for v in bed.oracle.values())


def _registry(name, **labels):
    """Sum of every series of obs metric ``name`` matching ``labels``
    (counters and gauges by value, histograms by sum)."""
    from repro import obs
    total = 0.0
    for fam in obs.metrics().families():
        if fam.name != name:
            continue
        for values, child in fam.series():
            key = dict(zip(fam.labelnames, values))
            if all(key.get(k) == v for k, v in labels.items()):
                total += getattr(child, "value", getattr(child, "sum", 0.0))
    return total


def run_round(name, seed, tracer=None, first=False, probe=None):
    """Set up, drive and check one round; returns its raw results.  The
    first round of a run sets up at least twice and for at least
    :data:`SETUP_SECONDS`, keeping the last testbed, so that cheap
    set-ups get enough samples for a steady median; later rounds set up
    once.  With a :class:`hostspeed.SpeedProbe`, host times are taken on
    its clock and set-up times are divided by the host's slowness."""
    from repro import obs
    from repro.blockdev.datapath import bytes_copied_total, \
        reset_copy_counter
    from repro.lfs.check import check_filesystem
    import workloads

    clock = time.perf_counter if probe is None else probe.clock
    setups, raw = [], []
    while not setups or first and (len(setups) < 2
                                   or sum(raw) < SETUP_SECONDS):
        bed = None  # free the previous testbed before timing the next
        gc.collect()
        obs.reset()
        t0 = clock()
        bed = workloads.WORKLOADS[name](seed)
        t1 = clock()
        raw.append(t1 - t0)
        setups.append(raw[-1] if probe is None
                      else raw[-1] / probe.slowness(t0, t1))
    obs.reset()
    reset_copy_counter()
    before = _device_totals(bed)
    if tracer is not None:
        tracer.install()
    # Set-up's objects are long-lived: keep the collector from rescanning
    # them during the timed phase.
    gc.collect()
    gc.freeze()
    t1 = clock()
    try:
        records, wrong, steps = workloads.drive(bed, tracer, clock)
    finally:
        wall = clock() - t1
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
    obs.flush()
    after = _device_totals(bed)
    delta = {k: after[k] - before[k] for k in after}
    findings = []
    for fs in bed.filesystems:
        report = check_filesystem(fs)
        findings.extend(report.errors)
    return {
        "bed": bed, "records": records, "wrong": wrong,
        "steps": steps.steps, "step_at": steps.starts,
        "step_s": steps.times, "setups": setups, "start": t1, "wall": wall,
        "delta": delta,
        "copied": bytes_copied_total(), "findings": findings,
        "space_amp": _space_amp(bed),
        "trace_dropped": obs.trace().dropped,
        "trace_events": obs.trace().emitted,
    }


def virtual_metrics(rnd):
    """Virtual-clock end-to-end figures of one round (seed-determined)."""
    bed, recs = rnd["bed"], rnd["records"]
    out, counts = {}, {}
    for op in ("read", "write"):
        lat = [r.done - r.due for r in recs if r.op == op and r.ok]
        counts[op] = len(lat)
        if lat:
            out[f"{op}_p50_s"] = percentile(lat, 50)
            out[f"{op}_p99_s"] = percentile(lat, 99)
    moved = sum(r.nbytes for r in recs if r.ok and r.op != "migrate")
    makespan = max(r.done for r in recs) - bed.start
    out["virt_mb_per_s"] = moved / MB / makespan
    out["space_amp"] = rnd["space_amp"]
    return out, counts


def host_metrics(rounds, probe):
    """Host-clock figures over the untraced rounds of a run, at the
    reference machine's speed (:mod:`hostspeed`): the median over rounds
    of each round's figures.

    Within a round, each request's wall time (open -> read/write ->
    close; migrations count towards throughput only) and each simulation
    step's is divided by the host's slowness around it.  Throughput is
    requests over the sum of the scaled steps plus the scaled time spent
    between steps."""
    def scaled(start, took):
        return took / probe.slowness(start, start + took)

    per_round = []
    for r in rounds:
        host_us = [scaled(rec.host_t0, rec.host_s) * 1e6
                   for rec in r["records"] if rec.op != "migrate"]
        busy = (math.fsum(scaled(at, took)
                          for at, took in zip(r["step_at"], r["step_s"]))
                + scaled(r["start"], r["wall"] - math.fsum(r["step_s"])))
        per_round.append({
            "host_ops_per_s": len(r["records"]) / busy,
            "host_op_p50_us": percentile(host_us, 50),
            "host_op_p99_us": percentile(host_us, 99),
        })
    return {key: statistics.median(h[key] for h in per_round)
            for key in per_round[0]}


def layer_counts(rnd):
    """Per-layer work counts of one round, from the program's own
    counters (obs registry, DeviceStats, scheduler logs) where it keeps
    them.  Deterministic for a seed."""
    bed, recs, d = rnd["bed"], rnd["records"], rnd["delta"]
    scheds = bed.client.backend.schedulers()
    tenants = [bed.client.tenant(t) for t in bed.client.tenants()]
    user_written = sum(r.nbytes for r in recs if r.ok and r.op == "write")
    seg_hits = _registry("segcache_hits_total")
    seg_misses = _registry("segcache_misses_total")
    bc_hits = _registry("buffercache_hits_total")
    bc_misses = _registry("buffercache_misses_total")
    fetches = _registry("ioserver_segments_fetched_total")
    writeouts = _registry("ioserver_segments_written_total")
    seg_moved = (_registry("ioserver_fetch_bytes_total")
                 + _registry("ioserver_writeout_bytes_total"))
    demand = _registry("service_demand_fetches_total")
    lags = [r.issued - r.due for r in recs]
    out = {
        "frontend.admit_wait_s": sum(t.throttle_seconds for t in tenants),
        "frontend.issue_lag_p99_s": percentile(lags, 99),
        "frontend.rejects": sum(t.rejects for t in tenants),
        "sched.dispatches": sum(len(s.dispatch_log) for s in scheds),
        "sched.queue_wait_s": sum(r.wait for s in scheds
                                  for r in s.dispatch_log),
        "sched.admission_rejects": _registry("sched_admission_rejects_total"),
        "core.service.demand_fetches": demand,
        "core.segcache.hit_ratio": ratio(seg_hits, seg_hits + seg_misses),
        "core.segcache.ejects": _registry("segcache_ejections_total"),
        "core.ioserver.fetches": fetches,
        "core.ioserver.writeouts": writeouts,
        "core.ioserver.busy_s": d["io_busy"],
        "core.migrator.files": _registry("migrator_files_migrated_total"),
        "core.migrator.blocks": _registry("migrator_blocks_migrated_total"),
        "core.migrator.segments": _registry("migrator_segments_staged_total"),
        "lfs.checkpoints": d["checkpoints"],
        "lfs.write_amp": ratio(d["disk_written"], user_written),
        "lfs.buffercache.gets": bc_hits + bc_misses,
        "lfs.buffercache.hit_ratio": ratio(bc_hits, bc_hits + bc_misses),
        "lfs.buffercache.evictions": _registry("buffercache_evictions_total"),
        "lfs.segwriter.bytes": d["log_blocks"] * BLOCK,
        "lfs.cleaner.segments_cleaned":
            _registry("cleaner_segments_cleaned_total"),
        "lfs.cleaner.live_bytes_copied":
            _registry("cleaner_blocks_forwarded_total") * BLOCK,
        "lfs.cleaner.busy_s": bed.cleaner_busy,
        "blockdev.disk.ops": d["disk_ops"],
        "blockdev.disk.bytes": d["disk_bytes"],
        "blockdev.disk.busy_s": d["disk_busy"],
        "blockdev.disk.seek_s": d["disk_seek"],
        "blockdev.datapath.bytes_copied": rnd["copied"],
        "blockdev.datapath.copies_per_segment": ratio(rnd["copied"],
                                                      seg_moved),
        "blockdev.jukebox.swaps": d["swaps"],
        "blockdev.jukebox.swap_s": d["swap_s"],
        "blockdev.jukebox.swaps_per_fetch": ratio(d["swaps"], demand),
        "footprint.bytes_read": _registry("footprint_bytes_total", op="read"),
        "footprint.bytes_written": _registry("footprint_bytes_total",
                                             op="write"),
        "obs.events": rnd["trace_events"],
        "obs.trace_dropped": rnd["trace_dropped"],
        "sim.steps": rnd["steps"],
    }
    out.update(_cluster_counts(bed))
    return out


def _cluster_counts(bed):
    """Shards touched per routed request and the busiest shard's share."""
    if bed.router is None:
        return {"cluster.fanout_mean": 1.0, "cluster.shard_imbalance": 1.0}
    from repro import obs
    fams = {f.name: f for f in obs.metrics().families()}
    count = total = 0.0
    for _values, child in fams["cluster_fanout_width"].series():
        count += child.count
        total += child.sum
    loads = [_registry("cluster_route_requests_total", shard=str(s))
             for s in bed.router.nodes]
    return {"cluster.fanout_mean": ratio(total, count),
            "cluster.shard_imbalance": ratio(max(loads),
                                             statistics.mean(loads))}


# --------------------------------------------------------------------------
# A run: rounds until --seconds
# --------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, spec):
    """Run rounds of workload ``name`` and print the metrics ``spec``
    (BENCHMARK.json) lists for this kind of run; returns the exit code."""
    from hostspeed import SpeedProbe
    from tracing import Tracer

    # Sample the host's speed in end-to-end runs only: traced runs
    # compare raw wall times.
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.start()
    try:
        return _run_rounds(name, seed, seconds, trace, spec, probe, Tracer)
    finally:
        if probe is not None:
            probe.stop()


def _run_rounds(name, seed, seconds, trace, spec, probe, Tracer):
    rounds, traced = [], []
    timed = 0.0
    while len(rounds) + len(traced) < MIN_ROUNDS or timed < seconds:
        # Traced runs: one untraced round for the overhead, then traced.
        tracer = Tracer() if trace and rounds else None
        rnd = run_round(name, seed, tracer, first=not rounds, probe=probe)
        rnd["tracer"] = tracer
        # With a probe, count seconds at the reference machine's speed,
        # so that the number of rounds does not follow the host's load.
        timed += rnd["wall"] / (1.0 if probe is None else probe.slowness(
            rnd["start"], rnd["start"] + rnd["wall"]))
        rnd["virtual"], rnd["samples"] = virtual_metrics(rnd)
        rnd["counts"] = layer_counts(rnd)
        problems = check_round(rnd)
        # Keep only the figures; the testbed is garbage before the next
        # round builds its own.
        del rnd["bed"]
        if problems:
            return fail(name, problems)
        (traced if tracer is not None else rounds).append(rnd)

    everything = rounds + traced
    first = everything[0]
    if any((r["virtual"], r["counts"], _sequence(r))
           != (first["virtual"], first["counts"], _sequence(first))
           for r in everything[1:]):
        return fail(name, ["virtual-time metrics or layer counts differ "
                           "between rounds of one seed"])
    attempted = sum(len(r["records"]) for r in everything)
    errors = [rec.error for r in everything for rec in r["records"]
              if not rec.ok]

    if not trace:
        values = host_metrics(rounds, probe)
        values["setup_s"] = statistics.median(
            t for r in rounds for t in r["setups"])
        values["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        values.update(first["virtual"])
        wanted = spec["end_to_end"]
    else:
        if any(r["tracer"].layer_calls() != traced[0]["tracer"].layer_calls()
               for r in traced[1:]):
            return fail(name, ["traced span counts differ between rounds "
                               "of one seed"])
        tr = traced[-1]["tracer"]
        values = dict(first["counts"])
        values["lfs.bmap_calls"] = (tr.count("LFS.bmap")
                                    + tr.count("HighLightFS.bmap"))
        values["lfs.segwriter.flushes"] = tr.count("SegmentWriter.flush")
        values["obs.lookups"] = sum(tr.count(f"repro.obs.{f}")
                                    for f in ("counter", "gauge",
                                              "histogram"))
        for layer, calls in tr.layer_calls().items():
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_s"] = statistics.median(
                r["tracer"].self_s.get(layer, 0.0) for r in traced)
        values["bench.self_s"] = statistics.median(
            r["wall"] - r["tracer"].covered + r["tracer"].self_s["bench"]
            for r in traced)
        values["bench.trace_overhead"] = (
            statistics.median(r["wall"] for r in traced)
            / statistics.median(r["wall"] for r in rounds))
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            return fail(name, [f"no value for per-layer metric {m}"
                               for m in missing])
        path = os.path.join(OUT_DIR, f"{name}-{seed}-spans.csv.gz")
        tr.write(path)
        print(f"== {name} (seed {seed}) per-layer split; spans in {path}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    report(name, seed, metrics, first, len(everything), attempted, errors,
           trace)
    if probe is not None:
        from hostspeed import REF_SECONDS
        slow = statistics.median(probe.took) / REF_SECONDS
        print(f"  {'host slowness':40s} {slow:14.6g} x  (median of "
              f"{len(probe.took)} samples; host figures are divided by it)")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


def _sequence(rnd):
    """What each request of a round was and when it ended, in virtual
    time: identical in every round of one seed."""
    return [(r.op, r.nbytes, r.done, r.ok) for r in rnd["records"]]


def check_round(rnd):
    problems = []
    if rnd["wrong"]:
        problems.append(f"{rnd['wrong']} read(s) returned wrong bytes")
    problems.extend(f"fsck: {f}" for f in rnd["findings"])
    for op, n in rnd["samples"].items():
        if 0 < n < 1000:
            problems.append(f"only {n} {op} samples; need 1000 for a p99")
    return problems


def fail(name, problems):
    print(f"{name}: FAILED", file=sys.stderr)
    for p in problems[:20]:
        print(f"  {p}", file=sys.stderr)
    return 1


def report(name, seed, metrics, first, nrounds, attempted, errors, trace):
    """The human-readable table, with each percentile's sample count."""
    samples = first["samples"]
    nreq = len(first["records"])
    if not trace:
        print(f"== {name} (seed {seed}, {nrounds} rounds, {nreq} requests "
              "each)")
    for key, m in metrics.items():
        note = ""
        if key.startswith(("read_", "write_")):
            note = f"  (n={samples[key.split('_')[0]]})"
        elif key.startswith("host_op_"):
            note = f"  (n={nreq} per round)"
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}{note}")
    for key in ("read_p50_s", "read_p99_s", "write_p50_s", "write_p99_s"):
        if not trace and key not in metrics:
            print(f"  {key:40s} absent (no samples)")
    kinds = ", ".join(f"{e}: {n}" for e, n in
                      sorted(collections.Counter(errors).items()))
    print(f"  {'failed_op_ratio':40s} {len(errors) / attempted:14.6g} ratio"
          f"  ({len(errors)}/{attempted}{'; ' + kinds if kinds else ''})")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def run_all(args, names):
    """Each workload in its own process; their tables, in order."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
            print(f"{name}: exit {proc.returncode}")
    return status


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if args.seed is None:
        import workloads
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args.workload, args.seed, args.seconds, args.trace,
                        spec)


if __name__ == "__main__":
    sys.exit(main())
