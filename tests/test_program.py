"""Tests for the whole-program layer: summaries, index, dataflow.

Covers the pieces the interprocedural rules stand on — the per-module
summary extractor and the combined index's borrow/clock fixpoints —
plus the cross-cutting contracts: output determinism (back-to-back
runs, overlapping inputs), the <10s whole-tree budget, and the pin
keeping the summary extractor's clock-source table in sync with HL001's.
The src-tree index tests read the session's shared ``src_index``
fixture (``conftest.py``); only the contract tests make fresh runs.
"""

import json
import time
from pathlib import Path

from repro.analysis import run_paths
from repro.analysis.program.dataflow import analyze_borrows
from repro.analysis.program.index import ProgramIndex
from repro.analysis.program.summary import (ACTOR_CLASS, CLOCK_SUFFIXES,
                                            summarize)
from repro.analysis.core import SourceFile
from repro.analysis.rules.hl001_clock_purity import _BANNED_SUFFIXES

REPO = Path(__file__).parent.parent
SRC = REPO / "src" / "repro"


def parse(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return SourceFile(p, str(p), text)


def build(files):
    return ProgramIndex.build(files)


# ---------------------------------------------------------------------------
# Summary extraction
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_borrow_returning_function_is_summarized(self, tmp_path):
        sf = parse(tmp_path, "repro_mod.py", (
            "def lend(store, blkno):\n"
            "    return store.read_refs(blkno, 4)\n"
            "def opaque(store):\n"
            "    return store.written_blocks()\n"))
        summary = summarize(sf)
        lend = summary.functions["repro_mod.lend"]
        assert lend.returns_borrow_direct
        assert not summary.functions["repro_mod.opaque"].returns_borrow_direct

    def test_conditional_borrow_recorded_as_dependency(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "def helper(store):\n"
            "    return store.read_refs(0, 1)\n"
            "def outer(store):\n"
            "    return helper(store)\n"))
        summary = summarize(sf)
        outer = summary.functions["m.outer"]
        assert not outer.returns_borrow_direct
        assert "m.helper" in outer.returns_borrow_if

    def test_clock_calls_detected_through_aliases(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "import time as t\n"
            "def stamp():\n"
            "    return t.monotonic()\n"))
        summary = summarize(sf)
        assert summary.functions["m.stamp"].clock_calls

    def test_actor_attr_types_inferred(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "from repro.sim.actor import Actor\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.peer = Actor('p')\n"))
        summary = summarize(sf)
        assert summary.attr_types["m.Box"]["peer"] == ACTOR_CLASS

    def test_clock_suffixes_pin_hl001(self):
        # The extractor deliberately duplicates HL001's banned-suffix
        # table (importing it would cycle program <-> rules); this pin
        # fails the moment the two drift apart.
        assert set(CLOCK_SUFFIXES) == set(_BANNED_SUFFIXES)


# ---------------------------------------------------------------------------
# Dataflow
# ---------------------------------------------------------------------------

class TestDataflow:
    def _fn(self, tmp_path, body):
        sf = parse(tmp_path, "m.py", body)
        import ast
        fn = next(n for n in sf.tree.body
                  if isinstance(n, ast.FunctionDef))
        return sf, fn

    def test_escape_on_module_container(self, tmp_path):
        sf, fn = self._fn(tmp_path, (
            "def f(store):\n"
            "    refs = store.read_refs(0, 1)\n"
            "    SINK.append(refs)\n"))
        analysis = analyze_borrows(sf, fn, lambda call: [])
        assert [e.kind for e in analysis.escapes] == ["container"]

    def test_no_escape_for_local_container(self, tmp_path):
        sf, fn = self._fn(tmp_path, (
            "def f(store):\n"
            "    out = []\n"
            "    refs = store.read_refs(0, 1)\n"
            "    out.append(refs)\n"
            "    return len(out)\n"))
        analysis = analyze_borrows(sf, fn, lambda call: [])
        assert analysis.escapes == []

    def test_loop_carried_taint_converges(self, tmp_path):
        # The taint reaches `acc` only on the second propagate pass.
        sf, fn = self._fn(tmp_path, (
            "def f(store, n):\n"
            "    acc = None\n"
            "    for i in range(n):\n"
            "        acc = prev\n"
            "        prev = store.read_refs(i, 1)\n"
            "    self_like.cache = acc\n"))
        analysis = analyze_borrows(sf, fn, lambda call: [])
        assert analysis.escapes == []  # self_like is a local-ish name
        sf2, fn2 = self._fn(tmp_path, (
            "def f(self, store, n):\n"
            "    acc = None\n"
            "    for i in range(n):\n"
            "        acc = prev\n"
            "        prev = store.read_refs(i, 1)\n"
            "    self.cache = acc\n"))
        analysis2 = analyze_borrows(sf2, fn2, lambda call: [])
        assert [e.kind for e in analysis2.escapes] == ["self"]


# ---------------------------------------------------------------------------
# The combined index
# ---------------------------------------------------------------------------

class TestIndex:
    def test_src_borrow_fixpoint_finds_the_lending_chain(self, src_index):
        # The devices lend by *calling* their store's read_refs...
        assert "repro.blockdev.disk.DiskDevice.read_refs" \
            in src_index.returns_borrow
        # ...and one indirection further up, the line-I/O choke point.
        assert "repro.core.addressing.line_read_refs" \
            in src_index.returns_borrow

    def test_src_clock_reach_stays_out_of_simulation(self, src_index):
        for qname, (via, _desc) in src_index.clock_reach.items():
            if via is None:
                continue  # direct sites are HL001-audited (noqa'd bench)
            assert not qname.startswith(("repro.core.", "repro.lfs.")), \
                f"simulation function reaches wall clock: {qname}"

    def test_clock_witness_paths_terminate_at_a_source(self, tmp_path):
        files = [parse(tmp_path, "m.py", (
            "import time\n"
            "def a():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return a()\n"
            "def c():\n"
            "    return b()\n"))]
        idx = build(files)
        witness = idx.clock_witness("m.c")
        assert witness[0] == "m.c"
        assert witness[-1] == "time.time"
        assert "m.b" in witness and "m.a" in witness

    def test_transitive_callees(self, tmp_path):
        files = [parse(tmp_path, "m.py", (
            "def leaf():\n    return 1\n"
            "def mid():\n    return leaf()\n"
            "def top():\n    return mid()\n"))]
        idx = build(files)
        assert idx.transitive_callees("m.top") == {"m.mid", "m.leaf"}


# ---------------------------------------------------------------------------
# Cross-cutting contracts: determinism and the time budget
# ---------------------------------------------------------------------------

class TestContracts:
    def test_back_to_back_runs_are_byte_identical(self, src_result):
        # The session's shared run came first; this one follows it in
        # the same process.
        again = run_paths([SRC])
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(src_result.to_dict(), sort_keys=True)

    def test_whole_tree_analysis_meets_the_time_budget(self):
        # run_paths defaults to the full suite, program rules included.
        t0 = time.monotonic()
        result = run_paths([SRC])
        elapsed = time.monotonic() - t0
        assert result.errors == []
        assert elapsed < 10.0, f"whole-tree analysis took {elapsed:.1f}s"

    def test_overlapping_paths_analyze_each_file_once(self, src_result):
        inner = SRC / "analysis" / "core.py"
        result = run_paths([SRC, inner, SRC])
        assert result.files_analyzed == src_result.files_analyzed
