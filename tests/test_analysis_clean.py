"""The production tree must satisfy its own invariants.

This is the tier-1 gate behind ``python -m repro.analysis src``: every
HL rule runs over ``src/repro`` and must produce zero findings.  Any new
violation either gets fixed or earns an explicit ``# noqa: HL0xx`` with
justification — and suppressions are budgeted, not free: the count here
is pinned so silent accretion shows up in review.

All three tests read the session's one analysis of ``src/repro``
(the ``src_result`` fixture in ``conftest.py``).
"""

from pathlib import Path


def test_src_tree_is_clean(src_result):
    rendered = "\n".join(f.format() for f in src_result.findings)
    assert src_result.errors == [], src_result.errors
    assert src_result.findings == [], f"analysis findings:\n{rendered}"


def test_suppression_budget(src_result):
    # One sanctioned suppression site, bench/: the Table-5 benchmark
    # measures the bare device on purpose (HL002, and its dd-style 1 MB
    # loop shape trips HL008).  The analysis package itself holds none.
    suppressed = src_result.suppressed
    assert len(suppressed) == 7
    assert all("bench" in Path(f.path).parts for f in suppressed)
    assert {f.code for f in suppressed} == {"HL002", "HL008"}
    assert not [f for f in suppressed if "analysis" in Path(f.path).parts]


def test_no_suppressions_in_core_or_lfs(src_result):
    for f in src_result.suppressed:
        path = Path(f.path)
        assert "core" not in path.parts and "lfs" not in path.parts, \
            f"suppression in protected package: {f.format()}"
