"""HL007: tertiary I/O submissions go through the scheduler facade.

The tertiary request scheduler (``repro.sched``) is the single point
where demand fetches, prefetches, write-outs, and cleaner reads meet
the I/O server: it enforces class priority, mount batching, admission
control, and the Table 4 ``queuing`` accounting for every request.  A
direct ``ioserver.fetch(...)`` (or write-out / bulk-read) call anywhere
else bypasses all four — the request is never classed, never batched
with its volume, never admission-checked, and its queue wait is never
charged.

Same choke-point pattern as HL002: the rule matches submission-method
calls on a receiver whose terminal name denotes the I/O server.
Attribute *reads* (``ioserver.account``, ``ioserver.writeout_log``) are
untouched — only calls submit work.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import terminal_attr, walk_calls

#: Receiver names that denote the I/O server back-end.
_IOSERVER_NAMES = frozenset({"ioserver", "io_server"})

#: The I/O server's submission surface (work-creating calls only).
_SUBMIT_METHODS = frozenset({"fetch", "writeout", "writeout_steps",
                             "read_segment_image"})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    "repro.sched",
)


class HL007SchedSubmission(Rule):
    code = "HL007"
    name = "scheduler-submission-discipline"
    rationale = ("tertiary I/O issued around the request scheduler "
                 "escapes class priority, mount batching, admission "
                 "control, and queuing-time accounting")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in walk_calls(sf):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _SUBMIT_METHODS:
                continue
            receiver = terminal_attr(func.value)
            if receiver in _IOSERVER_NAMES:
                findings.append(self.finding(
                    sf, call,
                    f"direct I/O-server submission "
                    f"'{receiver}.{func.attr}(...)'; submit through the "
                    f"repro.sched.TertiaryScheduler facade instead"))
        return findings
