"""HL002: raw block-device I/O is confined to sanctioned choke points.

Paper §6.7: only the I/O server touches the on-disk cache "directly via
a character (raw) pseudo-device"; everything else goes through the
block-map driver so every transfer is charged to the virtual clock and
address-checked in one place.  In this codebase the sanctioned raw
paths are:

* ``repro.blockdev`` — the devices themselves;
* ``repro.core.addressing`` — the block-map driver plus the
  ``line_read``/``line_write`` helpers that core subsystems (I/O server,
  migrator, staging, cleaners, replicas) must use for cache-line I/O;
* ``repro.lfs.segwriter`` — the segment writer's log append path;
* ``repro.lfs.filesystem`` — the single ``dev_read``/``dev_write``
  choke point the block map plugs into;
* ``repro.ffs`` — the FFS comparison baseline, which has no block map
  by design;
* ``repro.footprint`` — the Footprint interface, the paper's sanctioned
  tertiary access layer;
* ``repro.lfs.dump`` — the offline log-inspection tool, which decodes
  raw (possibly crashed) images independent of any mounted filesystem.

Any other module calling ``<something>.disk.read(...)`` (or on another
device-named attribute) is bypassing the choke points.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import terminal_attr, walk_calls

#: Receiver names that denote a block device.
_DEVICE_NAMES = frozenset({"disk", "device", "dev", "tape", "drive"})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    "repro.blockdev",
    "repro.core.addressing",
    "repro.lfs.segwriter",
    "repro.lfs.filesystem",
    "repro.ffs",
    "repro.footprint",
    "repro.lfs.dump",
)


class HL002DeviceIO(Rule):
    code = "HL002"
    name = "device-io-discipline"
    rationale = ("raw device I/O outside the block map / line-I/O choke "
                 "points escapes virtual-clock charging and address "
                 "checking")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in walk_calls(sf):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("read", "write"):
                continue
            receiver = terminal_attr(func.value)
            if receiver in _DEVICE_NAMES:
                findings.append(self.finding(
                    sf, call,
                    f"direct device I/O '{receiver}.{func.attr}(...)'; "
                    f"route through the block map or the line_read/"
                    f"line_write helpers in repro.core.addressing"))
        return findings
