"""HL003: disk and tertiary block numbers never mix outside AddressSpace.

Paper §6.3 / Fig. 4: one 32-bit space of 4 KB blocks, disks at the
bottom, tertiary volumes assigned from the top downward, a dead zone in
between.  Every conversion between the two regions — segment number to
base address, tertiary segment to (volume, offset), boundary checks —
belongs in :class:`repro.core.addressing.AddressSpace`.  Ad-hoc
arithmetic that reconstructs the geometry elsewhere rots the moment the
layout changes (and historically is exactly how dead-zone accesses are
born).

Three patterns are flagged outside ``repro.core.addressing``:

1. address-space geometry arithmetic: any binary arithmetic involving
   ``1 << 32`` / ``2 ** 32`` / ``4294967296`` / ``0xFFFFFFFF`` /
   ``TOTAL_SEGS_32BIT``;
2. a single arithmetic expression mixing a disk-domain identifier with
   a tertiary-domain identifier;
3. an assignment whose target is disk-domain but whose right-hand side
   does arithmetic on tertiary-domain identifiers (or vice versa) —
   crossing the boundary without an ``AddressSpace`` helper.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set, Tuple

from repro.analysis.core import Finding, Rule, SourceFile

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)

#: 2**32 in its usual spellings.  (``0xFFFFFFFF`` is deliberately absent:
#: it is overwhelmingly a checksum/sign mask, not address geometry.)
_SPACE_CONSTANTS = {4294967296}
_SPACE_NAMES = {"TOTAL_SEGS_32BIT"}

#: Geometry arithmetic is only flagged when it involves an address-ish
#: identifier — ``(1 << 32) // blocks_per_seg`` is geometry, a u32 sign
#: trick on a logical block number is not.
_ADDRESSY_RE = re.compile(r"daddr|seg|vol|addr", re.IGNORECASE)

#: ``daddr`` alone is *not* disk-domain: the codebase uses it for any
#: unified-space address (a staged block's daddr is tertiary).  Only
#: names that explicitly claim a side mark a domain.
_DISK_RE = re.compile(r"^(disk_\w+|\w*_disk_segno|line_base\w*)$")
_TERT_RE = re.compile(
    r"^(tseg\w*|\w*_tsegno|tertiary_\w+|vol_start\w*|seg_in_vol)$")


def _is_space_magnitude(node: ast.AST) -> bool:
    """``1 << 32``, ``2 ** 32``, ``4294967296``, ``0xFFFFFFFF``…"""
    if isinstance(node, ast.Constant) and node.value in _SPACE_CONSTANTS:
        return True
    if isinstance(node, ast.Name) and node.id in _SPACE_NAMES:
        return True
    if (isinstance(node, ast.Attribute) and node.attr in _SPACE_NAMES):
        return True
    if isinstance(node, ast.BinOp):
        left, right = node.left, node.right
        if (isinstance(node.op, ast.LShift)
                and isinstance(left, ast.Constant) and left.value == 1
                and isinstance(right, ast.Constant) and right.value == 32):
            return True
        if (isinstance(node.op, ast.Pow)
                and isinstance(left, ast.Constant) and left.value == 2
                and isinstance(right, ast.Constant) and right.value == 32):
            return True
    return False


def _identifiers(sf: SourceFile, node: ast.AST) -> Set[str]:
    """All identifier leaves in an expression (names and attribute tails),
    excluding names that are only used as call targets."""
    out: Set[str] = set()
    skip: Set[int] = set()
    nodes = sf.walk(node)
    for sub in nodes:
        if isinstance(sub, ast.Call):
            skip.add(id(sub.func))
    for sub in nodes:
        if id(sub) in skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _domains(names: Set[str]) -> Tuple[bool, bool]:
    disk = any(_DISK_RE.match(n) for n in names)
    tert = any(_TERT_RE.match(n) for n in names)
    return disk, tert


class HL003AddressDomain(Rule):
    code = "HL003"
    name = "address-domain-safety"
    rationale = ("crossing the disk/tertiary boundary with raw arithmetic "
                 "instead of AddressSpace helpers invites dead-zone and "
                 "misrouted-I/O bugs (paper §6.3, Fig. 4)")
    exempt = ("repro.core.addressing",)

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in sf.walk():
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                f = self._check_binop(sf, node)
                if f is not None:
                    findings.append(f)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                f = self._check_assign(sf, node)
                if f is not None:
                    findings.append(f)
        return findings

    def _check_binop(self, sf: SourceFile,
                     node: ast.BinOp) -> Optional[Finding]:
        if _is_space_magnitude(node.left) or _is_space_magnitude(node.right):
            if any(_ADDRESSY_RE.search(n) for n in _identifiers(sf, node)):
                return self.finding(
                    sf, node,
                    "hand-rolled 32-bit address-space geometry; use "
                    "AddressSpace (repro.core.addressing) instead")
            return None
        ldisk, ltert = _domains(_identifiers(sf, node.left))
        rdisk, rtert = _domains(_identifiers(sf, node.right))
        if (ldisk and rtert and not ltert) or (ltert and rdisk and not rtert):
            return self.finding(
                sf, node,
                "arithmetic mixes disk-domain and tertiary-domain "
                "addresses; convert through AddressSpace helpers "
                "(seg_base/segno_of/volume_of/tertiary_segno)")
        return None

    def _check_assign(self, sf: SourceFile, node: ast.AST) -> Optional[Finding]:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        else:  # AnnAssign
            if node.value is None:
                return None
            targets, value = [node.target], node.value
        if not any(isinstance(sub, ast.BinOp)
                   and isinstance(sub.op, _ARITH_OPS)
                   for sub in sf.walk(value)):
            return None
        tnames: Set[str] = set()
        for target in targets:
            tnames |= _identifiers(sf, target)
        tdisk, ttert = _domains(tnames)
        vdisk, vtert = _domains(_identifiers(sf, value))
        if tdisk and vtert and not vdisk:
            return self.finding(
                sf, node,
                "disk-domain value computed from tertiary-domain "
                "operands; use AddressSpace.seg_base/segno_of instead "
                "of raw arithmetic")
        if ttert and vdisk and not vtert:
            return self.finding(
                sf, node,
                "tertiary-domain value computed from disk-domain "
                "operands; use AddressSpace.volume_of/tertiary_segno "
                "instead of raw arithmetic")
        return None
