"""HL014: cross-shard data I/O goes through the cluster router.

Cluster shards are shared-nothing: each :class:`ClusterNode` owns its
LFS, disk, jukebox, footprint, and I/O server outright, and the
:class:`~repro.cluster.router.ClusterRouter` is the single component
allowed to address a foreign shard's data (it owns the placement
catalog, charges the routing metrics, and joins the shard timelines
conservatively).  Code that reaches *through* a shard handle into the
shard's stack — ``node.fs.read_path(...)``, ``nodes[i].disk.write(...)``
— bypasses placement, routing accounting, and the virtual-time join:
the bytes move but the catalog, the ``cluster_route_*`` series, and the
fan-out timing model all silently lie afterwards.

Same name-heuristic choke-point pattern as HL002/HL007: the rule flags
*data-plane calls* reached through a ``<shard handle>.<stack attr>``
chain.  The sanctioned object surface (``node.write_object``,
``node.read_object``, ``node.migrate_object``...) and control-plane
introspection (``node.fs.stats``, ``node.fs.aspace.volume_of(...)``)
stay clean — shards are inspected freely, but their data moves only
through the router.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import dotted_chain, terminal_attr, walk_calls

#: Attributes that denote a shard's private stack.
_STACK_ATTRS = frozenset({"fs", "disk", "store", "jukebox", "footprint",
                          "ioserver", "migrator", "service"})

#: Terminal receiver names that denote a shard handle.
_SHARD_NAMES = frozenset({"node", "shard", "victim", "peer", "src", "dst",
                          "src_node", "dst_node", "shard_node"})

#: Collections whose subscripts denote a shard handle (``nodes[i]``).
_SHARD_COLLECTIONS = frozenset({"nodes", "shards"})

#: The data-plane surface: calls that move or destroy shard-owned bytes.
_DATA_METHODS = frozenset({
    "read", "write", "read_refs", "write_refs", "writev",
    "read_path", "write_path", "unlink", "mkdir",
    "fetch", "writeout", "writeout_steps", "read_segment_image",
    "demand_fetch", "load", "eject",
    "migrate_file", "migrate_file_steps", "flush",
})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    "repro.cluster.router",
)


def _is_shard_handle(node: ast.AST) -> bool:
    """True when ``node`` denotes one shard: a handle-named name/attr
    (``node``, ``self.victim``) or a shard-collection subscript
    (``nodes[i]``, ``router.nodes[sid]``)."""
    if isinstance(node, ast.Subscript):
        return terminal_attr(node.value) in _SHARD_COLLECTIONS
    return terminal_attr(node) in _SHARD_NAMES


def _foreign_stack_link(receiver: ast.AST) -> Optional[str]:
    """Walk a call's receiver chain; if any link reads a stack attribute
    off a shard handle, return that link's dotted rendering."""
    cur = receiver
    while True:
        if isinstance(cur, ast.Attribute):
            if cur.attr in _STACK_ATTRS and _is_shard_handle(cur.value):
                return dotted_chain(cur) or f"<shard>.{cur.attr}"
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        else:
            return None


class HL014ClusterLocality(Rule):
    code = "HL014"
    name = "cluster-shard-locality"
    rationale = ("data I/O issued directly against a foreign shard's "
                 "stack bypasses the router's placement catalog, routing "
                 "metrics, and conservative timeline join")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in walk_calls(sf):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _DATA_METHODS:
                continue
            link = _foreign_stack_link(func.value)
            if link is not None:
                findings.append(self.finding(
                    sf, call,
                    f"foreign-shard data I/O '{link}.…{func.attr}(...)'; "
                    f"route through ClusterRouter (or the shard's object "
                    f"surface) instead"))
        return findings
