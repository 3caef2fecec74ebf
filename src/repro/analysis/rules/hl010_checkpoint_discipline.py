"""HL010: no state mutation between checkpoint mark and durable write.

A persistence checkpoint is a two-step protocol
(``repro.persist.PersistManager``): ``checkpoint_mark(...)`` captures
the system image as pure data, and ``checkpoint_commit(...)`` makes it
durable.  The image is only crash-consistent if nothing changes in
between — an attribute store, a dict/list update, or a delete executed
after the mark mutates the very state the image claims to describe, so
a crash after the slot write recovers to a world that never existed.

The rule works per function body: inside any function that calls both
``checkpoint_mark`` and ``checkpoint_commit``, every statement lexically
between the first mark call and the last commit call must be free of

* attribute/subscript assignment targets (``x.y = ...``, ``d[k] = ...``),
  including augmented and annotated assignment, and
* ``del`` statements on attributes or subscripts.

Plain local-name bindings (``image = ...``) are the protocol itself and
stay legal.  Code that genuinely needs to mutate between the two calls
belongs *before* the mark or *after* the commit.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.core import Finding, Rule, SourceFile

_MARK = "checkpoint_mark"
_COMMIT = "checkpoint_commit"


def _called_names(sf: SourceFile, node: ast.AST) -> List[Tuple[str, int]]:
    """(name, lineno) of every function/method called under ``node``."""
    out: List[Tuple[str, int]] = []
    for sub in sf.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute):
                out.append((func.attr, sub.lineno))
            elif isinstance(func, ast.Name):
                out.append((func.id, sub.lineno))
    return out


def _mutating_targets(stmt: ast.stmt) -> Optional[str]:
    """A description of the mutation if ``stmt`` mutates non-local
    state, else None."""
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(target, ast.Attribute):
                return f"attribute store '{ast.unparse(target)} = ...'"
            if isinstance(target, ast.Subscript):
                return f"subscript store '{ast.unparse(target)} = ...'"
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, (ast.Attribute, ast.Subscript)):
                        return (f"unpacking store into "
                                f"'{ast.unparse(elt)}'")
    if isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return f"del of '{ast.unparse(target)}'"
    return None


class HL010CheckpointDiscipline(Rule):
    code = "HL010"
    name = "checkpoint-discipline"
    rationale = ("state mutated between a checkpoint mark and its "
                 "durable write makes the persisted image describe a "
                 "world that never existed; a crash then recovers to it")

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in sf.walk():
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            names = _called_names(sf, node)
            marks = [line for name, line in names if name == _MARK]
            commits = [line for name, line in names if name == _COMMIT]
            if not marks or not commits:
                continue
            lo, hi = min(marks), max(commits)
            if lo >= hi:
                continue
            for stmt in sf.walk(node):
                if not isinstance(stmt, ast.stmt):
                    continue
                if not lo < stmt.lineno <= hi:
                    continue
                what = _mutating_targets(stmt)
                if what is not None:
                    findings.append(self.finding(
                        sf, stmt,
                        f"{what} between checkpoint_mark (line {lo}) and "
                        f"checkpoint_commit (line {hi}); the captured "
                        "image no longer matches the state it describes"))
        return findings
