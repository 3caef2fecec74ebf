"""Output renderer for GitHub Actions annotations.

``--format github`` prints one ``::error`` workflow command per finding;
the Actions runner turns them into inline PR annotations, with no extra
tooling in CI.  The renderer is a pure function of the (sorted) result,
so its output inherits the analyzer's byte-identical determinism.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import AnalysisResult

__all__ = ["to_github"]


def to_github(result: AnalysisResult) -> List[str]:
    """Render findings as GitHub Actions ``::error`` workflow commands."""
    lines: List[str] = []
    for f in sorted(result.findings):
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.code}::{message}")
    for err in result.errors:
        text = err.replace("%", "%25").replace("\n", "%0A")
        lines.append(f"::error title=analysis-error::{text}")
    return lines
