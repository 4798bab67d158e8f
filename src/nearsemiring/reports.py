"""Plain-text report documents with machine-readable verdict lines.

Verdict lines start with one of PASS, FAIL, AGREE, DISAGREE, INFO.  A FAIL
or DISAGREE line always carries its witness on the same line or inside the
claim block it belongs to, and drives the exit status to 1.  A claim block
(the discrepancy interface) is written only for a disagreement, and has the
fixed shape:

    CLAIM <claim-id> <target-kind>=<target>
    VERDICT DISAGREE
    DETAIL <free text>
    WITNESS <free text>
"""

from __future__ import annotations

from typing import Union

from .core import FiniteAlgebra
from .ideals import ClaimFinding
from .mv import MVAlgebra

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class Report:
    def __init__(self, command: str):
        self.lines: list[str] = [f"command: {command}"]
        self.worst = EXIT_OK

    def blank(self) -> None:
        self.lines.append("")

    def section(self, title: str) -> None:
        self.lines.append("")
        self.lines.append(f"== {title} ==")

    def info(self, text: str) -> None:
        self.lines.append(f"INFO {text}")

    def plain(self, text: str) -> None:
        self.lines.append(text)

    def universe(self, alg: Union[FiniteAlgebra, MVAlgebra]) -> None:
        if alg.names is not None:
            pairs = " ".join(f"{i}={alg.names[i]}" for i in range(alg.size))
            self.lines.append(f"elements: {pairs}")
        else:
            self.lines.append(f"elements: 0..{alg.size - 1}")

    def verdict(self, ok: bool, check: str, witness: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" -- witness: {witness}" if (witness and not ok) else ""
        self.lines.append(f"{status} {check}{suffix}")
        if not ok:
            self.worst = max(self.worst, EXIT_FINDINGS)

    def claim(self, finding: ClaimFinding) -> None:
        self.lines.append(f"CLAIM {finding.claim} {finding.target_kind}={finding.target}")
        self.lines.append("VERDICT DISAGREE")
        self.lines.append(f"DETAIL {finding.detail}")
        self.lines.append(f"WITNESS {finding.witness}")
        self.lines.append("")
        self.worst = max(self.worst, EXIT_FINDINGS)

    def render(self) -> str:
        return "\n".join(self.lines).rstrip("\n") + "\n"

    @property
    def exit_status(self) -> int:
        return self.worst
