"""Verification reports: named checks with pass/fail flags and residuals."""

from __future__ import annotations

import string
from dataclasses import dataclass, field


def party_label(index: int) -> str:
    """Display label for a 0-based party index (A, B, C, ...)."""
    if 0 <= index < len(string.ascii_uppercase):
        return string.ascii_uppercase[index]
    return f"P{index + 1}"


def count_text(n: int) -> str:
    """An integer in decimal while it fits the interpreter's limit on
    integer string conversion, and beyond it as a power of ten."""
    try:
        return str(n)
    except ValueError:  # more digits than the limit
        # imported here: it would add about 0.4 MB to every command's peak
        from decimal import Decimal

        return f"about {Decimal(n):.2e}"  # Decimal(n) is exact and not limited


def cut_label(subset, n_parties: int) -> str:
    """Label a bipartition, e.g. {0} of 3 parties -> 'A|BC'."""
    left = "".join(party_label(p) for p in sorted(subset))
    right = "".join(party_label(p) for p in range(n_parties) if p not in set(subset))
    return f"{left}|{right}"


@dataclass
class Check:
    name: str
    passed: bool
    residual: float | None = None
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, residual: float | None = None, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), residual, detail))

    def merge(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_obj(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "residual": None if c.residual is None else float(c.residual),
                    "detail": c.detail,
                }
                for c in self.checks
            ]
        }

    def table(self) -> str:
        width = max([len(c.name) for c in self.checks] + [5])
        lines = [f"{'check'.ljust(width)}  {'pass':4}  {'residual':>12}  detail"]
        for c in self.checks:
            res = "-" if c.residual is None else f"{c.residual:.3e}"
            flag = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name.ljust(width)}  {flag:4}  {res:>12}  {c.detail}")
        return "\n".join(lines)
