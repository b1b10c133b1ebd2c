"""Verification reports: named checks with verdicts, serialized
deterministically so identical inputs give byte-identical output."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "orbitvar-report/1"

PROVEN = "proven"
REFUTED = "refuted"
CONSEQUENCE_CHECKED = "consequence-checked"
SAMPLED = "sampled"
UNKNOWN = "unknown"

_ORDER = {PROVEN: 0, CONSEQUENCE_CHECKED: 1, SAMPLED: 2, UNKNOWN: 3, REFUTED: 4}


@dataclass
class Check:
    name: str
    verdict: str
    claim: str
    witness: object = None
    details: object = None

    def to_json(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict, "claim": self.claim}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = self.details
        return out


@dataclass
class VerificationReport:
    command: str
    algebra_fingerprint: str
    seed: int | None = None
    checks: list[Check] = field(default_factory=list)

    def add(self, name, verdict, claim, witness=None, details=None) -> Check:
        c = Check(name, verdict, claim, witness, details)
        self.checks.append(c)
        return c

    def has_refutation(self) -> bool:
        return any(c.verdict == REFUTED for c in self.checks)

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for c in self.checks:
            counts[c.verdict] = counts.get(c.verdict, 0) + 1
        worst = max((c.verdict for c in self.checks), key=lambda v: _ORDER[v], default=PROVEN)
        return {"counts": dict(sorted(counts.items())), "worst": worst}

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "command": self.command,
            "algebra_fingerprint": self.algebra_fingerprint,
            "checks": [c.to_json() for c in self.checks],
            "summary": self.summary(),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def render_markdown(self) -> str:
        lines = [
            f"# {self.command}",
            "",
            f"- schema: {SCHEMA}",
            f"- algebra: `{self.algebra_fingerprint}`",
        ]
        if self.seed is not None:
            lines.append(f"- seed: {self.seed}")
        lines += ["", "| check | verdict | claim |", "|---|---|---|"]
        for c in self.checks:
            lines.append(f"| {c.name} | {c.verdict} | {c.claim} |")
        s = self.summary()
        lines += ["", f"Summary: {json.dumps(s['counts'])}, worst verdict `{s['worst']}`.", ""]
        return "\n".join(lines)
