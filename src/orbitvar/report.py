"""Verification reports: named checks with verdicts, serialized
deterministically so identical inputs give byte-identical output.  The
JSON text is that of `json.dumps(..., sort_keys=True, indent=2)`,
written by `json_text` alone, without the pure-Python encoder an indent
selects; a report holds only the values that writer takes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

SCHEMA = "orbitvar-report/1"

PROVEN = "proven"
REFUTED = "refuted"
CONSEQUENCE_CHECKED = "consequence-checked"
SAMPLED = "sampled"
UNKNOWN = "unknown"

_ORDER = {PROVEN: 0, CONSEQUENCE_CHECKED: 1, SAMPLED: 2, UNKNOWN: 3, REFUTED: 4}


def json_text(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, written directly.
    With an indent, `json` runs its pure-Python encoder, which costs more
    than building the report.  Here dicts with string keys, lists,
    tuples, strings, ints, bools and None are written the way that
    encoder writes them: an empty container as `{}` or `[]`, otherwise
    one item per line two spaces deeper than its container, items
    followed by `,`, keys sorted and followed by `: `, strings quoted by
    the escaper `json` itself uses (`encode_basestring_ascii`), ints by
    `int.__repr__`.  Any other value (a float, a non-string key, a
    subclass) raises `TypeError`, as `json.dumps` does for a `Fraction`."""
    return _text(value, "\n")


def _text(v, newline: str) -> str:
    """The text of v, whose own line is indented as `newline` (a newline
    and spaces) ends; a string item is quoted in place, without a call."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is list or t is tuple or t is dict:
        if not v:
            return "{}" if t is dict else "[]"
        inner = newline + "  "
        if t is dict:
            if any(type(k) is not str for k in v):
                raise TypeError("report keys must be str")
            items = [
                f"{_quote(k)}: {_quote(x) if type(x) is str else _text(x, inner)}" for k, x in sorted(v.items())
            ]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        items = [_quote(x) if type(x) is str else _text(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return int.__repr__(v)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
        return json_text(self.to_json()) + "\n"

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
