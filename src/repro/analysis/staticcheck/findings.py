"""The shared finding format (``repro.lint/1``) and suppression mechanism.

Both engines — the kernel access checker and the AST linter — emit
:class:`Finding` objects; ``python -m repro lint --json`` serializes one
``repro.lint/1`` JSON document per finding (JSONL, mirroring the
``repro.run/1`` run records), and :func:`validate_lint_record` is the
shared schema check ``scripts/check_bench_json.py`` applies so the writer
and CI cannot drift.

Suppression syntax, checked per physical line of the offending statement::

    freq = np.fft.fft(padded)  # reprolint: ignore[fft-registry-bypass]
    dense = np.fft.fft(x)      # reprolint: ignore          (all rules)

A multi-line statement is suppressed by a marker on *any* of its lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ...errors import ParameterError

__all__ = ["LINT_SCHEMA", "SEVERITIES", "Finding", "Suppressions",
           "validate_lint_record"]

#: Schema tag on every serialized finding.
LINT_SCHEMA = "repro.lint/1"

#: Allowed severities, in increasing order of consequence.  Both fail
#: ``python -m repro lint``: the committed tree carries no finding.
SEVERITIES = ("warning", "error")

_RULE_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")
_IGNORE_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[(?P<rules>[a-z0-9,\-\s]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One defect either engine found, anchored to ``path:line``."""

    rule: str
    severity: str           # "error" | "warning"
    path: str               # repo-relative, posix separators
    line: int
    message: str
    engine: str = "ast"     # "ast" | "race"
    col: int = 0

    def __post_init__(self) -> None:
        if not _RULE_RE.match(self.rule):
            raise ParameterError(f"malformed rule id {self.rule!r}")
        if self.severity not in SEVERITIES:
            raise ParameterError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def anchor(self) -> str:
        """The clickable ``path:line`` prefix of the rendered finding."""
        return f"{self.path}:{self.line}"

    def render(self) -> str:
        """Human one-liner: ``path:line: severity: message [rule]``."""
        return (f"{self.anchor}: {self.severity}: {self.message} "
                f"[{self.rule}]")

    def to_json(self) -> dict[str, object]:
        """One ``repro.lint/1`` record."""
        return {
            "schema": LINT_SCHEMA,
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "engine": self.engine,
        }


class Suppressions:
    """Per-line ``# reprolint: ignore[...]`` markers of one source file."""

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, frozenset[str] | None] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _IGNORE_RE.search(text)
            if not match:
                continue
            rules = match.group("rules")
            if rules is None:
                self._by_line[lineno] = None  # bare ignore: every rule
            else:
                names = frozenset(
                    r.strip() for r in rules.split(",") if r.strip()
                )
                self._by_line[lineno] = names

    def __len__(self) -> int:
        return len(self._by_line)

    def covers(self, rule: str, line: int, end_line: int | None = None) -> bool:
        """Is ``rule`` suppressed anywhere on lines ``line..end_line``?"""
        for lineno in range(line, (end_line or line) + 1):
            rules = self._by_line.get(lineno, frozenset())
            if rules is None or rule in rules:
                return True
        return False


def validate_lint_record(record: object) -> list[str]:
    """Problems that make ``record`` an invalid ``repro.lint/1`` document.

    Returns an empty list for a valid record; every message names the
    offending field.  Shared by the writer, the tests, and
    ``scripts/check_bench_json.py``.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return ["lint record must be a JSON object"]
    if record.get("schema") != LINT_SCHEMA:
        problems.append(f"schema must be {LINT_SCHEMA!r}, "
                        f"got {record.get('schema')!r}")
    rule = record.get("rule")
    if not (isinstance(rule, str) and _RULE_RE.match(rule)):
        problems.append(f"rule must be a kebab-case id, got {rule!r}")
    if record.get("severity") not in SEVERITIES:
        problems.append(f"severity must be one of {SEVERITIES}, "
                        f"got {record.get('severity')!r}")
    path = record.get("path")
    if not (isinstance(path, str) and path):
        problems.append("path must be a non-empty string")
    for key in ("line", "col"):
        value = record.get(key)
        if not (isinstance(value, int) and not isinstance(value, bool)
                and value >= 0):
            problems.append(f"{key} must be a non-negative int, "
                            f"got {value!r}")
    if not (isinstance(record.get("message"), str) and record["message"]):
        problems.append("message must be a non-empty string")
    if record.get("engine") not in ("ast", "race"):
        problems.append(f"engine must be 'ast' or 'race', "
                        f"got {record.get('engine')!r}")
    return problems
