"""A tiny pass/fail record shared by the consistency checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Verdict:
    """Outcome of one named check, with free-form diagnostic detail."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}
