"""A tiny pass/fail record shared by the consistency checks and the CLI."""

from __future__ import annotations

from collections import namedtuple


class Verdict(namedtuple("Verdict", "name passed detail")):
    """Outcome of one named check, with a dict of free-form diagnostic
    detail, as an immutable tuple of the three."""

    __slots__ = ()

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}
