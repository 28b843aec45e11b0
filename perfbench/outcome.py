"""Outcome accounting: decide whether one case's verdict is right."""

from __future__ import annotations

from dataclasses import dataclass

# main() returns 2 for malformed input; every workload input is well formed.
BAD_INPUT = 2


@dataclass(frozen=True)
class Attempt:
    """One execution of a case: its exit code (None if it raised) and output."""

    code: int | None
    digest: str
    error: str = ""  # exception type and message when it raised


def classify(expect: int, attempts) -> str | None:
    """Return None when the case's outcome is right, else why it is wrong.

    A case is wrong if any attempt raised, exited 2 on well-formed input, or
    exited with another code than ``expect`` (0 for a true identity, 1 for a
    --perturb control), or if its --json bytes differ between attempts.
    """
    if not attempts:
        raise ValueError("a case needs at least one attempt")
    for a in attempts:
        if a.code is None:
            return f"raised {a.error}"
    for a in attempts:
        if a.code == BAD_INPUT:
            return "exit 2 on well-formed input"
    for a in attempts:
        if a.code != expect:
            return f"exit {a.code}, expected {expect}"
    if len({a.digest for a in attempts}) > 1:
        return "--json bytes differ between passes"
    return None


def is_known_defect(case_id: str, reason: str | None, known) -> bool:
    """A listed case that returns exit 1 where 0 was expected."""
    return reason == "exit 1, expected 0" and case_id in known
