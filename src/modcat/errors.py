"""Shared exception bases.

Every structured failure in the library derives from :class:`ModcatError`.
Validation failures (an axiom of some input structure does not hold) derive
from :class:`ValidationError` and carry enough indices to point at the first
violated identity.  Guard failures (input too large for an exhaustive
routine) derive from :class:`GuardError`.  A malformed argument or input
file raises :class:`UsageError`, which is also a ``ValueError``.
"""

from __future__ import annotations


class ModcatError(Exception):
    """Base class for all library errors."""


class ValidationError(ModcatError):
    """An input structure violates one of its defining axioms."""


class UsageError(ModcatError, ValueError):
    """An argument or input file is malformed: the caller's mistake."""


class GuardError(ModcatError):
    """An input exceeds the size guard of an exhaustive routine."""


class SizeGuardExceeded(GuardError):
    """A computation would exceed its documented size guard."""

    def __init__(self, size, guard=None):
        detail = f"size {size} exceeds the guard" + (f" {guard}" if guard is not None else "")
        super().__init__(detail)
        self.size = size
        self.guard = guard
