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


def record(cls):
    """A frozen record as ``dataclasses.dataclass`` makes it, without importing that: the
    fields are the annotations in MRO order, class values their defaults; hashed as dataclass."""
    names = tuple(dict.fromkeys(name for klass in reversed(cls.__mro__)
                                for name in klass.__dict__.get("__annotations__", ())))
    every = set(names)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(names):  # every field by position
            kwargs = dict(zip(names, args))
        elif args or kwargs.keys() != every:  # nor every field by name: merge
            given = dict(zip(names, args))
            values = {**defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != every:
                raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
            kwargs = values
        for name in names:  # not through __dict__, which makes every attribute read slower
            object.__setattr__(self, name, kwargs[name])
        if post_init:
            self.__post_init__()

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    for name, method in {
            "__init__": __init__,
            "__repr__": lambda self: f"{cls.__qualname__}(" + ", ".join(
                f"{name}={getattr(self, name)!r}" for name in names) + ")",
            "__eq__": lambda self, other: fields(self) == fields(other)
            if other.__class__ is self.__class__ else NotImplemented,
            "__hash__": lambda self: hash(fields(self)),
            "__setattr__": _frozen, "__delattr__": _frozen}.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
