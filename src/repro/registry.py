"""One generic name -> value registry.

Each axis of the paper's evaluation grid is a registry of named
values: system backends (:data:`repro.systems.SYSTEM_REGISTRY`),
timing models (:data:`repro.timing.TIMING_REGISTRY`), and workloads
(:data:`repro.workloads.REGISTRY`).  They share one contract:

* a value registers under ``key(value.name)``; lookups normalize the
  queried name with the same ``key``, and entries keep registration
  order;
* an unknown name raises :class:`~repro.errors.UnknownNameError` (a
  ``ConfigurationError`` that is also a ``KeyError``); a taken name
  registered without ``replace=True`` raises
  :class:`~repro.errors.DuplicateNameError` (a ``ConfigurationError``
  that is also a ``ValueError``).

A :meth:`~repro.experiments.spec.RunSpec.spec_hash` encodes an
entry's *name*, not its behavior: give behaviorally different entries
distinct names, or the result store will serve stale results.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

from repro.errors import (
    ConfigurationError, DuplicateNameError, UnknownNameError,
)

V = TypeVar("V")


def normalize_name(name: object) -> str:
    """The default key rule: names match ignoring case and padding."""
    return str(name).strip().lower()


class Registry(Generic[V]):
    """Name -> value (anything with a ``name``), in registration order.

    ``kind`` names the entries in error messages; ``key`` maps a name
    to its registry key.
    """

    def __init__(self, kind: str,
                 key: Callable[[object], str] = normalize_name) -> None:
        self.kind = kind
        self.key = key
        self._entries: dict[str, V] = {}

    def register(self, value: V, *, replace: bool = False) -> V:
        """Register ``value`` under its ``name``; ``replace=True`` swaps
        an existing entry in place."""
        key = self.key(value.name)
        if not key:
            raise ConfigurationError(f"{self.kind} needs a name")
        if key in self._entries and not replace:
            raise DuplicateNameError(
                f"{self.kind} '{key}' already registered; pass "
                "replace=True to override")
        self._entries[key] = value
        return value

    def unregister(self, name: str) -> V:
        try:
            return self._entries.pop(self.key(name))
        except KeyError:
            raise UnknownNameError(
                f"{self.kind} '{name}' is not registered") from None

    def find(self, name: str) -> Optional[V]:
        return self._entries.get(self.key(name))

    def get(self, name: str) -> V:
        try:
            return self._entries[self.key(name)]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.kind} '{name}'; registered: "
                f"{tuple(self._entries)}") from None

    def names(self) -> list[str]:
        return list(self._entries)

    def values(self) -> list[V]:
        return list(self._entries.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.key(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"<Registry of {self.kind}s: {self.names()}>"

    @contextmanager
    def temporary(self, value: V) -> Iterator[V]:
        """Register ``value`` for the duration of a ``with`` block."""
        self.register(value)
        try:
            yield value
        finally:
            self.unregister(value.name)
