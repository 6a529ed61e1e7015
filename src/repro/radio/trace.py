"""Structured event traces for debugging and figure generation.

Traces are optional (``None`` by default everywhere) and add no cost to
the simulated devices; they exist purely for inspection, tests, and the
Figure 3 reproduction which needs the time evolution of per-cluster
distance estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, List


@dataclass(frozen=True)
class Event:
    """One trace record."""

    slot: int
    kind: str
    subject: Hashable
    detail: Any = None


class EventTrace:
    """Append-only list of :class:`Event` with simple querying."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(self, slot: int, kind: str, subject: Hashable, detail: Any = None) -> None:
        """Append an event."""
        self._events.append(Event(slot, kind, subject, detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[Event]:
        """All events with the given kind tag."""
        return [e for e in self._events if e.kind == kind]

    def for_subject(self, subject: Hashable) -> List[Event]:
        """All events about one subject (vertex, cluster, ...)."""
        return [e for e in self._events if e.subject == subject]
