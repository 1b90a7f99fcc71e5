"""Per-sequencer translation lookaside buffers.

Each sequencer owns one TLB.  In IA-32 (and in this model) a write to
CR3 purges the writing sequencer's TLB, and nothing else does: the
model has no inter-processor interrupts and no TLB-shootdown path.
An OMS flushes its own TLB when it switches a thread in (a new CR3),
and each AMS flushes its own when its shred team thaws (the CR3
synchronization of Section 2.3); each sequencer's hardware page
walker then refills its TLB independently.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class TLB:
    """A finite, LRU-replaced cache of vpn -> frame translations."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        self._map: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached frame for ``vpn``, updating LRU order."""
        frame = self._map.get(vpn)
        if frame is None:
            self.misses += 1
            return None
        self._map.move_to_end(vpn)
        self.hits += 1
        return frame

    def peek(self, vpn: int) -> Optional[int]:
        """Translation without LRU or statistics side effects.

        Used by the commit phase of a two-phase access (issue already
        counted the lookup); architecturally it is the same reference.
        """
        return self._map.get(vpn)

    def insert(self, vpn: int, frame: int) -> None:
        """Install a translation, evicting the LRU entry when full."""
        if vpn in self._map:
            self._map.move_to_end(vpn)
            self._map[vpn] = frame
            return
        if len(self._map) >= self.capacity:
            self._map.popitem(last=False)
        self._map[vpn] = frame

    def invalidate(self, vpn: int) -> bool:
        """Drop one translation.

        The machine never calls this (it only flushes whole TLBs);
        it is for tests and callers outside the model.
        """
        return self._map.pop(vpn, None) is not None

    def flush(self) -> None:
        """Purge all translations (the CR3-write path)."""
        self._map.clear()
        self.flushes += 1

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._map
