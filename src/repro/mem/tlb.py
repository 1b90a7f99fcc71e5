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
        #: vpn -> frame, least recently used first; the machine's
        #: translation path inlines :meth:`lookup`'s hit on it
        self.translations: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached frame for ``vpn``, updating LRU order."""
        frame = self.translations.get(vpn)
        if frame is None:
            self.misses += 1
            return None
        self.translations.move_to_end(vpn)
        self.hits += 1
        return frame

    def peek(self, vpn: int) -> Optional[int]:
        """Translation without LRU or statistics side effects.

        Used by the commit phase of a two-phase access (issue already
        counted the lookup); architecturally it is the same reference.
        """
        return self.translations.get(vpn)

    def insert(self, vpn: int, frame: int) -> None:
        """Install a translation, evicting the LRU entry when full."""
        if vpn in self.translations:
            self.translations.move_to_end(vpn)
            self.translations[vpn] = frame
            return
        if len(self.translations) >= self.capacity:
            self.translations.popitem(last=False)
        self.translations[vpn] = frame

    def invalidate(self, vpn: int) -> bool:
        """Drop one translation.

        The machine never calls this (it only flushes whole TLBs);
        it is for tests and callers outside the model.
        """
        return self.translations.pop(vpn, None) is not None

    def flush(self) -> None:
        """Purge all translations (the CR3-write path)."""
        self.translations.clear()
        self.flushes += 1

    def __len__(self) -> int:
        return len(self.translations)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self.translations
