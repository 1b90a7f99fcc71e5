"""MISP processors: one OMS plus zero or more AMSs (Figure 1).

A :class:`MISPProcessor` groups the sequencers that appear to the OS as
a single logical CPU.  A processor with zero AMSs degenerates to a
plain CPU -- which is exactly how the SMP baseline and the "+N" plain
processors of the Figure 6/7 configurations are modelled.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.sequencer import Sequencer, SequencerRole
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.proxy import ProxyRequest


class MISPProcessor:
    """One OS-visible logical CPU: an OMS and its AMSs."""

    def __init__(self, proc_id: int, oms: Sequencer,
                 amss: list[Sequencer]) -> None:
        if oms.role is not SequencerRole.OMS:
            raise ConfigurationError("processor's first sequencer must be an OMS")
        if any(a.role is not SequencerRole.AMS for a in amss):
            raise ConfigurationError("non-OMS sequencers must be AMSs")
        self.proc_id = proc_id
        self.oms = oms
        self.amss = amss
        oms.processor = self
        oms.sid = 0
        for i, ams in enumerate(amss):
            ams.processor = self
            ams.sid = i + 1
        #: pending proxy requests relayed from AMSs, FIFO (Section 2.5)
        self.proxy_queue: deque["ProxyRequest"] = deque()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_sequencers(self) -> int:
        return 1 + len(self.amss)

    @property
    def has_ams(self) -> bool:
        return bool(self.amss)

    def sequencers(self) -> Iterator[Sequencer]:
        yield self.oms
        yield from self.amss

    def by_sid(self, sid: int) -> Sequencer:
        """Resolve a logical Sequencer ID (SIGNAL's SID operand)."""
        if sid == 0:
            return self.oms
        if 1 <= sid <= len(self.amss):
            return self.amss[sid - 1]
        raise ConfigurationError(
            f"processor {self.proc_id} has no sequencer with SID {sid} "
            f"(valid: 0..{len(self.amss)})")

    # ------------------------------------------------------------------
    # AMS activity
    # ------------------------------------------------------------------
    def active_amss(self) -> list[Sequencer]:
        """AMSs that currently hold a shred (running or suspended)."""
        return [a for a in self.amss if a.stream is not None]

    def idle_ams(self) -> Optional[Sequencer]:
        """An AMS with no shred attached, if any."""
        for ams in self.amss:
            if ams.stream is None:
                return ams
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MISPProcessor {self.proc_id}: OMS {self.oms.seq_id} "
                f"+ {len(self.amss)} AMS>")
