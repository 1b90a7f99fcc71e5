"""MISP multiprocessor construction (Section 2.6, Figure 6).

The partition notation itself (``"4x2"``, ``"1x4+4"``, ``"smp8"``,
...) lives in :mod:`repro.core.notation`; this module builds live
machines from it.

:func:`build_machine` is the single machine factory the system
backends (:mod:`repro.systems.backends`) build on: all-plain-CPU
partitions are routed through
:func:`repro.smp.machine.build_smp_machine` so that every SMP-shaped
machine is complete (``thread_create`` registered) at construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.machine import Machine
from repro.core.notation import parse_config
from repro.mem.hierarchy import HierarchyFactory
from repro.params import DEFAULT_PARAMS, MachineParams

__all__ = ["build_machine"]


def build_machine(config: str | Sequence[int],
                  params: MachineParams = DEFAULT_PARAMS,
                  record_fine_trace: bool = False,
                  hierarchy: Optional[HierarchyFactory] = None) -> Machine:
    """Build a machine from a name or an AMS-count tuple.

    ``hierarchy`` selects the cache topology (default: one L2 shared
    per processor); all-plain-CPU partitions are routed through
    :func:`~repro.smp.machine.build_smp_machine`, whose default is a
    private L2 per core.
    """
    counts = parse_config(config) if isinstance(config, str) else tuple(config)
    if counts and not any(counts):
        from repro.smp.machine import build_smp_machine
        return build_smp_machine(len(counts), params=params,
                                 record_fine_trace=record_fine_trace,
                                 hierarchy=hierarchy)
    return Machine(counts, params=params,
                   record_fine_trace=record_fine_trace,
                   hierarchy=hierarchy)
