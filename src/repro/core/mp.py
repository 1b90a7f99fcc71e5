"""MISP multiprocessor construction (Section 2.6, Figure 6).

The partition notation itself (``"4x2"``, ``"1x4+4"``, ``"smp8"``,
...) lives in :mod:`repro.core.notation`; this module builds live
machines from it.

:func:`build_machine` is the single machine factory the system
backends (:mod:`repro.systems.backends`) build on.  The SMP baseline
is no separate machine: it is a partition of plain CPUs (zero AMSs),
where every MISP mechanism (AMS serialization, proxy execution,
SIGNAL) is structurally unreachable and every core services its own
faults, syscalls and timer interrupts.
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
                  hierarchy: Optional[HierarchyFactory] = None) -> Machine:
    """Build a machine from a name or an AMS-count tuple.

    ``hierarchy`` selects the cache topology (default: one L2 shared
    per processor, which gives a plain CPU a private L2).
    """
    counts = parse_config(config) if isinstance(config, str) else tuple(config)
    return Machine(counts, params=params, hierarchy=hierarchy)
