"""Pluggable timing models (``TimingModel`` + ``TIMING_REGISTRY``).

The timing subsystem separates *what the machine does* (functional
execution) from *how long it takes* (pricing); models are looked up by
name through the same :class:`~repro.registry.Registry` as systems
and workloads.  Two models ship:

* ``fixed`` -- constant per-op costs from :class:`~repro.params.
  MachineParams` (the default; bit-exact with the pre-subsystem
  machine, and the only model supporting trace capture/replay);
* ``scoreboard`` -- an in-order scoreboarded pipeline per processor
  (RAW/WAW + structural hazards over shared FU pools), under which
  SIGNAL / proxy costs emerge from pipeline drain and occupancy.

Select a model per run with :meth:`Session.timing
<repro.systems.session.Session.timing>` or per spec with
``RunSpec(..., timing_model="scoreboard")``; register your own with
:func:`register_timing` (see ``examples/custom_timing.py``).
"""

from repro.timing.base import (
    TIMING_REGISTRY, TimingModel, canonical_timing_name, get_timing,
    register_timing, resolve_timing,
)
from repro.timing.fixed import ISA_MEM_EXTRA, ISA_MUL_EXTRA, FixedTiming
from repro.timing.scoreboard import ScoreboardTiming

__all__ = [
    "TIMING_REGISTRY",
    "TimingModel",
    "canonical_timing_name",
    "get_timing",
    "register_timing",
    "resolve_timing",
    "FixedTiming",
    "ScoreboardTiming",
    "ISA_MEM_EXTRA",
    "ISA_MUL_EXTRA",
]
