"""Discrete-event simulation substrate (engine, clock, tracing,
trace capture/replay)."""

from repro.sim.captrace import (
    REPLAY_SAFE_FIELDS, CapturedTrace, ReplayMachine, TraceCapture,
    replayable_changes,
)
from repro.sim.engine import Engine
from repro.sim.trace import EventKind, TraceLog

__all__ = [
    "Engine", "EventKind", "TraceLog",
    "REPLAY_SAFE_FIELDS", "CapturedTrace", "ReplayMachine",
    "TraceCapture", "replayable_changes",
]
