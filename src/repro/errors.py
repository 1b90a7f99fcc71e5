"""Exception hierarchy for the MISP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Architectural *events* that are
part of normal machine operation (page faults, syscall traps) are NOT
exceptions in the Python sense -- they flow through the effect types in
:mod:`repro.exec.ops` and :mod:`repro.isa.interpreter`.  The exceptions
here signal genuine programming or configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A machine, processor, or workload was configured inconsistently."""


class UnknownNameError(ConfigurationError, KeyError):
    """A registry lookup named nothing registered (also a ``KeyError``)."""

    # KeyError's own __str__ would wrap the message in quotes
    __str__ = Exception.__str__


class DuplicateNameError(ConfigurationError, ValueError):
    """A registration named an entry that is already registered (also a
    ``ValueError``)."""


class SimulationError(ReproError):
    """The simulation engine reached an invalid internal state."""


class ExperimentExecutionError(SimulationError):
    """One or more runs of an experiment batch failed.

    Completed runs in the batch are kept (memoized and stored) before
    this is raised, so a retry only re-runs the failures.
    ``failures`` holds every ``(spec, exception)`` pair -- nothing is
    swallowed behind the first error -- and the message names every
    failed spec.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{spec.describe()}: {type(exc).__name__}: {exc}"
            for spec, exc in self.failures)
        count = len(self.failures)
        super().__init__(
            f"{count} run{'s' if count != 1 else ''} failed -- {detail}")


class MemoryError_(ReproError):
    """Physical or virtual memory subsystem misuse (e.g. out of frames)."""


class ProtectionError(ReproError):
    """A privilege-level violation (e.g. Ring-0 instruction on an AMS)."""


class AssemblerError(ReproError):
    """The mini-ISA assembler rejected a source program."""


class InvalidInstructionError(ReproError):
    """The interpreter decoded an unknown or malformed instruction."""


class ShredLibError(ReproError):
    """Misuse of the ShredLib user-level runtime API."""
