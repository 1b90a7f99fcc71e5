"""The paper's analytic overhead models (Section 5.1, Equations 1-3).

MISP introduces three categories of synchrony overhead that SMP does
not have.  With ``signal`` the inter-sequencer communication cost and
``priv`` the time spent executing in the OS:

* Equation 1 -- serialization across an OMS ring transition::

      serialize = 2 * signal + priv

  (one broadcast to suspend all AMSs, the privileged work itself, one
  broadcast to resume).

* Equation 2 -- overhead incurred by a shred whose AMS needs proxy
  execution::

      proxy_egress = 3 * signal

  (notify the OMS, be suspended with everyone else, be resumed).

* Equation 3 -- overhead incurred by the OMS to service that proxy::

      proxy_ingress = signal + serialize

These functions are used two ways: the machine model *charges* these
costs dynamically during simulation, and the Figure 5 sensitivity
analysis applies them *analytically* to measured event counts, exactly
as Section 5.3 does.
"""

from __future__ import annotations

from dataclasses import dataclass


def serialize_cost(signal: int, priv: int) -> int:
    """Equation 1: total serialization across one OMS ring transition."""
    return 2 * signal + priv


def proxy_egress_cost(signal: int) -> int:
    """Equation 2: per-shred overhead of one proxy-execution request."""
    return 3 * signal


def proxy_ingress_cost(signal: int, priv: int) -> int:
    """Equation 3: OMS-side overhead of servicing one proxy request."""
    return signal + serialize_cost(signal, priv)


@dataclass(frozen=True)
class SignalSensitivity:
    """Analytic signal-cost overlay used for Figure 5.

    Section 5.3's method: separate serializing events into those that
    originate on the OMS (charged via Equation 1) and those that
    originate on an AMS (charged via Equation 2), then express the
    signal-dependent part as a fraction of an ideal-hardware
    (signal = 0) execution.
    """

    #: count of serializing events originating on the OMS
    oms_events: int
    #: count of serializing events originating on AMSs
    ams_events: int
    #: total execution cycles with ideal (zero-cost) signaling
    ideal_cycles: int

    def added_cycles(self, signal: int) -> int:
        """Signal-dependent cycles added over the ideal baseline.

        The ``priv`` term of Equation 1 is present in the ideal
        baseline too, so only the signal terms remain: ``2*signal`` per
        OMS event and ``3*signal`` per AMS event (Equation 2).
        """
        return 2 * signal * self.oms_events + 3 * signal * self.ams_events

    def overhead_fraction(self, signal: int) -> float:
        """Slowdown over ideal hardware, as a fraction (Figure 5 y-axis)."""
        if self.ideal_cycles <= 0:
            raise ValueError("ideal_cycles must be positive")
        return self.added_cycles(signal) / self.ideal_cycles
