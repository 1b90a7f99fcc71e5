"""ShredLib's generic proxy handler (Section 4.2).

"ShredLib also provides a generic routine to handle proxy execution
for all proxy triggering conditions."  Section 2.5 notes that "at
minimum, a single proxy handler on the OMS is sufficient to deal with
all proxy conditions" -- and that is what ShredLib registers.

In this model the proxy *choreography* is architectural (the machine
executes Equations 2/3 when an AMS faults), so no step of a run looks
the handler up.  What the software pays for it is the
YIELD-CONDITIONAL registration the application performs at startup
(Figure 3, "Register Proxy Handler"): :func:`registration_ops`.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.ops import Compute, Op
from repro.params import MachineParams


def registration_ops(params: MachineParams) -> Iterator[Op]:
    """The YMONITOR setup cost paid once at application startup."""
    yield Compute(params.atomic_op_cost * 2)
