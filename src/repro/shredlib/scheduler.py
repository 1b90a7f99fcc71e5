"""The gang scheduler of Figure 3.

"The work queue is a mutex-protected shared memory data structure, and
holds the shred continuations that are ready to execute. ... Inside
each gang scheduler, the Run_shred routine interrogates the mutex to
the work queue, attempts to grab an available shred and, if available,
performs a light-weight context switch to execute the shred."

One :func:`gang_scheduler` generator runs on every participating
sequencer -- the OMS calls it as a function, the AMSs receive it via
``SIGNAL`` (on MISP) or run it as the body of a worker OS thread (on
the SMP baseline).  All of them contend for the shared queue in
:class:`~repro.shredlib.runtime.ShredRuntime`, giving the M:N shred
scheduling of Section 3.

An idle scheduler spins: lock RMW, empty queue, PAUSE backoff, lock
RMW again.  The :class:`~repro.core.machine.Machine` steps those quiet
polls in place, each still one engine event, instead of resuming this
generator for each of them, which is exact only while the loop keeps
the contract spelled out on :func:`gang_scheduler`;
``tests/test_shredlib.py`` drives the loop by hand to hold it to that
contract.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.ops import Op
from repro.shredlib.runtime import ShredRuntime


def gang_scheduler(rt: ShredRuntime, worker_id: int) -> Iterator[Op]:
    """Drain the shared work queue until shutdown (Figure 3 loop).

    The loop: grab the queue mutex (one atomic RMW), pop a shred
    continuation (queue manipulation cost), light-weight context
    switch into the shred, run it until it blocks / yields / finishes,
    switch back, repeat.  An empty queue is polled with a backoff
    compute; the loop exits once the runtime signals shutdown and the
    queue has drained ("Exit?" in Figure 3).  Every op it yields is
    one of the runtime's prebuilt ops.

    The machine's quiet-poll step relies on two steps of this loop:

    * after ``rt.idle_poll_op`` completes, the loop yields
      ``rt.lock_op`` with no side effect in between;
    * after that lock op completes on a queue that is empty and not
      shut down (:attr:`ShredRuntime.quiet`), the loop counts one
      ``QUEUE_EMPTY_POLL`` (:meth:`ShredRuntime.note_poll`) and yields
      the same ``rt.idle_poll_op`` again.
    """
    while True:
        yield rt.lock_op                  # lock the work queue
        shred = rt.pop(worker_id)
        if shred is None:
            if rt.all_work_done:
                return
            rt.note_poll()
            yield rt.idle_poll_op         # PAUSE-loop backoff
            continue
        # dequeue + unlock + light-weight switch into the shred
        yield rt.switch_in_op
        yield from rt.run_shred(shred, worker_id)
        yield rt.switch_out_op            # switch back
