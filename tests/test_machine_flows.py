"""Integration tests for the machine's architectural flows: ring
transitions, serialization, proxy execution, SIGNAL, context switches,
and blocking syscalls.  These verify the *timed choreography* matches
the Section 5.1 equations."""

from collections import Counter

import pytest

from repro.core import build_machine
from repro.errors import ConfigurationError
from repro.exec.ops import Compute, SignalShred, SyscallOp, Touch
from repro.params import DEFAULT_PARAMS
from repro.sim.trace import EventKind


def quiet_params(**changes):
    """Params with periodic interrupts pushed out of the way so single
    flows can be timed exactly."""
    base = dict(timer_quantum=10**12, device_interrupt_period=0)
    base.update(changes)
    return DEFAULT_PARAMS.with_changes(**base)


def run_app(machine, body, pinned_cpu=0, shredded=False):
    proc = machine.spawn_process("app")
    thread = machine.spawn_thread(proc, "main", body, pinned_cpu=pinned_cpu)
    thread.is_shredded = shredded
    machine.run_to_completion(limit=10**12)
    return proc, thread


# ----------------------------------------------------------------------
# OMS syscall: Equation 1 timing
# ----------------------------------------------------------------------
class TestRingSerialization:
    def test_syscall_without_ams_costs_priv_only(self):
        params = quiet_params()
        machine = build_machine("smp1", params=params)

        def body():
            yield SyscallOp("write")

        proc, thread = run_app(machine, body())
        # context switch in + syscall service
        expected = params.context_switch_cost + params.syscall_service_cost
        assert thread.exit_time == expected

    def test_syscall_with_active_ams_pays_two_signals(self):
        params = quiet_params()
        machine = build_machine([1], params=params)

        def worker():
            yield Compute(10_000_000)

        def body():
            yield SignalShred(1, worker(), label="w")
            yield SyscallOp("write")

        proc, thread = run_app(machine, body(), shredded=True)
        events = machine.trace
        assert events.total(EventKind.SYSCALL) == 1
        assert events.total(EventKind.AMS_SUSPEND) == 1
        assert events.total(EventKind.AMS_RESUME) == 1
        # Equation 1: the thread's critical path includes
        # signal (SIGNAL op) + 2*signal + priv for the syscall
        expected = (params.context_switch_cost
                    + params.signal_cost              # SIGNAL instruction
                    + 2 * params.signal_cost          # suspend + resume
                    + params.syscall_service_cost)
        assert thread.exit_time == expected

    def test_idle_team_skips_suspend_broadcast(self):
        params = quiet_params()
        machine = build_machine([2], params=params)

        def body():
            # no shreds started: AMSs idle, so Ring 0 entry is cheap
            yield SyscallOp("write")

        proc, thread = run_app(machine, body())
        assert machine.trace.total(EventKind.AMS_SUSPEND) == 0
        expected = params.context_switch_cost + params.syscall_service_cost
        assert thread.exit_time == expected

    def test_oms_page_fault_counts_and_retries(self):
        params = quiet_params()
        machine = build_machine("smp1", params=params)
        proc = machine.spawn_process("app")
        region = proc.address_space.reserve("d", 2)

        def body():
            yield Touch(region, 0)
            yield Touch(region, 0)   # now resident: no second fault
            yield Touch(region, 1)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        machine.run_to_completion(limit=10**10)
        assert machine.trace.total(EventKind.PAGE_FAULT) == 2
        # the address space is released at process exit; the demand
        # faults themselves are what we can still observe
        assert proc.address_space.faults_serviced == 2


# ----------------------------------------------------------------------
# Proxy execution: Equations 2 and 3
# ----------------------------------------------------------------------
class TestProxyExecution:
    def test_ams_fault_goes_through_proxy(self):
        params = quiet_params()
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("app")
        region = proc.address_space.reserve("d", 1)

        def worker():
            yield Touch(region, 0)

        def body():
            yield SignalShred(1, worker(), label="w")
            yield Compute(10_000_000)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        trace = machine.trace
        ams_id = machine.ams_ids()[0]
        assert trace.total(EventKind.PAGE_FAULT, [ams_id]) == 1
        assert trace.total(EventKind.PROXY_REQUEST) == 1
        assert trace.total(EventKind.PROXY_BEGIN) == 1
        assert trace.total(EventKind.PROXY_END) == 1
        assert machine.proxy_stats.page_faults == 1
        assert proc.address_space.faults_serviced == 1

    def test_proxy_syscall_returns_to_shred(self):
        params = quiet_params()
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("app")
        done = []

        def worker():
            yield SyscallOp("write")
            done.append(True)
            yield Compute(1000)

        def body():
            yield SignalShred(1, worker(), label="w")
            yield Compute(60_000_000)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        assert done == [True]
        assert machine.proxy_stats.syscalls == 1

    def test_proxy_latency_accounting(self):
        params = quiet_params()
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("app")

        def worker():
            yield SyscallOp("write")

        def body():
            yield SignalShred(1, worker(), label="w")
            yield Compute(30_000_000)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        # Equations 2+3 lower bound: egress signal + ingress signal +
        # serialize(2*signal + priv)
        lower = (params.signal_cost                 # egress notify
                 + params.signal_cost               # impersonation
                 + 2 * params.signal_cost           # suspend + resume
                 + params.syscall_service_cost)
        assert machine.proxy_stats.total_latency >= lower

    def test_a_page_already_mapped_costs_a_quarter_to_service(self):
        """Two AMSs fault on one fresh page: the first proxy service
        maps it at the full price, the second finds it resident and
        pays a quarter; both are priced when the OMS takes them."""
        machine = build_machine([2], params=quiet_params())
        cap = machine.enable_capture()
        proc = machine.spawn_process("app")
        region = proc.address_space.reserve("d", 1)

        def worker():
            yield Touch(region, 0)

        def body():
            for sid in (1, 2):
                yield SignalShred(sid, worker(), label=f"w{sid}")
            yield Compute(80_000_000)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        terms = {pid: coefs for (coefs, _, _), pid in cap.pattern_ids.items()}
        priced = Counter((mult, div) for pid in cap.patterns
                         for key, mult, div in terms[pid]
                         if key == "page_fault_service_cost")
        assert priced == {(1, 1): 1, (1, 4): 1}
        assert machine.proxy_stats.page_faults == 2
        assert machine.kernel.page_faults_serviced == 1

    def test_concurrent_proxies_are_serialized_fifo(self):
        params = quiet_params()
        machine = build_machine([3], params=params)
        proc = machine.spawn_process("app")
        region = proc.address_space.reserve("d", 8)
        order = []

        def worker(i):
            yield Touch(region, i)
            order.append(i)

        def body():
            for sid in (1, 2, 3):
                yield SignalShred(sid, worker(sid), label=f"w{sid}")
            yield Compute(80_000_000)

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        assert sorted(order) == [1, 2, 3]
        assert machine.proxy_stats.requests == 3


# ----------------------------------------------------------------------
# SIGNAL semantics
# ----------------------------------------------------------------------
class TestSignal:
    def test_signal_to_self_rejected(self):
        machine = build_machine([1], params=quiet_params())
        proc = machine.spawn_process("app")

        def body():
            yield SignalShred(0, iter(()))

        machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        with pytest.raises(ConfigurationError):
            machine.run_to_completion(limit=10**9)

    def test_signal_to_busy_without_handler_rejected(self):
        machine = build_machine([1], params=quiet_params())
        proc = machine.spawn_process("app")

        def worker():
            yield Compute(50_000_000)

        def body():
            yield SignalShred(1, worker())
            yield SignalShred(1, worker())   # still running: error

        machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        with pytest.raises(ConfigurationError):
            machine.run_to_completion(limit=10**9)

    def test_signal_costs_signal_cycles(self):
        params = quiet_params()
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("app")

        def worker():
            yield Compute(100)

        def body():
            yield SignalShred(1, worker(), label="w")

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        machine.run_to_completion(limit=10**9)
        assert thread.exit_time == (params.context_switch_cost
                                    + params.signal_cost)

    def test_ams_reusable_after_shred_ends(self):
        params = quiet_params()
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("app")
        runs = []

        def worker(i):
            runs.append(i)
            yield Compute(1000)

        def body():
            yield SignalShred(1, worker(1), label="w1")
            yield Compute(2_000_000)   # let it finish
            yield SignalShred(1, worker(2), label="w2")
            yield Compute(2_000_000)

        machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        machine.run_to_completion(limit=10**10)
        assert runs == [1, 2]
        assert machine.trace.total(EventKind.SIGNAL_SENT) == 2


# ----------------------------------------------------------------------
# Context switching and multiprogramming
# ----------------------------------------------------------------------
class TestContextSwitch:
    def test_round_robin_shares_cpu(self):
        params = quiet_params(timer_quantum=1_000_000)
        machine = build_machine("smp1", params=params)
        proc_a = machine.spawn_process("a")
        proc_b = machine.spawn_process("b")

        def body():
            yield from (Compute(100_000) for _ in range(50))

        ta = machine.spawn_thread(proc_a, "a", body())
        tb = machine.spawn_thread(proc_b, "b", body())
        machine.run_to_completion(limit=10**10)
        assert ta.context_switches > 0 or tb.context_switches > 0
        assert machine.trace.total(EventKind.TIMER) > 0
        # both made progress interleaved: completion times within 2x
        assert abs(ta.exit_time - tb.exit_time) < max(ta.exit_time,
                                                      tb.exit_time)

    def test_shredded_thread_freezes_team_on_switch(self):
        params = quiet_params(timer_quantum=2_000_000)
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("shredded")
        other = machine.spawn_process("other")
        progress = []

        def worker():
            for i in range(40):
                progress.append(machine.now)
                yield Compute(500_000)

        def body():
            yield SignalShred(1, worker(), label="w")
            yield from (Compute(100_000) for _ in range(200))

        def bg():
            yield from (Compute(100_000) for _ in range(200))

        thread = machine.spawn_thread(proc, "main", body(), pinned_cpu=0)
        thread.is_shredded = True
        machine.spawn_thread(other, "bg", bg(), pinned_cpu=0)
        machine.run_to_completion(limit=10**11)
        # while the shredded thread was switched out, the worker made
        # no progress: there must be a gap > quantum in its timeline
        gaps = [b - a for a, b in zip(progress, progress[1:])]
        assert max(gaps) >= params.timer_quantum // 2
        assert machine.trace.total(EventKind.CONTEXT_SWITCH) > 2

    def test_blocking_syscall_yields_cpu(self):
        params = quiet_params()
        machine = build_machine("smp1", params=params)
        proc_a = machine.spawn_process("sleeper")
        proc_b = machine.spawn_process("worker")

        def sleeper():
            yield SyscallOp("nanosleep", arg=5_000_000)
            yield Compute(1000)

        def worker():
            yield Compute(3_000_000)

        ta = machine.spawn_thread(proc_a, "s", sleeper())
        tb = machine.spawn_thread(proc_b, "w", worker())
        machine.run_to_completion(limit=10**10)
        # the worker ran to completion inside the sleeper's block window
        assert tb.exit_time < ta.exit_time
        assert ta.exit_time >= 5_000_000
