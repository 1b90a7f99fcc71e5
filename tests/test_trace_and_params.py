"""Unit tests for event tracing, machine parameters, and the
direct-execution stream/context layer."""

import pytest

from repro.errors import SimulationError
from repro.exec.context import ExecContext
from repro.exec.ops import Block, Compute, HaltOp, SyscallOp, Touch
from repro.exec.stream import DirectStream
from repro.kernel.kernel import Kernel
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.sim.trace import EventKind, TraceLog


# ----------------------------------------------------------------------
# TraceLog
# ----------------------------------------------------------------------
class TestTraceLog:
    def test_coarse_counts(self):
        log = TraceLog()
        log.count(0, EventKind.SYSCALL)
        log.count(0, EventKind.SYSCALL, n=2)
        log.count(1, EventKind.SYSCALL)
        assert log.total(EventKind.SYSCALL) == 4
        assert log.total(EventKind.SYSCALL, [0]) == 3
        assert log.total(EventKind.PAGE_FAULT) == 0

    def test_fine_records_and_duration(self):
        log = TraceLog(record_fine=True)
        log.record(10, 25, 0, EventKind.RING_EXIT, detail="syscall")
        log.instant(30, 1, EventKind.TIMER)
        assert log.records() == [
            (10, 25, 0, EventKind.RING_EXIT, "syscall"),
            (30, 30, 1, EventKind.TIMER, ""),
        ]
        assert log.total(EventKind.RING_EXIT) == 1

    def test_fine_recording_disabled(self):
        log = TraceLog(record_fine=False)
        log.record(0, 5, 0, EventKind.RING_EXIT)
        assert list(log.records()) == []
        assert log.total(EventKind.RING_EXIT) == 1   # coarse still counts

    def test_summary(self):
        log = TraceLog()
        assert log.summary() == {}
        log.count(0, EventKind.TIMER)
        log.count(2, EventKind.TIMER)
        log.count(1, EventKind.SYSCALL)
        assert log.summary() == {"syscall": 1, "timer": 2}


# ----------------------------------------------------------------------
# MachineParams
# ----------------------------------------------------------------------
class TestParams:
    def test_defaults_match_paper(self):
        assert DEFAULT_PARAMS.signal_cost == 5000   # §5.2 estimate

    def test_with_changes_immutably(self):
        fast = DEFAULT_PARAMS.with_changes(signal_cost=500)
        assert fast.signal_cost == 500
        assert DEFAULT_PARAMS.signal_cost == 5000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(signal_cost=-1)

    @pytest.mark.parametrize("value", [60.5, 60.0, -5.0, True, "60"])
    def test_non_int_rejected(self, value):
        """Every field is an int: a float, even an integral one, would
        make cycles floats and split equal specs across spec hashes."""
        with pytest.raises(ValueError, match="mem_cost"):
            MachineParams(mem_cost=value)
        with pytest.raises(ValueError, match="mem_cost"):
            DEFAULT_PARAMS.with_changes(mem_cost=value)

    def test_zero_quantum_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(timer_quantum=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.signal_cost = 1   # type: ignore[misc]


# ----------------------------------------------------------------------
# DirectStream protocol
# ----------------------------------------------------------------------
class TestDirectStream:
    def test_fetch_complete_cycle(self):
        def body():
            value = yield Compute(10)
            assert value == "result"
            yield Compute(20)

        stream = DirectStream(body())
        op = stream.next_op()
        assert isinstance(op, Compute) and op.cycles == 10
        # fault-retry semantics: repeated fetch returns the same op
        assert stream.next_op() is op
        stream.complete("result")
        assert stream.next_op().cycles == 20
        stream.complete()
        assert stream.next_op() is None
        assert stream.finished

    def test_halt_op_ends_stream(self):
        def body():
            yield Compute(1)
            yield HaltOp()
            yield Compute(2)   # unreachable

        stream = DirectStream(body())
        stream.next_op()
        stream.complete()
        assert stream.next_op() is None
        assert stream.finished

    def test_sched_sentinel_rejected(self):
        def body():
            yield Block([])

        stream = DirectStream(body(), label="bad")
        with pytest.raises(SimulationError):
            stream.next_op()

    def test_complete_without_pending(self):
        stream = DirectStream(iter(()))
        with pytest.raises(SimulationError):
            stream.complete()


# ----------------------------------------------------------------------
# ExecContext helpers
# ----------------------------------------------------------------------
class TestExecContext:
    def make(self):
        kernel = Kernel(DEFAULT_PARAMS, num_cpus=1)
        process = kernel.create_process("p")
        return ExecContext(process, DEFAULT_PARAMS, seed=7)

    def test_compute_chunks_sum(self):
        ctx = self.make()
        ops = list(ctx.compute(120_000, chunk=50_000))
        assert [op.cycles for op in ops] == [50_000, 50_000, 20_000]

    def test_compute_zero_is_empty(self):
        ctx = self.make()
        assert list(ctx.compute(0)) == []

    def test_compute_negative_rejected(self):
        ctx = self.make()
        with pytest.raises(ValueError):
            list(ctx.compute(-1))

    def test_touch_range_strides(self):
        ctx = self.make()
        region = ctx.reserve("d", 16)
        ops = [op for op in ctx.touch_range(region, 0, 4, stride=2)
               if isinstance(op, Touch)]
        assert [op.page_index for op in ops] == [0, 2, 4, 6]

    def test_touch_range_interleaves_compute(self):
        ctx = self.make()
        region = ctx.reserve("d", 4)
        ops = list(ctx.touch_range(region, 0, 2, compute_per_page=100))
        kinds = [type(op).__name__ for op in ops]
        assert kinds == ["Touch", "Compute", "Touch", "Compute"]

    def test_syscall_op(self):
        ctx = self.make()
        ops = list(ctx.syscall("write", cost=123, arg="x"))
        assert ops == [SyscallOp("write", 123, "x")]

    def test_rng_streams_deterministic_and_distinct(self):
        ctx = self.make()
        a1 = ctx.rng(1).random()
        a2 = ctx.rng(1).random()
        b = ctx.rng(2).random()
        assert a1 == a2
        assert a1 != b

    def test_spawn_native_requires_machine(self):
        ctx = self.make()
        with pytest.raises(RuntimeError):
            ctx.spawn_native("t", iter(()))
