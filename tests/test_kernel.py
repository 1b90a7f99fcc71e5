"""Unit tests for the model kernel: processes, scheduler, syscalls."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.stream import DirectStream
from repro.kernel import Kernel, Scheduler, SyscallSpec, ThreadState
from repro.params import DEFAULT_PARAMS


def _stream():
    def body():
        yield from ()
    return DirectStream(body())


def make_kernel(cpus=2):
    return Kernel(DEFAULT_PARAMS, num_cpus=cpus)


# ----------------------------------------------------------------------
# Process / thread lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_create_process_unique_pids(self):
        kernel = make_kernel()
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert a.pid != b.pid
        assert a.address_space is not b.address_space

    def test_thread_starts_new(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        thread = kernel.create_thread(proc, "t", _stream())
        assert thread.state is ThreadState.NEW
        assert thread in proc.threads

    def test_start_places_thread(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        thread = kernel.create_thread(proc, "t", _stream())
        cpu = kernel.start_thread(thread)
        assert thread.state is ThreadState.READY
        assert 0 <= cpu < 2

    def test_double_start_rejected(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        thread = kernel.create_thread(proc, "t", _stream())
        kernel.start_thread(thread)
        with pytest.raises(ConfigurationError):
            kernel.start_thread(thread)

    def test_exit_last_thread_retires_process(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        thread = kernel.create_thread(proc, "t", _stream())
        kernel.start_thread(thread)
        kernel.exit_thread(thread, now=123)
        assert thread.state is ThreadState.EXITED
        assert proc.exited and proc.exit_time == 123
        assert kernel.all_done

    def test_process_waits_for_all_threads(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        t1 = kernel.create_thread(proc, "t1", _stream())
        t2 = kernel.create_thread(proc, "t2", _stream())
        kernel.exit_thread(t1, now=1)
        assert not proc.exited
        kernel.exit_thread(t2, now=2)
        assert proc.exited

    def test_no_threads_in_exited_process(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        thread = kernel.create_thread(proc, "t", _stream())
        kernel.exit_thread(thread, now=1)
        with pytest.raises(ConfigurationError):
            kernel.create_thread(proc, "late", _stream())

    def test_exit_releases_address_space(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        region = proc.address_space.reserve("d", 2)
        proc.address_space.handle_fault(region.vpn(0))
        thread = kernel.create_thread(proc, "t", _stream())
        kernel.exit_thread(thread, now=1)
        assert proc.address_space.resident_pages() == 0


# ----------------------------------------------------------------------
# Scheduler policy
# ----------------------------------------------------------------------
class TestScheduler:
    def _thread(self, kernel, proc, name, pin=None):
        return kernel.create_thread(proc, name, _stream(), pinned_cpu=pin)

    def test_least_loaded_placement(self):
        kernel = make_kernel(cpus=3)
        proc = kernel.create_process("p")
        cpus = [kernel.start_thread(self._thread(kernel, proc, f"t{i}"))
                for i in range(3)]
        assert sorted(cpus) == [0, 1, 2]

    def test_tie_breaks_to_lowest_cpu(self):
        scheduler = Scheduler(4)
        kernel = make_kernel(cpus=4)
        proc = kernel.create_process("p")
        thread = self._thread(kernel, proc, "t")
        assert scheduler.place(thread) == 0

    def test_pinned_placement(self):
        kernel = make_kernel(cpus=4)
        proc = kernel.create_process("p")
        thread = self._thread(kernel, proc, "t", pin=2)
        assert kernel.start_thread(thread) == 2

    def test_pin_out_of_range(self):
        kernel = make_kernel(cpus=2)
        proc = kernel.create_process("p")
        thread = self._thread(kernel, proc, "t", pin=5)
        with pytest.raises(ConfigurationError):
            kernel.start_thread(thread)

    def test_pick_next_round_robin(self):
        scheduler = Scheduler(1)
        kernel = make_kernel(1)
        proc = kernel.create_process("p")
        a = self._thread(kernel, proc, "a")
        b = self._thread(kernel, proc, "b")
        scheduler.enqueue(a, 0)
        scheduler.enqueue(b, 0)
        assert scheduler.pick_next(0) is a
        scheduler.preempt(0, requeue=True)
        assert scheduler.pick_next(0) is b
        scheduler.preempt(0, requeue=True)
        assert scheduler.pick_next(0) is a

    def test_pick_from_empty(self):
        scheduler = Scheduler(1)
        assert scheduler.pick_next(0) is None

    def test_pick_with_current_rejected(self):
        scheduler = Scheduler(1)
        kernel = make_kernel(1)
        proc = kernel.create_process("p")
        scheduler.enqueue(self._thread(kernel, proc, "a"), 0)
        scheduler.pick_next(0)
        scheduler.enqueue(self._thread(kernel, proc, "b"), 0)
        with pytest.raises(ConfigurationError):
            scheduler.pick_next(0)

    def test_should_preempt_only_with_waiters(self):
        scheduler = Scheduler(1)
        kernel = make_kernel(1)
        proc = kernel.create_process("p")
        scheduler.enqueue(self._thread(kernel, proc, "a"), 0)
        scheduler.pick_next(0)
        assert not scheduler.should_preempt(0)
        scheduler.enqueue(self._thread(kernel, proc, "b"), 0)
        assert scheduler.should_preempt(0)

    def test_remove_running_thread(self):
        scheduler = Scheduler(1)
        kernel = make_kernel(1)
        proc = kernel.create_process("p")
        thread = self._thread(kernel, proc, "a")
        scheduler.enqueue(thread, 0)
        scheduler.pick_next(0)
        scheduler.remove(thread)
        assert scheduler.current(0) is None

    def test_loads(self):
        scheduler = Scheduler(2)
        kernel = make_kernel(2)
        proc = kernel.create_process("p")
        scheduler.enqueue(self._thread(kernel, proc, "a"), 0)
        scheduler.enqueue(self._thread(kernel, proc, "b"), 0)
        assert scheduler.loads() == [2, 0]
        assert scheduler.runnable_count() == 2


# ----------------------------------------------------------------------
# Syscall table and service costs
# ----------------------------------------------------------------------
class TestSyscalls:
    def test_builtin_lookup(self):
        kernel = make_kernel()
        cost, spec = kernel.service_syscall("write")
        assert cost == DEFAULT_PARAMS.syscall_service_cost
        assert spec.name == "write"

    def test_specific_cost(self):
        kernel = make_kernel()
        cost, _ = kernel.service_syscall("gettime")
        assert cost == 1200

    def test_override_cost(self):
        kernel = make_kernel()
        cost, _ = kernel.service_syscall("write", 99)
        assert cost == 99

    def test_unknown_syscall(self):
        kernel = make_kernel()
        with pytest.raises(ConfigurationError):
            kernel.service_syscall("frobnicate")

    def test_register_new(self):
        kernel = make_kernel()
        kernel.syscalls.register(SyscallSpec("custom", cost=42))
        cost, _ = kernel.service_syscall("custom")
        assert cost == 42

    def test_register_duplicate(self):
        kernel = make_kernel()
        with pytest.raises(ConfigurationError):
            kernel.syscalls.register(SyscallSpec("write"))

    def test_blocking_flag(self):
        kernel = make_kernel()
        assert kernel.syscalls.lookup("nanosleep").blocks
        assert not kernel.syscalls.lookup("write").blocks

    def test_page_fault_service(self):
        kernel = make_kernel()
        proc = kernel.create_process("p")
        space = proc.address_space
        region = space.reserve("d", 1)
        kernel.service_page_fault(space, region.vpn(0))
        assert space.is_resident(region.vpn(0))
        # a second (racing) fault on the same page maps nothing
        kernel.service_page_fault(space, region.vpn(0))
        assert kernel.page_faults_serviced == 1
        assert space.faults_serviced == 1
