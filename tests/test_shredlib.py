"""Tests for the ShredLib runtime: work queue, gang scheduler,
synchronization primitives, TLS, and legacy shims.

Most tests run real shredded programs on a small MISP machine via the
standard runner -- the sync primitives only make sense under the
machine's event interleaving.
"""

import pytest

from repro.core.machine import Machine
from repro.core.notation import config_name
from repro.errors import ShredLibError
from repro.exec.context import ExecContext
from repro.exec.ops import Compute, IdlePoll, SignalShred
from repro.params import DEFAULT_PARAMS
from repro.shredlib import (
    PthreadsAPI, QueuePolicy, ShredAPI, ShredRuntime, ShredState, TlsKey,
    Win32API, gang_scheduler,
)
from repro.shredlib.log import ShredEvent
from repro.systems import Session
from repro.workloads.base import WorkloadSpec


def run_program(build, ams_count=3, policy=QueuePolicy.FIFO):
    spec = WorkloadSpec("test-prog", "micro", build)
    return (Session("misp", config_name([ams_count]))
            .policy(policy).run(spec))


# ----------------------------------------------------------------------
# Runtime: queue, policies, affinity
# ----------------------------------------------------------------------
class TestRuntime:
    def make(self):
        return ShredRuntime(DEFAULT_PARAMS)

    def test_fifo_policy(self):
        rt = self.make()
        a = rt.new_shred(iter(()), "a")
        b = rt.new_shred(iter(()), "b")
        rt.push(a)
        rt.push(b)
        assert rt.pop() is a
        assert rt.pop() is b
        assert rt.pop() is None

    def test_lifo_policy(self):
        rt = ShredRuntime(DEFAULT_PARAMS, policy=QueuePolicy.LIFO)
        a, b = rt.new_shred(iter(()), "a"), rt.new_shred(iter(()), "b")
        rt.push(a)
        rt.push(b)
        assert rt.pop() is b

    def test_affinity_respected(self):
        rt = self.make()
        pinned = rt.new_shred(iter(()), "pinned")
        pinned.affinity = 0
        free = rt.new_shred(iter(()), "free")
        rt.push(pinned)
        rt.push(free)
        # worker 3 must skip the pinned shred
        assert rt.pop(worker_id=3) is free
        assert rt.pop(worker_id=3) is None
        assert rt.pop(worker_id=0) is pinned

    def test_finish_wakes_joiners(self):
        rt = self.make()
        worker = rt.new_shred(iter(()), "w")
        waiter = rt.new_shred(iter(()), "j")
        waiter.state = ShredState.BLOCKED
        worker.joiners.append(waiter)
        rt.finish_shred(worker)
        assert waiter.state is ShredState.READY
        assert rt.pop() is waiter

    def test_main_finish_sets_shutdown(self):
        rt = self.make()
        main = rt.new_shred(iter(()), "main")
        rt.set_main(main)
        assert not rt.shutdown
        rt.finish_shred(main)
        assert rt.shutdown

    def test_double_finish_rejected(self):
        rt = self.make()
        shred = rt.new_shred(iter(()), "s")
        rt.finish_shred(shred)
        with pytest.raises(ShredLibError):
            rt.finish_shred(shred)

    def test_cannot_enqueue_finished(self):
        rt = self.make()
        shred = rt.new_shred(iter(()), "s")
        rt.finish_shred(shred)
        with pytest.raises(ShredLibError):
            rt.push(shred)

    def test_counters(self):
        rt = self.make()
        shreds = [rt.new_shred(iter(()), str(i)) for i in range(3)]
        assert rt.created == 3 and rt.active == 3
        rt.finish_shred(shreds[0])
        assert rt.finished == 1 and rt.active == 2


def test_gang_scheduler_keeps_the_idle_poll_contract():
    """The machine steps quiet polls in place on the strength of two
    steps of Figure 3's loop; driving the loop by hand on an empty
    runtime holds it to them, so changing the loop fails here rather
    than silently breaking the machine's quiet step."""
    rt = ShredRuntime(DEFAULT_PARAMS)
    rt.attach_shared(0x10_000, 4096)
    poll = rt.idle_poll_op
    assert type(poll) is IdlePoll and poll.runtime is rt
    assert poll.cycles == DEFAULT_PARAMS.idle_poll_cost

    def state():
        return (rt.log.summary(), list(rt.queue), rt.shutdown, rt.created,
                rt.finished, rt.active, rt.log.max_queue_depth)

    loop = gang_scheduler(rt, worker_id=0)
    assert next(loop) is rt.lock_op
    for polls in range(1, 4):
        # the lock RMW completes on a quiet queue: one poll is noted
        # and the same backoff follows
        assert rt.quiet
        assert loop.send(None) is poll
        assert rt.log.count(ShredEvent.QUEUE_EMPTY_POLL) == polls
        # the backoff completes: the lock RMW, with nothing changed
        before = state()
        assert loop.send(None) is rt.lock_op
        assert state() == before
    # a queue with work is not quiet: the loop switches into the shred
    rt.push(rt.new_shred(iter(()), "work"))
    assert not rt.quiet
    assert loop.send(None) is rt.switch_in_op
    # nor is a shut-down one: the drained loop exits
    rt.shutdown = True
    assert not rt.quiet
    loop = gang_scheduler(rt, worker_id=1)
    assert next(loop) is rt.lock_op
    with pytest.raises(StopIteration):
        loop.send(None)


def _lock_traffic(place_first: bool, place: bool = True) -> dict:
    """Hierarchy counters of a create/join program on a 1x4 MISP
    machine whose only memory traffic is the work-queue lock.

    The runtime is placed in shared memory before, or (with
    ``place_first`` False) after, the ShredAPI and the four gang
    schedulers are built.
    """
    machine = Machine([3])
    process = machine.spawn_process("prog")
    rt = ShredRuntime(DEFAULT_PARAMS)
    shared = process.address_space.reserve("shredlib", 1)
    process.address_space.handle_fault(shared.start_vpn)

    def attach():
        if place:
            rt.attach_shared(shared.base_vaddr, shared.size_bytes)

    if place_first:
        attach()
    api = ShredAPI(rt, ExecContext(process, DEFAULT_PARAMS))
    schedulers = [gang_scheduler(rt, worker_id=i) for i in range(4)]
    if not place_first:
        attach()

    def worker(i):
        yield Compute(2_000 * (i + 1))

    def main():
        shreds = []
        for i in range(6):
            shreds.append((yield from api.create(worker(i))))
        yield from api.join_all(shreds)

    shred = rt.new_shred(main(), name="main")
    shred.affinity = 0
    rt.set_main(shred)
    rt.push(shred)

    def body():
        for sid in range(1, 4):
            yield SignalShred(sid, schedulers[sid])
        yield from schedulers[0]

    machine.spawn_thread(process, "main", body(), pinned_cpu=0)
    machine.run_to_completion()
    assert rt.finished == 7
    return machine.hierarchy.counters()


def test_prebuilt_lock_op_follows_attach_shared():
    """The scheduler and API yield the runtime's prebuilt lock op;
    placing the runtime after they are built must still route every
    lock RMW through the cache hierarchy, not degrade it to a flat-cost
    atomic."""
    placed_first = _lock_traffic(place_first=True)
    assert _lock_traffic(place_first=False) == placed_first
    # the lock line really moved: RMWs from four sequencers ping-pong
    # it between their L1s behind the shared L2
    assert placed_first["l1_invalidations"] > 0
    assert placed_first["l2_hits"] > 0
    unplaced = _lock_traffic(place_first=True, place=False)
    assert set(unplaced.values()) == {0}


# ----------------------------------------------------------------------
# End-to-end shred programs: create/join/yield, results
# ----------------------------------------------------------------------
class TestShredPrograms:
    def test_join_returns_result(self):
        outcome = {}

        def build(api, nworkers):
            def worker():
                yield Compute(1000)
                return 42

            def main():
                shred = yield from api.create(worker())
                outcome["result"] = (yield from api.join(shred))
            return main()

        run_program(build)
        assert outcome["result"] == 42

    def test_join_finished_shred_is_immediate(self):
        def build(api, nworkers):
            def worker():
                yield Compute(100)

            def main():
                shred = yield from api.create(worker())
                yield Compute(5_000_000)   # let it finish first
                assert shred.done
                yield from api.join(shred)
            return main()

        result = run_program(build)
        assert result.runtime.active == 0

    def test_nested_shred_creation(self):
        seen = []

        def build(api, nworkers):
            def grandchild(i):
                seen.append(i)
                yield Compute(100)

            def child(i):
                shred = yield from api.create(grandchild(i))
                yield from api.join(shred)

            def main():
                kids = []
                for i in range(4):
                    kids.append((yield from api.create(child(i))))
                yield from api.join_all(kids)
            return main()

        run_program(build)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_voluntary_yield_requeues(self):
        def build(api, nworkers):
            def worker():
                yield Compute(100)
                yield from api.yield_()
                yield Compute(100)

            def main():
                shred = yield from api.create(worker())
                yield from api.join(shred)
                assert shred.times_yielded == 1
            return main()

        run_program(build, ams_count=0)   # single worker forces requeue

    def test_exit_terminates_early(self):
        reached = []

        def build(api, nworkers):
            def worker():
                yield Compute(100)
                yield from api.exit()
                reached.append("after-exit")   # must never run
                yield Compute(100)

            def main():
                shred = yield from api.create(worker())
                yield from api.join(shred)
            return main()

        run_program(build)
        assert reached == []

    def test_m_to_n_scheduling_uses_all_workers(self):
        workers_used = set()

        def build(api, nworkers):
            def worker(i):
                yield Compute(500_000)

            def main():
                shreds = []
                for i in range(16):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
                for s in shreds:
                    workers_used.add(s.last_worker)
            return main()

        run_program(build, ams_count=3)
        assert len(workers_used) > 1   # shreds spread over sequencers

    def test_tls_per_shred(self):
        values = {}
        key = TlsKey("test")

        def build(api, nworkers):
            def worker(shred, i):
                key.set(shred, i * 10)
                yield Compute(1000)
                values[i] = key.get(shred)

            def main():
                shreds = []
                for i in range(4):
                    shreds.append((yield from api.create_fn(worker, i)))
                yield from api.join_all(shreds)
            return main()

        run_program(build)
        assert values == {0: 0, 1: 10, 2: 20, 3: 30}


# ----------------------------------------------------------------------
# Synchronization primitives under real interleaving
# ----------------------------------------------------------------------
class TestSync:
    def test_mutex_mutual_exclusion(self):
        holders = []

        def build(api, nworkers):
            mutex = api.mutex("m")
            state = {"inside": 0, "max_inside": 0}

            def worker(i):
                for _ in range(5):
                    yield from mutex.acquire()
                    state["inside"] += 1
                    state["max_inside"] = max(state["max_inside"],
                                              state["inside"])
                    yield Compute(10_000)
                    state["inside"] -= 1
                    yield from mutex.release()
                    yield Compute(1_000)

            def main():
                shreds = []
                for i in range(6):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
                holders.append(state["max_inside"])
            return main()

        run_program(build, ams_count=5)
        assert holders == [1]   # never two inside the critical section

    def test_mutex_release_unlocked_rejected(self):
        def build(api, nworkers):
            mutex = api.mutex("m")

            def main():
                yield Compute(100)
                with pytest.raises(ShredLibError):
                    yield from mutex.release()
            return main()

        run_program(build)

    def test_condvar_producer_consumer(self):
        consumed = []

        def build(api, nworkers):
            mutex = api.mutex("m")
            cond = api.condvar("c")
            queue = []

            def producer():
                for i in range(8):
                    yield Compute(5_000)
                    yield from mutex.acquire()
                    queue.append(i)
                    yield from cond.notify_one()
                    yield from mutex.release()

            def consumer():
                for _ in range(8):
                    yield from mutex.acquire()
                    while not queue:
                        yield from cond.wait(mutex)
                    consumed.append(queue.pop(0))
                    yield from mutex.release()

            def main():
                p = yield from api.create(producer())
                c = yield from api.create(consumer())
                yield from api.join_all([p, c])
            return main()

        run_program(build)
        assert consumed == list(range(8))

    def test_condvar_broadcast_wakes_all(self):
        woken = []

        def build(api, nworkers):
            mutex = api.mutex("m")
            cond = api.condvar("c")
            state = {"go": False}

            def waiter(i):
                yield from mutex.acquire()
                while not state["go"]:
                    yield from cond.wait(mutex)
                woken.append(i)
                yield from mutex.release()

            def main():
                shreds = []
                for i in range(4):
                    shreds.append((yield from api.create(waiter(i))))
                yield Compute(3_000_000)
                yield from mutex.acquire()
                state["go"] = True
                yield from cond.notify_all()
                yield from mutex.release()
                yield from api.join_all(shreds)
            return main()

        run_program(build)
        assert sorted(woken) == [0, 1, 2, 3]

    def test_semaphore_bounds_concurrency(self):
        def build(api, nworkers):
            sem = api.semaphore(2, "s")
            state = {"inside": 0, "max": 0}

            def worker(i):
                yield from sem.wait()
                state["inside"] += 1
                state["max"] = max(state["max"], state["inside"])
                yield Compute(20_000)
                state["inside"] -= 1
                yield from sem.post()

            def main():
                shreds = []
                for i in range(8):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
                assert state["max"] <= 2
            return main()

        run_program(build, ams_count=7)

    def test_event_blocks_until_set(self):
        order = []

        def build(api, nworkers):
            event = api.event(manual_reset=True)

            def waiter(i):
                yield from event.wait()
                order.append(f"woke{i}")

            def main():
                shreds = []
                for i in range(3):
                    shreds.append((yield from api.create(waiter(i))))
                yield Compute(2_000_000)
                order.append("set")
                yield from event.set()
                yield from api.join_all(shreds)
            return main()

        run_program(build)
        assert order[0] == "set" and len(order) == 4

    def test_auto_reset_event_wakes_one_per_set(self):
        woken = []

        def build(api, nworkers):
            event = api.event(manual_reset=False)

            def waiter(i):
                yield from event.wait()
                woken.append(i)

            def main():
                shreds = []
                for i in range(3):
                    shreds.append((yield from api.create(waiter(i))))
                yield Compute(2_000_000)
                for _ in range(3):
                    yield from event.set()
                    yield Compute(1_000_000)
                yield from api.join_all(shreds)
            return main()

        run_program(build)
        assert sorted(woken) == [0, 1, 2]

    def test_barrier_synchronizes_phases(self):
        phases = {i: [] for i in range(4)}

        def build(api, nworkers):
            barrier = api.barrier(4)
            clock = {"phase": 0}

            def worker(i):
                for phase in range(3):
                    yield Compute((i + 1) * 10_000)   # skewed arrival
                    phases[i].append(clock["phase"])
                    serial = yield from barrier.wait()
                    if serial:
                        clock["phase"] += 1

            def main():
                shreds = []
                for i in range(4):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
            return main()

        run_program(build, ams_count=7)
        for i in range(4):
            assert phases[i] == [0, 1, 2]

    def test_rwlock_readers_share_writers_exclude(self):
        def build(api, nworkers):
            rw = api.rwlock("rw")
            state = {"readers": 0, "writers": 0, "max_readers": 0,
                     "violation": False}

            def reader(i):
                for _ in range(3):
                    yield from rw.acquire_read()
                    state["readers"] += 1
                    state["max_readers"] = max(state["max_readers"],
                                               state["readers"])
                    if state["writers"]:
                        state["violation"] = True
                    yield Compute(8_000)
                    state["readers"] -= 1
                    yield from rw.release_read()

            def writer():
                for _ in range(3):
                    yield from rw.acquire_write()
                    state["writers"] += 1
                    if state["readers"] or state["writers"] > 1:
                        state["violation"] = True
                    yield Compute(8_000)
                    state["writers"] -= 1
                    yield from rw.release_write()
                    yield Compute(2_000)

            def main():
                shreds = []
                for i in range(4):
                    shreds.append((yield from api.create(reader(i))))
                shreds.append((yield from api.create(writer())))
                yield from api.join_all(shreds)
                assert not state["violation"]
                assert state["max_readers"] >= 2   # sharing observed
            return main()

        run_program(build, ams_count=7)

    def test_critical_section_spin_then_block(self):
        def build(api, nworkers):
            cs = api.critical_section("cs", spin_count=2)
            state = {"inside": 0, "bad": False}

            def worker(i):
                for _ in range(4):
                    yield from cs.enter()
                    state["inside"] += 1
                    if state["inside"] > 1:
                        state["bad"] = True
                    yield Compute(5_000)
                    state["inside"] -= 1
                    yield from cs.leave()

            def main():
                shreds = []
                for i in range(4):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
                assert not state["bad"]
            return main()

        run_program(build)

    def test_contention_is_logged(self):
        def build(api, nworkers):
            mutex = api.mutex("hot")

            def worker(i):
                yield from mutex.acquire()
                yield Compute(50_000)
                yield from mutex.release()

            def main():
                shreds = []
                for i in range(6):
                    shreds.append((yield from api.create(worker(i))))
                yield from api.join_all(shreds)
            return main()

        result = run_program(build, ams_count=5)
        assert result.runtime.log.contention("hot") > 0


# ----------------------------------------------------------------------
# Legacy API shims
# ----------------------------------------------------------------------
class TestShims:
    def test_pthreads_roundtrip(self):
        results = []

        def build(api, nworkers):
            pt = PthreadsAPI(api)

            def worker(i):
                yield Compute(1000)
                return i * i

            def main():
                threads = []
                for i in range(4):
                    t = yield from pt.pthread_create(worker, i)
                    threads.append(t)
                for t in threads:
                    results.append((yield from pt.pthread_join(t)))
            return main()

        run_program(build)
        assert results == [0, 1, 4, 9]

    def test_pthread_mutex_and_cond(self):
        def build(api, nworkers):
            pt = PthreadsAPI(api)
            mutex = pt.pthread_mutex_init()
            cond = pt.pthread_cond_init()
            state = {"ready": False}

            def waiter():
                yield from pt.pthread_mutex_lock(mutex)
                while not state["ready"]:
                    yield from pt.pthread_cond_wait(cond, mutex)
                yield from pt.pthread_mutex_unlock(mutex)

            def main():
                t = yield from pt.pthread_create(waiter)
                yield Compute(1_000_000)
                yield from pt.pthread_mutex_lock(mutex)
                state["ready"] = True
                yield from pt.pthread_cond_signal(cond)
                yield from pt.pthread_mutex_unlock(mutex)
                yield from pt.pthread_join(t)
                assert pt.calls_translated >= 7
            return main()

        run_program(build)

    def test_win32_threads_and_events(self):
        def build(api, nworkers):
            w32 = Win32API(api)
            done = w32.CreateEvent(manual_reset=True)

            def worker():
                yield Compute(10_000)
                yield from w32.SetEvent(done)

            def main():
                handle = yield from w32.CreateThread(worker)
                yield from w32.WaitForSingleObject(done)
                yield from w32.WaitForSingleObject(handle)
                w32.CloseHandle(handle)
                with pytest.raises(ShredLibError):
                    yield from w32.WaitForSingleObject(handle)
            return main()

        run_program(build)

    def test_win32_semaphore(self):
        def build(api, nworkers):
            w32 = Win32API(api)
            sem = w32.CreateSemaphore(0)

            def worker():
                yield Compute(5_000)
                yield from w32.ReleaseSemaphore(sem, 1)

            def main():
                handle = yield from w32.CreateThread(worker)
                yield from w32.WaitForSingleObject(sem)
                yield from w32.WaitForSingleObject(handle)
            return main()

        run_program(build)

    def test_tls_key_free(self):
        key = TlsKey("k")
        key.free()
        from repro.shredlib.shred import Shred
        with pytest.raises(ShredLibError):
            key.get(Shred(0, iter(()), "s"))
