"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.overhead import (
    SignalSensitivity, proxy_egress_cost, proxy_ingress_cost,
    serialize_cost,
)
from repro.mem import TLB, AddressSpace, PhysicalMemory
from repro.params import DEFAULT_PARAMS
from repro.shredlib.runtime import QueuePolicy, ShredRuntime
from repro.sim.engine import Engine
from repro.workloads.common import chunk_ranges, jittered


# ----------------------------------------------------------------------
# Engine: events run in nondecreasing time order, all exactly once
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=200))
def test_engine_time_ordering(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append((engine.now, d)))
    engine.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    assert all(t == d for t, d in fired)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=100),
       st.integers(min_value=0, max_value=1000))
def test_engine_run_until_partition(delays, split):
    """Running to T then to completion fires every event exactly once."""
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, fired.append, delay)
    engine.run(until=split)
    assert all(d <= split for d in fired)
    assert engine.events_executed == len(fired)
    assert engine.events_executed + engine.pending() \
        == engine.events_scheduled
    engine.run()
    assert sorted(fired) == sorted(delays)
    assert engine.events_executed == len(fired)
    assert engine.events_executed + engine.pending() \
        == engine.events_scheduled


# ----------------------------------------------------------------------
# TLB behaves like a size-bounded cache of the reference mapping
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=16),
       st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                max_size=300))
def test_tlb_never_lies(capacity, operations):
    tlb = TLB(capacity)
    reference = {}
    for vpn, is_insert in operations:
        if is_insert:
            tlb.insert(vpn, vpn * 7)
            reference[vpn] = vpn * 7
        else:
            cached = tlb.lookup(vpn)
            if cached is not None:
                assert cached == reference[vpn]   # never stale/wrong
        assert len(tlb) <= capacity


# ----------------------------------------------------------------------
# Demand paging: each page faults exactly once; frames never leak
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=19), min_size=1,
                max_size=200))
def test_demand_paging_compulsory_once(touches):
    space = AddressSpace(PhysicalMemory(64))
    region = space.reserve("d", 20)
    for page in touches:
        vpn = region.vpn(page)
        if not space.is_resident(vpn):
            space.handle_fault(vpn)
    assert space.faults_serviced == len(set(touches))
    assert space.physical.frames_allocated == len(set(touches))
    space.release()
    assert space.physical.frames_allocated == 0


# ----------------------------------------------------------------------
# Overhead equations: monotone and exactly linear in signal
# ----------------------------------------------------------------------
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_equations_structure(signal, priv, signal2):
    assert serialize_cost(signal, priv) == 2 * signal + priv
    assert proxy_egress_cost(signal) == 3 * signal
    assert (proxy_ingress_cost(signal, priv)
            == signal + serialize_cost(signal, priv))
    # monotonicity in signal
    lo, hi = sorted((signal, signal2))
    assert serialize_cost(lo, priv) <= serialize_cost(hi, priv)


@given(st.integers(0, 10**5), st.integers(0, 10**5),
       st.integers(1, 10**9), st.integers(0, 10**4))
def test_sensitivity_linear(oms_events, ams_events, ideal, signal):
    model = SignalSensitivity(oms_events, ams_events, ideal)
    assert model.added_cycles(2 * signal) == 2 * model.added_cycles(signal)
    assert model.overhead_fraction(signal) >= 0.0


# ----------------------------------------------------------------------
# Work partitioning helpers
# ----------------------------------------------------------------------
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_chunk_ranges_partition(total, parts):
    ranges = chunk_ranges(total, parts)
    assert len(ranges) == parts
    assert sum(count for _, count in ranges) == total
    # contiguity and order
    position = 0
    for start, count in ranges:
        assert start == position
        position += count
    # balance: sizes differ by at most one
    sizes = [count for _, count in ranges]
    assert max(sizes) - min(sizes) <= 1


@given(st.integers(1, 10**9), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_jittered_positive(amount, cv, seed):
    import random
    value = jittered(amount, cv, random.Random(seed))
    assert value >= 1


# ----------------------------------------------------------------------
# Work queue: policies preserve the eligible set
# ----------------------------------------------------------------------
@given(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=1, max_size=50),
       st.sampled_from([QueuePolicy.FIFO, QueuePolicy.LIFO]),
       st.integers(0, 2))
def test_pop_respects_affinity_and_conserves(affinities, policy, worker):
    rt = ShredRuntime(DEFAULT_PARAMS, policy=policy)
    shreds = []
    for i, affinity in enumerate(affinities):
        shred = rt.new_shred(iter(()), f"s{i}")
        shred.affinity = affinity
        rt.push(shred)
        shreds.append(shred)
    popped = []
    while True:
        shred = rt.pop(worker)
        if shred is None:
            break
        popped.append(shred)
    # every popped shred was eligible for this worker
    assert all(s.affinity in (None, worker) for s in popped)
    # everything eligible was popped; the rest remains queued
    eligible = [s for s in shreds if s.affinity in (None, worker)]
    assert set(popped) == set(eligible)
    assert len(rt.queue) == len(shreds) - len(popped)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
def test_fifo_pop_order(ids):
    rt = ShredRuntime(DEFAULT_PARAMS)
    shreds = [rt.new_shred(iter(()), str(i)) for i in ids]
    for shred in shreds:
        rt.push(shred)
    out = []
    while (s := rt.pop()) is not None:
        out.append(s)
    assert out == shreds
