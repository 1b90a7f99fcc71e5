"""Tests for the memory hierarchy: the Cache/MemoryHierarchy models,
coherence between topologies, agreement with a line-at-a-time
reference model, machine integration (TLB + caches on the access and
fetch paths), and the RunSummary plumbing."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.summary import (
    MemorySummary, ProxySummary, RunSummary, UtilizationSummary,
    summarize_run,
)
from repro.mem.hierarchy import (
    Cache, MemoryHierarchy, private_l2_per_sequencer, shared_l2_global,
    shared_l2_per_processor,
)
from repro.params import DEFAULT_PARAMS, PAGE_SIZE
from repro.systems import Session

LINE = DEFAULT_PARAMS.cache_line_size


def make_hierarchy(domains, **param_changes):
    params = DEFAULT_PARAMS.with_changes(**param_changes)
    h = MemoryHierarchy(params)
    for seq_ids in domains:
        h.add_domain(seq_ids)
    return h


# ----------------------------------------------------------------------
# Cache model
# ----------------------------------------------------------------------
class TestCache:
    def test_hit_after_fill(self):
        cache = Cache("c", 1024, 2, 64)
        assert not cache.access(5)
        cache.fill(5)
        assert cache.access(5)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_within_set(self):
        cache = Cache("c", 2 * 64, 2, 64)   # one set, two ways
        assert cache.num_sets == 1
        cache.fill(1)
        cache.fill(2)
        cache.access(1)                      # 1 is now MRU
        evicted = cache.fill(3)
        assert evicted == 2                  # LRU way went
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_invalidate_counts_only_present_lines(self):
        cache = Cache("c", 1024, 2, 64)
        cache.fill(9)
        assert cache.invalidate(9) and not cache.invalidate(9)
        assert cache.invalidations == 1

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("c", 1024, 0, 64)


# ----------------------------------------------------------------------
# Hierarchy levels and coherence
# ----------------------------------------------------------------------
class TestHierarchy:
    def test_levels_charge_cumulatively(self):
        h = make_hierarchy([[0]])
        p = h.params
        cold = h.access(0, 0)
        warm = h.access(0, 0)
        assert cold == p.l1_hit_cost + p.l2_hit_cost + p.mem_cost
        assert warm == p.l1_hit_cost
        # evict from L1 only -> next access is an L2 hit
        l1 = h.l1(0)
        l1.invalidate(0)
        assert h.access(0, 0) == p.l1_hit_cost + p.l2_hit_cost

    def test_duplicate_sequencer_rejected(self):
        h = make_hierarchy([[0, 1]])
        with pytest.raises(ConfigurationError):
            h.add_domain([1])

    def test_unattached_sequencer_rejected(self):
        h = make_hierarchy([[0]])
        with pytest.raises(ConfigurationError):
            h.access(7, 0)

    def test_write_invalidates_other_l1s_shared_l2(self):
        h = make_hierarchy([[0, 1]])
        h.access(0, 0, write=True)
        h.access(1, 0, write=True)            # ping-pong
        assert h.l1(0).invalidations == 1
        assert h.l1(1).invalidations == 0
        # the line moved: seq 0 re-reads through the shared L2
        before = h.l2(0).hits
        h.access(0, 0)
        assert h.l2(0).hits == before + 1
        assert h.counters()["l2_invalidations"] == 0   # one L2: no peers

    def test_write_invalidates_private_l2s(self):
        h = make_hierarchy([[0], [1]])
        h.access(0, 0, write=True)
        h.access(1, 0, write=True)
        counters = h.counters()
        assert counters["l1_invalidations"] == 1
        assert counters["l2_invalidations"] == 1
        # with private L2s the ping-pong goes all the way to memory
        assert h.access(0, 0) == (h.params.l1_hit_cost
                                  + h.params.l2_hit_cost
                                  + h.params.mem_cost)

    def test_reads_share_without_invalidation(self):
        h = make_hierarchy([[0, 1, 2]])
        for seq in (0, 1, 2):
            h.access(seq, 0)
        assert h.counters()["l1_invalidations"] == 0
        assert all(0 in h.l1(seq) for seq in (0, 1, 2))

    def test_access_range_streams_lines(self):
        h = make_hierarchy([[0]])
        h.access_range(0, 0, PAGE_SIZE)
        expected = PAGE_SIZE // LINE
        assert h.l1(0).misses == expected
        assert h.mem_accesses == expected

    def test_access_range_single_line_equals_access(self):
        a = make_hierarchy([[0]])
        b = make_hierarchy([[0]])
        assert a.access_range(0, 130, 4) == b.access(0, 130)
        assert a.counters() == b.counters()

    def test_access_range_matches_scalar_walk_exactly(self):
        """The batched fast path is an exact refactor: identical
        counters, costs, and LRU state to the line-at-a-time walk,
        across random spans, writes, and cross-domain sharing."""
        domains = [[0, 1], [2]]
        geometry = dict(l1_size=4 * LINE, l1_assoc=2, l2_size=16 * LINE,
                        l2_assoc=4)
        batched = make_hierarchy(domains, **geometry)
        scalar = make_hierarchy(domains, **geometry)
        rng = random.Random(13)
        total_b = total_s = 0
        for _ in range(400):
            seq = rng.randrange(3)
            addr = rng.randrange(48 * LINE)
            span = rng.choice([1, 4, LINE, 3 * LINE, PAGE_SIZE // 4,
                               PAGE_SIZE])
            write = rng.random() < 0.4
            total_b += batched.access_range(seq, addr, span, write=write)
            first, last = addr // LINE, (addr + max(1, span) - 1) // LINE
            for line in range(first, last + 1):
                total_s += scalar.access(seq, line * LINE, write=write)
        assert total_b == total_s
        assert batched.counters() == scalar.counters()
        # per-cache state (including LRU order) is identical too
        for seq in (0, 1, 2):
            assert batched.l1(seq)._sets == scalar.l1(seq)._sets
        for lb, ls in zip(batched.l2s, scalar.l2s):
            assert lb._sets == ls._sets

    def test_access_range_write_invalidates_sharers_per_line(self):
        h = make_hierarchy([[0], [1]])
        h.access_range(0, 0, PAGE_SIZE)              # seq 0 reads a page
        h.access_range(1, 0, PAGE_SIZE, write=True)  # seq 1 writes it all
        lines = PAGE_SIZE // LINE
        assert h.l1(0).invalidations == lines
        assert h.l2(1).invalidations == 0
        assert h.counters()["l2_invalidations"] == lines

    def test_access_range_deterministic(self):
        def drive():
            h = make_hierarchy([[0, 1]], l1_size=4 * LINE,
                               l2_size=8 * LINE)
            rng = random.Random(99)
            costs = [h.access_range(rng.randrange(2),
                                    rng.randrange(32 * LINE),
                                    rng.choice([1, LINE, PAGE_SIZE]),
                                    write=rng.random() < 0.5)
                     for _ in range(300)]
            return costs, h.counters()
        assert drive() == drive()

    def test_code_segments_stable_and_disjoint(self):
        h = make_hierarchy([[0]])
        a = h.code_segment(key=1, num_words=10)
        b = h.code_segment(key=2, num_words=10)
        assert a == h.code_segment(key=1, num_words=10)
        assert a != b
        # above physical memory: code never aliases data frames
        assert a >= h.params.physical_frames * PAGE_SIZE

    def test_topology_factory_shapes(self):
        from repro.core.mp import build_machine
        misp = build_machine([3], hierarchy=shared_l2_per_processor)
        smp = build_machine([0, 0, 0, 0],
                            hierarchy=private_l2_per_sequencer)
        one = build_machine([3, 0], hierarchy=shared_l2_global)
        assert len(misp.hierarchy.l2s) == 1
        assert len(smp.hierarchy.l2s) == 4
        assert len(one.hierarchy.l2s) == 1


# ----------------------------------------------------------------------
# Reference model: line-at-a-time walk with a dict-of-holders directory
# ----------------------------------------------------------------------
class ReferenceHierarchy:
    """The hierarchy protocol spelled out one line and one method call
    at a time: ``Cache.access`` / ``fill`` / ``invalidate`` plus a
    directory mapping each line to the caches holding it (an
    insertion-ordered dict-as-set).  :class:`MemoryHierarchy` must
    agree with it on every cost, counter and LRU order."""

    def __init__(self, domains, params):
        self.params = params
        line = params.cache_line_size
        self.l1s = {}
        self.l2_of = {}
        self.l2s = []
        self.sharers = {}
        self.mem_accesses = 0
        for seq_ids in domains:
            l2 = Cache(f"L2#{len(self.l2s)}", params.l2_size,
                       params.l2_assoc, line)
            self.l2s.append(l2)
            for seq_id in seq_ids:
                self.l1s[seq_id] = Cache(f"L1#{seq_id}", params.l1_size,
                                         params.l1_assoc, line)
                self.l2_of[seq_id] = l2

    def access_range(self, seq_id, paddr, num_bytes, write=False):
        line_size = self.params.cache_line_size
        first = paddr // line_size
        last = (paddr + max(1, num_bytes) - 1) // line_size
        return sum(self.access_line(seq_id, line, write)
                   for line in range(first, last + 1))

    def access_line(self, seq_id, line, write=False):
        params = self.params
        l1, l2 = self.l1s[seq_id], self.l2_of[seq_id]
        cycles = params.l1_hit_cost
        if not l1.access(line):
            cycles += params.l2_hit_cost
            if not l2.access(line):
                cycles += params.mem_cost
                self.mem_accesses += 1
                self._install(l2, line)
            self._install(l1, line)
        if write:
            holders = self.sharers.get(line, {})
            for cache in [c for c in holders if c is not l1 and c is not l2]:
                cache.invalidate(line)
                del holders[cache]
        return cycles

    def _install(self, cache, line):
        evicted = cache.fill(line)
        if evicted is not None:
            holders = self.sharers.get(evicted)
            if holders is not None:
                holders.pop(cache, None)
                if not holders:
                    del self.sharers[evicted]
        self.sharers.setdefault(line, {})[cache] = None

    def counters(self):
        l1s = self.l1s.values()
        return {
            "l1_hits": sum(c.hits for c in l1s),
            "l1_misses": sum(c.misses for c in l1s),
            "l1_invalidations": sum(c.invalidations for c in l1s),
            "l2_hits": sum(c.hits for c in self.l2s),
            "l2_misses": sum(c.misses for c in self.l2s),
            "l2_invalidations": sum(c.invalidations for c in self.l2s),
            "mem_accesses": self.mem_accesses,
        }

    def cache_counters(self):
        return {c.name: {"hits": c.hits, "misses": c.misses,
                         "invalidations": c.invalidations,
                         "evictions": c.evictions}
                for c in list(self.l1s.values()) + self.l2s}


GEOMETRIES = [
    dict(l1_size=2 * LINE, l1_assoc=1, l2_size=8 * LINE, l2_assoc=2),
    dict(l1_size=4 * LINE, l1_assoc=2, l2_size=16 * LINE, l2_assoc=4),
    dict(cache_line_size=32, l1_size=16 * 32, l1_assoc=4,
         l2_size=64 * 32, l2_assoc=8),
    {},
]


@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
@pytest.mark.parametrize("factory", [shared_l2_per_processor,
                                     private_l2_per_sequencer,
                                     shared_l2_global])
def test_hierarchy_matches_reference_model(factory, geometry):
    """Seeded random streams of reads and writes, spans from one byte
    to a page, by six sequencers: every per-access cost, the level
    and per-cache counters (evictions and invalidations included) and
    the LRU order of every set equal the reference model's."""
    from repro.core.mp import build_machine
    params = DEFAULT_PARAMS.with_changes(**GEOMETRIES[geometry])
    hierarchy = build_machine([2, 1, 0], params=params,
                              hierarchy=factory).hierarchy
    reference = ReferenceHierarchy(hierarchy.domains(), params)
    seq_ids = sorted(reference.l1s)
    assert len(seq_ids) >= 3
    line = params.cache_line_size
    l2_sets = hierarchy.l2s[0].num_sets
    # a window a few L2s wide, plus a pool of lines that all map to
    # the same few sets, so every geometry also evicts
    window = 3 * hierarchy.l2s[0].capacity_lines
    conflicts = [s + k * l2_sets for s in range(3)
                 for k in range(3 * params.l2_assoc)]
    rng = random.Random(f"{factory.__name__}/{geometry}")
    got, want = [], []
    for _ in range(1500):
        seq = rng.choice(seq_ids)
        start = (rng.choice(conflicts) if rng.random() < 0.5
                 else rng.randrange(window))
        paddr = start * line + rng.randrange(line)
        span = rng.choice([1, 4, line, rng.randint(1, PAGE_SIZE)])
        write = rng.random() < 0.35
        if span == 1 and rng.random() < 0.5:
            got.append(hierarchy.access(seq, paddr, write=write))
        else:
            got.append(hierarchy.access_range(seq, paddr, span,
                                              write=write))
        want.append(reference.access_range(seq, paddr, span, write=write))
    assert got == want
    assert hierarchy.counters() == reference.counters()
    assert hierarchy.cache_counters() == reference.cache_counters()
    counters = reference.cache_counters()
    assert sum(c["evictions"] for c in counters.values()) > 0
    assert sum(c["invalidations"] for c in counters.values()) > 0
    for seq in seq_ids:
        assert hierarchy.l1(seq)._sets == reference.l1s[seq]._sets
    for mine, theirs in zip(hierarchy.l2s, reference.l2s, strict=True):
        assert mine._sets == theirs._sets


# ----------------------------------------------------------------------
# Property: per-level hits + misses == accesses that reached the level
# ----------------------------------------------------------------------
def test_level_populations_balance():
    h = make_hierarchy([[0, 1], [2]], l1_size=4 * LINE, l2_size=16 * LINE)
    rng = random.Random(7)
    per_seq = {0: 0, 1: 0, 2: 0}
    for _ in range(5000):
        seq = rng.randrange(3)
        addr = rng.randrange(64) * LINE
        h.access(seq, addr, write=rng.random() < 0.3)
        per_seq[seq] += 1
    counters = h.counters()
    for seq, count in per_seq.items():
        assert h.l1(seq).hits + h.l1(seq).misses == count
    assert counters["l1_hits"] + counters["l1_misses"] == 5000
    # every L1 miss is one L2 reference, every L2 miss one memory access
    assert (counters["l2_hits"] + counters["l2_misses"]
            == counters["l1_misses"])
    assert counters["mem_accesses"] == counters["l2_misses"]


# ----------------------------------------------------------------------
# Machine integration
# ----------------------------------------------------------------------
SCALE = 0.05


@pytest.fixture(scope="module")
def misp_summary():
    return summarize_run(Session("misp", "1x8").run("RayTracer",
                                                    scale=SCALE))


@pytest.fixture(scope="module")
def smp_summary():
    return summarize_run(Session("smp", "smp8").run("RayTracer",
                                                    scale=SCALE))


class TestMachineIntegration:
    def test_shared_vs_private_l2_observable(self, misp_summary,
                                             smp_summary):
        """The acceptance criterion: same workload, default params --
        MISP (shared L2) and SMP (private L2s) report different
        L1-invalidation and L2-hit counts."""
        misp, smp = misp_summary.mem, smp_summary.mem
        assert misp.accesses > 1000 and smp.accesses > 1000
        assert misp.l2_hits != smp.l2_hits
        assert misp.l1_invalidations != smp.l1_invalidations
        # the qualitative shape: MISP's lock/data ping-pong refills
        # from the shared L2; SMP's goes through cross-L2
        # invalidations to memory
        assert misp.l2_hits > 100 and smp.l2_hits < misp.l2_hits // 10
        assert misp.l2_invalidations == 0
        assert smp.l2_invalidations > 100
        assert smp.mem_accesses > misp.mem_accesses

    def test_tlb_counters_surfaced(self, misp_summary):
        mem = misp_summary.mem
        assert mem.tlb_hits > 0 and mem.tlb_misses > 0
        assert mem.tlb_flushes >= 1    # CR3 write at switch-in

    def test_determinism(self):
        a = summarize_run(Session("misp", "1x4").run("gauss", scale=SCALE))
        b = summarize_run(Session("misp", "1x4").run("gauss", scale=SCALE))
        assert a.to_dict() == b.to_dict()

    def test_asm_fetch_and_data_go_through_hierarchy(self):
        from repro.core import build_machine
        from repro.isa import AsmStream, assemble
        params = DEFAULT_PARAMS.with_changes(timer_quantum=10**12,
                                             device_interrupt_period=0)
        machine = build_machine([1], params=params)
        proc = machine.spawn_process("asm")
        space = proc.address_space
        space._next_vpn = 0x100000 // PAGE_SIZE
        space.reserve("data", 2)
        program = assemble("""
            li r0, 0x100000
            li r1, 7
            st r1, r0, 0
            ld r2, r0, 0
            halt
        """)
        stream = AsmStream(program, proc, params, label="m")
        machine.spawn_thread(proc, "m", stream, pinned_cpu=0)
        machine.run_to_completion(limit=10**10)
        assert stream.regs[2] == 7
        counters = machine.hierarchy.counters()
        # at least one fetch per retired instruction, plus the data ops
        assert (counters["l1_hits"] + counters["l1_misses"]
                >= stream.instructions_retired + 2)
        oms = machine.processors[0].oms
        assert oms.tlb.hits + oms.tlb.misses > 0


# ----------------------------------------------------------------------
# RunSummary plumbing
# ----------------------------------------------------------------------
class TestSummaryPlumbing:
    def test_defaults_not_shared_between_instances(self):
        """Regression: proxy/utilization/mem used to be single shared
        default instances across every RunSummary."""
        a = RunSummary("w1", "misp", "1x8", 1)
        b = RunSummary("w2", "misp", "1x8", 2)
        assert a.proxy is not b.proxy
        assert a.utilization is not b.utilization
        assert a.mem is not b.mem
        assert isinstance(a.proxy, ProxySummary)
        assert isinstance(a.utilization, UtilizationSummary)
        assert isinstance(a.mem, MemorySummary)

    def test_mem_round_trips_through_dict(self, misp_summary):
        clone = RunSummary.from_dict(misp_summary.to_dict())
        assert clone.mem == misp_summary.mem
        assert clone == misp_summary

    def test_from_dict_tolerates_missing_mem(self):
        data = RunSummary("w", "misp", "1x8", 1).to_dict()
        del data["mem"]
        assert RunSummary.from_dict(data).mem == MemorySummary()

    def test_hit_rates(self):
        mem = MemorySummary(l1_hits=3, l1_misses=1, l2_hits=1, l2_misses=0)
        assert mem.accesses == 4
        assert mem.l1_hit_rate == pytest.approx(0.75)
        assert mem.l2_hit_rate == pytest.approx(1.0)
        assert MemorySummary().l1_hit_rate == 0.0
