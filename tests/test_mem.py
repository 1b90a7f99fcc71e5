"""Unit tests for the memory substrate (physical, page table, TLB,
address spaces, demand paging)."""

import pytest

from repro.errors import MemoryError_
from repro.mem import (
    TLB, AddressSpace, PageTable, PhysicalMemory, page_offset, vpn_of,
)
from repro.params import PAGE_SIZE


# ----------------------------------------------------------------------
# PhysicalMemory
# ----------------------------------------------------------------------
class TestPhysicalMemory:
    def test_alloc_distinct_frames(self):
        mem = PhysicalMemory(8)
        frames = {mem.alloc_frame() for _ in range(8)}
        assert len(frames) == 8
        assert mem.frames_free == 0

    def test_out_of_memory(self):
        mem = PhysicalMemory(2)
        mem.alloc_frame()
        mem.alloc_frame()
        with pytest.raises(MemoryError_):
            mem.alloc_frame()

    def test_free_recycles(self):
        mem = PhysicalMemory(1)
        frame = mem.alloc_frame()
        mem.free_frame(frame)
        assert mem.alloc_frame() == frame

    def test_free_unallocated_rejected(self):
        mem = PhysicalMemory(4)
        with pytest.raises(MemoryError_):
            mem.free_frame(3)

    def test_double_free_rejected(self):
        """A frame freed twice must not sit on the free list twice,
        where the next two allocations would both receive it."""
        mem = PhysicalMemory(4)
        frame = mem.alloc_frame()
        mem.free_frame(frame)
        with pytest.raises(MemoryError_):
            mem.free_frame(frame)
        assert mem.alloc_frame() == frame
        assert mem.alloc_frame() != frame
        assert mem.frames_allocated == 2

    def test_free_list_is_lifo(self):
        """Frame numbers become physical addresses, which choose cache
        sets: the last frame freed is the next one handed out."""
        mem = PhysicalMemory(4)
        a, b, c = (mem.alloc_frame() for _ in range(3))
        mem.free_frame(a)
        mem.free_frame(c)
        assert [mem.alloc_frame() for _ in range(3)] == [c, a, 3]
        assert mem.frames_free == 0

    def test_words_default_zero(self):
        mem = PhysicalMemory(2)
        assert mem.read_word(0) == 0

    def test_word_roundtrip(self):
        mem = PhysicalMemory(2)
        mem.write_word(128, 0xDEADBEEF)
        assert mem.read_word(128) == 0xDEADBEEF

    def test_word_wraps_32bit(self):
        mem = PhysicalMemory(2)
        mem.write_word(0, 2**32 + 5)
        assert mem.read_word(0) == 5

    def test_word_alignment_shares_storage(self):
        mem = PhysicalMemory(2)
        mem.write_word(100, 7)
        assert mem.read_word(102) == 7  # same word

    def test_free_clears_contents(self):
        mem = PhysicalMemory(2)
        frame = mem.alloc_frame()
        mem.write_word(frame * PAGE_SIZE + 8, 99)
        mem.free_frame(frame)
        again = mem.alloc_frame()
        assert mem.read_word(again * PAGE_SIZE + 8) == 0

    def test_out_of_range_address(self):
        mem = PhysicalMemory(1)
        with pytest.raises(MemoryError_):
            mem.read_word(PAGE_SIZE)

    def test_needs_at_least_one_frame(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(0)


# ----------------------------------------------------------------------
# Address helpers and PageTable
# ----------------------------------------------------------------------
class TestPageTable:
    def test_vpn_and_offset(self):
        vaddr = 5 * PAGE_SIZE + 123
        assert vpn_of(vaddr) == 5
        assert page_offset(vaddr) == 123

    def test_vpn_out_of_range(self):
        with pytest.raises(MemoryError_):
            vpn_of(1 << 32)

    def test_map_and_lookup(self):
        table = PageTable()
        table.map(7, frame=3)
        assert table.lookup(7).frame == 3
        assert table.lookup(8) is None
        assert 7 in table and len(table) == 1

    def test_double_map_rejected(self):
        table = PageTable()
        table.map(7, frame=3)
        with pytest.raises(MemoryError_):
            table.map(7, frame=4)

    def test_unmap(self):
        table = PageTable()
        table.map(7, frame=3)
        assert table.unmap(7).frame == 3
        assert table.lookup(7) is None
        with pytest.raises(MemoryError_):
            table.unmap(7)

    def test_protect(self):
        table = PageTable()
        table.map(1, frame=0)
        table.protect(1, writable=False)
        assert not table.lookup(1).writable

    def test_distinct_bases(self):
        assert PageTable().base != PageTable().base


# ----------------------------------------------------------------------
# TLB
# ----------------------------------------------------------------------
class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(4)
        assert tlb.lookup(1) is None
        tlb.insert(1, 10)
        assert tlb.lookup(1) == 10
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(2)
        tlb.insert(1, 10)
        tlb.insert(2, 20)
        tlb.lookup(1)           # 1 is now MRU
        tlb.insert(3, 30)       # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_reinsert_updates(self):
        tlb = TLB(2)
        tlb.insert(1, 10)
        tlb.insert(1, 11)
        assert tlb.lookup(1) == 11
        assert len(tlb) == 1

    def test_flush(self):
        tlb = TLB(4)
        tlb.insert(1, 10)
        tlb.flush()
        assert len(tlb) == 0 and tlb.flushes == 1

    def test_invalidate_single(self):
        tlb = TLB(4)
        tlb.insert(1, 10)
        tlb.insert(2, 20)
        assert tlb.invalidate(1) is True
        assert tlb.invalidate(1) is False
        assert 2 in tlb

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            TLB(0)


# ----------------------------------------------------------------------
# AddressSpace and demand paging
# ----------------------------------------------------------------------
class TestAddressSpace:
    def make(self, frames=64):
        return AddressSpace(PhysicalMemory(frames), name="test")

    def test_reserve_disjoint_regions(self):
        space = self.make()
        a = space.reserve("a", 4)
        b = space.reserve("b", 4)
        pages_a = {a.vpn(i) for i in range(4)}
        pages_b = {b.vpn(i) for i in range(4)}
        assert not pages_a & pages_b

    def test_duplicate_region_name(self):
        space = self.make()
        space.reserve("a", 1)
        with pytest.raises(MemoryError_):
            space.reserve("a", 1)

    def test_region_lookup(self):
        space = self.make()
        region = space.reserve("data", 2)
        assert space.region("data") is region
        with pytest.raises(MemoryError_):
            space.region("nope")

    def test_region_bounds_checked(self):
        space = self.make()
        region = space.reserve("data", 2)
        with pytest.raises(MemoryError_):
            region.vpn(2)
        with pytest.raises(MemoryError_):
            region.vaddr(region.size_bytes)

    def test_demand_zero_fault(self):
        space = self.make()
        region = space.reserve("data", 2)
        vpn = region.vpn(0)
        assert not space.is_resident(vpn)
        assert space.translate(region.base_vaddr) is None
        space.handle_fault(vpn)
        assert space.is_resident(vpn)
        assert space.translate(region.base_vaddr) is not None
        assert space.faults_serviced == 1

    def test_spurious_fault_rejected(self):
        space = self.make()
        region = space.reserve("data", 1)
        space.handle_fault(region.vpn(0))
        with pytest.raises(MemoryError_):
            space.handle_fault(region.vpn(0))

    def test_wild_access_rejected(self):
        space = self.make()
        with pytest.raises(MemoryError_):
            space.handle_fault(0)   # page 0 is in no region

    def test_release_returns_frames(self):
        physical = PhysicalMemory(8)
        space = AddressSpace(physical)
        region = space.reserve("data", 4)
        for i in range(4):
            space.handle_fault(region.vpn(i))
        assert physical.frames_allocated == 4
        space.release()
        assert physical.frames_allocated == 0
        assert space.resident_pages() == 0

    def test_translate_offset(self):
        space = self.make()
        region = space.reserve("data", 1)
        pte = space.handle_fault(region.vpn(0))
        paddr = space.translate(region.base_vaddr + 100)
        assert paddr == pte.frame * PAGE_SIZE + 100

    def test_region_needs_pages(self):
        space = self.make()
        with pytest.raises(MemoryError_):
            space.reserve("empty", 0)
