"""The shared memory hierarchy: per-sequencer L1s, L2 domains, coherence.

The paper's cost argument for MISP (Section 2.1) is that sequencers
are cheap precisely because they *share* one processor's memory
hierarchy, where SMP worker threads pay coherence traffic across
private caches.  This module makes that difference measurable:

* :class:`Cache` -- an LRU set-associative cache model (hit/miss/
  invalidation/eviction counters, no data storage; the simulator's
  word store stays in :class:`~repro.mem.physical.PhysicalMemory`);
* :class:`MemoryHierarchy` -- the per-machine composition: one
  private L1 per sequencer, L2 *domains* (each domain one L2 shared
  by a set of sequencers), and a flat memory level behind them, with
  a directory-based invalidate-on-write protocol between caches;
* topology factories -- :func:`shared_l2_per_processor` (the MISP
  shape: every sequencer of a processor behind one L2),
  :func:`private_l2_per_sequencer` (the SMP shape: every core its own
  L2), and :func:`shared_l2_global` (one L2 for the whole machine).

System backends declare their topology in ``build_machine`` (see
:mod:`repro.systems.backends`), so ``misp`` runs shreds behind one
shared L2 while ``smp`` gives every core a private one -- under the
same coherence protocol, which is what makes sharing-vs-coherence an
observable difference between backends rather than an assumption.

Addresses are *physical*: the machine translates through the touching
sequencer's TLB first (``Machine._classify_access``) and then charges
the hierarchy.  Instruction fetches use synthetic physical addresses
above the frame store, handed out per program image by
:meth:`MemoryHierarchy.code_segment`.

This is the simulator's hottest code.  Every word access touches one
line -- above all the atomic RMWs on ShredLib's work-queue lock and
sync objects, which ping-pong between sequencers -- and so does every
instruction fetch; a page ``Touch`` streams 64 lines, and a replay at
a new cache geometry re-drives a whole run's access stream.  Two
walkers serve them: :meth:`MemoryHierarchy.access_line` is the whole
protocol for one line (read or write; L1 hit, L2 hit, or memory fill
with evictions; write-invalidation of every other holder), and
``_walk`` runs the same steps over a multi-line range, batching its
counters in locals and charging the span from per-level hit counts.
Each sequencer has a precomputed *port* into the hierarchy (its L1,
its L2 and their directory bits), so an access starts with one dict
lookup.  Cache sets are flat Python lists (LRU at index 0, MRU last)
-- membership, promotion, and eviction on a 4/8-entry list are single
C-level list operations.  The coherence directory maps each cached
line to one ``int``: a bitmask of the caches holding it, one bit per
cache.  Both walkers match a line-at-a-time reference model with a
dict-of-holders directory in every cost, counter and LRU order, on
seeded and on generated streams (``tests/test_hierarchy.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.params import PAGE_SIZE, MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.processor import MISPProcessor

#: a topology factory: (processors, params) -> MemoryHierarchy
HierarchyFactory = Callable[[Sequence["MISPProcessor"], MachineParams],
                            "MemoryHierarchy"]


class Cache:
    """An LRU set-associative cache (tags only, no data).

    Lines are identified by *line number* (``paddr // line_size``);
    the hierarchy does the division once per access.  ``access`` does
    not allocate; ``fill`` installs a line.  A :class:`MemoryHierarchy`
    works on ``_sets`` directly instead, so that its directory masks
    change in the same step as the sets.

    Sets are flat lists ordered LRU-first: exact LRU, array-backed.
    """

    __slots__ = ("name", "assoc", "num_sets", "_sets", "bit",
                 "hits", "misses", "invalidations", "evictions")

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_size: int, bit: int = 0) -> None:
        if assoc <= 0:
            raise ConfigurationError(f"{name}: associativity must be >= 1")
        if line_size <= 0:
            raise ConfigurationError(f"{name}: line size must be >= 1")
        lines = max(assoc, size_bytes // line_size)
        self.name = name
        self.assoc = assoc
        self.num_sets = max(1, lines // assoc)
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        #: this cache's bit in its hierarchy's directory masks
        self.bit = bit
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def access(self, line: int) -> bool:
        """Look a line up, updating LRU order; True on a hit."""
        entries = self._sets[line % self.num_sets]
        if line in entries:
            if entries[-1] != line:
                entries.remove(line)
                entries.append(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> Optional[int]:
        """Install a line, returning the evicted line number (if any)."""
        entries = self._sets[line % self.num_sets]
        if line in entries:
            if entries[-1] != line:
                entries.remove(line)
                entries.append(line)
            return None
        evicted = None
        if len(entries) >= self.assoc:
            evicted = entries.pop(0)
            self.evictions += 1
        entries.append(line)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop a line (coherence); True if it was present."""
        entries = self._sets[line % self.num_sets]
        if line not in entries:
            return False
        entries.remove(line)
        self.invalidations += 1
        return True

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cache {self.name} {self.num_sets}x{self.assoc} "
                f"h={self.hits} m={self.misses}>")


def _unattached(seq_id: int) -> ConfigurationError:
    return ConfigurationError(
        f"sequencer {seq_id} is attached to no hierarchy domain")


class MemoryHierarchy:
    """Per-machine cache composition with invalidate-on-write coherence.

    Built from *domains*: ``add_domain(seq_ids)`` creates one L2 and a
    private L1 for each sequencer in the domain.  An access walks
    L1 -> domain L2 -> memory, charging
    ``l1_hit_cost`` / ``l2_hit_cost`` / ``mem_cost`` cumulatively, and
    a write invalidates every *other* cache holding the line (a
    directory keeps writes O(sharers), not O(caches)).
    """

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.line_size = params.cache_line_size
        #: seq_id -> its port into the hierarchy, in attach order:
        #: ``(L1, L2, L1 bit, own bits, ~own bits)``, where the own
        #: bits are its L1's and its L2's directory bits
        self._ports: dict[int, tuple[Cache, Cache, int, int, int]] = {}
        self.l2s: list[Cache] = []
        #: every cache, indexed by the position of its directory bit
        self._caches: list[Cache] = []
        #: coherence directory: line -> bitmask of the caches holding
        #: it.  A mask may keep the bit of a cache whose copy was
        #: dropped through ``Cache.invalidate`` directly, never lacks
        #: the bit of a cache that holds the line.
        self._holders: dict[int, int] = {}
        #: accesses that went all the way to the flat memory level
        self.mem_accesses = 0
        #: what one line costs when it hits the L1, hits the L2, or
        #: comes from memory (the levels charge cumulatively)
        self._l1_hit = params.l1_hit_cost
        self._l2_hit = self._l1_hit + params.l2_hit_cost
        self._mem_fill = self._l2_hit + params.mem_cost
        # synthetic code-segment allocator (instruction fetch): bases
        # start above the physical frame store so code never aliases
        # data frames
        self._code_bases: dict[int, int] = {}
        self._next_code_addr = params.physical_frames * PAGE_SIZE

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _new_cache(self, name: str, size_bytes: int, assoc: int) -> Cache:
        cache = Cache(name, size_bytes, assoc, self.line_size,
                      bit=1 << len(self._caches))
        self._caches.append(cache)
        return cache

    def add_domain(self, seq_ids: Iterable[int]) -> Cache:
        """Create one L2 shared by ``seq_ids`` (plus their private L1s)."""
        params = self.params
        l2 = self._new_cache(f"L2#{len(self.l2s)}", params.l2_size,
                             params.l2_assoc)
        self.l2s.append(l2)
        for seq_id in seq_ids:
            if seq_id in self._ports:
                raise ConfigurationError(
                    f"sequencer {seq_id} already attached to a hierarchy "
                    "domain")
            l1 = self._new_cache(f"L1#{seq_id}", params.l1_size,
                                 params.l1_assoc)
            own = l1.bit | l2.bit
            self._ports[seq_id] = (l1, l2, l1.bit, own, ~own)
        return l2

    def domains(self) -> tuple[tuple[int, ...], ...]:
        """Topology as plain data: one tuple of seq_ids per L2 domain.

        Feeds :class:`repro.sim.captrace.ReplayMachine`, which rebuilds
        an identical hierarchy under new parameters.
        """
        return tuple(
            tuple(seq_id for seq_id, port in self._ports.items()
                  if port[1] is l2)
            for l2 in self.l2s)

    def _port(self, seq_id: int) -> tuple[Cache, Cache, int, int, int]:
        try:
            return self._ports[seq_id]
        except KeyError:
            raise _unattached(seq_id) from None

    def l1(self, seq_id: int) -> Cache:
        return self._port(seq_id)[0]

    def l2(self, seq_id: int) -> Cache:
        return self._port(seq_id)[1]

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def access(self, seq_id: int, paddr: int, write: bool = False) -> int:
        """One memory access by ``seq_id``; returns the cycles to charge."""
        return self.access_line(seq_id, paddr // self.line_size, write)

    def access_line(self, seq_id: int, line: int, write: bool = False) -> int:
        """One access by pre-computed line number: the whole protocol
        for one line, and the hot path of every word access.

        Probe the L1, then the domain L2; on a miss, fill the missing
        levels, evicting their LRU lines; on a write, invalidate the
        line in every other cache holding it.  The directory mask
        changes in the same step as the sets, and every counter is
        current when this returns.
        """
        try:
            l1, l2, l1_bit, own, not_own = self._ports[seq_id]
        except KeyError:
            raise _unattached(seq_id) from None
        entries = l1._sets[line % l1.num_sets]
        if line in entries:
            # an L1 hit: the read that ends here is an instruction
            # fetch's common case, a write a lock RMW's
            if entries[-1] != line:
                entries.remove(line)
                entries.append(line)
            l1.hits += 1
            if not write:
                return self._l1_hit
            cost = self._l1_hit
            mask = self._holders[line]
        else:
            l1.misses += 1
            holders = self._holders
            shared = l2._sets[line % l2.num_sets]
            if line in shared:
                if shared[-1] != line:
                    shared.remove(line)
                    shared.append(line)
                l2.hits += 1
                cost = self._l2_hit
                mask = holders[line] | l1_bit
            else:
                l2.misses += 1
                self.mem_accesses += 1
                if len(shared) >= l2.assoc:
                    victim = shared.pop(0)
                    l2.evictions += 1
                    left = holders[victim] & ~l2.bit
                    if left:
                        holders[victim] = left
                    else:
                        del holders[victim]
                shared.append(line)
                cost = self._mem_fill
                mask = holders.get(line, 0) | own
            if len(entries) >= l1.assoc:
                victim = entries.pop(0)
                l1.evictions += 1
                left = holders[victim] & ~l1_bit
                if left:
                    holders[victim] = left
                else:
                    del holders[victim]
            entries.append(line)
            holders[line] = mask
            if not write:
                return cost
        others = mask & not_own
        if others:
            self._invalidate(line, others)
            self._holders[line] = mask & own
        return cost

    def access_range(self, seq_id: int, paddr: int, num_bytes: int,
                     write: bool = False) -> int:
        """Stream ``num_bytes`` from ``paddr`` as a batch of lines.

        This is what a page :class:`~repro.exec.ops.Touch` charges:
        the loop body referencing every line of the page, so cache
        capacity, reuse, and the miss penalty all scale with the data
        actually moved rather than with page count.  The line range is
        computed once (one division per call, not per line); a range
        of one line takes :meth:`access_line`.
        """
        line_size = self.line_size
        first = paddr // line_size
        last = (paddr + max(1, num_bytes) - 1) // line_size
        if first == last:
            return self.access_line(seq_id, first, write)
        return self._walk(seq_id, first, last, write)

    def _walk(self, seq_id: int, first: int, last: int, write: bool) -> int:
        """Lines ``first..last`` by ``seq_id``, in order: the protocol
        of :meth:`access_line` over a range.

        The per-line steps are the same; the counters are batched in
        locals and added once, and the cycle charge is assembled from
        the per-level hit counts.
        """
        l1, l2, l1_bit, own, not_own = self._port(seq_id)
        l1_sets, l1_num_sets, l1_assoc = l1._sets, l1.num_sets, l1.assoc
        l2_sets, l2_num_sets, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        not_l1, not_l2 = ~l1_bit, ~l2.bit
        holders = self._holders
        n_l1_hits = 0
        n_l2_hits = 0
        n_mem = 0
        l1_evictions = 0
        l2_evictions = 0
        for line in range(first, last + 1):
            entries = l1_sets[line % l1_num_sets]
            if line in entries:
                if entries[-1] != line:
                    entries.remove(line)
                    entries.append(line)
                n_l1_hits += 1
                if not write:
                    continue
                mask = holders[line]
            else:
                shared = l2_sets[line % l2_num_sets]
                if line in shared:
                    if shared[-1] != line:
                        shared.remove(line)
                        shared.append(line)
                    n_l2_hits += 1
                    mask = holders[line] | l1_bit
                else:
                    n_mem += 1
                    if len(shared) >= l2_assoc:
                        victim = shared.pop(0)
                        l2_evictions += 1
                        left = holders[victim] & not_l2
                        if left:
                            holders[victim] = left
                        else:
                            del holders[victim]
                    shared.append(line)
                    mask = holders.get(line, 0) | own
                if len(entries) >= l1_assoc:
                    victim = entries.pop(0)
                    l1_evictions += 1
                    left = holders[victim] & not_l1
                    if left:
                        holders[victim] = left
                    else:
                        del holders[victim]
                entries.append(line)
                holders[line] = mask
                if not write:
                    continue
            others = mask & not_own
            if others:
                self._invalidate(line, others)
                holders[line] = mask & own
        n_l1_misses = last - first + 1 - n_l1_hits
        l1.hits += n_l1_hits
        l1.misses += n_l1_misses
        l1.evictions += l1_evictions
        l2.hits += n_l2_hits
        l2.misses += n_mem
        l2.evictions += l2_evictions
        self.mem_accesses += n_mem
        return (n_l1_hits * self._l1_hit + n_l2_hits * self._l2_hit
                + n_mem * self._mem_fill)

    def _invalidate(self, line: int, others: int) -> None:
        """Invalidate-on-write: purge ``line`` from every cache whose
        directory bit is set in ``others``."""
        caches = self._caches
        while others:
            bit = others & -others
            others ^= bit
            cache = caches[bit.bit_length() - 1]
            entries = cache._sets[line % cache.num_sets]
            if line in entries:
                entries.remove(line)
                cache.invalidations += 1

    # ------------------------------------------------------------------
    # Instruction fetch (synthetic code segments)
    # ------------------------------------------------------------------
    def code_segment(self, key: int, num_words: int) -> int:
        """Base physical address for a program image, stable per key."""
        base = self._code_bases.get(key)
        if base is None:
            base = self._next_code_addr
            self._code_bases[key] = base
            size = max(1, num_words) * 4
            pages = -(-size // PAGE_SIZE)  # ceil
            self._next_code_addr += pages * PAGE_SIZE
        return base

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Aggregate per-level totals (the RunSummary view)."""
        l1s = [port[0] for port in self._ports.values()]
        return {
            "l1_hits": sum(c.hits for c in l1s),
            "l1_misses": sum(c.misses for c in l1s),
            "l1_invalidations": sum(c.invalidations for c in l1s),
            "l2_hits": sum(c.hits for c in self.l2s),
            "l2_misses": sum(c.misses for c in self.l2s),
            "l2_invalidations": sum(c.invalidations for c in self.l2s),
            "mem_accesses": self.mem_accesses,
        }

    def cache_counters(self) -> dict[str, dict[str, int]]:
        """Per-cache counters keyed by cache name (the metrics view).

        L1 names carry their sequencer id (``L1#<seq_id>``), L2s their
        creation index, so an observed run can attribute traffic to
        individual caches, not just levels.
        """
        out: dict[str, dict[str, int]] = {}
        l1s = [port[0] for port in self._ports.values()]
        for cache in l1s + self.l2s:
            out[cache.name] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidations": cache.invalidations,
                "evictions": cache.evictions,
            }
        return out

    def describe(self) -> str:
        """Topology string, e.g. ``"L1x8 / L2x1 (8 shared)"``."""
        sharing = {}
        for l2 in self.l2s:
            n = sum(1 for port in self._ports.values() if port[1] is l2)
            sharing[n] = sharing.get(n, 0) + 1
        shape = "+".join(f"{count}x{n}-way" if n > 1 else f"{count}private"
                         for n, count in sorted(sharing.items()))
        return f"L1x{len(self._ports)} / L2x{len(self.l2s)} ({shape})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryHierarchy {self.describe()}>"


# ----------------------------------------------------------------------
# Topology factories (what system backends declare in build_machine)
# ----------------------------------------------------------------------
def shared_l2_per_processor(processors: Sequence["MISPProcessor"],
                            params: MachineParams) -> MemoryHierarchy:
    """The MISP shape: all sequencers of a processor share one L2.

    A plain CPU (zero AMSs) degenerates to a private L2, so this is
    also coherent-by-construction for mixed ``1x4+4`` partitions.
    """
    hierarchy = MemoryHierarchy(params)
    for proc in processors:
        hierarchy.add_domain(s.seq_id for s in proc.sequencers())
    return hierarchy


def private_l2_per_sequencer(processors: Sequence["MISPProcessor"],
                             params: MachineParams) -> MemoryHierarchy:
    """The SMP shape: every sequencer its own L2 (coherence pays for
    sharing instead)."""
    hierarchy = MemoryHierarchy(params)
    for proc in processors:
        for seq in proc.sequencers():
            hierarchy.add_domain([seq.seq_id])
    return hierarchy


def shared_l2_global(processors: Sequence["MISPProcessor"],
                     params: MachineParams) -> MemoryHierarchy:
    """One machine-wide L2 behind every sequencer (an idealized what-if)."""
    hierarchy = MemoryHierarchy(params)
    hierarchy.add_domain(s.seq_id for p in processors
                         for s in p.sequencers())
    return hierarchy
