"""Physical memory: frame allocator plus word-addressable storage.

Storage is sparse (one dict per written frame, keyed by word address)
because the mini-ISA programs touch few locations, while the
direct-execution workloads never read simulated memory contents at
all -- they only exercise the translation and paging machinery.
Frames are recycled through a LIFO free list so long multi-process
runs do not leak; the order matters, because frame numbers become
physical addresses and so choose cache sets.
"""

from __future__ import annotations

from repro.errors import MemoryError_
from repro.params import PAGE_SIZE


class PhysicalMemory:
    """A pool of page frames with optional word storage.

    Frame numbers are dense integers in ``[0, num_frames)``.  Word
    storage is 4-byte-granular and zero-initialized (demand-zero
    semantics, which is also what makes first touches *compulsory*
    page faults in the paper's sense).
    """

    WORD = 4

    def __init__(self, num_frames: int) -> None:
        if num_frames <= 0:
            raise MemoryError_("physical memory needs at least one frame")
        self.num_frames = num_frames
        self._next_fresh = 0
        self._free: list[int] = []
        #: frames handed out and not freed since
        self._allocated: set[int] = set()
        #: frame -> {word address: value}; freeing a frame drops its dict
        self._words: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Frame allocation
    # ------------------------------------------------------------------
    @property
    def frames_allocated(self) -> int:
        return len(self._allocated)

    @property
    def frames_free(self) -> int:
        return self.num_frames - self.frames_allocated

    def alloc_frame(self) -> int:
        """Allocate a zeroed frame; raises when physical memory is full."""
        if self._free:
            frame = self._free.pop()
        elif self._next_fresh < self.num_frames:
            frame = self._next_fresh
            self._next_fresh += 1
        else:
            raise MemoryError_(
                f"out of physical memory ({self.num_frames} frames in use)")
        self._allocated.add(frame)
        return frame

    def free_frame(self, frame: int) -> None:
        """Return a frame to the pool and clear its contents; raises
        for a frame that is not allocated (never, or freed already)."""
        if frame not in self._allocated:
            raise MemoryError_(f"freeing frame {frame}, which is not "
                               "allocated")
        self._allocated.remove(frame)
        self._words.pop(frame, None)
        self._free.append(frame)

    # ------------------------------------------------------------------
    # Word storage (used by the mini-ISA interpreter)
    # ------------------------------------------------------------------
    def read_word(self, paddr: int) -> int:
        """Read the 32-bit word at a physical address (zero default)."""
        self._check_paddr(paddr)
        words = self._words.get(paddr // PAGE_SIZE)
        return 0 if words is None else words.get(paddr & ~(self.WORD - 1), 0)

    def write_word(self, paddr: int, value: int) -> None:
        """Write a 32-bit word (wraps modulo 2**32)."""
        self._check_paddr(paddr)
        words = self._words.setdefault(paddr // PAGE_SIZE, {})
        words[paddr & ~(self.WORD - 1)] = value & 0xFFFFFFFF

    def _check_paddr(self, paddr: int) -> None:
        if not 0 <= paddr < self.num_frames * PAGE_SIZE:
            raise MemoryError_(f"physical address {paddr:#x} out of range")
