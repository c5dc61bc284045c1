"""Data watchpoint unit: four comparator groups behind an MMIO window.

Each group is three registers, 16 bytes apart per group: an address
comparator, a power-of-two mask, and a function code selecting which
access kinds match.  COMP1 is special in this design: the runtime keeps
the shadow stack pointer in it, which both hides the pointer from the
program's address space and lets the unit sanity-check it on update.

Matching runs on every data access, so it reads a slot table of regions
that register writes keep up to date (see the README's register map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import MASK32
from .machine import ACCESS_READ, ACCESS_WRITE, HaltReason

# MMIO window, cycle counter, and comparator register addresses.
DWT_WINDOW_LO = 0xE0001000
DWT_WINDOW_HI = 0xE0001060
DWT_CYCCNT = 0xE0001004
DWT_COMP_BASE = 0xE0001020
DWT_GROUP_STRIDE = 16
DWT_COMP_OFF = 0
DWT_MASK_OFF = 4
DWT_FUNCTION_OFF = 8
NUM_GROUPS = 4

DWT_COMP0 = DWT_COMP_BASE
DWT_MASK0 = DWT_COMP_BASE + DWT_MASK_OFF
DWT_FUNCTION0 = DWT_COMP_BASE + DWT_FUNCTION_OFF
DWT_COMP1 = DWT_COMP_BASE + DWT_GROUP_STRIDE  # 0xE0001030, doubles as ssp

FN_DISABLED = 0x0
FN_READ = 0x5
FN_WRITE = 0x6
FN_READWRITE = 0x7

MASK_BITS_MAX = 0x1F

# Register address -> (group, field, bits kept).
_REGS = {DWT_COMP_BASE + gid * DWT_GROUP_STRIDE + off: (gid, name, bits)
         for gid in range(NUM_GROUPS)
         for off, name, bits in ((DWT_COMP_OFF, "comp", MASK32),
                                 (DWT_MASK_OFF, "mask", MASK_BITS_MAX),
                                 (DWT_FUNCTION_OFF, "function", MASK32))}
_NEVER = (0, 0)  # the slot of a group that cannot match: no addr < 0
_READ_FNS = frozenset((FN_READ, FN_READWRITE))
_WRITE_FNS = frozenset((FN_WRITE, FN_READWRITE))
_ENABLED_FNS = _READ_FNS | _WRITE_FNS


@dataclass
class ComparatorGroup:
    comp: int = 0
    mask: int = 0
    function: int = FN_DISABLED
    # Set by the owning unit; class defaults, as a ``__dict__`` probe
    # would slow every later field read.
    _unit = None
    _index = 0

    def __setattr__(self, name: str, value) -> None:
        # A direct field write refreshes the owning unit's slots too.
        object.__setattr__(self, name, value)
        if self._unit is not None:
            self._unit._refresh(self._index)


@dataclass
class DwtUnit:
    """Comparator state plus match logic and the MMIO register file."""

    # A tuple, so a group is replaced only by assigning all of them.
    groups: tuple[ComparatorGroup, ...] = field(
        default_factory=lambda: tuple(ComparatorGroup()
                                      for _ in range(NUM_GROUPS)))
    # Legal [lo, hi] span for COMP1 writes once protection owns it; a write
    # outside the span halts the machine with a shadow stack overflow.
    ssp_guard: tuple[int, int] | None = None
    _slots = None  # per access kind, one (lo, hi) region per group

    def __post_init__(self) -> None:
        self._rebuild()

    def __setattr__(self, name: str, value) -> None:
        if name == "groups":
            value = tuple(value)
        object.__setattr__(self, name, value)
        if name == "groups" and self._slots is not None:
            self._rebuild()

    def match_access(self, addr: int, size: int, access: int) -> int | None:
        """Lowest matching enabled comparator id for this access, else None.

        An access matches when any byte it covers falls inside a
        comparator's region.  Matching uses current register state; a
        store that reprograms a comparator only affects later accesses.
        """
        # Unrolled over the NUM_GROUPS slots: a loop costs twice as much.
        s0, s1, s2, s3 = self._slots[access]
        end = addr + size
        if addr < s0[1] and end > s0[0]:
            return 0
        if addr < s1[1] and end > s1[0]:
            return 1
        if addr < s2[1] and end > s2[0]:
            return 2
        if addr < s3[1] and end > s3[0]:
            return 3
        return None

    def _rebuild(self) -> None:
        """Attach the groups and recompute every slot."""
        self._slots = ([_NEVER] * NUM_GROUPS, [_NEVER] * NUM_GROUPS)
        for gid, g in enumerate(self.groups):
            object.__setattr__(g, "_unit", self)
            object.__setattr__(g, "_index", gid)
            self._refresh(gid)

    def _refresh(self, gid: int) -> None:
        """Recompute the slots of group ``gid``."""
        g = self.groups[gid]
        span = 1 << g.mask
        lo = g.comp & ~(span - 1) & MASK32
        region = (lo, lo + span)
        fn = g.function
        reads, writes = self._slots
        reads[gid] = region if fn in _READ_FNS else _NEVER
        writes[gid] = region if fn in _WRITE_FNS else _NEVER

    # -- register file ------------------------------------------------------

    def mmio_read(self, m, addr: int, size: int) -> int:
        if addr == DWT_CYCCNT:
            return m.cycles & MASK32
        reg = _REGS.get(addr)
        return 0 if reg is None else getattr(self.groups[reg[0]], reg[1])

    def mmio_write(self, m, addr: int, size: int, value: int) -> None:
        # CYCCNT is read-only here; writes outside the register file,
        # CTRL included, fall away.
        reg = _REGS.get(addr)
        if reg is None:
            return
        gid, name, bits = reg
        g = self.groups[gid]
        value &= bits
        # Stored past ComparatorGroup.__setattr__, so that a COMP write to
        # a disabled group (COMP1 as the ssp) skips the refresh.
        object.__setattr__(g, name, value)
        if name != "comp" or g.function in _ENABLED_FNS:
            self._refresh(gid)
        if gid == 1 and name == "comp" and self.ssp_guard is not None:
            lo, hi = self.ssp_guard
            if not lo <= value <= hi:
                m.halt(HaltReason.STACK_OVERFLOW)
