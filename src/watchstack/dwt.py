"""Data watchpoint unit: four comparator groups behind an MMIO window.

Each group is three registers, 16 bytes apart per group: an address
comparator, a power-of-two mask, and a function code selecting which
access kinds match.  COMP1 is special in this design: the runtime keeps
the shadow stack pointer in it, which both hides the pointer from the
program's address space and lets the unit sanity-check it on update.

Register writes (``DwtUnit.mmio_write``) are the only way a comparator
field changes, on the chip and here: ``ComparatorGroup`` is frozen.
Those writes keep ``DwtUnit.slots``, a table of the regions each access
kind can match, up to date in place.  The machine tests every data
access against that table inline (``Machine.watch`` is the same
object), as the chip's comparators do in hardware, and calls the guard
only on a hit; ``match_access`` reads the same table, and is the
reference matcher the guard uses to name the comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import MASK32
from .machine import HaltReason

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
# Writes a field of a frozen ComparatorGroup; bound once, as the
# instrumented code writes FUNCTION0 and COMP1 several times per call.
_set_field = object.__setattr__


@dataclass(frozen=True)
class ComparatorGroup:
    """One group's fields; only ``DwtUnit.mmio_write`` changes them."""

    comp: int = 0
    mask: int = 0
    function: int = FN_DISABLED


@dataclass
class DwtUnit:
    """Comparator state, match logic, and the word-wide register file."""

    # Disabled at reset, like the chip's; not a constructor argument, so
    # the register file is the one way in.
    groups: tuple[ComparatorGroup, ...] = field(
        init=False, default_factory=lambda: tuple(ComparatorGroup()
                                                  for _ in range(NUM_GROUPS)))
    # Legal [lo, hi] span for COMP1 writes once protection owns it; a write
    # outside the span halts the machine with a shadow stack overflow.
    ssp_guard: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # Indexed by access kind (ACCESS_READ, ACCESS_WRITE): one (lo, hi)
        # region per group, _NEVER while the group's FUNCTION excludes
        # that kind.  Only mmio_write changes it, and always in place, so
        # whoever holds it (Machine.watch) sees every register write.
        self.slots = ([_NEVER] * NUM_GROUPS, [_NEVER] * NUM_GROUPS)

    def match_access(self, addr: int, size: int, access: int) -> int | None:
        """Lowest matching enabled comparator id for this access, else None.

        An access matches when any byte it covers falls inside a
        comparator's region.  Matching uses current register state; a
        store that reprograms a comparator only affects later accesses.
        """
        # Unrolled over the NUM_GROUPS slots: a loop costs twice as much.
        # Machine.load/store run the same test inline.
        s0, s1, s2, s3 = self.slots[access]
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

    # -- register file ------------------------------------------------------

    def mmio_read(self, m, addr: int) -> int:
        if addr == DWT_CYCCNT:
            return m.cycles & MASK32
        reg = _REGS.get(addr)
        return 0 if reg is None else getattr(self.groups[reg[0]], reg[1])

    def mmio_write(self, m, addr: int, value: int) -> None:
        # CYCCNT is read-only here; writes outside the register file,
        # CTRL included, fall away.
        reg = _REGS.get(addr)
        if reg is None:
            return
        gid, name, bits = reg
        g = self.groups[gid]
        value &= bits
        # The one store to a comparator field.
        _set_field(g, name, value)
        if name == "comp":
            if gid == 1 and self.ssp_guard is not None:
                lo, hi = self.ssp_guard
                if not lo <= value <= hi:
                    m.halt(HaltReason.STACK_OVERFLOW)
            # A disabled group (COMP1 as the ssp) keeps its slots.
            if g.function not in _ENABLED_FNS:
                return
        # Recompute this group's slots, in place.
        span = 1 << g.mask
        base = g.comp & ~(span - 1) & MASK32
        region = (base, base + span)
        fn = g.function
        reads, writes = self.slots
        reads[gid] = region if fn in _READ_FNS else _NEVER
        writes[gid] = region if fn in _WRITE_FNS else _NEVER
