"""Data watchpoint unit: four comparator groups behind the DWT window.

The window is declared in ``machine``'s fixed PPB map; this module lays
the registers out from its base.

Each group is three registers, 16 bytes apart per group: an address
comparator, a power-of-two mask, and a function code selecting which
access kinds match.  COMP1 is special in this design: the runtime keeps
the shadow stack pointer in it, which both hides the pointer from the
program's address space and lets the unit sanity-check it on update.

The twelve register words live in one flat list, ``DwtUnit.regs``, and
register writes are the only way one changes, on the chip and here:
``DwtUnit.groups`` returns frozen ``ComparatorGroup`` snapshots built
from the words.  Each word has one port, its ``(read, write)`` pair for
its register kind, built at import: ``mmio_read``/``mmio_write`` look it
up, and compiled blocks bind it (``DwtUnit.port``).  The writes keep
``DwtUnit.slots``, a table of the regions each access kind can match,
up to date in place.  Each group's ``[lo, hi)`` region is cached, and
only a COMP or MASK write to the group drops it; a FUNCTION write, which
the instrumented code makes twice per call, only chooses per access
kind between the cached region and ``_NEVER``.  The table's third
entry is a hull of the cached regions, enabled or not: ``[h0, h1)``
covers their parts below ``machine.PPB_BASE`` and ``[h2, h3)`` their
parts above, so it contains every slot that can match.  Only caching a
region and dropping one rework it, never a FUNCTION write.  The machine
tests every data access against that table inline (``protect`` makes it
``Machine.watch``), as the chip's comparators do in hardware, and calls
the guard only on a hit; compiled blocks test a stack or
watchpoint-register access against the hull alone, and take one inside
it through ``Machine.load``/``store``.  ``match_access`` reads the same
table, and is the reference matcher the guard uses to name the
comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import MASK32
from .machine import DWT_CYCCNT, DWT_WINDOW_LO, PPB_BASE, HaltReason

# Comparator register addresses; the cycle counter's is machine's.
DWT_COMP_BASE = DWT_WINDOW_LO + 0x20
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

# A group's registers, in ComparatorGroup's field order: group g's
# register k is DwtUnit.regs[3 * g + k].
_COMP, _MASK, _FUNCTION = range(3)
_NEVER = (0, 0)  # the slot of a group that cannot match: no addr < 0
_READ_FNS = frozenset((FN_READ, FN_READWRITE))
_WRITE_FNS = frozenset((FN_WRITE, FN_READWRITE))
_ENABLED_FNS = _READ_FNS | _WRITE_FNS


def _span(parts: list) -> tuple[int, int]:
    """The least ``[lo, hi)`` that covers every part, or (0, 0)."""
    if not parts:
        return 0, 0
    return min(lo for lo, _ in parts), max(hi for _, hi in parts)


def _rehull(d) -> None:
    """Bring ``d``'s hull, the third entry of its slot table, over its
    cached regions: ``[h0, h1)`` spans their parts below PPB_BASE and
    ``[h2, h3)`` their parts above."""
    regions = [r for r in d._regions if r is not None]
    below = [(lo, min(hi, PPB_BASE)) for lo, hi in regions if lo < PPB_BASE]
    above = [(max(lo, PPB_BASE), hi) for lo, hi in regions if hi > PPB_BASE]
    d.slots[2][:] = _span(below) + _span(above)


def _group_ports(gid: int) -> dict:
    """Group ``gid``'s register ports by address.  A FUNCTION write only
    chooses the group's slots, from the cached region; a COMP or MASK
    write drops that region and, if the group is enabled, chooses anew.
    Caching a region and dropping one are what rework the hull."""
    comp, mask, fn = (3 * gid + k for k in (_COMP, _MASK, _FUNCTION))

    def choose(d, m, value):
        value &= MASK32
        regs = d.regs
        regs[fn] = value
        region = d._regions[gid]
        if region is None:
            span = 1 << regs[mask]
            base = regs[comp] & ~(span - 1) & MASK32
            region = d._regions[gid] = (base, base + span)
            _rehull(d)
        reads, writes, _ = d.slots
        reads[gid] = region if value in _READ_FNS else _NEVER
        writes[gid] = region if value in _WRITE_FNS else _NEVER

    def place(i, bits):
        ssp = gid == 1 and i == comp  # COMP1, whose span protect sets

        def write(d, m, value):
            value &= bits
            regs = d.regs
            regs[i] = value
            if ssp and d.ssp_guard is not None:
                lo, hi = d.ssp_guard
                if not lo <= value <= hi:
                    m.halt(HaltReason.STACK_OVERFLOW)
            dropped = d._regions[gid] is not None
            d._regions[gid] = None
            # A disabled group (COMP1 as the ssp) keeps its _NEVER slots.
            if regs[fn] in _ENABLED_FNS:
                choose(d, m, regs[fn])
            elif dropped:
                _rehull(d)
        return write

    base = DWT_COMP_BASE + gid * DWT_GROUP_STRIDE
    return {base + off: ((lambda d, m, i=i: d.regs[i]), write)
            for off, i, write in ((DWT_COMP_OFF, comp, place(comp, MASK32)),
                                  (DWT_MASK_OFF, mask,
                                   place(mask, MASK_BITS_MAX)),
                                  (DWT_FUNCTION_OFF, fn, choose))}


# Address -> port, (read(d, m), write(d, m, value)) of unit d on machine
# m, built once at import.  CYCCNT is read-only here, and every word
# outside the register file, CTRL included, reads 0 and drops writes.
_UNMAPPED = (lambda d, m: 0, lambda d, m, value: None)
_PORTS = {addr: port for gid in range(NUM_GROUPS)
          for addr, port in _group_ports(gid).items()}
_PORTS[DWT_CYCCNT] = (lambda d, m: m.cycles & MASK32, _UNMAPPED[1])


@dataclass(frozen=True)
class ComparatorGroup:
    """A snapshot of one group's registers (``DwtUnit.groups``)."""

    comp: int = 0
    mask: int = 0
    function: int = FN_DISABLED


class DwtUnit:
    """Comparator registers, match logic, and the word-wide register file."""

    def __init__(self) -> None:
        # Legal [lo, hi] span for COMP1 writes once protect owns it; a
        # write outside the span halts with a shadow stack overflow.
        self.ssp_guard: tuple[int, int] | None = None
        # COMP, MASK and FUNCTION of each group in turn, zero (disabled)
        # at reset like the chip's.
        self.regs = [0] * (3 * NUM_GROUPS)
        # Indexed by access kind (ACCESS_READ, ACCESS_WRITE): one (lo, hi)
        # region per group, _NEVER while the group's FUNCTION excludes
        # that kind; then the hull [h0, h1, h2, h3] of the cached regions
        # (_rehull), empty as (0, 0, 0, 0).  Only register writes change
        # it, and always in place, so whoever holds it (Machine.watch)
        # sees every one.
        self.slots = ([_NEVER] * NUM_GROUPS, [_NEVER] * NUM_GROUPS,
                      [0, 0, 0, 0])
        # Each group's region from its COMP and MASK, or None until
        # needed again after one of them changed.
        self._regions: list[tuple[int, int] | None] = [None] * NUM_GROUPS

    @property
    def groups(self) -> tuple[ComparatorGroup, ...]:
        """Every group's registers as they are now, as frozen snapshots."""
        r = self.regs
        return tuple(ComparatorGroup(*r[i:i + 3])
                     for i in range(0, 3 * NUM_GROUPS, 3))

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

    def port(self, addr: int):
        """The word's ``(read(d, m), write(d, m, value))``, ``d`` this unit."""
        return _PORTS.get(addr, _UNMAPPED)

    def mmio_read(self, m, addr: int) -> int:
        return _PORTS.get(addr, _UNMAPPED)[0](self, m)

    def mmio_write(self, m, addr: int, value: int) -> None:
        _PORTS.get(addr, _UNMAPPED)[1](self, m, value)
