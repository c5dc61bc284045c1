"""Deterministic single-core machine with hooked data accesses.

The machine executes pre-decoded instructions from an address-indexed
code map.  Every data access goes through ``load``/``store``, except a
compiled block's fast case, which passes one inline test and reads or
writes a RAM page, or runs a device word's or the guard's in-line form,
itself; every other case writes the state and takes ``load`` or
``store``, the one slow path of both tiers (``blocks``).  Before an
access commits, they test it against ``watch``, per access kind four
(lo, hi) regions, and show it to ``guard``, the one access observer,
only when it falls in one; a store the guard answers True for is
suppressed (watchpoint semantics) and recorded by the guard, and any
other store is written.  The default ``watch`` holds no region;
``protect`` sets ``watch`` and ``guard`` together, ``watch`` being the
watchpoint unit's live slot table, so the guard runs only on comparator
hits.  The fixed PPB map
is declared here, beside its one decode, ``ppb_device``: an access
that starts in the DWT window or on the DEMCR word reaches ``dwt`` or
``demcr`` when attached (a misaligned word there is a bad access and
faults); all else is RAM.
``load``/``store`` decode an address above PPB_BASE at run time; a
compiled block runs a word at a known address in line only where the
watchpoint unit gives it a form (``DwtUnit.inline``).  The RAM
layout, 4 KiB pages of little-endian ``WORD``s in ``Memory.pages``, is
declared here too, and ``blocks`` reads it from here for its inline RAM
path.  A device is a word device: ``mmio_read(m, addr)`` and
``mmio_write(m, addr, value)``, which ``load`` and ``store`` call, are
how a program's access reaches it, and it may give ``blocks`` a word's
``inline`` form as well; the access path handles byte lanes.

``step()`` executes one instruction and ``run()`` many; both step
through ``_line``, the one retire body, and ``run()`` also runs hot
traces, which follow ``b`` and ``bl``, as compiled functions
(``blocks``), with identical results; each executes an op as written
once, in ``semantics.SEMANTICS``, but for a TRAP op, which only ``step()``
runs.  ``tests/reference_isa.py``, an independent interpreter, is the
reference semantics the tests hold them to.
Neither returns anything.  The machine logs what only it sees in
``events``, where it happens:
``exception_model`` appends each exception entry and return, and
``_end``, the one end-of-instruction rule, starts the exception return
a branch to EXC_RETURN asks for and appends the halt.  The active
exception's number is the IPSR field of ``xpsr``.

The machine records what ran and nothing derived from it: ``retired``
counts the retirements of the instruction at each pc, ``taken`` the
taken executions of each conditional branch.  Both are complete once
``step()`` or ``run()`` returns; the runner derives the cycle splits
from them.
"""

from __future__ import annotations

import struct
from enum import Enum

from . import exception_model as excm
from .exception_model import (EV_EXC_ENTERED, EV_EXC_RETURNED, EV_HALTED,
                              MODE_HANDLER, MODE_THREAD, Event)
from .isa import LR, MASK32, NUM_GPRS, OPS, SP, TRAP, Instr
from .semantics import executors

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

ACCESS_READ = 0
ACCESS_WRITE = 1

# A RAM word: little-endian, read and written whole when it does not
# cross a page (``blocks`` inlines that case).
WORD = struct.Struct("<I")

# The fixed PPB map (Arm DDI 0403): only above PPB_BASE sit devices.
PPB_BASE = 0xE0000000
DWT_WINDOW_LO = 0xE0001000
DWT_WINDOW_HI = 0xE0001060
# The cycle counter: the one device word whose read depends on machine
# state (m.cycles); a compiled block writes the state before every
# access it hands to ``load``.
DWT_CYCCNT = DWT_WINDOW_LO + 0x4
DEMCR_ADDR = 0xE000EDFC


def ppb_device(addr: int) -> str | None:
    """The PPB map's one decode: the ``Machine`` attribute holding the
    device that an access starting at ``addr`` reaches, or None for RAM.
    ``Machine.load``/``store`` ask it above PPB_BASE."""
    if DWT_WINDOW_LO <= addr < DWT_WINDOW_HI:
        return "dwt"
    if DEMCR_ADDR <= addr < DEMCR_ADDR + 4:
        return "demcr"
    return None


# Machine.watch's default: no region (DwtUnit.slots), so the guard is
# shown no access.
_WATCH_NONE = (((0, 0),) * 4, ((0, 0),) * 4)


class HaltReason(Enum):
    NORMAL = "normal"            # bkpt #0
    REPORT = "report"            # bkpt with nonzero immediate
    RESET = "reset"              # protection policy fired
    FAULT = "fault"              # unrecoverable architectural error
    STACK_OVERFLOW = "stack_overflow"  # shadow stack pointer left its window


# A branch to pc at or above this is an exception return.
EXC_RETURN_MIN = 0xF0000000


class Memory:
    """Sparse byte-addressable RAM/flash backed by 4 KiB pages."""

    def __init__(self) -> None:
        self.pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        base = addr >> PAGE_BITS
        page = self.pages.get(base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self.pages[base] = page
        return page

    def read_byte(self, addr: int) -> int:
        page = self.pages.get(addr >> PAGE_BITS)
        return page[addr & PAGE_MASK] if page is not None else 0

    def write_byte(self, addr: int, value: int) -> None:
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    def read_word(self, addr: int) -> int:
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 4:
            page = self.pages.get(addr >> PAGE_BITS)
            return 0 if page is None else WORD.unpack_from(page, off)[0]
        # Across two pages byte by byte; a word that straddles 2^32 wraps.
        return sum(self.read_byte((addr + i) & MASK32) << (8 * i)
                   for i in range(4))

    def write_word(self, addr: int, value: int) -> None:
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 4:
            page = self.pages.get(addr >> PAGE_BITS) or self._page(addr)
            WORD.pack_into(page, off, value & MASK32)
        else:  # as in read_word
            for i in range(4):
                self.write_byte((addr + i) & MASK32, (value >> (8 * i)) & 0xFF)

    def read_region(self, lo: int, size: int) -> bytes:
        return bytes(self.read_byte(lo + i) for i in range(size))

    def snapshot(self) -> dict[int, bytes]:
        return {base: bytes(page) for base, page in self.pages.items()}

    def diff(self, other: "Memory") -> list[int]:
        """Byte addresses whose contents differ between the two memories."""
        out = []
        zero = bytes(PAGE_SIZE)
        for base in sorted(set(self.pages) | set(other.pages)):
            a = bytes(self.pages.get(base, zero))
            b = bytes(other.pages.get(base, zero))
            if a == b:
                continue
            off = base << PAGE_BITS
            out.extend(off + i for i in range(PAGE_SIZE) if a[i] != b[i])
        return out


class Machine:
    """Architectural state plus the fetch/execute loop."""

    def __init__(self) -> None:
        self.gpr = [0] * NUM_GPRS
        self.sp = 0
        self.lr = 0
        self.pc = 0
        self.xpsr = 0
        self.control = 0
        self.mode = MODE_THREAD
        self.mem = Memory()
        self.code: dict[int, Instr] = {}
        self.vector: dict[int, int] = {}
        self.pending: list[int] = []
        self.cycles = 0
        self.steps = 0
        self.halted = False
        self.halt_reason: HaltReason | None = None
        # Exception entries and returns and the halt, in order.
        self.events: list[Event] = []
        self.cur_pc = 0  # pc of the instruction currently executing
        # Debug hardware, the access observer and the regions it is
        # shown, set up by protect; watch and guard are set together.
        self.dwt = None
        self.demcr = None
        self.guard = None
        self.watch = _WATCH_NONE
        # Execution counts by pc, complete once step() or run() returns.
        self.retired: dict[int, int] = {}
        self.taken: dict[int, int] = {}
        # Optional bookkeeping, enabled by the runner.
        self.min_sp: int | None = None
        # run()'s (code, guard, whether min_sp is None, blocks by entry
        # pc), what a block is made from and binds once, in one attribute:
        # past CPython's shared-key dict size (29 keys on 3.11; 25 here,
        # see tests/test_machine.py) every attribute access slows down.
        self._block_cache = None

    # -- register helpers -------------------------------------------------

    def read_reg(self, r: int) -> int:
        if r < NUM_GPRS:
            return self.gpr[r]
        if r == SP:
            return self.sp
        if r == LR:
            return self.lr
        return self.pc

    def write_reg(self, r: int, value: int) -> None:
        value &= MASK32
        if r < NUM_GPRS:
            self.gpr[r] = value
        elif r == SP:
            self.sp = value
        elif r == LR:
            self.lr = value
        else:
            self.pc = value

    # -- hooked data access ----------------------------------------------

    def load(self, addr: int, size: int) -> int:
        # DwtUnit.match_access's test, unrolled over the four regions.
        s0, s1, s2, s3 = self.watch[ACCESS_READ]
        end = addr + size
        if ((addr < s0[1] and end > s0[0]) or (addr < s1[1] and end > s1[0])
                or (addr < s2[1] and end > s2[0])
                or (addr < s3[1] and end > s3[0])):
            self.guard.on_load(self, addr, size)
        if addr >= PPB_BASE:
            name = ppb_device(addr)
            dev = None if name is None else getattr(self, name)
            if dev is not None:
                if size != 4:
                    word = dev.mmio_read(self, addr & ~3)
                    return (word >> (8 * (addr & 3))) & 0xFF
                if addr & 3:  # a misaligned device word: a bad access
                    self.fault()
                    return 0
                return dev.mmio_read(self, addr)
        if size == 4:
            return self.mem.read_word(addr)
        return self.mem.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        # As in load; a store the guard answers True for is suppressed.
        s0, s1, s2, s3 = self.watch[ACCESS_WRITE]
        end = addr + size
        if ((addr < s0[1] and end > s0[0]) or (addr < s1[1] and end > s1[0])
                or (addr < s2[1] and end > s2[0])
                or (addr < s3[1] and end > s3[0])):
            if self.guard.on_store(self, addr, size, value):
                return  # suppressed
        if addr >= PPB_BASE:
            name = ppb_device(addr)
            dev = None if name is None else getattr(self, name)
            if dev is not None:
                if size != 4:
                    base = addr & ~3
                    shift = 8 * (addr & 3)
                    word = dev.mmio_read(self, base)
                    addr, value = base, ((word & ~(0xFF << shift))
                                         | ((value & 0xFF) << shift))
                elif addr & 3:  # as in load
                    self.fault()
                    return
                dev.mmio_write(self, addr, value)
                return
        if size == 4:
            self.mem.write_word(addr, value)
        else:
            self.mem.write_byte(addr, value)

    # -- faults -----------------------------------------------------------

    def fault(self) -> None:
        self.halt(HaltReason.FAULT)

    def halt(self, reason: HaltReason) -> None:
        """Halt for ``reason``; the first halt of a run stands."""
        if not self.halted:
            self.halted = True
            self.halt_reason = reason

    # -- execution ---------------------------------------------------------

    def raise_exception(self, exc_id: int) -> None:
        """Queue an exception; it is taken at the next thread-mode step."""
        self.pending.append(exc_id)

    def step(self) -> None:
        if not self.halted:
            self._line(self.steps + 1)

    def _line(self, limit: int) -> None:
        """Step until control leaves the straight line, ``steps`` reaches
        ``limit`` or the machine halts: the one retire body.  A step takes
        a pending exception in thread mode, or the UsageFault of an
        undefined fetch, instead of retiring an instruction."""
        code = self.code
        retired = self.retired
        while True:
            at = self.pc
            ins = code.get(at)
            if self.pending and self.mode == MODE_THREAD:
                self.steps += 1
                excm.enter_exception(self, self.pending.pop(0), at)
            elif ins is None:  # no instruction at pc: an undefined fetch
                self.steps += 1
                excm.enter_exception(self, excm.USAGE_FAULT, at + 2)
            else:
                self.cycles += ins.cycles
                retired[at] = retired.get(at, 0) + 1
                self.cur_pc = at
                self.pc = at + ins.width
                _EXEC[ins.op](self, ins)
                self.steps += 1
                if self.min_sp is not None and self.sp < self.min_sp:
                    self.min_sp = self.sp
            if self.pc >= EXC_RETURN_MIN or self.halted:
                self._end(at)
            if self.halted or self.steps >= limit:
                return
            d = self.pc - at
            if d != 2 and d != 4:
                return

    def _end(self, at: int) -> None:
        """End the instruction at ``at``: start the exception return a
        branch to EXC_RETURN asks for, then log the halt if it halted."""
        if self.pc >= EXC_RETURN_MIN and not self.halted:
            excm.return_from_exception(self, self.pc)
        if self.halted:
            self.events.append(Event(EV_HALTED, at, reason=self.halt_reason))

    def run(self, limit: int) -> None:
        """Execute until ``steps == limit`` or a halt.

        The machine ends in the state the same number of ``step()``
        calls would leave.  Execution goes block by block (``blocks``),
        in one loop that looks up the block entered at the pc: an entry
        reached fewer than ``blocks.HOT_THRESHOLD`` times is stepped
        through, up to the next jump; then its block is compiled for
        the watch state it finds (the comparator regions and the unit's
        state, as constants), and runs whenever it fits before the limit
        and no exception is pending, a loop pass after pass while the
        next pass fits.  A compiled block that finds another watch state
        on entry runs nothing and answers True, and is compiled again
        for the one it found.  The blocks' own counts are folded into
        ``retired`` and ``taken`` before ``run()`` returns, so the
        blocks can be dropped whenever what a block binds when it is
        made changes: ``code`` is replaced, or ``guard``, whose state a
        block binds once (its ``BIND``), or ``min_sp`` is switched on or
        off, which a compiled block checks only if tracked.  A block
        binds ``dwt`` on every entry, and its entry check sees any
        change of watch state that a replaced ``dwt`` or ``watch`` makes.
        """
        # Here, not at import: blocks imports machine.
        from .blocks import HOT_THRESHOLD as hot, Block
        cache = self._block_cache
        if (cache is None or cache[0] is not self.code
                or cache[1] is not self.guard
                or cache[2] is not (self.min_sp is None)):
            cache = self._block_cache = (self.code, self.guard,
                                         self.min_sp is None, {})
        known = cache[3]
        try:
            while self.steps < limit and not self.halted:
                pc = self.pc
                blk = known.get(pc)
                if blk is None:
                    blk = known[pc] = Block()
                if blk.fn is None:
                    blk.heat += 1
                    if blk.heat == hot:
                        blk.compile(self, pc)
                if (blk.fn is not None and self.steps + blk.n <= limit
                        and not self.pending):
                    if blk.fn(self, limit):  # made for another watch state
                        blk.compile(self, pc)
                else:  # step the line; the pc it leaves is the next entry
                    self._line(limit)
        finally:
            for blk in known.values():
                if blk.fn is not None:
                    blk.fold(self)

    # -- the TRAP ops' executors, which only step() runs ------------------

    def _x_svc(self, ins):
        # svc's table cost already covers stacking; do not double-charge.
        excm.enter_exception(self, excm.SVCALL, self.pc, charge_cycles=False)

    def _x_bkpt(self, ins):
        self.halt(HaltReason.NORMAL if ins.imm == 0 else HaltReason.REPORT)

    def _x_udf(self, ins):
        excm.enter_exception(self, excm.USAGE_FAULT, self.pc)


# One executor per op of isa.OPS, a TRAP op's from above and any other's
# from semantics.SEMANTICS; a missing one fails here, at import.
_EXEC = {**executors(),
         **{op: getattr(Machine, "_x_" + op)
            for op, row in OPS.items() if row.kind == TRAP}}
