"""Deterministic single-core machine with hooked data accesses.

The machine executes pre-decoded instructions from an address-indexed
code map.  Every data access goes through ``load``/``store``.  Before it
commits, they test it against ``watch``, per access kind four (lo, hi)
regions, and show it to ``guard``, the one access observer, only when
it falls in one; a store the guard answers True for is suppressed
(watchpoint semantics) and recorded by the guard.  Protection points
``watch`` at the watchpoint unit's live slot table, so the guard runs
only on comparator hits; by default every region covers the whole
address space, so a guard set on its own sees every access.  Device
windows (``mmio``) live above 0xE0000000; a device is a word device,
``mmio_read(m, addr)`` and ``mmio_write(m, addr, value)``, and the
access path handles the byte lane of a byte access.

``step()`` executes one instruction and is the reference semantics.
``run()`` executes many: it steps cold code and runs hot straight-line
blocks as compiled functions (``blocks``), with identical results.
Neither returns anything.  The machine logs what only it sees in
``events``, where it happens: ``exception_model`` appends each
exception entry and return, and ``_end``, the one end-of-instruction
rule, starts the exception return a branch to EXC_RETURN asks for and
appends the halt.

The machine records what ran and nothing derived from it: ``retired``
counts the retirements of the instruction at each pc, ``taken`` the
taken executions of each conditional branch.  Both are complete once
``step()`` or ``run()`` returns; the runner derives the cycle splits
from them.
"""

from __future__ import annotations

import struct
from enum import Enum

from . import blocks
from . import exception_model as excm
from .exception_model import (EV_EXC_ENTERED, EV_EXC_RETURNED, EV_HALTED,
                              MODE_HANDLER, MODE_THREAD, Event)
from .isa import LR, MASK32, NUM_GPRS, SP, Instr

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

ACCESS_READ = 0
ACCESS_WRITE = 1

# xPSR layout: condition flags in the top nibble, exception number low.
XPSR_N = 1 << 31
XPSR_Z = 1 << 30
XPSR_C = 1 << 29
XPSR_V = 1 << 28

_WORD = struct.Struct("<I")

# Machine.watch's default: per access kind, regions that cover every
# address, so the guard is shown every access.
WATCH_ALL = (((0, 1 << 32),) * 4, ((0, 1 << 32),) * 4)


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
        page = self.pages.get(addr >> PAGE_BITS)
        off = addr & PAGE_MASK
        if page is not None and off <= PAGE_SIZE - 4:
            return _WORD.unpack_from(page, off)[0]
        return (self.read_byte(addr) | self.read_byte(addr + 1) << 8
                | self.read_byte(addr + 2) << 16 | self.read_byte(addr + 3) << 24)

    def write_word(self, addr: int, value: int) -> None:
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 4:
            page = self.pages.get(addr >> PAGE_BITS) or self._page(addr)
            _WORD.pack_into(page, off, value & MASK32)
        else:
            for i in range(4):
                self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)

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
        self.mmio: list[tuple[int, int, object]] = []
        self.vector: dict[int, int] = {}
        self.pending: list[int] = []
        self.active_exc: int | None = None
        self.cycles = 0
        self.steps = 0
        self.halted = False
        self.halt_reason: HaltReason | None = None
        # Exception entries and returns and the halt, in order.
        self.events: list[Event] = []
        self.cur_pc = 0  # pc of the instruction currently executing
        # Debug hardware, the access observer and the regions it is
        # shown, set up by protect.
        self.dwt = None
        self.demcr = None
        self.guard = None
        self.watch = WATCH_ALL
        # Execution counts by pc, complete once step() or run() returns.
        self.retired: dict[int, int] = {}
        self.taken: dict[int, int] = {}
        # Optional bookkeeping, enabled by the runner.
        self.min_sp: int | None = None
        # run()'s (code, blocks by entry pc), in one attribute: past
        # CPython's shared-key dict size (29 keys on 3.11; 27 here, see
        # tests/test_machine.py) every attribute access slows down.
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
            guard = self.guard
            if guard is not None:
                guard.on_load(self, addr, size)
        if addr >= 0xE0000000:
            for lo, hi, dev in self.mmio:
                if lo <= addr < hi:
                    if size == 4:
                        return dev.mmio_read(self, addr)
                    word = dev.mmio_read(self, addr & ~3)
                    return (word >> (8 * (addr & 3))) & 0xFF
        mem = self.mem
        if size == 4:
            off = addr & PAGE_MASK
            if off > PAGE_SIZE - 4:
                return mem.read_word(addr)  # straddles two pages
            page = mem.pages.get(addr >> PAGE_BITS)
            return _WORD.unpack_from(page, off)[0] if page is not None else 0
        return mem.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        # As in load; a store the guard answers True for is suppressed.
        s0, s1, s2, s3 = self.watch[ACCESS_WRITE]
        end = addr + size
        if ((addr < s0[1] and end > s0[0]) or (addr < s1[1] and end > s1[0])
                or (addr < s2[1] and end > s2[0])
                or (addr < s3[1] and end > s3[0])):
            guard = self.guard
            if guard is not None and guard.on_store(self, addr, size, value):
                return  # suppressed
        if addr >= 0xE0000000:
            for lo, hi, dev in self.mmio:
                if lo <= addr < hi:
                    if size != 4:
                        base = addr & ~3
                        shift = 8 * (addr & 3)
                        word = dev.mmio_read(self, base)
                        addr, value = base, ((word & ~(0xFF << shift))
                                             | ((value & 0xFF) << shift))
                    dev.mmio_write(self, addr, value)
                    return
        mem = self.mem
        if size == 4:
            off = addr & PAGE_MASK
            if off > PAGE_SIZE - 4:
                mem.write_word(addr, value)  # straddles two pages
                return
            page = mem.pages.get(addr >> PAGE_BITS) or mem._page(addr)
            _WORD.pack_into(page, off, value & MASK32)
        else:
            mem.write_byte(addr, value)

    # -- faults and flags ---------------------------------------------------

    def fault(self) -> None:
        self.halted = True
        self.halt_reason = HaltReason.FAULT

    def halt(self, reason: HaltReason) -> None:
        self.halted = True
        self.halt_reason = reason

    def set_cmp_flags(self, a: int, b: int) -> None:
        r = (a - b) & MASK32
        n = XPSR_N if r & 0x80000000 else 0
        z = XPSR_Z if r == 0 else 0
        c = XPSR_C if a >= b else 0
        sa, sb, sr = a >> 31, b >> 31, r >> 31
        v = XPSR_V if (sa != sb and sa != sr) else 0
        self.xpsr = (self.xpsr & 0x0FFFFFFF) | n | z | c | v

    def cond_true(self, cond: str) -> bool:
        x = self.xpsr
        if cond == "eq":
            return bool(x & XPSR_Z)
        if cond == "ne":
            return not x & XPSR_Z
        n = bool(x & XPSR_N)
        v = bool(x & XPSR_V)
        if cond == "lt":
            return n != v
        return n == v  # ge

    # -- execution ---------------------------------------------------------

    def raise_exception(self, exc_id: int) -> None:
        """Queue an exception; it is taken at the next thread-mode step."""
        self.pending.append(exc_id)

    def step(self) -> None:
        if self.halted:
            return
        at = self.pc
        ins = self.code.get(at)
        if self.pending and self.mode == MODE_THREAD:
            self.steps += 1
            excm.enter_exception(self, self.pending.pop(0), at)
        elif ins is None:
            # No instruction at pc: undefined fetch.
            self.steps += 1
            excm.enter_exception(self, excm.USAGE_FAULT, at + 2)
        else:
            self.cycles += ins.cycles
            retired = self.retired
            retired[at] = retired.get(at, 0) + 1

            self.cur_pc = at
            self.pc = at + ins.width
            _EXEC[ins.op](self, ins)
            self.steps += 1

            if self.min_sp is not None and self.sp < self.min_sp:
                self.min_sp = self.sp
        self._end(at)

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
        calls would leave.  Execution goes block by block (``blocks``): a
        block entry reached fewer than ``blocks.HOT_THRESHOLD`` times is
        stepped through; then its block is compiled, and the compiled
        block runs whenever it fits before the limit and no exception
        is pending.  The blocks' own counts are folded into ``retired``
        and ``taken`` before ``run()`` returns, so the blocks can be
        dropped whenever ``code`` is replaced.
        """
        cache = self._block_cache
        if cache is None or cache[0] is not self.code:
            cache = self._block_cache = (self.code, {})
        code, known = cache
        hot = blocks.HOT_THRESHOLD
        try:
            while self.steps < limit and not self.halted:
                pc = self.pc
                blk = known.get(pc)
                if blk is None:
                    blk = known[pc] = blocks.Block()
                if blk.fn is None:
                    blk.heat += 1
                    if blk.heat == hot:
                        blk.compile(code, pc)
                if (blk.fn is not None and self.steps + blk.n <= limit
                        and not self.pending):
                    blk.fn(self)
                    continue
                # Step until control leaves the straight line; the pc it
                # lands on is the next block entry.
                while True:
                    at = self.pc
                    self.step()
                    if self.halted or self.steps >= limit:
                        return
                    d = self.pc - at
                    if d != 2 and d != 4:
                        break
        finally:
            for blk in known.values():
                if blk.fn is not None:
                    blk.fold(self)

    # -- executors -----------------------------------------------------------

    def _x_movw(self, ins):
        self.write_reg(ins.rd, ins.imm)

    def _x_movt(self, ins):
        low = self.read_reg(ins.rd) & 0xFFFF
        self.write_reg(ins.rd, low | (ins.imm << 16))

    def _x_mov_imm(self, ins):
        self.write_reg(ins.rd, ins.imm)

    def _x_mov_reg(self, ins):
        self.write_reg(ins.rd, self.read_reg(ins.rm))

    def _x_ldr(self, ins):
        addr = (self.read_reg(ins.rn) + ins.imm) & MASK32
        if addr & 3:
            self.fault()
            return
        self.write_reg(ins.rd, self.load(addr, 4))

    def _x_str(self, ins):
        addr = (self.read_reg(ins.rn) + ins.imm) & MASK32
        if addr & 3:
            self.fault()
            return
        self.store(addr, 4, self.read_reg(ins.rd))

    def _x_ldrb(self, ins):
        addr = (self.read_reg(ins.rn) + ins.imm) & MASK32
        self.write_reg(ins.rd, self.load(addr, 1))

    def _x_strb(self, ins):
        addr = (self.read_reg(ins.rn) + ins.imm) & MASK32
        self.store(addr, 1, self.read_reg(ins.rd) & 0xFF)

    def _x_push(self, ins):
        # Lowest-numbered register ends at the lowest address.
        sp = self.sp - 4 * len(ins.reglist)
        self.sp = sp
        for i, r in enumerate(ins.reglist):
            self.store(sp + 4 * i, 4, self.read_reg(r))

    def _x_pop(self, ins):
        sp = self.sp
        self.sp = sp + 4 * len(ins.reglist)
        for i, r in enumerate(ins.reglist):
            self.write_reg(r, self.load(sp + 4 * i, 4))

    def _x_add_sp(self, ins):
        self.sp = (self.sp + ins.imm) & MASK32

    def _x_sub_sp(self, ins):
        self.sp = (self.sp - ins.imm) & MASK32

    def _x_addw(self, ins):
        self.write_reg(ins.rd, (self.read_reg(ins.rn) + ins.imm) & MASK32)

    def _x_subw(self, ins):
        self.write_reg(ins.rd, (self.read_reg(ins.rn) - ins.imm) & MASK32)

    def _x_cmp_imm(self, ins):
        self.set_cmp_flags(self.read_reg(ins.rn), ins.imm)

    def _x_cmp_reg(self, ins):
        self.set_cmp_flags(self.read_reg(ins.rn), self.read_reg(ins.rm))

    def _x_b(self, ins):
        self.pc = ins.target

    def _x_bcond(self, ins):
        if self.cond_true(ins.cond):
            self.cycles += 1  # taken penalty on top of the base cost
            taken = self.taken
            taken[self.cur_pc] = taken.get(self.cur_pc, 0) + 1
            self.pc = ins.target

    def _x_bl(self, ins):
        self.lr = self.pc  # already the address after the bl
        self.pc = ins.target

    def _x_bx(self, ins):
        self.pc = self.read_reg(ins.rm)

    def _x_blx(self, ins):
        target = self.read_reg(ins.rm)
        self.lr = self.pc
        self.pc = target

    def _x_msr(self, ins):
        # CONTROL writes are privileged; unprivileged thread writes drop.
        if self.mode == MODE_HANDLER or not self.control & 1:
            self.control = self.read_reg(ins.rn) & 1

    def _x_mrs(self, ins):
        self.write_reg(ins.rd, self.control)

    def _x_nop(self, ins):
        pass

    def _x_svc(self, ins):
        # svc's table cost already covers stacking; do not double-charge.
        excm.enter_exception(self, excm.SVCALL, self.pc, charge_cycles=False)

    def _x_bkpt(self, ins):
        self.halt(HaltReason.NORMAL if ins.imm == 0 else HaltReason.REPORT)

    def _x_udf(self, ins):
        excm.enter_exception(self, excm.USAGE_FAULT, self.pc)


_EXEC = {
    "movw": Machine._x_movw,
    "movt": Machine._x_movt,
    "mov_imm": Machine._x_mov_imm,
    "mov_reg": Machine._x_mov_reg,
    "ldr": Machine._x_ldr,
    "str": Machine._x_str,
    "ldrb": Machine._x_ldrb,
    "strb": Machine._x_strb,
    "push": Machine._x_push,
    "pop": Machine._x_pop,
    "add_sp": Machine._x_add_sp,
    "sub_sp": Machine._x_sub_sp,
    "addw": Machine._x_addw,
    "subw": Machine._x_subw,
    "cmp_imm": Machine._x_cmp_imm,
    "cmp_reg": Machine._x_cmp_reg,
    "b": Machine._x_b,
    "bcond": Machine._x_bcond,
    "bl": Machine._x_bl,
    "bx": Machine._x_bx,
    "blx": Machine._x_blx,
    "msr": Machine._x_msr,
    "mrs": Machine._x_mrs,
    "nop": Machine._x_nop,
    "svc": Machine._x_svc,
    "bkpt": Machine._x_bkpt,
    "udf": Machine._x_udf,
}
