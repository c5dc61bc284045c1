"""An executable statement of the ISA that ``watchstack`` models.

A plain interpreter, written from the ARMv7-M pseudocode (Arm DDI 0403E):
AddWithCarry (A2.2.1), ConditionPassed (A7.3.1), the instruction
descriptions of chapter A7.7, ExceptionEntry/PushStack (B1.5.6),
ExceptionReturn/PopStack (B1.5.8), the DWT comparators and cycle
counter (C1.8) and DEMCR (C1.6.5).  The tests step it beside a
``Machine`` and compare the two after every instruction.

It shares no code with the emulator.  Of an instruction it reads the
decoded fields (op, registers, immediate, list, condition, resolved
target) and takes its ``width`` and ``cycles`` as given: those are the
cost model's data.  It imports nothing but ``isa.OPS``, to hold one
function per op.  Memory is a dict of bytes, the comparators are twelve
register words, and a state is plain lists, ints and strings.

Where the modelled core departs from the Arm ARM, this follows the
model, and every departure is listed here:

* Addresses are plain: ``bl``/``blx`` put the return address in lr
  without the Thumb bit, and ``bx``, ``blx``, ``ldr pc`` and ``pop pc``
  branch to the value as it is.  Reading the pc gives the address of
  the next instruction.  A branch to 0xF0000000 or above, once the
  instruction ends, is an exception return.
* ``ldr`` and ``str`` fault on an unaligned address; ``ldrb``, ``strb``,
  ``push``, ``pop`` and stacking do not check alignment in RAM.  A word
  access that starts on a device word but not on its first byte faults.
* A fault of any kind halts the core (no HardFault handler), and so do
  ``bkpt`` (``normal`` for ``#0``, ``report`` otherwise), a watchpoint
  hit under the ``reset`` policy, and a COMP1 write outside the shadow
  stack span (``stack_overflow``).  The first halt stands; the
  instruction that halted still completes.
* Exceptions do not nest: one that is taken outside thread mode, or has
  no handler, faults.  The frame is eight words with no alignment
  padding, and the whole stacked xPSR comes back on return.  Only
  0xFFFFFFF9 returns, and only from handler mode.  A pending exception
  is taken, as one step, before the next instruction in thread mode;
  fetching where there is no instruction is a UsageFault, one step,
  that returns to the fetch address + 2.
* Cycles: each retired instruction costs its ``cycles``, a taken
  conditional branch one more, exception entry 12 (``svc``'s own cost
  already holds it) and return 12.  CYCCNT reads the count as it stands
  once the current instruction's cost is added.
* The debug monitor runs before the access commits: a watchpoint hit is
  recorded, a hit store is suppressed (a load still reads), and under
  ``reset`` the core halts.  A comparator group matches the kinds its
  whole FUNCTION word names: 5 reads, 6 writes, 7 both.  The record
  names the step count and the pc of the last retired instruction.
"""

from watchstack.isa import OPS

MASK32 = 0xFFFFFFFF
SP, LR, PC = 13, 14, 15

THREAD, HANDLER = "thread", "handler"
USAGE_FAULT, SVCALL = 6, 11
EXC_RETURN = 0xFFFFFFF9
EXC_RETURN_BASE = 0xF0000000

READ, WRITE = 0, 1  # access kinds, as a violation record gives them

# The private peripheral bus: the DWT window and the DEMCR word.
DWT_BASE = 0xE0001000
DWT_CYCCNT = 0xE0001004
DWT_COMP0 = 0xE0001020  # COMPn, MASKn, FUNCTIONn at +16n, +16n+4, +16n+8
DWT_END = 0xE0001060
DEMCR = 0xE000EDFC
MON_EN = 1 << 16

# FUNCTION words and the access kinds they match.
MATCHES = {5: (READ,), 6: (WRITE,), 7: (READ, WRITE)}


class Core:
    """One core's whole state."""

    def __init__(self, code: dict, vector: dict) -> None:
        self.code = code          # address -> Instr
        self.vector = vector      # exception number -> handler address
        self.R = [0] * 16         # r0-r12, sp, lr, pc
        self.xpsr = 0
        self.control = 0          # nPRIV
        self.mode = THREAD
        self.pending = []
        self.steps = 0
        self.cycles = 0
        self.halt = None          # the first halt's reason
        self.events = []          # (kind, pc, exception, halt reason)
        self.mem = {}             # byte address -> byte
        self.dwt = [0] * 12       # COMP, MASK, FUNCTION of groups 0-3
        self.demcr = 0
        self.ssp_span = None      # legal [lo, hi] of a COMP1 write
        self.policy = None        # None (no monitor), "reset" or "report"
        self.records = []         # the monitor's violation records
        self.last_pc = 0          # pc of the last retired instruction
        self.stored = {}          # RAM bytes the current step wrote

    def write_word(self, address: int, value: int) -> None:
        """Put a word in RAM as a loader does: no monitor, no step."""
        for i in range(4):
            self.mem[(address + i) & MASK32] = (value >> 8 * i) & 0xFF

    def arm(self, ss_start: int, ss_size_log2: int, policy: str) -> None:
        """Boot-time protection: what the runtime writes to the debug
        registers before the program runs (none of it is monitored)."""
        device_write(self, DWT_COMP0, ss_start)
        device_write(self, DWT_COMP0 + 4, ss_size_log2)
        device_write(self, DWT_COMP0 + 8, 6)
        device_write(self, DWT_COMP0 + 16, ss_start)  # COMP1: the ssp
        device_write(self, DWT_COMP0 + 32, DEMCR)
        device_write(self, DWT_COMP0 + 36, 2)
        device_write(self, DWT_COMP0 + 40, 6)
        device_write(self, DWT_COMP0 + 48, DWT_COMP0 + 32)  # groups 2 and 3
        device_write(self, DWT_COMP0 + 52, 5)
        device_write(self, DWT_COMP0 + 56, 6)
        self.ssp_span = (ss_start, ss_start + (1 << ss_size_log2))
        self.demcr |= MON_EN
        self.policy = policy


def halt(c: Core, reason: str) -> None:
    if c.halt is None:
        c.halt = reason


# -- the fetch and retire cycle -----------------------------------------------

def step(c: Core) -> None:
    """One step: take a pending exception, or fault an empty fetch, or
    retire the instruction at pc; then end it (exception return, halt)."""
    if c.halt is not None:
        return
    at = c.R[PC]
    c.stored = {}
    ins = c.code.get(at)
    if c.pending and c.mode == THREAD:
        c.steps += 1
        exception_entry(c, c.pending.pop(0), at, 12)
    elif ins is None:
        c.steps += 1
        exception_entry(c, USAGE_FAULT, at + 2, 12)
    else:
        c.cycles += ins.cycles
        c.last_pc = at
        c.R[PC] = at + ins.width
        EXECUTE[ins.op](c, ins)
        c.steps += 1
    if c.R[PC] >= EXC_RETURN_BASE and c.halt is None:
        exception_return(c, c.R[PC])
    if c.halt is not None:
        c.events.append(("halted", at, None, c.halt))


def exception_entry(c: Core, number: int, return_address: int,
                    cost: int) -> None:
    handler = c.vector.get(number)
    if handler is None or c.mode != THREAD:
        halt(c, "fault")
        return
    frame = (c.R[0], c.R[1], c.R[2], c.R[3], c.R[12], c.R[LR],
             return_address, c.xpsr)
    frameptr = (c.R[SP] - 32) & MASK32
    c.R[SP] = frameptr
    for i, word in enumerate(frame):
        store(c, (frameptr + 4 * i) & MASK32, 4, word)
    c.R[LR] = EXC_RETURN
    c.mode = HANDLER
    c.xpsr = (c.xpsr & ~0x1FF & MASK32) | number
    c.R[PC] = handler
    c.cycles += cost
    c.events.append(("exception_entered", handler, number, None))


def exception_return(c: Core, exc_return: int) -> None:
    if exc_return != EXC_RETURN or c.mode != HANDLER:
        halt(c, "fault")
        return
    returning = c.xpsr & 0x1FF
    frameptr = c.R[SP]
    words = [load(c, (frameptr + 4 * i) & MASK32, 4) for i in range(8)]
    c.R[0], c.R[1], c.R[2], c.R[3], c.R[12], c.R[LR] = words[:6]
    c.R[PC] = words[6]
    c.xpsr = words[7]
    c.R[SP] = (frameptr + 32) & MASK32
    c.mode = THREAD
    c.cycles += 12
    c.events.append(("exception_returned", words[6], returning, None))


# -- memory, the monitor and the debug registers -----------------------------

def watchpoint(c: Core, address: int, size: int, kind: int,
               value: int) -> bool:
    """The debug monitor: True when a comparator matches the access."""
    if c.policy is None:
        return False
    for group in range(4):
        comp, mask, function = c.dwt[3 * group:3 * group + 3]
        if kind not in MATCHES.get(function, ()):
            continue
        lo = comp & ~((1 << mask) - 1) & MASK32
        if address < lo + (1 << mask) and lo < address + size:
            c.records.append((c.steps, c.last_pc, address, group, value,
                              size, kind))
            if c.policy == "reset":
                halt(c, "reset")
            return True
    return False


def device_word(address: int) -> int | None:
    """The device word an access starting at ``address`` reaches."""
    if DWT_BASE <= address < DWT_END or DEMCR <= address < DEMCR + 4:
        return address & ~3
    return None


def device_read(c: Core, word: int) -> int:
    if word == DEMCR:
        return c.demcr
    if word == DWT_CYCCNT:
        return c.cycles & MASK32
    offset = word - DWT_COMP0
    if 0 <= offset and offset % 16 < 12:
        return c.dwt[offset // 16 * 3 + offset % 16 // 4]
    return 0  # CTRL and the reserved words read as zero


def device_write(c: Core, word: int, value: int) -> None:
    if word == DEMCR:
        c.demcr = value & MASK32
        return
    offset = word - DWT_COMP0
    if offset < 0 or offset % 16 >= 12:
        return  # CYCCNT is read-only here; the rest ignore writes
    group, register = offset // 16, offset % 16 // 4
    value &= 0x1F if register == 1 else MASK32
    c.dwt[3 * group + register] = value
    if group == 1 and register == 0 and c.ssp_span is not None:
        lo, hi = c.ssp_span
        if not lo <= value <= hi:
            halt(c, "stack_overflow")


def load(c: Core, address: int, size: int) -> int:
    watchpoint(c, address, size, READ, 0)
    word = device_word(address)
    if word is None:
        return sum(c.mem.get((address + i) & MASK32, 0) << 8 * i
                   for i in range(size))
    if size == 1:
        return device_read(c, word) >> 8 * (address & 3) & 0xFF
    if address != word:
        halt(c, "fault")
        return 0
    return device_read(c, word)


def store(c: Core, address: int, size: int, value: int) -> None:
    if watchpoint(c, address, size, WRITE, value):
        return
    word = device_word(address)
    if word is None:
        for i in range(size):
            byte = (address + i) & MASK32
            c.mem[byte] = c.stored[byte] = (value >> 8 * i) & 0xFF
    elif size == 1:
        lane = 8 * (address & 3)
        old = device_read(c, word)
        device_write(c, word, old & ~(0xFF << lane) | (value & 0xFF) << lane)
    elif address != word:
        halt(c, "fault")
    else:
        device_write(c, word, value)


# -- flags ------------------------------------------------------------------

def add_with_carry(x: int, y: int, carry_in: int) -> tuple:
    """(result, carry_out, overflow) of x + y + carry_in, 32 bits."""
    def signed(v):
        return v - (1 << 32) if v & 0x80000000 else v

    unsigned_sum = x + y + carry_in
    signed_sum = signed(x) + signed(y) + carry_in
    result = unsigned_sum & MASK32
    return result, result != unsigned_sum, signed(result) != signed_sum


def compare(c: Core, x: int, imm32: int) -> None:
    """CMP: the flags of x - imm32, as x + NOT(imm32) + 1."""
    result, carry, overflow = add_with_carry(x, ~imm32 & MASK32, 1)
    n, z = result >> 31, result == 0
    c.xpsr = (c.xpsr & 0x0FFFFFFF | n << 31 | z << 30 | carry << 29
              | overflow << 28)


def condition_passed(c: Core, cond: str) -> bool:
    n, z, v = c.xpsr >> 31 & 1, c.xpsr >> 30 & 1, c.xpsr >> 28 & 1
    return {"eq": z == 1, "ne": z == 0, "ge": n == v, "lt": n != v}[cond]


# -- one function per op ------------------------------------------------------

def op_movw(c, ins):
    c.R[ins.rd] = ins.imm


def op_movt(c, ins):
    c.R[ins.rd] = ins.imm << 16 | c.R[ins.rd] & 0xFFFF


def op_mov_imm(c, ins):
    c.R[ins.rd] = ins.imm


def op_mov_reg(c, ins):
    c.R[ins.rd] = c.R[ins.rm]


def op_ldr(c, ins):
    address = (c.R[ins.rn] + ins.imm) & MASK32
    if address & 3:
        halt(c, "fault")
    else:
        c.R[ins.rd] = load(c, address, 4)


def op_str(c, ins):
    address = (c.R[ins.rn] + ins.imm) & MASK32
    if address & 3:
        halt(c, "fault")
    else:
        store(c, address, 4, c.R[ins.rd])


def op_ldrb(c, ins):
    c.R[ins.rd] = load(c, (c.R[ins.rn] + ins.imm) & MASK32, 1)


def op_strb(c, ins):
    store(c, (c.R[ins.rn] + ins.imm) & MASK32, 1, c.R[ins.rd] & 0xFF)


def op_push(c, ins):
    address = (c.R[SP] - 4 * len(ins.reglist)) & MASK32
    values = [c.R[r] for r in range(16) if r in ins.reglist]
    c.R[SP] = address
    for i, value in enumerate(values):
        store(c, (address + 4 * i) & MASK32, 4, value)


def op_pop(c, ins):
    address = c.R[SP]
    c.R[SP] = (address + 4 * len(ins.reglist)) & MASK32
    for i, r in enumerate(r for r in range(16) if r in ins.reglist):
        c.R[r] = load(c, (address + 4 * i) & MASK32, 4)


def op_add_sp(c, ins):
    c.R[SP] = (c.R[SP] + ins.imm) & MASK32


def op_sub_sp(c, ins):
    c.R[SP] = (c.R[SP] - ins.imm) & MASK32


def op_addw(c, ins):
    c.R[ins.rd] = (c.R[ins.rn] + ins.imm) & MASK32


def op_subw(c, ins):
    c.R[ins.rd] = (c.R[ins.rn] - ins.imm) & MASK32


def op_cmp_imm(c, ins):
    compare(c, c.R[ins.rn], ins.imm)


def op_cmp_reg(c, ins):
    compare(c, c.R[ins.rn], c.R[ins.rm])


def op_b(c, ins):
    c.R[PC] = ins.target


def op_bcond(c, ins):
    if condition_passed(c, ins.cond):
        c.cycles += 1
        c.R[PC] = ins.target


def op_bl(c, ins):
    c.R[LR] = c.R[PC]
    c.R[PC] = ins.target


def op_bx(c, ins):
    c.R[PC] = c.R[ins.rm]


def op_blx(c, ins):
    target = c.R[ins.rm]
    c.R[LR] = c.R[PC]
    c.R[PC] = target


def op_msr(c, ins):
    if c.mode == HANDLER or not c.control & 1:  # privileged
        c.control = c.R[ins.rn] & 1


def op_mrs(c, ins):
    c.R[ins.rd] = c.control


def op_nop(c, ins):
    pass


def op_svc(c, ins):
    exception_entry(c, SVCALL, c.R[PC], 0)


def op_bkpt(c, ins):
    halt(c, "normal" if ins.imm == 0 else "report")


def op_udf(c, ins):
    exception_entry(c, USAGE_FAULT, c.R[PC], 12)


EXECUTE = {op: globals()["op_" + op] for op in OPS}
