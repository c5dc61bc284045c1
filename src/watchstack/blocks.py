"""Hot traces compiled to Python functions for Machine.run.

A block is the trace entered at a pc: it runs on past each ``b`` and
``bl``, into the branch's target, and ends at any other branch or pc
write, before an address already in it, before a TRAP op (``svc``,
``bkpt``, ``udf``) or a missing instruction, and at most MAX_BLOCK_LEN
long.  What an op is (a branch, a data access, a trap) and which
registers it writes are read from its row in ``isa.OPS``; only the
per-op source of ``_EMIT`` and ``_FOLD`` is spelled here.
``Machine.run`` steps through a block until it has reached the block's
entry pc HOT_THRESHOLD times; then the block is compiled to one
generated function, ``block(m, limit)``, that does what ``step()``
would do for each of its instructions, with the per-step bookkeeping
lifted out.  A block whose exit reaches its own entry is a loop: its
function runs the block again while the exit does and another pass
fits in the step budget ``limit``, and else returns at the entry, so a
hot loop does not go back to ``Machine.run`` each pass.  For an exit
to a label or the fall-through (a ``b``, ``bl`` or ``bcond`` whose
target or fall-through is the entry) that is decided at compile time;
for a pc from a register or memory (``bx``, ``blx``, ``pop {..., pc}``)
the pass tests it.  In the generated function:

* steps and cycles are kept in locals; ``m.steps``, ``m.cycles``,
  ``m.cur_pc`` and ``m.pc`` are written only before something can read
  them (the guard, ``m.load`` and ``m.store``, and a CYCCNT read) and
  at each exit, with the values ``step()`` would have left there;
* after each data access the block exits if the machine halted (no
  access pends an exception: only the runner raises them, between
  ``run()`` calls), and an exit where ``step()`` could halt or start an
  exception return ends through ``Machine._end``, the one
  end-of-instruction rule, which does that return and logs the halt;
* ``m.retired`` and ``m.taken`` are not touched per instruction: the
  block counts how many of its instructions each pass retired and how
  often its final conditional branch was taken (a trace follows no
  conditional branch), and ``Block.fold`` adds those counts to the
  machine's before ``Machine.run`` returns;
* ``min_sp`` is checked once on entry when no instruction of the block
  writes sp, and else after the first instruction and after every
  instruction that writes sp, which gives the same minimum as a check
  after every step.

Each data access, and each pushed or popped word, makes one inline
test, as QEMU's softmmu path does: its fast case runs in line, and
every other case writes the state and calls the machine.  A
hull-first access (a pushed or popped word, a load or store with base
sp, a bound device word) tests only the hull of the comparator
regions, ``m.watch[2]``, which no comparator can match outside of:
there RAM, below ``machine.PPB_BASE`` and, for a word, on one page, is
read or written on ``m.mem``'s page with no call and no state writes,
and a device word calls its port; anything else takes ``m.load`` or
``m.store``, which run the four-region test, the guard and the device
decode.  Any other access, such as a byte store that hits on most
passes, tests the four regions of ``m.watch`` inline, as
``Machine.load``/``store`` do: on a hit the block writes the state and
shows the guard the access, then commits a store through
``Machine.commit`` unless the guard suppresses it, or reads a load
through ``m.load``; a miss into RAM on one page is taken in line, and
any other goes to ``m.load`` after the state writes, or to
``m.commit``.  A page nothing wrote reads 0, and a store that misses
every comparator and finds its page missing goes to ``m.commit``,
which creates it (``_decode``).  A push or pop handles all its words,
as ``step()`` does, even when the guard halts the machine on an
earlier one.

The block folds constants: it knows the value a ``movw``, ``mov_imm`` or
``movt`` put in a register until another write of it (read from
``isa.OPS``), and emits such an instruction as that constant.  A word
``ldr``/``str`` whose address is known, aligned and, by
``machine.ppb_device``, on a device (``_device_word``) takes the same
``_load``/``_store``, hull-first, with its address as a literal and no
alignment test; outside the hull ``_decode`` calls the word's port, which
``Block.compile`` binds, with the device, as arguments of ``make``: the
device's ``port(addr)`` read or write, or ``_RAM``'s on a machine
without it.  So the source does not depend on the machine, and compiled
code is cached by it: it spells out the entry pc and every operand, so
machines built from equal code share it and a changed instruction
compiles anew.  Exception returns go through ``m._end``, which looks up
``exception_model.return_from_exception`` when called, so anything
patched onto the class or module still sees each one.  Code at or above
``EXC_RETURN_MIN`` is not run in line, and a block whose next pc can be
there ends through ``m._end``.  ``Machine.run`` drops its blocks, whose
counts it folded in when it last returned, when ``m.code``, ``m.dwt``
or ``m.demcr`` is replaced.
"""

from __future__ import annotations

import functools

from . import machine as mach
from .isa import BRANCH, LR, MASK32, MEMORY, NUM_GPRS, OPS, PC, SP, TRAP

HOT_THRESHOLD = 32
MAX_BLOCK_LEN = 64


class Block:
    """The block entered at one pc: its length, how often run() has
    reached it, and once hot its compiled function.

    ``counts[j]`` (j >= 1) is how many passes of the compiled function
    through the block retired exactly the first j instructions (a loop
    makes several passes a call); ``counts[0]`` is how often a
    conditional branch at the end was taken.  ``fold`` adds them to the
    machine's counts.
    """

    __slots__ = ("n", "heat", "fn", "counts", "addrs")

    def __init__(self) -> None:
        self.n = 0  # known once compiled
        self.heat = 0
        self.fn = None

    def compile(self, m, pc: int) -> None:
        """Compile the block of ``m.code`` at pc, binding each device word
        to ``m``'s port; one of no instructions stays uncompiled."""
        instrs = _block_at(m.code, pc)
        if not instrs:
            return
        self.n = len(instrs)
        self.counts = [0] * (self.n + 1)
        self.addrs = tuple(at for at, _ in instrs)
        ns = {"M": MASK32, "U": mach.WORD.unpack_from,
              "K": mach.WORD.pack_into}
        source, words = _source(instrs)
        exec(_byte_code(source), ns)
        ports = []
        for addr, name, kind in words:
            dev = getattr(m, name)
            ports += ((addr, _RAM[kind]) if dev is None
                      else (dev, dev.port(addr)[kind]))
        self.fn = ns["make"](self.counts, *ports)

    def fold(self, m) -> None:
        """Add the counts to ``m.retired`` and ``m.taken``; zero them."""
        counts = self.counts
        retired = m.retired
        runs = 0  # passes that retired instruction i
        for i in range(self.n - 1, -1, -1):
            runs += counts[i + 1]
            if runs:
                at = self.addrs[i]
                retired[at] = retired.get(at, 0) + runs
        if counts[0]:
            at = self.addrs[-1]
            m.taken[at] = m.taken.get(at, 0) + counts[0]
        counts[:] = [0] * (self.n + 1)


# A device word's port on a machine without the device, bound to the
# word's address: RAM, through the generic path.
_RAM = (lambda a, m: m.load(a, 4), lambda a, m, v: m.commit(a, 4, v))

# compile() costs about a millisecond a block, and every machine built
# from equal code would otherwise pay it again.
CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _byte_code(source: str):
    return compile(source, "<block>", "exec")


# -- code generation ---------------------------------------------------------------

def _written(ins) -> set:
    """The registers ``ins`` writes, from its row in ``isa.OPS``."""
    row = OPS[ins.op]
    regs = set(ins.reglist) if row.writes_reglist else set()
    if row.writes_rd:
        regs.add(ins.rd)
    if row.writes_sp:
        regs.add(SP)
    if row.writes_lr:
        regs.add(LR)
    return regs


def _jumps(ins) -> bool:
    """A branch, or any other write of pc."""
    return OPS[ins.op].kind == BRANCH or PC in _written(ins)


def _block_at(code, pc: int) -> list:
    """(address, Instr) pairs of the trace entered at pc; may be empty.
    It follows a ``b`` or ``bl`` to its target and ends at any other
    jump, or before an address already in it, a TRAP op, a missing
    instruction or EXC_RETURN_MIN (code there is never run in line:
    reaching it is an exception return)."""
    instrs = []
    seen = set()
    addr = pc
    while (len(instrs) < MAX_BLOCK_LEN and addr < mach.EXC_RETURN_MIN
           and addr not in seen):
        ins = code.get(addr)
        if ins is None or OPS[ins.op].kind == TRAP:
            break
        instrs.append((addr, ins))
        seen.add(addr)
        if ins.op in ("b", "bl"):
            addr = ins.target
        elif _jumps(ins):
            break
        else:
            addr += ins.width
    return instrs


def _exits(at: int, ins) -> tuple | None:
    """The pcs that the block's last instruction, at ``at``, can leave
    for, or None for a pc taken from a register or memory."""
    nxt = at + ins.width
    if ins.op == "bcond":
        return ins.target, nxt
    if "{label}" in OPS[ins.op].form:
        return (ins.target,)
    return None if _jumps(ins) else (nxt,)


def _fold(ins, known: dict) -> None:
    """Bring ``known``, register -> the value this block put there, past
    ``ins``: ``_FOLD`` gives a value its op sets, and any other write
    forgets the register."""
    fold = _FOLD.get(ins.op)
    value = None if fold is None else fold(ins, known)
    for r in _written(ins):
        known.pop(r, None)
    if value is not None:
        known[ins.rd] = value & MASK32


def _device_word(ins, known: dict):
    """(address, device attribute) of a word ``ldr``/``str`` whose
    address is known, aligned and on a device; else None."""
    if ins.op not in ("ldr", "str") or ins.rn not in known or _jumps(ins):
        return None
    addr = (known[ins.rn] + ins.imm) & MASK32
    dev = mach.ppb_device(addr)
    return None if addr & 3 or dev is None else (addr, dev)


_MIN_SP = "if m.min_sp is not None and m.sp < m.min_sp: m.min_sp = m.sp"


def _source(instrs) -> tuple[str, list]:
    """``make(cnt, d0, f0, ...)`` returning ``block(m, limit)``: the
    block's instructions as Machine.step would run them, in sequence.  A
    block whose exit reaches its own entry runs them again for as long
    as it does and another pass fits before ``limit`` steps.  Also
    ``(address, device, access kind)`` of each device word k, for its
    device ``d<k>`` and port read or write ``f<k>``."""
    words: list = []
    out = ["def make(cnt):",
           " def block(m, limit):",
           "  g = m.gpr",
           "  s = m.steps",
           "  c = m.cycles"]
    n = len(instrs)
    entry, (at, ins) = instrs[0][0], instrs[-1]
    exits = _exits(at, ins)
    loops = exits is None or entry in exits
    split = loops and ins.op in ("b", "bcond")  # _loop_tail runs it
    moves_sp = any(SP in _written(ins) for _, ins in instrs)
    if not moves_sp:
        out.append("  " + _MIN_SP)  # sp holds its entry value throughout
    if any(OPS[ins.op].kind == MEMORY for _, ins in instrs):
        out.append("  P = m.mem.pages; H = m.watch[2]")  # for _decode
    body = []
    cost = 0
    known: dict = {}
    for i, (at, ins) in enumerate(instrs[:-1] if split else instrs):
        cost += ins.cycles
        nxt = at + ins.width
        last = i == n - 1
        state = "m.cycles = c + %d; m.cur_pc = %d" % (cost, at)
        pc = "; m.pc = %d" % nxt
        sync = "m.steps = s + %d; %s%s" % (i, state, pc)
        bound = _device_word(ins, known)
        _fold(ins, known)
        body.append("# 0x%08x %s" % (at, ins.op))
        if bound is not None:  # aligned by construction: no alignment test
            load, k, addr = ins.op == "ldr", len(words), "%d" % bound[0]
            words.append(bound + (mach.ACCESS_READ if load
                                  else mach.ACCESS_WRITE,))
            body += (_load(ins.rd, addr, 4, sync, k, hull=True) if load
                     else _store(addr, 4, _reg(ins.rd, nxt), sync, k,
                                 hull=True))
        elif ins.op == "movt" and ins.rd in known:  # folded, as movw is
            body.append(_set(ins.rd, "%d" % known[ins.rd]))
        elif ins.op in ("b", "bl") and not last:  # followed: pc is not read
            body += ["m.lr = %d" % nxt] if ins.op == "bl" else []
        else:
            body += _EMIT[ins.op](ins, nxt, cost, sync)
        if moves_sp and (i == 0 or SP in _written(ins)):
            body.append(_MIN_SP)
        if OPS[ins.op].kind == MEMORY:
            check = "m.halted"
            if last and _jumps(ins):
                check += " or m.pc >= %d" % mach.EXC_RETURN_MIN
            # The state after the instruction, which a store wrote only
            # on the guard's path; pc unless the instruction wrote it.
            body += ["if %s:" % check,
                     " m.steps = s + %d; %s%s; cnt[%d] += 1"
                     % (i + 1, state, "" if _jumps(ins) else pc, i + 1),
                     " return m._end(%d)" % at]
    out[0] = "def make(cnt%s):" % "".join(", d%d, f%d" % (k, k)
                                          for k in range(len(words)))
    at, ins = instrs[-1]
    nxt = at + ins.width
    if loops:
        if split:
            cost += ins.cycles
        out.append("  while True:")
        out += ["   " + line
                for line in body + _loop_tail(ins, at, cost, n, entry)]
        if exits == (entry,):  # it leaves only through the budget test
            out.append(" return block")
            return "\n".join(out) + "\n", words
    else:
        out += ["  " + line for line in body]
    if ins.op != "bcond":  # a conditional branch sets cycles itself
        out.append("  m.cycles = c + %d" % cost)
    if not _jumps(ins):
        out.append("  m.pc = %d" % nxt)
    out.append("  m.steps = s + %d; m.cur_pc = %d; cnt[%d] += 1"
               % (n, at, n))
    # A pc taken from a register may be EXC_RETURN; a memory op's exit
    # above tests the pc it loaded.
    if (OPS[ins.op].kind != MEMORY if exits is None
            else max(exits) >= mach.EXC_RETURN_MIN):
        out.append("  if m.pc >= %d: return m._end(%d)"
                   % (mach.EXC_RETURN_MIN, at))
    out.append(" return block")
    return "\n".join(out) + "\n", words


def _loop_tail(ins, at: int, cost: int, n: int, entry: int) -> list[str]:
    """A looping block's exit test, after its other instructions: a
    ``bcond`` leaves for whichever of its target and fall-through is not
    the entry as ``_bcond`` would, a pc from a register or memory leaves
    when it is not the entry; a pass that stays counts itself and starts
    the next one if it fits before ``limit``, else returns at the entry."""
    lines = ["# 0x%08x %s" % (at, ins.op)] if ins.op in ("b", "bcond") else []
    count = "cnt[%d] += 1" % n
    if ins.op == "bcond" and ins.target == entry:
        lines += ["x = m.xpsr",
                  "if not (%s): m.pc = %d; m.cycles = c + %d; break"
                  % (_COND[ins.cond], at + ins.width, cost)]
        cost += 1
        count = "cnt[0] += 1; " + count
    elif ins.op == "bcond":
        lines += ["x = m.xpsr",
                  "if %s: m.pc = %d; m.cycles = c + %d; cnt[0] += 1; break"
                  % (_COND[ins.cond], ins.target, cost + 1)]
    elif _exits(at, ins) is None:
        lines.append("if m.pc != %d: break" % entry)
    return lines + [
        "s += %d; c += %d; %s" % (n, cost, count),
        "if s + %d > limit:" % n,
        " m.steps = s; m.cycles = c; m.cur_pc = %d; m.pc = %d; return"
        % (at, entry)]


# -- per-op source, mirroring Machine._x_* ----------------------------------------

def _reg(r: int, nxt: int) -> str:
    """read_reg(r); pc reads as the next instruction's address."""
    if r < NUM_GPRS:
        return "g[%d]" % r
    if r == SP:
        return "m.sp"
    if r == LR:
        return "m.lr"
    return "%d" % nxt


def _dest(r: int) -> str:
    """Where write_reg(r, ...) stores."""
    if r < NUM_GPRS:
        return "g[%d]" % r
    return "m.%s" % {SP: "sp", LR: "lr"}.get(r, "pc")


def _set(r: int, expr: str) -> str:
    """write_reg(r, expr): the value is masked to 32 bits."""
    if expr.isdigit():
        return "%s = %d" % (_dest(r), int(expr) & MASK32)
    return "%s = (%s) & M" % (_dest(r), expr)


def _addr(ins, nxt: int) -> str:
    return "(%s + %d) & M" % (_reg(ins.rn, nxt), ins.imm)


def _cmp(a: str, b: str) -> list[str]:
    """Machine.set_cmp_flags."""
    return ["a = %s; b = %s; r = (a - b) & M" % (a, b),
            "x = m.xpsr & 0x0FFFFFFF",
            "if r & 0x80000000: x |= 0x80000000",
            "if r == 0: x |= 0x40000000",
            "if a >= b: x |= 0x20000000",
            "if a >> 31 != b >> 31 and a >> 31 != r >> 31: x |= 0x10000000",
            "m.xpsr = x"]


# Machine.cond_true, on x = m.xpsr.
_COND = {
    "eq": "x & 0x40000000",
    "ne": "not x & 0x40000000",
    "lt": "bool(x & 0x80000000) != bool(x & 0x10000000)",
    "ge": "bool(x & 0x80000000) == bool(x & 0x10000000)",
}


def _bcond(ins, nxt, cost, sync):
    return ["x = m.xpsr",
            "if %s:" % _COND[ins.cond],
            " m.pc = %d; m.cycles = c + %d; cnt[0] += 1"
            % (ins.target, cost + 1),
            "else:",
            " m.pc = %d; m.cycles = c + %d" % (nxt, cost)]


def _hit(kind: int, a: str, end: str) -> tuple[str, str]:
    """Machine.load/store's comparator-region test of the access that
    covers [a, end): the line that reads the regions, and the test."""
    return ("s0, s1, s2, s3 = m.watch[%d]" % kind,
            " or ".join("%s < s%d[1] and %s > s%d[0]" % (a, k, end, k)
                        for k in range(4)))


def _decode(a: str, size: int, sync: str, dev, rd=None,
            hull=False) -> tuple[str, list[str]]:
    """The one compiled decode of an access of ``size`` bytes at ``a``
    that missed the comparators or, with ``hull``, lies outside their
    hull ``H`` (``m.watch[2]``): the test for its inline case, and the
    lines that read it into ``rd`` or, without ``rd``, write ``v``.  A
    device word, the ``dev``-th that ``_device_word`` found in the
    block, always takes the hull test, on the hull's half above
    PPB_BASE, and calls the port ``Block.compile`` bound, after ``sync``
    only at ``machine.DWT_CYCCNT``, the one device word whose read reads
    the state.  Else ``a`` must be RAM, below PPB_BASE (and with
    ``hull`` outside the half below), and a word must not cross a page.
    A missing page reads 0; a store to one goes to ``Machine.commit``,
    which alone creates pages.  A memory map that grows more banks
    changes this beside ``Machine.load``/``commit``."""
    if dev is not None:
        call = "f%d(d%d, m" % (dev, dev)
        if rd is None:
            access = call + ", v)"
        else:
            access = "%s = %s)" % (_dest(rd), call)  # a port reads 32 bits
            if a == "%d" % mach.DWT_CYCCNT:
                access = sync + "; " + access
        return "%d <= H[2] or %s >= H[3]" % (int(a) + size, a), [access]
    test = "%s < %d" % (a, mach.PPB_BASE)
    if size == 4:
        test += " and (o := %s & %d) <= %d" % (a, mach.PAGE_MASK,
                                               mach.PAGE_SIZE - 4)
        off = "o"
    else:
        off = "%s & %d" % (a, mach.PAGE_MASK)
    if hull:
        test += " and (%s >= H[1] or %s + %d <= H[0])" % (a, a, size)
    page = "(p := P.get(%s >> %d)) is not None" % (a, mach.PAGE_BITS)
    if rd is None:
        write = ("K(p, %s, v)" if size == 4 else "p[%s] = v") % off
        if hull:
            return test, ["if %s: %s" % (page, write),
                          "else: m.commit(%s, %d, v)" % (a, size)]
        return test + " and " + page, [write]
    word = ("U(p, %s)[0]" if size == 4 else "p[%s]") % off
    return test, ["%s = %s if %s else 0" % (_dest(rd), word, page)]


def _load(rd: int, a: str, size: int, sync: str, dev=None,
          hull=False) -> list[str]:
    """Machine.load of ``size`` bytes at ``a`` into ``rd``: a load that
    ``_decode`` can read inline is read so if it misses the comparator
    regions or, with ``hull``, lies outside their hull; anything else
    brings the state up to date, for the guard and CYCCNT, and takes
    m.load."""
    test, (read,) = _decode(a, size, sync, dev, rd, hull)
    lines = []
    if not hull:
        regions, hit = _hit(mach.ACCESS_READ, a, "%s + %d" % (a, size))
        lines, test = [regions], "%s and not (%s)" % (test, hit)
    return lines + ["if %s: %s" % (test, read), "else: %s; %s"
                    % (sync, _set(rd, "m.load(%s, %d)" % (a, size)))]


def _store(a: str, size: int, value: str, sync: str, dev=None,
           hull=False) -> list[str]:
    """Machine.store of ``value`` at ``a``.  With ``hull``, a store that
    ``_decode`` can write inline, outside the hull, is written so, and
    any other brings the state up to date and takes m.store.  Else a
    store in a comparator region brings the state up to date for the
    guard and commits unless the guard suppresses it; a miss that
    ``_decode`` can write inline is written so, and any other goes
    through m.commit."""
    test, write = _decode(a, size, sync, dev, hull=hull)
    if hull:
        return ["v = " + value, "if %s:" % test,
                *(" " + line for line in write),
                "else: %s; m.store(%s, %d, v)" % (sync, a, size)]
    regions, hit = _hit(mach.ACCESS_WRITE, a, "%s + %d" % (a, size))
    commit = "m.commit(%s, %d, v)" % (a, size)
    return ["v = " + value, regions,
            "if %s:" % hit,
            " " + sync,
            " if not m.guard.on_store(m, %s, %d, v): %s" % (a, size, commit),
            "elif %s: %s" % (test, *write),
            "else: " + commit]


def _each_word(ins, access) -> list[str]:
    """A push or pop's words, lowest register at the lowest address: per
    register ``r``, ``a`` set to its word's address from ``sp``, then the
    lines of ``access(r)``."""
    lines = []
    for i, r in enumerate(ins.reglist):
        lines += ["a = (sp + %d) & M" % (4 * i) if i else "a = sp", *access(r)]
    return lines


# The state is written only on an access's slow path, before the guard,
# m.load, m.store or ``_decode``'s inline CYCCNT read (CYCCNT reads
# m.cycles); m.commit needs none, as no write reads it (a byte store into
# the DWT window reads its word back, but CYCCNT drops writes).
_EMIT = {
    "movw": lambda ins, nxt, cost, sync: [_set(ins.rd, "%d" % ins.imm)],
    "movt": lambda ins, nxt, cost, sync: [
        _set(ins.rd, "(%s & 0xFFFF) | %d" % (_reg(ins.rd, nxt),
                                             ins.imm << 16))],
    "mov_imm": lambda ins, nxt, cost, sync: [_set(ins.rd, "%d" % ins.imm)],
    "mov_reg": lambda ins, nxt, cost, sync: [
        _set(ins.rd, _reg(ins.rm, nxt))],
    "ldr": lambda ins, nxt, cost, sync: [
        "a = " + _addr(ins, nxt),
        "if a & 3: m.fault()",
        "else:",
        *(" " + line
          for line in _load(ins.rd, "a", 4, sync, hull=ins.rn == SP))],
    "str": lambda ins, nxt, cost, sync: [
        "a = " + _addr(ins, nxt),
        "if a & 3: m.fault()",
        "else:",
        *(" " + line for line in _store("a", 4, _reg(ins.rd, nxt), sync,
                                        hull=ins.rn == SP))],
    "ldrb": lambda ins, nxt, cost, sync: [
        "a = " + _addr(ins, nxt),
        *_load(ins.rd, "a", 1, sync, hull=ins.rn == SP)],
    "strb": lambda ins, nxt, cost, sync: [
        "a = " + _addr(ins, nxt),
        *_store("a", 1, "%s & 0xFF" % _reg(ins.rd, nxt), sync,
                hull=ins.rn == SP)],
    "push": lambda ins, nxt, cost, sync: [
        "sp = (m.sp - %d) & M" % (4 * len(ins.reglist)), "m.sp = sp",
        *_each_word(ins, lambda r: _store("a", 4, _reg(r, nxt), sync,
                                          hull=True))],
    "pop": lambda ins, nxt, cost, sync: [
        "sp = m.sp", "m.sp = (sp + %d) & M" % (4 * len(ins.reglist)),
        *_each_word(ins, lambda r: _load(r, "a", 4, sync, hull=True))],
    "add_sp": lambda ins, nxt, cost, sync: [
        "m.sp = (m.sp + %d) & M" % ins.imm],
    "sub_sp": lambda ins, nxt, cost, sync: [
        "m.sp = (m.sp - %d) & M" % ins.imm],
    "addw": lambda ins, nxt, cost, sync: [
        _set(ins.rd, "%s + %d" % (_reg(ins.rn, nxt), ins.imm))],
    "subw": lambda ins, nxt, cost, sync: [
        _set(ins.rd, "%s - %d" % (_reg(ins.rn, nxt), ins.imm))],
    "cmp_imm": lambda ins, nxt, cost, sync: _cmp(_reg(ins.rn, nxt),
                                                 "%d" % ins.imm),
    "cmp_reg": lambda ins, nxt, cost, sync: _cmp(_reg(ins.rn, nxt),
                                                 _reg(ins.rm, nxt)),
    "b": lambda ins, nxt, cost, sync: ["m.pc = %d" % ins.target],
    "bcond": _bcond,
    "bl": lambda ins, nxt, cost, sync: [
        "m.lr = %d; m.pc = %d" % (nxt, ins.target)],
    "bx": lambda ins, nxt, cost, sync: ["m.pc = %s" % _reg(ins.rm, nxt)],
    "blx": lambda ins, nxt, cost, sync: [
        "t = %s; m.lr = %d; m.pc = t" % (_reg(ins.rm, nxt), nxt)],
    "msr": lambda ins, nxt, cost, sync: [
        "if m.mode == %r or not m.control & 1: m.control = %s & 1"
        % (mach.MODE_HANDLER, _reg(ins.rn, nxt))],
    "mrs": lambda ins, nxt, cost, sync: [_set(ins.rd, "m.control")],
    "nop": lambda ins, nxt, cost, sync: [],
}


# The values a block knows it put in a register, by op; ``_fold`` keeps
# them in step with the block's other register writes.
_FOLD = {
    "movw": lambda ins, known: ins.imm,
    "mov_imm": lambda ins, known: ins.imm,
    "movt": lambda ins, known: (
        None if ins.rd not in known
        else (known[ins.rd] & 0xFFFF) | ins.imm << 16),
}
