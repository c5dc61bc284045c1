"""Hot straight-line blocks compiled to Python functions for Machine.run.

A block is the run of instructions from an entry pc up to and including
the first branch or pc write, ending early before ``svc``, ``bkpt``,
``udf`` or a missing instruction, and at most MAX_BLOCK_LEN long.
``Machine.run`` steps through a block until it has reached the block's
entry pc HOT_THRESHOLD times; then the block is compiled to one
generated function that does what ``step()`` would do for each of its
instructions, with the per-step bookkeeping lifted out:

* ``m.steps``, ``m.cycles``, ``m.cur_pc`` and ``m.pc`` are brought up to
  date only before an instruction that can observe them (a load, store,
  push or pop) and at the exit, with the values ``step()`` would have
  left there;
* after each such instruction the block exits if the machine halted or
  has an exception pending (a vectored watchpoint hit pends the debug
  monitor), and an exit where ``step()`` could halt or start an
  exception return ends through ``Machine._end``, the one
  end-of-instruction rule, which does that return and logs the halt;
* ``m.retired`` and ``m.taken`` are not touched per instruction: the
  block counts how many of its instructions each execution retired and
  how often its final conditional branch was taken, and ``Block.fold``
  adds those counts to the machine's when ``Machine.execution_counts``
  reads them;
* ``min_sp`` is checked after the first instruction and after every
  instruction that writes sp, which gives the same minimum as a check
  after every step.

Data accesses go through ``m.load``/``m.store``, and exception returns
through ``m._end``, which looks up
``exception_model.return_from_exception`` when called, so access hooks
and anything patched onto the class or module still see each one.
Compiled code is cached by the identity of the Instr objects it was
made from, so those must not be mutated in place; ``Machine.run`` drops
its blocks, their counts folded in, when ``m.code`` is replaced.
"""

from __future__ import annotations

from . import machine as mach
from .isa import LR, MASK32, NUM_GPRS, PC, SP

HOT_THRESHOLD = 32
MAX_BLOCK_LEN = 64

# Never inside a block: step() runs them (exception entry, halt).
_STEP_ONLY = frozenset(("svc", "bkpt", "udf"))
_BRANCHES = frozenset(("b", "bcond", "bl", "bx", "blx"))
_MEMORY = frozenset(("ldr", "str", "ldrb", "strb", "push", "pop"))
# Ops whose rd is written through write_reg (and so masked to 32 bits).
_WRITES_RD = frozenset(("movw", "movt", "mov_imm", "mov_reg", "ldr", "ldrb",
                        "addw", "subw", "mrs"))


class Block:
    """The block entered at one pc: its length, how often run() has
    reached it, and once hot its compiled function.

    ``counts[j]`` (j >= 1) is how many executions of the compiled
    function retired exactly the first j instructions; ``counts[0]`` is
    how often a conditional branch at the end was taken.  ``fold`` adds
    them to the machine's counts.
    """

    __slots__ = ("n", "heat", "fn", "counts", "addrs")

    def __init__(self) -> None:
        self.n = 0  # known once compiled
        self.heat = 0
        self.fn = None

    def compile(self, code, pc: int) -> None:
        """Compile the block; one of no instructions stays uncompiled."""
        instrs = _block_at(code, pc)
        if not instrs:
            return
        self.n = len(instrs)
        self.counts = [0] * (self.n + 1)
        self.addrs = tuple(at for at, _ in instrs)
        ns = {"M": MASK32}
        exec(_byte_code(instrs), ns)
        self.fn = ns["make"](self.counts)

    def fold(self, m) -> None:
        """Add the counts to ``m.retired`` and ``m.taken``; zero them."""
        counts = self.counts
        retired = m.retired
        runs = 0  # executions that retired instruction i
        for i in range(self.n - 1, -1, -1):
            runs += counts[i + 1]
            if runs:
                at = self.addrs[i]
                retired[at] = retired.get(at, 0) + runs
        if counts[0]:
            at = self.addrs[-1]
            m.taken[at] = m.taken.get(at, 0) + counts[0]
        counts[:] = [0] * (self.n + 1)


# Byte code of compiled blocks, by entry pc and the identity of their
# Instr objects, which each entry keeps alive.  compile() costs about a
# millisecond a block, and every machine built from one program would
# otherwise pay it again.  Oldest entries go first.
_CODE_CACHE: dict[tuple, tuple] = {}
CODE_CACHE_SIZE = 256


def _byte_code(instrs):
    key = (instrs[0][0],) + tuple(id(ins) for _, ins in instrs)
    hit = _CODE_CACHE.get(key)
    if hit is None:
        if len(_CODE_CACHE) >= CODE_CACHE_SIZE:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
        hit = _CODE_CACHE[key] = (
            instrs, compile(_source(instrs), "<block>", "exec"))
    return hit[1]


# -- code generation ---------------------------------------------------------------

def _ends_block(ins) -> bool:
    if ins.op in _BRANCHES:
        return True
    if ins.op == "pop":
        return PC in ins.reglist
    return ins.op in _WRITES_RD and ins.rd == PC


def _writes_sp(ins) -> bool:
    op = ins.op
    if op in ("push", "pop", "add_sp", "sub_sp"):
        return True
    return op in _WRITES_RD and ins.rd == SP


def _block_at(code, pc: int) -> list:
    """(address, Instr) pairs of the block entered at pc; may be empty."""
    instrs = []
    addr = pc
    while len(instrs) < MAX_BLOCK_LEN:
        ins = code.get(addr)
        if ins is None or ins.op in _STEP_ONLY:
            break
        instrs.append((addr, ins))
        if _ends_block(ins):
            break
        addr += ins.width
    return instrs


def _source(instrs) -> str:
    """``make(cnt)`` returning ``block(m)``: the block's instructions as
    Machine.step would run them, in sequence."""
    out = ["def make(cnt):",
           " def block(m):",
           "  g = m.gpr",
           "  s = m.steps",
           "  c = m.cycles"]
    n = len(instrs)
    cost = 0
    for i, (at, ins) in enumerate(instrs):
        cost += ins.cycles
        nxt = at + ins.width
        last = i == n - 1
        out.append("  # 0x%08x %s" % (at, ins.op))
        if ins.op in _MEMORY:
            out.append("  m.steps = s + %d; m.cycles = c + %d; "
                       "m.cur_pc = %d; m.pc = %d" % (i, cost, at, nxt))
        out += ["  " + line for line in _EMIT[ins.op](ins, nxt, cost)]
        if i == 0 or _writes_sp(ins):
            out.append("  if m.min_sp is not None and m.sp < m.min_sp: "
                       "m.min_sp = m.sp")
        if ins.op in _MEMORY:
            check = "m.halted or m.pending"
            if last and _ends_block(ins):
                check += " or m.pc >= %d" % mach.EXC_RETURN_MIN
            out += ["  if %s:" % check,
                    "   m.steps = s + %d; cnt[%d] += 1" % (i + 1, i + 1),
                    "   return m._end(%d)" % at]
    at, ins = instrs[-1]
    if ins.op != "bcond":  # a conditional branch sets cycles itself
        out.append("  m.cycles = c + %d" % cost)
    if not _ends_block(ins):
        out.append("  m.pc = %d" % (at + ins.width))
    out.append("  m.steps = s + %d; m.cur_pc = %d; cnt[%d] += 1"
               % (n, at, n))
    if (_ends_block(ins) and ins.op not in _MEMORY
            and ins.op not in ("b", "bcond", "bl")):
        out.append("  if m.pc >= %d: return m._end(%d)"
                   % (mach.EXC_RETURN_MIN, at))
    out.append(" return block")
    return "\n".join(out) + "\n"


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


def _set(r: int, expr: str) -> str:
    """write_reg(r, expr): the value is masked to 32 bits."""
    if expr.isdigit():
        expr = "%d" % (int(expr) & MASK32)
        mask = ""
    else:
        expr, mask = "(%s)" % expr, " & M"
    if r < NUM_GPRS:
        return "g[%d] = %s%s" % (r, expr, mask)
    return "m.%s = %s%s" % ({SP: "sp", LR: "lr"}.get(r, "pc"), expr, mask)


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


def _bcond(ins, nxt, cost):
    return ["x = m.xpsr",
            "if %s:" % _COND[ins.cond],
            " m.pc = %d; m.cycles = c + %d; cnt[0] += 1"
            % (ins.target, cost + 1),
            "else:",
            " m.pc = %d; m.cycles = c + %d" % (nxt, cost)]


_EMIT = {
    "movw": lambda ins, nxt, cost: [_set(ins.rd, "%d" % ins.imm)],
    "movt": lambda ins, nxt, cost: [
        _set(ins.rd, "(%s & 0xFFFF) | %d" % (_reg(ins.rd, nxt),
                                             ins.imm << 16))],
    "mov_imm": lambda ins, nxt, cost: [_set(ins.rd, "%d" % ins.imm)],
    "mov_reg": lambda ins, nxt, cost: [_set(ins.rd, _reg(ins.rm, nxt))],
    "ldr": lambda ins, nxt, cost: [
        "a = " + _addr(ins, nxt),
        "if a & 3: m.fault()",
        "else: " + _set(ins.rd, "m.load(a, 4)")],
    "str": lambda ins, nxt, cost: [
        "a = " + _addr(ins, nxt),
        "if a & 3: m.fault()",
        "else: m.store(a, 4, %s)" % _reg(ins.rd, nxt)],
    "ldrb": lambda ins, nxt, cost: [
        _set(ins.rd, "m.load(%s, 1)" % _addr(ins, nxt))],
    "strb": lambda ins, nxt, cost: [
        "m.store(%s, 1, %s & 0xFF)" % (_addr(ins, nxt), _reg(ins.rd, nxt))],
    "push": lambda ins, nxt, cost: (
        ["sp = m.sp - %d" % (4 * len(ins.reglist)), "m.sp = sp"]
        + ["m.store(sp + %d, 4, %s)" % (4 * i, _reg(r, nxt))
           for i, r in enumerate(ins.reglist)]),
    "pop": lambda ins, nxt, cost: (
        ["sp = m.sp", "m.sp = sp + %d" % (4 * len(ins.reglist))]
        + [_set(r, "m.load(sp + %d, 4)" % (4 * i))
           for i, r in enumerate(ins.reglist)]),
    "add_sp": lambda ins, nxt, cost: ["m.sp = (m.sp + %d) & M" % ins.imm],
    "sub_sp": lambda ins, nxt, cost: ["m.sp = (m.sp - %d) & M" % ins.imm],
    "addw": lambda ins, nxt, cost: [
        _set(ins.rd, "%s + %d" % (_reg(ins.rn, nxt), ins.imm))],
    "subw": lambda ins, nxt, cost: [
        _set(ins.rd, "%s - %d" % (_reg(ins.rn, nxt), ins.imm))],
    "cmp_imm": lambda ins, nxt, cost: _cmp(_reg(ins.rn, nxt), "%d" % ins.imm),
    "cmp_reg": lambda ins, nxt, cost: _cmp(_reg(ins.rn, nxt),
                                           _reg(ins.rm, nxt)),
    "b": lambda ins, nxt, cost: ["m.pc = %d" % ins.target],
    "bcond": _bcond,
    "bl": lambda ins, nxt, cost: ["m.lr = %d; m.pc = %d" % (nxt, ins.target)],
    "bx": lambda ins, nxt, cost: ["m.pc = %s" % _reg(ins.rm, nxt)],
    "blx": lambda ins, nxt, cost: [
        "t = %s; m.lr = %d; m.pc = t" % (_reg(ins.rm, nxt), nxt)],
    "msr": lambda ins, nxt, cost: [
        "if m.mode == %r or not m.control & 1: m.control = %s & 1"
        % (mach.MODE_HANDLER, _reg(ins.rn, nxt))],
    "mrs": lambda ins, nxt, cost: [_set(ins.rd, "m.control")],
    "nop": lambda ins, nxt, cost: [],
}
