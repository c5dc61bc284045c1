"""Hot traces compiled to Python functions for Machine.run.

A block is the trace entered at a pc: it runs on past each ``b`` and
``bl``, into the branch's target, and ends at any other branch or pc
write, before an address already in it, before a TRAP op (``svc``,
``bkpt``, ``udf``) or a missing instruction, and at most MAX_BLOCK_LEN
long.  Each op is emitted from ``semantics.SEMANTICS``, bound with
the block's operands known (``binder.Compiled``), but a last ``b`` or
``bcond`` and a loop's last ``bx``, which ``_tail`` emits.  ``Machine.run``
steps through a block until it has reached the block's entry pc
HOT_THRESHOLD times; then it is compiled to one generated function,
``block(m, limit)``, that does what ``step()`` would do for each of
its instructions, with the per-step bookkeeping lifted out.  A block
whose exit reaches its own entry, and whose pass ends in the watch
state it began in (below), is a loop: its function runs the block
again while the exit does and another pass fits in the step budget
``limit``, and else returns at the entry, so a hot loop does not go
back to ``Machine.run`` each pass.  For an exit to a label or the
fall-through (a ``b``, ``bl`` or ``bcond`` whose target or fall-through
is the entry) that is decided at compile time; for a pc from a
register or memory (``bx``, ``blx``, ``pop {..., pc}``) the pass tests
it.  In the generated function:

* steps, cycles and the flags are kept in locals: a compare keeps its
  operands, ``fa`` and ``fb``, for the branch after it.  Every block
  keeps each register it names, r0-r12, sp and lr, in a local too
  (``r<k>``, ``binder.read_reg``), loaded once after the entry check,
  as QEMU's TCG keeps guest registers in host ones within a block
  (Bellard, USENIX ATC 2005); pc stays ``m.pc``, which a loop's last
  ``bx`` writes only to leave.  ``m.steps``, ``m.cycles``,
  ``m.cur_pc``, ``m.pc``, ``m.xpsr`` and each register the block writes
  are written only before something can read them (``m.load`` and
  ``m.store``, which show the guard the access and read CYCCNT) and at
  each exit, a loop's budget return and the lines after the loop among
  them, as ``step()`` would have left them (the flags by
  ``semantics.write_flags``, ``F``), all spelled by one helper, so a
  halt exit writes them before ``Machine._end``, which may start an
  exception return.  No register is reloaded after a slow path:
  ``Machine.load``/``store``, the guard and the devices' ports write
  none (only an exception entry or return does).  A pop's words moved
  one at a time through ``m.load`` go to the machine's register as well
  as the local, as the next word's guard call may read it;
* only a path that can halt or change the watch state is followed by
  the block's halt exit: a slow path (``m.load`` or ``m.store``) by
  ``if m.halted or X(m) != Z1:`` and the exit, and a statement that
  halts for certain, a misaligned word's fault, a reset hit's arm (a
  load's read comes before its chain) or a COMP1 overflow, by the exit
  on its own line (``_HALTS``).  An in-line RAM or port fast path
  cannot halt and tests nothing (no access pends an exception: only the
  runner raises them, between ``run()`` calls).  An exit where
  ``step()`` could halt or start an exception return ends through
  ``Machine._end``, the one end-of-instruction rule, which does that
  return and logs the halt;
* ``m.retired`` and ``m.taken`` are not touched per instruction, nor
  counts per pass: each exit counts the pass it leaves, a loop's passes
  before it in the call, ``(s - e) // n``, and how often the final
  conditional branch was taken (a trace follows no conditional
  branch); ``Block.fold`` adds the counts to the machine's before
  ``Machine.run`` returns.  That fold, the ``s == e`` guard on the
  last pass's flags and ``while True:`` are a loop's alone;
* ``min_sp`` is checked only on a machine that tracks it (``_shape``):
  once on entry when no instruction of the block writes sp, and else
  after the first instruction and after every instruction that writes
  sp, which gives the same minimum as a check after every step.

A block is compiled for the watch state it is entered in (``_state``):
the regions of ``m.watch`` per access kind and, where the unit gives
in-line forms, its slots, cached regions and ``ssp_guard``
(``DwtUnit.snapshot``), which the instrumented code changes only
through FUNCTION0.  Every test on that state is a constant of the
source: the test of a hull-first access and of a device word against
the hull of its access kind's regions (``dwt.hull``, worked out here
and kept nowhere), a device word's ``slow`` test and COMP1's span,
and each arm of the lowest-comparator chain, where an empty region has
no arm and a region has none above PPB_BASE, where no in-line access
lies.
As the trace passes an in-line port write, the state it leaves is the
unit's own port run on a snapshot (``DwtUnit.inline``), so the
instructions after it are compiled for that one.  The block checks
what it assumes, as a trace JIT's guards do (Gal et al., PLDI 2009),
in three places: on entry, where a block made for another state
returns True, and ``Machine.run`` compiles it for the one it finds, or
takes that from ``_make``'s cache (``Block.compile``); after each slow
``m.load``/``m.store``, which may change the state, where it leaves
through its halt exit if the state is not the one the next instruction
was compiled for; and at the end of a pass, at compile time: a block
whose pass ends in another state does not loop.  Each state a check
reads is a constant of ``make``, ``Z0`` the entry's.

Each data access runs in line where it can, and else through
``m.load`` or ``m.store`` (``binder``, whose ``Compiled`` binds each
instruction for ``SEMANTICS``); in a loop, each in-line RAM access site
keeps the last page it found, for the call (``binder._decode``), which
a block that does not loop, running each site once a call, never hits.

What a block knows of its trace it learns before it emits, in one walk
each way, as TCG runs a constant folder and a liveness pass over each
block (``tcg/optimize.c``, ``liveness_pass_1``; Kildall, POPL 1973).
The forward walk carries the watch state, and the value a ``movw``,
``mov_imm`` or ``movt`` put in a register until its next write
(``isa.regs``), and finds what each instruction's code reads.  One that
leaves a known value is emitted as that constant and reads nothing.  A
word ``ldr``/``str`` at a known address runs, with no test, the lines
the watchpoint unit's port runs for the word (``DwtUnit.inline``, over
its state bound once per entry, ``BIND``), where the watch state puts
it outside its access kind's hull and the write needs no ``slow`` path
(``_in_line``); it reads no address, nor a stored value the block
knows.  Any other word is any other ``ldr``/``str``.  The backward walk
drops an ALU op whose register is written again before an emitted
read, a slow path, a line that halts or an exit: each writes back
every register the block writes, which a slow path's guard may read,
so the walk counts it a read of every local (``LOCALS``).

The source reads the trace, the code map's (address, instruction)
pairs, whose instructions are values (``_block_at``), the machine's
shape (``_shape``) and the watch state, and ``_make`` caches the
compiled block on the three: machines built from equal code in equal
states share it, and a changed instruction compiles anew.  Exception
returns go through ``m._end``, which looks
``exception_model.return_from_exception`` up when called, so a patch
of it sees each one.  Code at or above ``EXC_RETURN_MIN`` is not run in
line, and a block whose next pc can be there ends through ``m._end``.
``Machine.run`` drops its blocks when ``m.code`` or ``m.guard`` is
replaced (a block binds the guard's state once, when made: its
``BIND``), or ``min_sp`` is switched on or off.  A block binds ``m.dwt``
on every entry, and its entry check sees a replaced ``m.dwt`` or
``m.watch`` that changes the watch state.
"""

from __future__ import annotations

import functools
import re
import struct

from . import machine as mach
from .binder import Compiled, home, read_reg
from .dwt import hull
from .isa import (ALU, BRANCH, FLAGS, LR, MASK32, MEMORY, OPS, PC, SP,
                  TRAP, regs)
from .semantics import COND, SEMANTICS, define, write_flags

HOT_THRESHOLD = 32
MAX_BLOCK_LEN = 64


class Block:
    """The block entered at one pc: its length, how often run() has
    reached it, and once hot its compiled function.

    ``counts[j]`` (j >= 1) is how many passes of the compiled function
    through the block retired exactly the first j instructions, and
    ``counts[0]`` how often a conditional branch at the end was taken;
    a loop makes several passes a call and counts them at the call's
    exit.  ``fold`` adds them to the machine's counts.
    """

    __slots__ = ("n", "heat", "fn", "counts", "trace")

    def __init__(self) -> None:
        self.n = self.heat = 0  # n is known once compiled
        self.fn = None

    def compile(self, m, pc: int) -> None:
        """Compile ``m``'s block at pc, unless it is empty, for the watch
        state ``m`` is in (``_state``); and so again, keeping the counts,
        once compiled, when its function's entry check misses."""
        if self.fn is None:
            self.trace = _block_at(m.code, pc)
            if not self.trace:
                return
            self.n = len(self.trace)
            self.counts = [0] * (self.n + 1)
        self.fn = _make(self.trace, _shape(m), _state(m))(self.counts, m.guard)

    def fold(self, m) -> None:
        """Add the counts to ``m.retired`` and ``m.taken``; zero them."""
        counts = self.counts
        retired = m.retired
        runs = 0  # passes that retired instruction i
        for i in reversed(range(self.n)):
            runs += counts[i + 1]
            if runs:
                at = self.trace[i][0]
                retired[at] = retired.get(at, 0) + runs
        if counts[0]:
            at = self.trace[-1][0]
            m.taken[at] = m.taken.get(at, 0) + counts[0]
        counts[:] = [0] * (self.n + 1)


# Generating and compiling a block's source costs a millisecond or two,
# which every machine built from equal code would otherwise pay again.
CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _make(trace: tuple, shape: tuple, state: tuple):
    """The ``make(cnt, J)`` of ``trace`` on a machine of ``shape`` in the
    watch state ``state``: its source compiled and run once, keyed on
    all that the source reads."""
    return define(_source(trace, shape, state), "<block>", {
        "M": MASK32, "U": mach.WORD.unpack_from, "K": mach.WORD.pack_into,
        "UN": struct.unpack_from, "KN": struct.pack_into,
        "F": write_flags, "X": _state})["make"]


def _shape(m) -> tuple:
    """What a block's source reads of ``m``, as one hashable value: the
    watchpoint unit's class if it gives in-line forms (``inline`` reads
    no instance state), else None; the guard's class and the policy its
    in-line form folds, or None where it gives none (``folded``); and
    whether ``m`` tracks ``min_sp``."""
    folded = getattr(m.guard, "folded", None)
    policy = folded and folded(m)
    return (type(m.dwt) if hasattr(m.dwt, "inline") else None,
            None if policy is None else (type(m.guard), policy),
            m.min_sp is not None)


def _state(m) -> tuple:
    """The watch state a block on ``m`` is compiled for, and checks: the
    snapshot (``DwtUnit.snapshot``) of a unit that gives in-line forms,
    else ``m.watch``'s regions; both begin with the regions ``m`` tests."""
    dev = m.dwt
    return (dev.snapshot(m.watch) if hasattr(dev, "inline")
            else tuple(map(tuple, m.watch)))


# -- code generation ---------------------------------------------------------------

LOCALS = frozenset(range(PC))  # r0-r12, sp and lr: a block's locals


def _jumps(ins) -> bool:
    """A branch, or any other write of pc."""
    return OPS[ins.op].kind == BRANCH or PC in regs(ins, "writes")


def _block_at(code, pc: int) -> tuple:
    """The trace entered at pc, as the code map's (address, instruction)
    pairs, so equal code traces equal; may be empty.  It follows
    a ``b`` or ``bl`` to its target and ends at any other jump, or before
    an address already in it, a TRAP op, a missing instruction or
    EXC_RETURN_MIN (code there is never run in line: reaching it is an
    exception return)."""
    trace = {}  # by address, in order
    while (len(trace) < MAX_BLOCK_LEN and pc < mach.EXC_RETURN_MIN
           and pc not in trace):
        ins = code.get(pc)
        if ins is None or OPS[ins.op].kind == TRAP:
            break
        trace[pc] = ins
        if ins.op in ("b", "bl"):
            pc = ins.target
        elif _jumps(ins):
            break
        else:
            pc += ins.width
    return tuple(trace.items())


def _exits(at: int, ins) -> tuple | None:
    """The pcs that a block's last instruction ``ins``, at ``at``, can
    leave for, or None for a pc taken from a register or memory."""
    nxt = at + ins.width
    if ins.op == "bcond":
        return ins.target, nxt
    if "{label}" in OPS[ins.op].form:
        return (ins.target,)
    return None if _jumps(ins) else (nxt,)


def _in_line(ins, known: dict, unit, state: tuple):
    """(lines, after) of a word ``ldr``/``str`` whose address the block
    knows (``known``: register -> the value the block put there) outside
    the hull of its access kind's regions in the watch state ``state``,
    where the watchpoint unit's class ``unit`` gives it an in-line form:
    its ``inline`` lines, a stored value the block knows folded, over
    ``BIND``'s names, and the watch state after them.  Else None, as for
    a word the unit has no form for (DEMCR's, CYCCNT, an unmapped one)."""
    if not unit or ins.op not in ("ldr", "str") or ins.rn not in known:
        return None
    addr = (known[ins.rn] + ins.imm) & MASK32
    access = mach.ACCESS_READ if ins.op == "ldr" else mach.ACCESS_WRITE
    h = hull(state[access])
    if addr + 4 > h[2] and addr < h[3]:
        return None
    if ins.op == "ldr":  # a register reads 32 bits
        form = unit.inline(addr, access, state)
        return form and (["%s = %s" % (read_reg(ins.rd), form)], state)
    form = unit.inline(addr, access, state, known.get(ins.rd))
    return form and (form[0] if ins.rd in known else [
        "v = " + read_reg(ins.rd), *form[0]], form[1])


# The one call that writes a pending compare's flags (write_flags).
XPSR = "F(m, fa, fb)"
# The min_sp check of sp, as named, on a machine that tracks it; one
# statement, so that a halt exit can run it too.
_MIN_SP = "m.min_sp = min(m.min_sp, %s)"
# A line whose last statement halts whatever the state, and is last in
# its arm: a misaligned word's fault, a reset hit or a COMP1 overflow
# (the guard's and the unit's in-line forms spell a halt ``m.halt(...)``).
_HALTS = re.compile(r"\bm\.(fault\(\)|halt\([\w.]+\))$")


def _source(trace: tuple, shape: tuple, state: tuple) -> str:
    """``make(cnt, J)`` returning ``block(m, limit)``: the instructions
    of ``trace`` as Machine.step would run them in the watch state
    ``state``, in sequence, and again while the exit reaches the entry,
    the pass ends in ``state`` and another pass fits before ``limit``
    steps; a device word and a four-region test run the in-line forms of
    ``shape``'s unit (``_in_line``) and guard ``J`` for the watch state
    each instruction runs under, over the names their ``BIND`` binds."""
    unit, guard, tracks = shape
    inline = guard and functools.partial(guard[0].inline, guard[1])
    # The forward walk: each instruction's facts and the watch state
    # after it; what the trace names and writes.
    known, facts, states, named, written = {}, [], [state], set(), set()
    bind = pages = None
    for at, ins in trace:
        reads, writes = regs(ins, "reads"), regs(ins, "writes")
        named |= reads | writes
        written |= writes
        word = _in_line(ins, known, unit, states[-1])
        value = ins.imm if ins.op in ("movw", "mov_imm") else (
            (known[ins.rd] & 0xFFFF) | ins.imm << 16
            if ins.op == "movt" and ins.rd in known else None)
        if word:  # no address, and a store's value only if not known
            bind = "  D = m.dwt; " + unit.BIND
            reads = LOCALS if any(map(_HALTS.search, word[0])) else (
                set() if ins.op == "ldr" or ins.rd in known else {ins.rd})
        elif value is not None:  # a movt's low half is known too
            reads = set()
        elif OPS[ins.op].kind == MEMORY:  # a slow path writes all back
            pages, reads = "  P = m.mem.pages", LOCALS  # binder._decode's
        facts.append((reads, writes, word, value))
        states.append(word[1] if word else states[-1])
        known = {r: v for r, v in known.items() if r not in writes}
        if value is not None:
            known[ins.rd] = value & MASK32
    n = len(trace)
    entry, (at, ins) = trace[0][0], trace[-1]
    exits = _exits(at, ins)
    loops = (exits is None or entry in exits) and states[-1] == state
    tail = ins.op in ("b", "bcond") or loops and ins.op == "bx"  # _tail's
    moves_sp = SP in written
    # The backward walk: an ALU op whose register is written again before
    # it is read is dead; the exits, at the end and a halt, read LOCALS.
    live, dead = set(LOCALS), set()
    for i in reversed(range(n)):
        reads, writes = facts[i][:2]
        if tracks and moves_sp and (i == 0 or SP in writes):
            live.add(SP)  # the min_sp check after it
        if (OPS[trace[i][1].op].kind == ALU and writes and writes <= LOCALS
                and live.isdisjoint(writes)):
            dead.add(i)
        else:
            live = live - writes | reads
    names = {state: "Z0"}
    out = ["def make(cnt, J):",
           *([" " + guard[0].BIND] if guard else []),
           " def block(m, limit):",
           "  if X(m) != Z0: return True",  # made for another watch state
           "  g = m.gpr",
           "  s = e = m.steps" if loops else "  s = m.steps",
           "  c = m.cycles"]
    # The registers, in locals: loaded here, and those the block writes
    # written back (``back``) before each slow path and at each exit.
    loaded = sorted(named & LOCALS)
    if loaded:
        out.append("  " + "; ".join("%s = %s" % (read_reg(r), home(r))
                                    for r in loaded))
    back = "".join("; %s = %s" % (home(r), read_reg(r))
                   for r in loaded if r in written)
    min_sp = _MIN_SP % (read_reg(SP) if SP in named else "m.sp")
    # What each exit adds: a loop's passes before it, (s - e) // n, and
    # the flags of the pass's compare or, before one, the last pass's.
    fold = ("; cnt[%d] += (s - e) // %d" % (n, n) if loops else "") + (
        "; cnt[0] += (s - e) // %d" % n
        if loops and ins.op == "bcond" and ins.target == entry else "")
    flags = "; s == e or " + XPSR if loops and FLAGS in written else ""

    def sync(steps, cycles, at, pc, count=None):
        """The state writes before a slow path or at an exit, where
        ``count`` is how many instructions the pass retired: cycles and
        pc unless None, the counts, the registers and the flags."""
        line = "m.steps = " + steps + (cycles and "; m.cycles = " + cycles
                                       or "") + "; m.cur_pc = %d" % at
        if pc is not None:
            line += "; m.pc = %d" % pc
        if count:
            line += "; cnt[%d] += 1" % count
        return line + (fold if count is not None else "") + back + flags

    if tracks and not moves_sp:
        out.append("  " + min_sp)  # sp holds its entry value throughout
    out += [line for line in (pages, bind) if line]
    body = []
    cost = 0
    sites = []  # a loop's in-line RAM access sites' page bases (binder)
    for i, (at, ins) in enumerate(trace):
        _, writes, word, value = facts[i]
        cost += ins.cycles
        nxt = at + ins.width
        # The halt exit: the state after the instruction, pc unless it
        # wrote pc, and min_sp where tracked (once more if sp is as it
        # was: the same minimum).
        end = "%s%s; return m._end(%d)" % (
            min_sp + "; " if tracks else "", sync(
                "s + %d" % (i + 1), "c + %d" % cost, at,
                None if _jumps(ins) else nxt, i + 1), at)
        site = loops and not word and OPS[ins.op].kind == MEMORY
        if site:
            sites.append("t%d" % i)
        b = Compiled(ins, nxt, cost, sync("s + %d" % i, "c + %d" % cost,
                                          at, nxt), end,
                     inline and functools.partial(
                         inline, step="s + %d" % i, pc=at, addr="a"),
                     states[i], functools.partial(
                         names.setdefault, states[i + 1], "Z%d" % len(names)),
                     i if site else None)
        body.append("# 0x%08x %s" % (at, ins.op))
        if tail and i == n - 1:
            break  # _tail emits it
        if i in dead:
            lines = []
        elif word:  # known and aligned: no address, no test
            lines = word[0]
        elif value is not None:  # folded: the constant it leaves
            lines = b.set(ins.rd, "%d" % value)
        elif ins.op == "b" or ins.op == "bl" and i < n - 1:  # followed
            lines = b.set(LR, "%d" % nxt) if ins.op == "bl" else []
        else:
            lines = SEMANTICS[ins.op](b)
        body += [line + "; " + end if _HALTS.search(line) else line
                 for line in lines]
        if tracks and moves_sp and (i == 0 or SP in writes):
            body.append(min_sp)
        if FLAGS in writes:
            flags = "; " + XPSR
    out[1:1] = (" %s = %r" % (z, st) for st, z in names.items())
    if sites:  # a loop's; a base no address is at
        out.append("  %s = %d" % (" = ".join(sites), -2 * mach.PAGE_SIZE))
    if loops:
        out.append("  while True:")
    out += [" " * (2 + loops) + line for line in body + _tail(
        at, ins, cost, n, entry, flags == "; " + XPSR,
        sync("s", "c", at, entry, 0) + "; return" if loops else "")]
    if loops and exits == (entry,):  # it leaves only through the budget
        return "\n".join(out) + "\n return block\n"
    # A conditional branch sets cycles and pc itself, a jump pc.
    out.append("  " + sync("s + %d" % n, None if ins.op == "bcond" else
                           "c + %d" % cost, at,
                           None if _jumps(ins) else at + ins.width, n))
    # A pc taken from a register or memory may be EXC_RETURN.
    if exits is None or max(exits) >= mach.EXC_RETURN_MIN:
        out.append("  if m.pc >= %d: return m._end(%d)"
                   % (mach.EXC_RETURN_MIN, at))
    out.append(" return block")
    return "\n".join(out) + "\n"


def _tail(at: int, ins, cost: int, n: int, entry: int, pending: bool,
          budget: str) -> list[str]:
    """The end of a block whose last instruction, at ``at``, is ``ins``,
    ``cost`` the cycles to it: a last ``b`` sets pc and a ``bcond``, on
    the pending compare if ``pending``, pc and the cycles.  With a
    ``budget``, the writes of a return at the entry, the block loops: a
    way out that is not the entry breaks, a ``bx`` writing pc from its
    register only then, and a pass that stays starts the next one if it
    fits before ``limit``, else returns."""
    lines = []
    if ins.op == "b" and not budget:
        lines.append("m.pc = %d" % ins.target)
    elif ins.op == "bcond":
        test = COND[ins.cond][pending]
        taken = "m.pc = %d; m.cycles = c + %d; cnt[0] += 1" % (
            ins.target, cost + 1)
        fall = "m.pc = %d; m.cycles = c + %d" % (at + ins.width, cost)
        lines += [] if pending else ["x = m.xpsr"]
        if not budget:
            lines += ["if %s: %s" % (test, taken), "else: " + fall]
        elif ins.target == entry:
            lines.append("if not (%s): %s; break" % (test, fall))
            cost += 1
        else:
            lines.append("if %s: %s; break" % (test, taken))
    elif budget and ins.op == "bx":
        lines.append("if {0} != {1}: m.pc = {0}; break".format(
            read_reg(ins.rm, at + ins.width), entry))
    elif budget and _exits(at, ins) is None:
        lines.append("if m.pc != %d: break" % entry)
    return lines if not budget else [
        *lines, "s += %d; c += %d" % (n, cost), "if s + %d > limit:" % n,
        " " + budget]
