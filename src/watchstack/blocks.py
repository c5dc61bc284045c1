"""Hot traces compiled to Python functions for Machine.run.

A block is the trace entered at a pc: it runs on past each ``b`` and
``bl``, into the branch's target, and ends at any other branch or pc
write, before an address already in it, before a TRAP op (``svc``,
``bkpt``, ``udf``) or a missing instruction, and at most MAX_BLOCK_LEN
long.  Each op is emitted from ``semantics.SEMANTICS``, bound with
the block's operands known (``binder.Compiled``).  ``Machine.run`` steps
through a block until it has reached the block's entry pc
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
  operands, ``fa`` and ``fb``, for the branch after it.  ``m.steps``,
  ``m.cycles``, ``m.cur_pc``, ``m.pc`` and ``m.xpsr`` are written only
  before something can read them (``m.load`` and ``m.store``, which
  show the guard the access and read CYCCNT) and at each exit, as
  ``step()`` would have left them (the flags by
  ``semantics.write_flags``, ``F``);
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
  ``Machine.run`` returns;
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
instruction for ``SEMANTICS``).  In a loop, each in-line RAM access
site ``i`` (the instruction's index in the trace) keeps a page of its
own, ``t<i>`` its base and ``q<i>`` its bytes, set once per call before
the loop to a base no address is at: an access on it makes one compare
and no lookup.  It lives for the call.  A miss fills it from the page
the fast case found present, for a hull-first access only a page
wholly outside its access kind's hull; pages are never replaced and
each site runs under one watch state, so no entry goes stale, and a
restore between ``run()`` calls meets none.

The block folds constants: it knows the value a ``movw``, ``mov_imm`` or
``movt`` put in a register until another write of it (read from
``isa.OPS``), and emits such an instruction as that constant.  A word
``ldr``/``str`` whose address is known, aligned and, by
``machine.ppb_device``, on a device (``_device_word``) runs, with no
test at all, the in-line form its device gives it (the unit's register
words, as the lines ``step()`` runs), with a stored value the block
knows folded and the device's state bound once per entry (its
``BIND``), where the watch state puts it outside its access kind's
hull and its device says the write needs no ``slow`` path
(``_in_line``).  Any other device word (one in that hull, a write
whose ``slow`` test holds or a FUNCTION write of a value the block
does not know, CTRL, CYCCNT, an unmapped word, DEMCR, any word on a
machine without its device) is emitted as any other ``ldr``/``str``.

The source reads the trace, the code map's (address, instruction)
pairs, whose instructions are values (``_block_at``), the machine's
shape (``_shape``) and the watch state, and ``_make`` caches the
compiled block on the three: machines built from equal code in equal
states share it, and a changed instruction compiles anew.  Exception
returns go through ``m._end``, which looks
``exception_model.return_from_exception`` up when called, so a patch
of it sees each one.  Code at or above ``EXC_RETURN_MIN`` is not run in
line, and a block whose next pc can be there ends through ``m._end``.
``Machine.run`` drops its blocks when ``m.code``, ``m.dwt``,
``m.guard`` or ``m.watch`` is replaced (a block binds the guard's state
once, when made: its ``BIND``), or ``min_sp`` is switched on or off.
"""

from __future__ import annotations

import functools
import re
import struct

from . import machine as mach
from .binder import XPSR, Compiled, branch_test, read_reg, write_reg
from .dwt import hull
from .isa import BRANCH, LR, MASK32, MEMORY, OPS, PC, SP, TRAP
from .semantics import SEMANTICS, define, write_flags

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
    devices that give in-line forms, by attribute and class (``inline``
    reads no instance state), the guard's class and the policy its
    in-line form folds, or None where it gives none (``folded``), and
    whether ``m`` tracks ``min_sp``."""
    devices = tuple((name, type(dev)) for name, dev in (
        ("dwt", m.dwt), ("demcr", m.demcr)) if hasattr(dev, "inline"))
    folded = getattr(m.guard, "folded", None)
    policy = folded and folded(m)
    return (devices, None if policy is None else (type(m.guard), policy),
            m.min_sp is not None)


def _state(m) -> tuple:
    """The watch state a block on ``m`` is compiled for, and checks: the
    snapshot (``DwtUnit.snapshot``) of a unit that gives in-line forms,
    else ``m.watch``'s regions; both begin with the regions ``m`` tests."""
    dev = m.dwt
    return (dev.snapshot(m.watch) if hasattr(dev, "inline")
            else tuple(map(tuple, m.watch)))


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


def _fold(ins, known: dict) -> None:
    """Bring ``known``, register -> the value this block put there, past
    ``ins``: a ``movw`` or ``mov_imm`` sets its immediate, a ``movt`` the
    high half of a known value, and any other write forgets the
    register."""
    value = ins.imm if ins.op in ("movw", "mov_imm") else (
        (known[ins.rd] & 0xFFFF) | ins.imm << 16
        if ins.op == "movt" and ins.rd in known else None)
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


def _in_line(ins, known: dict, devices: tuple, state: tuple):
    """(binding, lines, after) of a device word (``_device_word``) outside
    the hull of its access kind's regions in the watch state ``state``,
    whose class in ``devices`` gives it an in-line form there: the line
    binding the device's state once per entry (``BIND``), the lines of
    its ``inline`` form, a store's with a value the block knows folded,
    and the watch state after them.  Else None: any other ``ldr``/``str``."""
    word = _device_word(ins, known)
    dev = None if word is None else dict(devices).get(word[1])
    access = mach.ACCESS_READ if ins.op == "ldr" else mach.ACCESS_WRITE
    h = dev and hull(state[access])
    if dev is None or word[0] + 4 > h[2] and word[0] < h[3]:
        return None
    addr, name = word
    form = (dev.inline(addr, access, state) if ins.op == "ldr"
            else dev.inline(addr, access, state, known.get(ins.rd)))
    if ins.op == "ldr" and form:  # a register reads 32 bits
        form = ["%s = %s" % (read_reg(ins.rd), form)], state
    return form and ("  D = m.%s; %s" % (name, dev.BIND), *form)


# The min_sp check, on a machine that tracks it; one statement, so that
# a halt exit can run it too.
_MIN_SP = "m.min_sp = min(m.min_sp, m.sp)"
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
    ``shape``'s devices (``_in_line``) and guard ``J`` for the watch
    state each instruction runs under, over the names their ``BIND``
    binds.  Each watch state a check compares with is a constant of
    ``make``, ``Z0`` the entry's."""
    bind = None  # the in-line device's, once per entry
    devices, guard, tracks = shape
    inline = guard and functools.partial(guard[0].inline, guard[1])
    # Each instruction's in-line device form, and the watch state it runs
    # under, carried past each in-line port write; then the pass's end.
    known, words, states = {}, [], [state]
    for at, ins in trace:
        words.append(_in_line(ins, known, devices, states[-1]))
        states.append(words[-1][2] if words[-1] else states[-1])
        _fold(ins, known)
    names = {state: "Z0"}
    n = len(trace)
    entry, (at, ins) = trace[0][0], trace[-1]
    exits = _exits(at, ins)
    loops = (exits is None or entry in exits) and states[-1] == state
    split = loops and ins.op in ("b", "bcond")  # _loop_tail runs it
    out = ["def make(cnt, J):",
           *([" " + guard[0].BIND] if guard else []),
           " def block(m, limit):",
           "  if X(m) != Z0: return True",  # made for another watch state
           "  g = m.gpr",
           "  s = e = m.steps" if loops else "  s = m.steps",
           "  c = m.cycles"]
    # What each exit adds: a loop's passes before it, (s - e) // n, and
    # the flags of the pass's compare or, before one, the last pass's.
    fold = ("; cnt[%d] += (s - e) // %d" % (n, n) if loops else "") + (
        "; cnt[0] += (s - e) // %d" % n
        if loops and ins.op == "bcond" and ins.target == entry else "")
    flags = ("; s == e or " + XPSR if loops and any(
        OPS[ins.op].sets_flags for _, ins in trace) else "")
    moves_sp = any(SP in _written(ins) for _, ins in trace)
    if tracks and not moves_sp:
        out.append("  " + _MIN_SP)  # sp holds its entry value throughout
    if any(OPS[ins.op].kind == MEMORY for _, ins in trace):
        out.append("  P = m.mem.pages")  # for binder._decode
    body = []
    cost = 0
    known: dict = {}
    sites = []  # a loop's in-line RAM access sites' page bases (binder)
    for i, (at, ins) in enumerate(trace[:-1] if split else trace):
        cost += ins.cycles
        nxt = at + ins.width
        last = i == n - 1
        here = "m.cycles = c + %d; m.cur_pc = %d" % (cost, at)
        pc = "; m.pc = %d" % nxt
        sync = "m.steps = s + %d; %s%s%s" % (i, here, pc, flags)
        # The halt exit: the state after the instruction, pc unless the
        # instruction wrote it, and min_sp where it is tracked (checked
        # once more if the instruction left sp as it was: the same
        # minimum).
        end = ("%sm.steps = s + %d; %s%s; cnt[%d] += 1%s%s; return "
               "m._end(%d)" % (_MIN_SP + "; " if tracks else "", i + 1, here,
                               "" if _jumps(ins) else pc, i + 1, fold, flags,
                               at))
        word = words[i]
        site = loops and word is None and OPS[ins.op].kind == MEMORY
        if site:
            sites.append("t%d" % i)
        b = Compiled(ins, nxt, cost, sync, end, inline and functools.partial(
            inline, step="s + %d" % i, pc=at, addr="a"), states[i],
            functools.partial(names.setdefault, states[i + 1],
                              "Z%d" % len(names)), i if site else None)
        value = known.get(ins.rd)  # a str's value, if the block knows it
        _fold(ins, known)
        body.append("# 0x%08x %s" % (at, ins.op))
        if word is not None:  # known and aligned: no address, no test
            bind, lines = word[:2]
            if ins.op == "str" and value is None:
                lines = ["v = " + read_reg(ins.rd, nxt), *lines]
        elif ins.op == "movt" and ins.rd in known:  # folded, as movw is
            lines = [write_reg(ins.rd, "%d" % known[ins.rd])]
        elif ins.op in ("b", "bl") and not last:  # followed: pc is not read
            lines = ["m.lr = %d" % nxt] if ins.op == "bl" else []
        else:
            lines = SEMANTICS[ins.op](b)
        body += [line + "; " + end if _HALTS.search(line) else line
                 for line in lines]
        if tracks and moves_sp and (i == 0 or SP in _written(ins)):
            body.append(_MIN_SP)
        if OPS[ins.op].sets_flags:
            flags = "; " + XPSR
    out[1:1] = (" %s = %r" % (z, st) for st, z in names.items())
    if bind:
        out.append(bind)
    at, ins = trace[-1]
    nxt = at + ins.width
    if loops:
        if split:
            cost += ins.cycles
        if sites:  # a base no address is at
            out.append("  %s = %d" % (" = ".join(sites), -2 * mach.PAGE_SIZE))
        out.append("  while True:")
        out += ["   " + line for line in body + _loop_tail(
            at, ins, cost, n, entry, fold + flags)]
        if exits == (entry,):  # it leaves only through the budget test
            out.append(" return block")
            return "\n".join(out) + "\n"
    else:
        out += ["  " + line for line in body]
    if ins.op != "bcond":  # a conditional branch sets cycles itself
        out.append("  m.cycles = c + %d" % cost)
    if not _jumps(ins):
        out.append("  m.pc = %d" % nxt)
    out.append("  m.steps = s + %d; m.cur_pc = %d; cnt[%d] += 1%s%s"
               % (n, at, n, fold, flags))
    # A pc taken from a register or memory may be EXC_RETURN.
    if exits is None or max(exits) >= mach.EXC_RETURN_MIN:
        out.append("  if m.pc >= %d: return m._end(%d)"
                   % (mach.EXC_RETURN_MIN, at))
    out.append(" return block")
    return "\n".join(out) + "\n"


def _loop_tail(at: int, ins, cost: int, n: int, entry: int,
               end: str) -> list[str]:
    """A looping block's exit test, after its other instructions (``ins``,
    at ``at``, last): a ``bcond`` leaves for whichever of its target and
    fall-through is not the entry as ``Compiled.branch`` would, a pc
    from a register or memory leaves when it is not the entry; a pass
    that stays starts the next one if it fits before ``limit``, else
    returns at the entry after ``end``, the counts and flags that every
    exit writes."""
    lines = ["# 0x%08x %s" % (at, ins.op)] if ins.op in ("b", "bcond") else []
    if ins.op == "bcond":
        read, test = branch_test(ins.cond, end)
        lines += read
    if ins.op == "bcond" and ins.target == entry:
        lines.append("if not (%s): m.pc = %d; m.cycles = c + %d; break"
                     % (test, at + ins.width, cost))
        cost += 1
    elif ins.op == "bcond":
        lines.append("if %s: m.pc = %d; m.cycles = c + %d; cnt[0] += 1; break"
                     % (test, ins.target, cost + 1))
    elif _exits(at, ins) is None:
        lines.append("if m.pc != %d: break" % entry)
    return lines + [
        "s += %d; c += %d" % (n, cost),
        "if s + %d > limit:" % n,
        " m.steps = s; m.cycles = c; m.cur_pc = %d; m.pc = %d%s; return"
        % (at, entry, end)]
