"""Hot traces compiled to Python functions for Machine.run.

A block is the trace entered at a pc: it runs on past each ``b`` and
``bl``, into the branch's target, and ends at any other branch or pc
write, before an address already in it, before a TRAP op (``svc``,
``bkpt``, ``udf``) or a missing instruction, and at most MAX_BLOCK_LEN
long.  Each op is emitted from ``semantics.SEMANTICS``, bound with
the block's operands known (``_Compiled``).  ``Machine.run`` steps
through a block until it has reached the block's entry pc
HOT_THRESHOLD times; then it is compiled to one generated function,
``block(m, limit)``, that does what ``step()`` would do for each of
its instructions, with the per-step bookkeeping lifted out.  A block whose exit reaches its own entry is a loop: its
function runs the block again while the exit does and another pass
fits in the step budget ``limit``, and else returns at the entry, so a
hot loop does not go back to ``Machine.run`` each pass.  For an exit
to a label or the fall-through (a ``b``, ``bl`` or ``bcond`` whose
target or fall-through is the entry) that is decided at compile time;
for a pc from a register or memory (``bx``, ``blx``, ``pop {..., pc}``)
the pass tests it.  In the generated function:

* steps, cycles and the flags are kept in locals: a compare keeps its
  operands, ``fa`` and ``fb``, for the branch after it.  ``m.steps``,
  ``m.cycles``, ``m.cur_pc``, ``m.pc`` and ``m.xpsr`` are written only
  before something can read them (a guard called, and ``m.load`` and
  ``m.store``, which read CYCCNT) and at each exit, as ``step()`` would
  have left them (the flags by ``semantics.write_flags``, ``F``);
* after each data access the block exits if the machine halted (no
  access pends an exception: only the runner raises them, between
  ``run()`` calls), and an exit where ``step()`` could halt or start an
  exception return ends through ``Machine._end``, the one
  end-of-instruction rule, which does that return and logs the halt;
* ``m.retired`` and ``m.taken`` are not touched per instruction, nor
  counts per pass: each exit counts the pass it leaves, a loop's passes
  before it in the call, ``(s - e) // n``, and how often the final
  conditional branch was taken (a trace follows no conditional
  branch); ``Block.fold`` adds the counts to the machine's before
  ``Machine.run`` returns;
* ``min_sp`` is checked once on entry when no instruction of the block
  writes sp, and else after the first instruction and after every
  instruction that writes sp, which gives the same minimum as a check
  after every step.

Each data access, and each pushed or popped word, makes one inline
test, as QEMU's softmmu path does: its fast case runs in line, and
every other case writes the state and calls the machine.  A
hull-first access (a pushed or popped word, a load or store with base
sp, a device word run in line) tests only the hull of the comparator
regions, ``m.watch[2]``, which no comparator can match outside of:
there RAM, below ``machine.PPB_BASE`` and, for a word, on one page, is
read or written on ``m.mem``'s page with no call and no state writes,
and a device word runs its in-line form; anything else takes
``m.load`` or ``m.store``, which run the four-region test, the guard
and the device decode.  Any other access, such as a byte store that
hits on most passes, tests the four regions of ``m.watch`` inline, as
``Machine.load``/``store`` do, as an ``if``/``elif`` chain in the
lowest-comparator order, whose arm k is the in-line form of the
guard's own handling of a hit on comparator k (its ``inline``), with k,
the step index ``s + i`` and the pc as literals: it appends the hit's
record to the guard's log with no Python call and no state writes,
and under the reset policy halts, so the block leaves through its halt
exit.  A store that hits is suppressed; a load that hits, if RAM on
one page, is then read in line, and else takes ``m.load``, whose guard
records it.  Where the guard gives no in-line form (``_shape``), a hit
writes the state and shows the guard the access instead, then commits
a store through ``Machine.commit`` unless the guard suppresses it, or
reads a load through ``m.load``.  A miss into RAM on one page is taken
in line, and any other goes to ``m.load`` after the state writes, or
to ``m.commit``, which alone creates a page (``_decode``).  A push or
pop handles all its words, as ``step()`` does, even when the guard
halts the machine on an earlier one.

The block folds constants: it knows the value a ``movw``, ``mov_imm`` or
``movt`` put in a register until another write of it (read from
``isa.OPS``), and emits such an instruction as that constant.  A word
``ldr``/``str`` whose address is known, aligned and, by
``machine.ppb_device``, on a device (``_device_word``) has one fast
case outside the hull: the in-line form its device gives it (the
unit's register words, as the lines ``step()`` runs), with a stored
value the block knows folded and the device's state bound once per
entry (its ``BIND``), hull-first, with no alignment test; a store's
``slow`` test (a region the unit must cache or drop) joins the hull
test.  A device word with
no in-line form (CTRL, CYCCNT, an unmapped word, DEMCR, any word on a
machine without its device) is emitted as any other ``ldr``/``str``.

The source reads the trace as values (``_block_at``) and the machine
only through its shape (``_shape``), and ``_make`` caches the compiled
block on the two: machines built from equal code share it, and a
changed instruction compiles anew.  Exception returns go through
``m._end``, which looks ``exception_model.return_from_exception`` up
when called, so a patch of it sees each one.  Code at or above
``EXC_RETURN_MIN`` is not run in line, and a block whose next pc can be
there ends through ``m._end``.  ``Machine.run`` drops its blocks when
``m.code``, ``m.dwt``, ``m.guard`` or ``m.watch`` is replaced: a block
binds the guard's state once, when made (its ``BIND``).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import attrgetter

from . import machine as mach
from .isa import BRANCH, LR, MASK32, MEMORY, NUM_GPRS, OPS, PC, SP, TRAP
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

    __slots__ = ("n", "heat", "fn", "counts", "addrs")

    def __init__(self) -> None:
        self.n = 0  # known once compiled
        self.heat = 0
        self.fn = None

    def compile(self, m, pc: int) -> None:
        """Compile ``m``'s block at pc, unless it is empty."""
        trace = _block_at(m.code, pc)
        if not trace:
            return
        self.n = len(trace)
        self.counts = [0] * (self.n + 1)
        self.addrs = tuple(ins.addr for ins in trace)
        self.fn = _make(trace, _shape(m))(self.counts, m.guard)

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


# Generating and compiling a block's source costs a millisecond or two,
# which every machine built from equal code would otherwise pay again.
CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _make(trace: tuple, shape: tuple):
    """The ``make(cnt, J)`` of ``trace`` on a machine of ``shape``: its
    source compiled and run once, keyed on all that the source reads."""
    return define(_source(trace, shape), "<block>", {
        "M": MASK32, "U": mach.WORD.unpack_from, "K": mach.WORD.pack_into,
        "F": write_flags})["make"]


def _shape(m) -> tuple:
    """What a block's source reads of ``m``, as one hashable value: the
    devices that give in-line forms, by attribute and class (``inline``
    reads no instance state), and the guard's class and the policy its
    in-line form folds, or None where it gives none (``folded``)."""
    devices = tuple((name, type(dev)) for name, dev in (
        ("dwt", m.dwt), ("demcr", m.demcr)) if hasattr(dev, "inline"))
    policy = m.guard.folded(m) if hasattr(m.guard, "folded") else None
    return devices, None if policy is None else (type(m.guard), policy)


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


# The fields of an Instr that a block's source reads, by Instr's names,
# with ``addr`` the pc it sits at: values, so equal code traces equal.
_Traced = namedtuple("_Traced", "addr op rd rn rm imm reglist cond target "
                                "width cycles")
_FIELDS = attrgetter(*_Traced._fields[1:])


def _block_at(code, pc: int) -> tuple:
    """The trace entered at pc, as ``_Traced`` values; may be empty.
    It follows a ``b`` or ``bl`` to its target and ends at any other
    jump, or before an address already in it, a TRAP op, a missing
    instruction or EXC_RETURN_MIN (code there is never run in line:
    reaching it is an exception return)."""
    trace = {}  # by address, in order
    addr = pc
    while (len(trace) < MAX_BLOCK_LEN and addr < mach.EXC_RETURN_MIN
           and addr not in trace):
        ins = code.get(addr)
        if ins is None or OPS[ins.op].kind == TRAP:
            break
        trace[addr] = _Traced(addr, *_FIELDS(ins))
        if ins.op in ("b", "bl"):
            addr = ins.target
        elif _jumps(ins):
            break
        else:
            addr += ins.width
    return tuple(trace.values())


def _exits(ins) -> tuple | None:
    """The pcs that a block's last instruction ``ins`` can leave for, or
    None for a pc taken from a register or memory."""
    nxt = ins.addr + ins.width
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


def _in_line(ins, known: dict, devices: tuple):
    """(address, binding, form) of a device word (``_device_word``) whose
    class in ``devices`` gives it an in-line form: the line binding its
    state once per entry (``BIND``), and its ``inline`` form, a store's
    with a value the block knows folded.  Else None."""
    word = _device_word(ins, known)
    dev = None if word is None else dict(devices).get(word[1])
    if dev is None:
        return None
    addr, name = word
    form = (dev.inline(addr, mach.ACCESS_READ) if ins.op == "ldr"
            else dev.inline(addr, mach.ACCESS_WRITE, known.get(ins.rd)))
    bind = "  D = m.%s; %s" % (name, dev.BIND)
    return None if form is None else (addr, bind, form)


_MIN_SP = "if m.min_sp is not None and m.sp < m.min_sp: m.min_sp = m.sp"


def _source(trace: tuple, shape: tuple) -> str:
    """``make(cnt, J)`` returning ``block(m, limit)``: the instructions
    of ``trace`` as Machine.step would run them, in sequence, and again
    while the exit reaches the entry and another pass fits before
    ``limit`` steps; a device word and a four-region test run the
    in-line forms of ``shape``'s devices (``_in_line``) and guard ``J``,
    over the names their ``BIND`` binds."""
    bind = None  # the in-line device's, once per entry
    devices, guard = shape
    inline = guard and functools.partial(guard[0].inline, guard[1])
    n = len(trace)
    entry, ins = trace[0].addr, trace[-1]
    exits = _exits(ins)
    loops = exits is None or entry in exits
    split = loops and ins.op in ("b", "bcond")  # _loop_tail runs it
    out = ["def make(cnt, J):",
           *([" " + guard[0].BIND] if guard else []),
           " def block(m, limit):",
           "  g = m.gpr",
           "  s = e = m.steps" if loops else "  s = m.steps",
           "  c = m.cycles"]
    # What each exit adds: a loop's passes before it, (s - e) // n, and
    # the flags of the pass's compare or, before one, the last pass's.
    fold = ("; cnt[%d] += (s - e) // %d" % (n, n) if loops else "") + (
        "; cnt[0] += (s - e) // %d" % n
        if loops and ins.op == "bcond" and ins.target == entry else "")
    flags = ("; s == e or " + _XPSR if loops and any(
        OPS[ins.op].sets_flags for ins in trace) else "")
    moves_sp = any(SP in _written(ins) for ins in trace)
    if not moves_sp:
        out.append("  " + _MIN_SP)  # sp holds its entry value throughout
    if any(OPS[ins.op].kind == MEMORY for ins in trace):
        out.append("  P = m.mem.pages; H = m.watch[2]")  # for _decode
    body = []
    cost = 0
    known: dict = {}
    for i, ins in enumerate(trace[:-1] if split else trace):
        at = ins.addr
        cost += ins.cycles
        nxt = at + ins.width
        last = i == n - 1
        state = "m.cycles = c + %d; m.cur_pc = %d" % (cost, at)
        pc = "; m.pc = %d" % nxt
        sync = "m.steps = s + %d; %s%s%s" % (i, state, pc, flags)
        word = _in_line(ins, known, devices)
        value = known.get(ins.rd)  # a str's value, if the block knows it
        _fold(ins, known)
        body.append("# 0x%08x %s" % (at, ins.op))
        if word is not None:  # aligned by construction: no alignment test
            addr, bind, form = word
            addr = "%d" % addr
            body += (_load(ins.rd, addr, 4, sync, form, hull=True)
                     if ins.op == "ldr"
                     else _store(addr, 4, _reg(ins.rd, nxt) if value is None
                                 else "%d" % value, sync, form, hull=True))
        elif ins.op == "movt" and ins.rd in known:  # folded, as movw is
            body.append(_set(ins.rd, "%d" % known[ins.rd]))
        elif ins.op in ("b", "bl") and not last:  # followed: pc is not read
            body += ["m.lr = %d" % nxt] if ins.op == "bl" else []
        else:
            here = inline and functools.partial(
                inline, step="s + %d" % i, pc=at, addr="a")
            body += SEMANTICS[ins.op](_Compiled(ins, nxt, cost, sync, here))
        if moves_sp and (i == 0 or SP in _written(ins)):
            body.append(_MIN_SP)
        if OPS[ins.op].kind == MEMORY:
            check = "m.halted"
            if last and _jumps(ins):
                check += " or m.pc >= %d" % mach.EXC_RETURN_MIN
            # The state after the instruction, which a store wrote only
            # on the guard's path; pc unless the instruction wrote it.
            body += ["if %s:" % check,
                     " m.steps = s + %d; %s%s; cnt[%d] += 1%s%s"
                     % (i + 1, state, "" if _jumps(ins) else pc, i + 1,
                        fold, flags),
                     " return m._end(%d)" % at]
        if OPS[ins.op].sets_flags:
            flags = "; " + _XPSR
    if bind:
        out.append(bind)
    ins = trace[-1]
    at, nxt = ins.addr, ins.addr + ins.width
    if loops:
        if split:
            cost += ins.cycles
        out.append("  while True:")
        out += ["   " + line for line in body + _loop_tail(
            ins, cost, n, entry, fold + flags)]
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
    # A pc taken from a register may be EXC_RETURN; a memory op's exit
    # above tests the pc it loaded.
    if (OPS[ins.op].kind != MEMORY if exits is None
            else max(exits) >= mach.EXC_RETURN_MIN):
        out.append("  if m.pc >= %d: return m._end(%d)"
                   % (mach.EXC_RETURN_MIN, at))
    out.append(" return block")
    return "\n".join(out) + "\n"


def _loop_tail(ins, cost: int, n: int, entry: int, end: str) -> list[str]:
    """A looping block's exit test, after its other instructions: a
    ``bcond`` leaves for whichever of its target and fall-through is not
    the entry as ``_Compiled.branch`` would, a pc from a register or
    memory leaves when it is not the entry; a pass that stays starts the
    next one if it fits before ``limit``, else returns at the entry
    after ``end``, the counts and flags that every exit writes."""
    at = ins.addr
    lines = ["# 0x%08x %s" % (at, ins.op)] if ins.op in ("b", "bcond") else []
    if ins.op == "bcond":
        read, test = _test(ins.cond, end)
        lines += read
    if ins.op == "bcond" and ins.target == entry:
        lines.append("if not (%s): m.pc = %d; m.cycles = c + %d; break"
                     % (test, at + ins.width, cost))
        cost += 1
    elif ins.op == "bcond":
        lines.append("if %s: m.pc = %d; m.cycles = c + %d; cnt[0] += 1; break"
                     % (test, ins.target, cost + 1))
    elif _exits(ins) is None:
        lines.append("if m.pc != %d: break" % entry)
    return lines + [
        "s += %d; c += %d" % (n, cost),
        "if s + %d > limit:" % n,
        " m.steps = s; m.cycles = c; m.cur_pc = %d; m.pc = %d%s; return"
        % (at, entry, end)]


# -- compiled source of register and memory accesses -----------------------------

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


def _hit(kind: int, a: str, end: str) -> tuple[str, str]:
    """Machine.load/store's comparator-region test of the access that
    covers [a, end): the line that reads the regions, and the test."""
    return ("s0, s1, s2, s3 = m.watch[%d]" % kind,
            " or ".join("%s < s%d[1] and %s > s%d[0]" % (a, k, end, k)
                        for k in range(4)))


def _decode(a: str, size: int, form=None, rd=None,
            hull=False) -> tuple[str, list[str]]:
    """The one compiled decode of an access of ``size`` bytes at ``a``
    that missed the comparators or, with ``hull``, lies outside their
    hull ``H`` (``m.watch[2]``): the test for its inline case, and the
    lines that read it into ``rd`` or, without ``rd``, write ``v``.  A
    device word's in-line ``form`` (``_in_line``) takes the test of the
    hull's half above PPB_BASE, and a store's its ``slow`` test too.
    Else ``a`` must be RAM, below PPB_BASE (with ``hull``, outside the
    half below), and a word on one page; a missing page reads 0, and a
    store to one goes to ``Machine.commit``, which alone creates pages.
    A memory map with more banks changes this beside ``Machine.load``."""
    if form is not None:
        test = "%d <= H[2] or %s >= H[3]" % (int(a) + size, a)
        if rd is not None:  # a register reads 32 bits
            return test, ["%s = %s" % (_dest(rd), form)]
        slow, lines = form
        if slow is not None:
            test = "(%s) and not (%s)" % (test, slow)
        return test, lines
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


def _load(rd: int, a: str, size: int, sync: str, form=None,
          hull=False, hits=None) -> list[str]:
    """Machine.load of ``size`` bytes at ``a`` into ``rd``: a load that
    ``_decode`` can read inline is read so if it misses the comparator
    regions, or with ``hull`` lies outside their hull, or with ``hits``,
    the guard's in-line chain (``_Compiled.hits``), once the chain has
    recorded a hit; anything else brings the state up to date, for the
    guard and CYCCNT, and takes m.load."""
    test, (read,) = _decode(a, size, form, rd, hull)
    slow = "else: %s; %s" % (sync, _set(rd, "m.load(%s, %d)" % (a, size)))
    if hull:
        return ["if %s: %s" % (test, read), slow]
    regions, hit = _hit(mach.ACCESS_READ, a, "%s + %d" % (a, size))
    if hits is not None:
        return [regions, "if %s:" % test,
                *(" " + line for line in (*hits, read)), slow]
    return [regions, "if %s and not (%s): %s" % (test, hit, read), slow]


def _store(a: str, size: int, value: str, sync: str, form=None,
           hull=False, hits=None) -> list[str]:
    """Machine.store of ``value`` at ``a``.  With ``hull``, a store that
    ``_decode`` can write inline, outside the hull, is written so, and
    any other brings the state up to date and takes m.store.  Else a
    store in a comparator region runs ``hits``, the guard's in-line
    chain (``_Compiled.hits``), or without it brings the state up to
    date for the guard and commits unless the guard suppresses it; a
    miss that ``_decode`` can write inline is written so, and any other
    goes through m.commit, which reads no state (CYCCNT drops writes)."""
    test, write = _decode(a, size, form, hull=hull)
    if hull:
        return ["v = " + value, "if %s:" % test,
                *(" " + line for line in write),
                "else: %s; m.store(%s, %d, v)" % (sync, a, size)]
    regions, hit = _hit(mach.ACCESS_WRITE, a, "%s + %d" % (a, size))
    commit = "m.commit(%s, %d, v)" % (a, size)
    if hits is None:
        hits = ["if %s:" % hit, " " + sync,
                " if not m.guard.on_store(m, %s, %d, v): %s"
                % (a, size, commit)]
    return ["v = " + value, regions, *hits,
            "elif %s: %s" % (test, *write),
            "else: " + commit]


# The one call that writes a pending compare's flags (write_flags).
_XPSR = "F(m, fa, fb)"


def _test(cond: str, end: str) -> tuple[list[str], str]:
    """The lines that read the flags and ``cond``'s test: on fa, fb if
    ``end``, the state writes there, writes their flags, else on xPSR."""
    pending = end.endswith("; " + _XPSR)
    return [] if pending else ["x = m.xpsr"], COND[cond][pending]


class _Compiled:
    """The slots of one instruction of a block (``nxt`` its fall-through,
    ``cost`` the cycles to its end, ``sync`` the state writes, which
    only an access's slow path makes, ``guard`` the guard's in-line
    form at its step and pc, or None): operands are literals, registers
    locals or ``m`` attributes, memory is ``_load``/``_store``,
    hull-first for a stack word or a base of sp, and a compare's flags
    stay in ``fa``, ``fb`` until an exit or ``sync`` writes them."""

    def __init__(self, ins, nxt: int, cost: int, sync: str,
                 guard=None) -> None:
        self.ins, self.nxt, self.cost, self.sync = ins, nxt, cost, sync
        self.r, self.hull, self.guard = None, ins.rn == SP, guard

    def _value(self, expr):
        if isinstance(expr, int):
            return expr
        return eval(expr, {"ins": self.ins, "r": self.r})

    def k(self, expr: str) -> str:
        return "%d" % self._value(expr)

    def reg(self, r) -> str:
        return _reg(self._value(r), self.nxt)

    def set(self, r, value: str) -> list[str]:
        return [_set(self._value(r), value)]

    def hits(self, access: int, size: int, value: str = "0"):
        """The guard's in-line chain for the access at ``a``, or None:
        there is none for a hull-first access, or from no guard."""
        if self.hull or self.guard is None:
            return None
        return self.guard(access, size=size, value=value)

    def load(self, r, size: int) -> list[str]:
        return _load(self._value(r), "a", size, self.sync, hull=self.hull,
                     hits=self.hits(mach.ACCESS_READ, size))

    def store(self, size: int, value: str) -> list[str]:
        return _store("a", size, value, self.sync, hull=self.hull,
                      hits=self.hits(mach.ACCESS_WRITE, size, "v"))

    def words(self, access) -> list[str]:
        lines, self.hull = [], True
        for i, r in enumerate(self.ins.reglist):
            self.r = r
            lines += ["a = (sp + %d) & M" % (4 * i) if i else "a = sp",
                      *access()]
        return lines

    def flags(self, a: str, b: str) -> list[str]:
        return ["fa = %s; fb = %s" % (a, b)]

    def branch(self, target: str) -> list[str]:
        read, test = _test(self.ins.cond, self.sync)
        return [*read, "if %s:" % test,
                " m.pc = %s; m.cycles = c + %d; cnt[0] += 1"
                % (self.k(target), self.cost + 1),
                "else:",
                " m.pc = %d; m.cycles = c + %d" % (self.nxt, self.cost)]

