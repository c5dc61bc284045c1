"""Hot traces compiled to Python functions for Machine.run.

A block is the trace entered at a pc: it runs on past each ``b`` and
``bl``, into the branch's target, and ends at any other branch or pc
write, before an address already in it, before a TRAP op (``svc``,
``bkpt``, ``udf``) or a missing instruction, and at most MAX_BLOCK_LEN
long.  What an op is (a branch, a data access, a trap) and which
registers it writes are read from its row in ``isa.OPS``.  What it does
is written once, in ``SEMANTICS``, as source over operand slots, and
instantiated twice: with a block's operands known (``_Compiled``), and
for any instruction as the executors that ``step()`` runs
(``executors``, which ``machine`` calls at import), in the manner of
QEMU's one op description run by its compiler and its interpreter.
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

* steps, cycles and the flags are kept in locals: a compare keeps its
  operands, ``fa`` and ``fb``, for the branch after it.  ``m.steps``,
  ``m.cycles``, ``m.cur_pc``, ``m.pc`` and ``m.xpsr`` are written only
  before something can read them (a guard called, and ``m.load`` and
  ``m.store``, which read CYCCNT) and at each exit, as ``step()`` would
  have left them (the flags by ``_cmp``'s rule, ``F``);
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
records it.  Where the guard gives no in-line form (a hook, a guard whose
handlers were replaced, a ``m.watch`` that is not its unit's slots),
a hit writes the state and shows the guard the access instead, then
commits a store through ``Machine.commit`` unless the guard
suppresses it, or reads a load through ``m.load``.  A miss into RAM on
one page is taken in line, and any other goes to ``m.load`` after the
state writes, or to ``m.commit``.  A page nothing wrote reads 0, and a
store that misses every comparator and finds its page missing goes to
``m.commit``, which creates it (``_decode``).  A push or pop handles
all its words, as ``step()`` does, even when the guard halts the
machine on an earlier one.

The block folds constants: it knows the value a ``movw``, ``mov_imm`` or
``movt`` put in a register until another write of it (read from
``isa.OPS``), and emits such an instruction as that constant.  A word
``ldr``/``str`` whose address is known, aligned and, by
``machine.ppb_device``, on a device (``_device_word``) has one fast
case: the in-line form that the machine's device gives the word
(``inline``: the watchpoint unit's register words, as the same lines
``step()`` runs), outside the hull, with a stored value the block knows
folded and the device's state bound once per entry (its ``BIND``).
Such a word takes ``_load``/``_store``, hull-first, with its address as
a literal and no alignment test, and a store's ``slow`` test (a region
the unit must cache or drop) joins the hull test.  A device word with
no in-line form (CTRL, CYCCNT, an unmapped word, DEMCR, any word on a
machine without its device) is emitted as any other ``ldr``/``str``.
So every case a block cannot finish in line goes through
``m.load``/``m.store``, and the block calls no device itself.  The
source depends on the machine only in whether it has the watchpoint
unit.  Compiled code is cached by its text: it spells out the entry pc
and every operand, so machines built from equal code, with the unit or
without, share it, and a changed instruction compiles anew.  Exception
returns go through ``m._end``, which looks up
``exception_model.return_from_exception`` when called, so anything
patched onto the class or module still sees each one.  Code at or
above ``EXC_RETURN_MIN`` is not run in line, and a block whose next pc
can be there ends through ``m._end``.  ``Machine.run`` drops its
blocks, whose counts it folded in when it last returned, when
``m.code``, ``m.dwt``, ``m.guard`` or ``m.watch`` is replaced: the
guard's state is bound once, when a block is made (its ``BIND``), and
its policy folded.
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
        """Compile the block of ``m.code`` at pc, running each device word
        in line that ``m``'s device can; one of no instructions stays
        uncompiled."""
        instrs = _block_at(m.code, pc)
        if not instrs:
            return
        self.n = len(instrs)
        self.counts = [0] * (self.n + 1)
        self.addrs = tuple(at for at, _ in instrs)
        ns = {"M": MASK32, "U": mach.WORD.unpack_from,
              "K": mach.WORD.pack_into, "F": _FLAGS["F"]}
        exec(_byte_code(_source(instrs, m)), ns)
        self.fn = ns["make"](self.counts, m.guard)

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


def _in_line(ins, known: dict, m):
    """(address, binding, form) of a device word (``_device_word``)
    whose device on ``m`` gives it an in-line form: the line that binds
    the device's state once per entry (its ``BIND``), and the form its
    ``inline`` gives, a store's with the value folded when the block
    knows it.  Else None: the word takes ``SEMANTICS``, as any other
    access does."""
    word = _device_word(ins, known)
    dev = None if word is None else getattr(m, word[1], None)
    if not hasattr(dev, "inline"):
        return None
    addr, name = word
    form = (dev.inline(addr, mach.ACCESS_READ) if ins.op == "ldr"
            else dev.inline(addr, mach.ACCESS_WRITE, known.get(ins.rd)))
    bind = "  D = m.%s; %s" % (name, dev.BIND)
    return None if form is None else (addr, bind, form)


_MIN_SP = "if m.min_sp is not None and m.sp < m.min_sp: m.min_sp = m.sp"


def _source(instrs, m=None) -> str:
    """``make(cnt, J)`` returning ``block(m, limit)``: the block's
    instructions as Machine.step would run them, in sequence.  A block
    whose exit reaches its own entry runs them again for as long as it
    does and another pass fits before ``limit`` steps.  A word of a
    device that ``m`` has and that gives it an in-line form is run in
    line (``_in_line``), over the names the device's ``BIND`` binds
    once per entry.  A load or store that tests the four regions runs
    the in-line form of ``m``'s guard ``J`` (its ``inline``), when it
    gives one, over the names the guard's ``BIND`` binds in ``make``."""
    bind = None  # the in-line device's, once per entry
    guard = getattr(m, "guard", None)
    inline = getattr(guard, "inline", None)
    n = len(instrs)
    entry, (at, ins) = instrs[0][0], instrs[-1]
    exits = _exits(at, ins)
    loops = exits is None or entry in exits
    split = loops and ins.op in ("b", "bcond")  # _loop_tail runs it
    out = ["def make(cnt, J):",
           *([" " + guard.BIND] if inline else []),
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
        OPS[ins.op].sets_flags for _, ins in instrs) else "")
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
        sync = "m.steps = s + %d; %s%s%s" % (i, state, pc, flags)
        word = _in_line(ins, known, m)
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
                inline, m, step="s + %d" % i, pc=at, addr="a")
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
    at, ins = instrs[-1]
    nxt = at + ins.width
    if loops:
        if split:
            cost += ins.cycles
        out.append("  while True:")
        out += ["   " + line for line in body + _loop_tail(
            ins, at, cost, n, entry, fold + flags)]
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


def _loop_tail(ins, at: int, cost: int, n: int, entry: int,
               end: str) -> list[str]:
    """A looping block's exit test, after its other instructions: a
    ``bcond`` leaves for whichever of its target and fall-through is not
    the entry as ``_Compiled.branch`` would, a pc from a register or
    memory leaves when it is not the entry; a pass that stays starts the
    next one if it fits before ``limit``, else returns at the entry
    after ``end``, the counts and flags that every exit writes."""
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
    elif _exits(at, ins) is None:
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
    device word's in-line ``form`` (``_in_line``) takes the hull
    test alone, on the hull's half above PPB_BASE, and a store's its
    ``slow`` test too: a read is its expression, a write its lines.
    Else ``a`` must be RAM, below PPB_BASE (and with ``hull`` outside
    the half below), and a word must not cross a page.  A missing page
    reads 0; a store to one goes to ``Machine.commit``, which alone
    creates pages.  A memory map that grows more banks changes this
    beside ``Machine.load``/``commit``."""
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
    regions or, with ``hull``, lies outside their hull; anything else
    brings the state up to date, for the guard and CYCCNT, and takes
    m.load.  With ``hits``, the guard's in-line chain for the access
    (``_Compiled.hits``), a load that ``_decode`` can read inline runs
    the chain, which records a hit with no Python call, and is read
    so."""
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
    chain for the access (``_Compiled.hits``), which records it with no
    Python call, or without them brings the state up to date for the
    guard and commits unless the guard suppresses it; a miss that
    ``_decode`` can write inline is written so, and any other goes
    through m.commit, which needs no state writes: no write reads the
    state (a byte store into the DWT window reads its word back, but
    CYCCNT drops writes)."""
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


# -- one semantics per op ------------------------------------------------------
#
# SEMANTICS gives each non-TRAP op's effect as lines of Python over a
# binder ``b``, whose slots spell the operands, each named by an
# expression on ``ins``: a field's value ``k``, a register's read ``reg``
# (PC reads the next pc) and write ``set``, the access at ``a``, ``load``
# or ``store``, ``access()`` per listed register ``r`` at ``a`` from ``sp``
# (``words``), a compare's ``flags`` of ``a - b``, and a conditional
# ``branch`` on the flags.
# ``_Compiled`` binds them for one instruction of a block, ``_Stepped``
# for ``step()``; a TRAP op's executor is ``machine``'s own.

def _cmp(a: str, b: str) -> list[str]:
    """N, Z, C and V of ``a - b`` into xPSR, as AddWithCarry sets them."""
    return ["a = %s; b = %s; r = (a - b) & M" % (a, b),
            "x = m.xpsr & 0x0FFFFFFF",
            "if r & 0x80000000: x |= 0x80000000",
            "if r == 0: x |= 0x40000000",
            "if a >= b: x |= 0x20000000",
            "if a >> 31 != b >> 31 and a >> 31 != r >> 31: x |= 0x10000000",
            "m.xpsr = x"]


# Each condition's test on x = m.xpsr, and on a compare that a block
# left pending in fa, fb: Z is fa == fb, and N != V a signed fa < fb.
# _XPSR is the one call that writes pending flags, by _cmp's rule.
_COND = {
    "eq": ("x & 0x40000000", "fa == fb"),
    "ne": ("not x & 0x40000000", "fa != fb"),
    "lt": ("bool(x & 0x80000000) != bool(x & 0x10000000)",
           "(fa ^ 0x80000000) < (fb ^ 0x80000000)"),
    "ge": ("bool(x & 0x80000000) == bool(x & 0x10000000)",
           "(fa ^ 0x80000000) >= (fb ^ 0x80000000)"),
}
_XPSR = "F(m, fa, fb)"
_FLAGS = {"M": MASK32}
exec(compile("def F(m, fa, fb):\n " + "\n ".join(_cmp("fa", "fb")),
             "<flags>", "exec"), _FLAGS)


def _test(cond: str, end: str) -> tuple[list[str], str]:
    """The lines that read the flags and ``cond``'s test: on fa, fb if
    ``end``, the state writes there, writes their flags, else on xPSR."""
    pending = end.endswith("; " + _XPSR)
    return [] if pending else ["x = m.xpsr"], _COND[cond][pending]


def _at(b) -> str:
    return "a = (%s + %s) & M" % (b.reg("ins.rn"), b.k("ins.imm"))


def _aligned(lines: list[str]) -> list[str]:
    """A word access: an unaligned address faults, else ``lines`` run."""
    return ["if a & 3: m.fault()", "else:", *(" " + line for line in lines)]


SEMANTICS = {
    "movw": lambda b: b.set("ins.rd", b.k("ins.imm")),
    "movt": lambda b: b.set("ins.rd", "(%s & 0xFFFF) | %s" % (
        b.reg("ins.rd"), b.k("ins.imm << 16"))),
    "mov_imm": lambda b: b.set("ins.rd", b.k("ins.imm")),
    "mov_reg": lambda b: b.set("ins.rd", b.reg("ins.rm")),
    "ldr": lambda b: [_at(b), *_aligned(b.load("ins.rd", 4))],
    "str": lambda b: [_at(b), *_aligned(b.store(4, b.reg("ins.rd")))],
    "ldrb": lambda b: [_at(b), *b.load("ins.rd", 1)],
    "strb": lambda b: [_at(b), *b.store(1, "%s & 0xFF" % b.reg("ins.rd"))],
    "push": lambda b: [
        "sp = (m.sp - %s) & M" % b.k("4 * len(ins.reglist)"), "m.sp = sp",
        *b.words(lambda: b.store(4, b.reg("r")))],
    "pop": lambda b: [
        "sp = m.sp", "m.sp = (sp + %s) & M" % b.k("4 * len(ins.reglist)"),
        *b.words(lambda: b.load("r", 4))],
    "add_sp": lambda b: ["m.sp = (m.sp + %s) & M" % b.k("ins.imm")],
    "sub_sp": lambda b: ["m.sp = (m.sp - %s) & M" % b.k("ins.imm")],
    "addw": lambda b: b.set("ins.rd", "%s + %s" % (b.reg("ins.rn"),
                                                    b.k("ins.imm"))),
    "subw": lambda b: b.set("ins.rd", "%s - %s" % (b.reg("ins.rn"),
                                                    b.k("ins.imm"))),
    "cmp_imm": lambda b: b.flags(b.reg("ins.rn"), b.k("ins.imm")),
    "cmp_reg": lambda b: b.flags(b.reg("ins.rn"), b.reg("ins.rm")),
    "b": lambda b: ["m.pc = %s" % b.k("ins.target")],
    "bcond": lambda b: b.branch("ins.target"),
    "bl": lambda b: ["m.lr = %s; m.pc = %s" % (b.reg(PC), b.k("ins.target"))],
    "bx": lambda b: ["m.pc = %s" % b.reg("ins.rm")],
    "blx": lambda b: ["t = %s; m.lr = %s; m.pc = t" % (b.reg("ins.rm"),
                                                      b.reg(PC))],
    "msr": lambda b: [
        "if m.mode == %r or not m.control & 1: m.control = %s & 1"
        % (mach.MODE_HANDLER, b.reg("ins.rn"))],
    "mrs": lambda b: b.set("ins.rd", "m.control"),
    "nop": lambda b: [],
}


@functools.lru_cache(maxsize=64)
def _operand(expr: str):
    return compile(expr, "<operand>", "eval")


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
        return eval(_operand(expr), {"ins": self.ins, "r": self.r})

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


class _Stepped:
    """The slots of any instruction, as ``step()`` runs it once it has
    charged the cycles and set pc to the next instruction: operands are
    read from ``ins``, registers through ``m.read_reg`` and written in
    line when they are GPRs, and memory is ``m.load``/``m.store``."""

    def k(self, expr: str) -> str:
        return expr

    def reg(self, r) -> str:
        return "m.pc" if r == PC else "m.read_reg(%s)" % r

    def set(self, r: str, value: str) -> list[str]:
        return ["if %s < %d: m.gpr[%s] = (%s) & M" % (r, NUM_GPRS, r, value),
                "else: m.write_reg(%s, %s)" % (r, value)]

    def load(self, r: str, size: int) -> list[str]:
        return self.set(r, "m.load(a, %d)" % size)

    def store(self, size: int, value: str) -> list[str]:
        return ["m.store(a, %d, %s)" % (size, value)]

    def words(self, access) -> list[str]:
        return ["for i, r in enumerate(ins.reglist):",
                " a = (sp + 4 * i) & M", *(" " + line for line in access())]

    def flags(self, a: str, b: str) -> list[str]:
        return _cmp(a, b)

    def branch(self, target: str) -> list[str]:
        *conds, last = _COND  # the test ins.cond picks; else the last one
        return ["x = m.xpsr",
                "if %s(%s):" % ("".join("(%s) if ins.cond == %r else "
                                        % (_COND[c][0], c) for c in conds),
                                _COND[last][0]),
                " m.cycles += 1; t = m.taken",  # taken: one cycle more
                " t[m.cur_pc] = t.get(m.cur_pc, 0) + 1; m.pc = %s" % target]


def executors() -> dict:
    """Each non-TRAP op's executor ``(m, ins)``, for ``machine._EXEC``:
    its SEMANTICS bound by ``_Stepped``, compiled in one ``exec``."""
    ops = [op for op, row in OPS.items() if row.kind != TRAP]
    source = []
    for op in ops:
        source += ["def _x_%s(m, ins):" % op, *(
            " " + line for line in SEMANTICS[op](_Stepped()) or ["pass"])]
    ns = {"M": MASK32}
    exec(compile("\n".join(source), "<step>", "exec"), ns)
    return {op: ns["_x_" + op] for op in ops}


# The values a block knows it put in a register, by op; ``_fold`` keeps
# them in step with the block's other register writes.
_FOLD = {
    "movw": lambda ins, known: ins.imm,
    "mov_imm": lambda ins, known: ins.imm,
    "movt": lambda ins, known: (
        None if ins.rd not in known
        else (known[ins.rd] & 0xFFFF) | ins.imm << 16),
}
