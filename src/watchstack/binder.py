"""One instruction of a compiled block, as source: the binder of
``semantics.SEMANTICS`` that ``blocks`` compiles each op through, and
the in-line access path its loads and stores take.

``Compiled`` binds an instruction with its operands known: fields as
literals, registers as the block's locals or ``m`` attributes, a
compare as its two operands kept in ``fa`` and ``fb``, and memory as
below, all for the watch state the instruction runs under (``state``,
``blocks._state``), whose every test is a constant here.

Each data access makes one inline test, as QEMU's softmmu path does:
its fast case runs in line, and every other case writes the state and
calls ``m.load`` or ``m.store``, the one slow path, which runs the
four-region test, the guard and the device decode, then leaves through
the instruction's halt exit if the machine halted or the watch state is
not the one the next instruction was compiled for; a block reaches the
machine through nothing else.  A push or pop of n words makes one test
too: its words all in RAM, on one present page and outside the hull, it
moves them with one ``struct`` call of n words, and else it moves them
word by word through ``m.store`` or ``m.load``, as ``step()`` does,
each word even when the guard halts the machine on an earlier one, and
tests for the halt after the last.  A hull-first access tests only the
hull of its access kind's regions (``dwt.hull``, at compile time),
which no comparator can match outside of: there RAM, below
``machine.PPB_BASE`` and, for a word, on one page, is read, or written
on a present page, on ``m.mem``'s page with no call and no state
writes.  An access is hull-first when it is a push's
or pop's word or has base sp; where the guard gives no in-line form
(``blocks._shape``: no guard, a subclass's or wrapped handlers, or
``WATCH_ALL``), every access is.  Any other access, such as a byte
store that hits on most passes, tests the regions of its access kind
in line, as ``Machine.load``/``store`` do, as an ``if``/``elif`` chain
in the lowest-comparator order, whose arm k is the in-line form of the
guard's own handling of a hit on comparator k (its ``inline``), with
k's region, the step index ``s + i`` and the pc as literals: it
appends the hit's record to the guard's log with no Python call and no
state writes, and under the reset policy halts, so the block leaves
through its halt exit.  An empty region has no arm, nor has a region
above PPB_BASE, where no in-line access lies.  A store that hits is
suppressed; a load, if RAM on one page, is read in line before the
chain (a read that hits still flows), and else takes ``m.load``, whose
guard records a hit.  A miss into RAM on one page (for a store, a
present page) is taken in line.

It is its own module so that ``blocks`` and it compile one at a time,
when ``Machine.run`` first imports ``blocks``: the compile of one
module of their joint size would set every benchmark workload's
``peak_rss_mb`` (``tests/test_imports.py``).
"""

from __future__ import annotations

from . import machine as mach
from .dwt import hull
from .isa import LR, MASK32, NUM_GPRS, SP
from .semantics import COND


def read_reg(r: int, pc="m.pc") -> str:
    """read_reg(r), with pc read as ``pc``, the next instruction's
    address; by default, where write_reg(r, ...) stores."""
    return "g[%d]" % r if r < NUM_GPRS else {SP: "m.sp", LR: "m.lr"}.get(
        r, "%s" % pc)


def write_reg(r: int, expr: str) -> str:
    """write_reg(r, expr): the value is masked to 32 bits."""
    if expr.isdigit():
        return "%s = %d" % (read_reg(r), int(expr) & MASK32)
    return "%s = (%s) & M" % (read_reg(r), expr)


def _decode(a: str, size: int, rd=None, slots=None,
            words=None) -> tuple[str, list[str]]:
    """The one compiled decode of an access of ``size`` bytes at ``a``
    that missed the comparators or, with ``slots``, its access kind's
    regions (known), lies outside their hull (``[h0, h1)``): the test for
    its inline case, and the lines that read it into ``rd`` or, without
    ``rd``, write ``v``.  ``a`` must be RAM, below PPB_BASE, and a word
    on one page; a missing page reads 0, and a store needs a present page
    (``Machine.store`` alone creates them).  With ``words``, the
    registers a pop reads into (``rd`` true) or the values a push
    writes, as a tuple's text, the access is the ``size // 4`` words of
    a push or pop: their test asks for a present page too, and one
    struct call moves them all.
    A memory map with more banks changes this beside ``Machine.load``."""
    test = "%s < %d" % (a, mach.PPB_BASE)
    if size >= 4:
        test += " and (o := %s & %d) <= %d" % (a, mach.PAGE_MASK,
                                               mach.PAGE_SIZE - size)
        off = "o"
    else:
        off = "%s & %d" % (a, mach.PAGE_MASK)
    h0, h1 = hull(slots)[:2] if slots else (0, 0)
    if h0 < h1:  # an empty hull holds nothing
        test += " and (%s >= %d or %s + %d <= %d)" % (a, h1, a, size, h0)
    page = "(p := P.get(%s >> %d)) is not None" % (a, mach.PAGE_BITS)
    if words:
        return test + " and " + page, [
            "%s, = UN('<%dI', p, o)" % (words, size // 4) if rd
            else "KN('<%dI', p, o, %s)" % (size // 4, words)]
    if rd is None:
        write = ("K(p, %s, v)" if size == 4 else "p[%s] = v") % off
        return test + " and " + page, [write]
    word = ("U(p, %s)[0]" if size == 4 else "p[%s]") % off
    return test, ["%s = %s if %s else 0" % (read_reg(rd), word, page)]


def _slow(b, call: str) -> list[str]:
    """An access's ``else`` arm, the one slow path: the state writes of
    the binder ``b`` (``Compiled``), for the guard and CYCCNT, then
    ``call``, of ``m.load`` or ``m.store``, which may halt or change the
    watch state, then the halt exit ``b.end`` if it halted or the watch
    state (``_state``) is not the one the next instruction is compiled
    for, ``b.after()``."""
    return ["else:", " %s; %s" % (b.sync, call),
            " if m.halted or X(m) != %s: %s" % (b.after(), b.end)]


def _load(b, rd: int, a: str, size: int, hits=None) -> list[str]:
    """Machine.load of ``size`` bytes at ``a`` into ``rd``, for the
    instruction whose binder is ``b`` (``Compiled``): a load that
    ``_decode`` can read inline is read so if, without ``hits``, it lies
    outside the hull, or else before ``hits``, the guard's in-line chain
    (``Compiled.hits``), records a hit (a read that hits still flows);
    anything else takes the slow path (``_slow``)."""
    test, (read,) = _decode(a, size, rd,
                            hits is None and b.state[mach.ACCESS_READ])
    return ["if %s:" % test, *(" " + line for line in (read, *(hits or ()))),
            *_slow(b, write_reg(rd, "m.load(%s, %d)" % (a, size)))]


def _store(b, a: str, size: int, value: str, hits=None) -> list[str]:
    """Machine.store of ``value`` at ``a``, for the binder ``b`` as in
    ``_load``: a store in a comparator region runs ``hits``, if given;
    a store that ``_decode`` can write inline, and that missed them or,
    without ``hits``, lies outside the hull, is written so; anything
    else takes the slow path (``_slow``)."""
    test, (write,) = _decode(a, size, slots=hits is None
                             and b.state[mach.ACCESS_WRITE])
    return ["v = " + value, *(hits or ()),
            "%s %s: %s" % ("elif" if hits else "if", test, write),
            *_slow(b, "m.store(%s, %d, v)" % (a, size))]


# The one call that writes a pending compare's flags (write_flags).
XPSR = "F(m, fa, fb)"


def branch_test(cond: str, end: str) -> tuple[list[str], str]:
    """The lines that read the flags and ``cond``'s test: on fa, fb if
    ``end``, the state writes there, writes their flags, else on xPSR."""
    pending = end.endswith("; " + XPSR)
    return [] if pending else ["x = m.xpsr"], COND[cond][pending]


class Compiled:
    """The slots of one instruction of a block (``nxt`` its fall-through,
    ``cost`` the cycles to its end, ``sync`` the state writes, which
    only an access's slow path makes, ``end`` the halt exit, ``guard``
    the guard's in-line form at its step and pc, or None, ``state`` the
    watch state it runs under and ``after()`` the name of the one after
    it): operands are literals, registers locals or ``m`` attributes,
    memory is ``_load``/``_store``, hull-first for a stack word, a base
    of sp or where ``guard`` is None, and a compare's flags stay in
    ``fa``, ``fb`` until an exit or ``sync`` writes them."""

    def __init__(self, ins, nxt: int, cost: int, sync: str, end: str,
                 guard, state: tuple, after) -> None:
        self.ins, self.nxt, self.cost, self.sync, self.end = (
            ins, nxt, cost, sync, end)
        self.r, self.guard = None, None if ins.rn == SP else guard
        self.state, self.after = state, after

    def _value(self, expr):
        return expr if isinstance(expr, int) else eval(
            expr, {"ins": self.ins, "r": self.r})

    def k(self, expr: str) -> str:
        return "%d" % self._value(expr)

    def reg(self, r) -> str:
        return read_reg(self._value(r), self.nxt)

    def set(self, r, value: str) -> list[str]:
        return [write_reg(self._value(r), value)]

    def hits(self, access: int, size: int, value: str = "0"):
        """The guard's in-line chain for the access at ``a``, or None for
        a hull-first one: its arms are the regions of ``state`` clipped
        below PPB_BASE, as no access in line lies above (a chain's access
        is a byte or an aligned word, so it does not cross PPB_BASE)."""
        return self.guard and self.guard(access, [
            (lo, min(hi, mach.PPB_BASE)) for lo, hi in self.state[access]],
            size=size, value=value)

    def load(self, r, size: int) -> list[str]:
        if self.r is not None:  # a word of a push or pop (words)
            return [write_reg(self._value(r), "m.load(a, 4)")]
        return _load(self, self._value(r), "a", size,
                     self.hits(mach.ACCESS_READ, size))

    def store(self, size: int, value: str) -> list[str]:
        if self.r is not None:
            return ["m.store(a, 4, %s)" % value]
        return _store(self, "a", size, value,
                      self.hits(mach.ACCESS_WRITE, size, "v"))

    def words(self, access) -> list[str]:
        """A push's or pop's words from ``sp``: one test and one struct
        call (``_decode``), and else word by word through ``m.store`` or
        ``m.load``, as ``step()`` goes, each word even when an earlier
        one halted, then the halt exit if one halted."""
        regs, lines = self.ins.reglist, []
        for i, self.r in enumerate(regs):
            lines += ["a = (sp + %d) & M" % (4 * i), *access()]
        pop = self.ins.op == "pop"
        test, fast = _decode("sp", 4 * len(regs), rd=pop, slots=self.state[
            mach.ACCESS_READ if pop else mach.ACCESS_WRITE],
                             words=", ".join(read_reg(r, "m.pc" if pop else
                                                  self.nxt) for r in regs))
        return ["if %s: %s" % (test, *fast), *_slow(self, "; ".join(lines))]

    def flags(self, a: str, b: str) -> list[str]:
        return ["fa = %s; fb = %s" % (a, b)]

    def branch(self, target: str) -> list[str]:
        read, test = branch_test(self.ins.cond, self.sync)
        return [*read, "if %s:" % test,
                " m.pc = %s; m.cycles = c + %d; cnt[0] += 1"
                % (self.k(target), self.cost + 1),
                "else:",
                " m.pc = %d; m.cycles = c + %d" % (self.nxt, self.cost)]
