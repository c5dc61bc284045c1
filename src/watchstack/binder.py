"""One instruction of a compiled block, as source: the binder of
``semantics.SEMANTICS`` that ``blocks`` compiles each op through, and
the in-line access path its loads and stores take.

``Compiled`` binds an instruction with its operands known: fields as
literals, registers as the block's locals or ``m`` attributes, a
compare as its two operands kept in ``fa`` and ``fb``, and memory as
below, all for the watch state the instruction runs under (``state``,
``blocks._state``), whose every test is a constant here.

Each data access makes one inline test, as QEMU's softmmu path does,
after, in a loop, one compare with its site's page (below): its fast
case runs in line, and every other case writes the state and
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
``m.watch`` not DWT slots), every access is.  Any other access, such as a byte
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

In a looping block each in-line RAM access site also keeps, as
softmmu's TLB keeps a translation, the last page its fast case found,
for one call of the block (``_decode``): an access on that page makes
one compare, ahead of the fast case, and moves its bytes on the page
with none of the tests above and no page lookup.  A hull-first site
keeps only a page wholly outside its hull; a site with the guard's
chain runs the chain on either arm, as before the write or after the
read.

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


def _decode(a: str, size: int, rd=None, slots=None, words=None,
            site=None) -> list[tuple[str, list[str]]]:
    """The one compiled decode of an access of ``size`` bytes at ``a``
    that missed the comparators or, with ``slots``, its access kind's
    regions (known), lies outside their hull (``[h0, h1)``), as the arms
    of an ``if``/``elif`` chain, each a test and the lines that read the
    access into ``rd`` or, without ``rd``, write ``v``: its inline case,
    and with ``site``, before it, its site's page.  ``a`` must be RAM,
    below PPB_BASE, and a word on one page; a missing page reads 0, and
    a store needs a present page (``Machine.store`` alone creates them).
    With ``words``, the registers a pop reads into (``rd`` true) or the
    values a push writes, as a tuple's text, the access is the
    ``size // 4`` words of a push or pop: their test asks for a present
    page too, and one struct call moves them all.

    A site of a looping block keeps the last page its inline case found
    present, for the block's call: its base in ``t<site>`` (at first one
    no address is at) and the page in ``q<site>``, so an access on it
    makes one compare and moves its bytes with no lookup.  Pages are
    never replaced, and a site runs under one watch state, so nothing
    invalidates it.  With ``slots`` it keeps only a page wholly outside
    the hull, and a page is wholly below PPB_BASE, as its base is
    aligned.
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
        move = ("%s, = UN('<%dI', {p}, {o})" % (words, size // 4) if rd
                else "KN('<%dI', {p}, {o}, %s)" % (size // 4, words))
    elif rd is None:
        move = "K({p}, {o}, v)" if size == 4 else "{p}[{o}] = v"
    else:
        move = "%s = %s" % (read_reg(rd), "U({p}, {o})[0]" if size == 4
                            else "{p}[{o}]")
    fast = move.format(p="p", o=off)
    if rd is None or words:
        test += " and " + page
        keep = []
    else:
        fast += " if %s else 0" % page
        keep = ["p is not None"]  # a missing page is not kept
    if site is None:
        return [(test, [fast])]
    t, q = "t%s" % site, "q%s" % site
    if h0 < h1:
        keep.append("not %d < %s & %d < %d" % (
            h0 - mach.PAGE_SIZE, a, -mach.PAGE_SIZE, h1))
    fill = "%s = %s & %d; %s = p" % (t, a, -mach.PAGE_SIZE, q)
    return [("0 <= (o := %s - %s) <= %d" % (a, t, mach.PAGE_SIZE - size),
             [move.format(p=q, o="o")]),
            (test, [fast, "if %s: %s" % (" and ".join(keep), fill)
                    if keep else fill])]


def _arms(arms, first="if", block=False) -> list[str]:
    """``_decode``'s arms as an ``if``/``elif`` chain that begins with
    ``first``: an arm of one line on its test's line, unless ``block``."""
    lines = []
    for i, (test, body) in enumerate(arms):
        kw = "elif" if i else first
        lines += (["%s %s: %s" % (kw, test, *body)]
                  if len(body) == 1 and not block else
                  ["%s %s:" % (kw, test), *(" " + line for line in body)])
    return lines


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
    (``Compiled.hits``), records a hit (a read that hits still flows),
    in each of its arms; anything else takes the slow path (``_slow``)."""
    arms = _decode(a, size, rd, hits is None and b.state[mach.ACCESS_READ],
                   site=b.site)
    return [*_arms([(test, [*body, *(hits or ())]) for test, body in arms],
                   block=True),
            *_slow(b, write_reg(rd, "m.load(%s, %d)" % (a, size)))]


def _store(b, a: str, size: int, value: str, hits=None) -> list[str]:
    """Machine.store of ``value`` at ``a``, for the binder ``b`` as in
    ``_load``: a store in a comparator region runs ``hits``, if given;
    a store that ``_decode`` can write inline, and that missed them or,
    without ``hits``, lies outside the hull, is written so; anything
    else takes the slow path (``_slow``)."""
    arms = _decode(a, size, slots=hits is None and b.state[mach.ACCESS_WRITE],
                   site=b.site)
    return ["v = " + value, *(hits or ()),
            *_arms(arms, "elif" if hits else "if"),
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
    watch state it runs under, ``after()`` the name of the one after
    it and ``site``, in a looping block, its index in the trace, which
    names its access's page, else None): operands are literals, registers locals or ``m``
    attributes, memory is ``_load``/``_store``, hull-first for a stack
    word, a base of sp or where ``guard`` is None, and a compare's flags
    stay in ``fa``, ``fb`` until an exit or ``sync`` writes them."""

    def __init__(self, ins, nxt: int, cost: int, sync: str, end: str,
                 guard, state: tuple, after, site=None) -> None:
        self.ins, self.nxt, self.cost, self.sync, self.end = (
            ins, nxt, cost, sync, end)
        self.r, self.guard = None, None if ins.rn == SP else guard
        self.state, self.after, self.site = state, after, site

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
        return [*_arms(_decode(
            "sp", 4 * len(regs), rd=pop, slots=self.state[
                mach.ACCESS_READ if pop else mach.ACCESS_WRITE],
            words=", ".join(read_reg(r, "m.pc" if pop else self.nxt)
                            for r in regs), site=self.site)),
                *_slow(self, "; ".join(lines))]

    def flags(self, a: str, b: str) -> list[str]:
        return ["fa = %s; fb = %s" % (a, b)]

    def branch(self, target: str) -> list[str]:
        read, test = branch_test(self.ins.cond, self.sync)
        return [*read, "if %s:" % test,
                " m.pc = %s; m.cycles = c + %d; cnt[0] += 1"
                % (self.k(target), self.cost + 1),
                "else:",
                " m.pc = %d; m.cycles = c + %d" % (self.nxt, self.cost)]
