"""Data watchpoint unit: four comparator groups behind the DWT window.

The window is declared in ``machine``'s fixed PPB map; this module lays
the registers out from its base.

Each group is three registers, 16 bytes apart per group: an address
comparator, a power-of-two mask, and a function code selecting which
access kinds match.  COMP1 is special in this design: the runtime keeps
the shadow stack pointer in it, which both hides the pointer from the
program's address space and lets the unit sanity-check it on update.

The twelve register words live in one flat list, ``DwtUnit.regs``, and
register writes are the only way one changes, on the chip and here:
``DwtUnit.groups`` returns frozen ``ComparatorGroup`` snapshots built
from the words.  The writes keep ``DwtUnit.slots``, a table of the
regions each access kind can match, up to date in place.  An enabled
group's ``[lo, hi)`` region is cached in ``DwtUnit.regions``, and only a
COMP or MASK write to the group drops it; a FUNCTION write, which the
instrumented code makes twice per call, only chooses per access kind
between the cached region and ``_NEVER``.  The machine tests every data
access against that table inline (``protect`` makes it
``Machine.watch``), as the chip's comparators do in hardware, and calls
the guard only on a hit.
A compiled block reads none of it as it runs: it is compiled for the
watch state it is entered in (``DwtUnit.snapshot``: the table, the
cached regions and the shadow pointer's span), with every test on that
state a constant, and checks the state on entry and after each
``Machine.load``/``store`` it makes.  A stack access tests only the
hull of its access kind's regions in that state, which ``hull`` works
out when the block is compiled; no hull is kept as the unit runs.
``match_access`` reads the same table, and is the reference matcher the
guard uses to name the comparator.  The rule it applies, the lowest
comparator whose region holds a byte of the access, is written once,
as lines (``lowest_match``): ``match_access`` is compiled from them at
import, and the guard's in-line form in compiled blocks
(``protect.WatchpointGuard.inline``) is the same chain with its hit
handling in each arm.

Each register word's read and write is written once, as Python lines
over the unit's register list, slots, region cache and shadow-pointer
span (``_write_lines``), in the manner of QEMU's softmmu fast path: the
lines make the write, and a ``slow`` test says when the region cache
must change too, which ``_regroup`` does.  The lines run twice.  Built
at import into each word's port, its ``(read, write)`` pair, they are
what ``mmio_read``/``mmio_write``, and so ``Machine.load``/``store``,
run.  And a compiled block emits them in line for a register word
outside its access kind's hull (``DwtUnit.inline``), with the unit's
state bound once per entry (``DwtUnit.BIND``), a value the block knows
folded at compile time and every test on the watch state the block is
compiled for decided then, the ``slow`` test and COMP1's span among
them; the port itself, run then on a unit that holds that state, gives
the state the write leaves for the instructions after it.  Where
``slow`` holds, or a FUNCTION write's value is not known, the block
takes ``Machine.store``, as it does for CYCCNT and the unmapped words,
which have no in-line form.  So from outside this module only
``mmio_read``/``mmio_write`` reach a port.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import MASK32
from .machine import (ACCESS_READ, DWT_CYCCNT, DWT_WINDOW_LO, PPB_BASE,
                      HaltReason)
from .semantics import define

# Comparator register addresses; the cycle counter's is machine's.
DWT_COMP_BASE = DWT_WINDOW_LO + 0x20
DWT_GROUP_STRIDE = 16
DWT_COMP_OFF = 0
DWT_MASK_OFF = 4
DWT_FUNCTION_OFF = 8
NUM_GROUPS = 4

DWT_COMP0 = DWT_COMP_BASE
DWT_MASK0 = DWT_COMP_BASE + DWT_MASK_OFF
DWT_FUNCTION0 = DWT_COMP_BASE + DWT_FUNCTION_OFF
DWT_COMP1 = DWT_COMP_BASE + DWT_GROUP_STRIDE  # 0xE0001030, doubles as ssp

FN_DISABLED = 0x0
FN_READ = 0x5
FN_WRITE = 0x6
FN_READWRITE = 0x7

MASK_BITS_MAX = 0x1F

# A group's registers, in ComparatorGroup's field order: group g's
# register k is DwtUnit.regs[3 * g + k].
_COMP, _MASK, _FUNCTION = range(3)
_COMP1 = 3 + _COMP  # the shadow stack pointer's index in DwtUnit.regs
_NEVER = (0, 0)  # the slot of a group that cannot match: no addr < 0
# The FUNCTION values that enable reads, writes, either: tuples, as the
# port lines spell them.
_READ_FNS = (FN_READ, FN_READWRITE)
_WRITE_FNS = (FN_WRITE, FN_READWRITE)
_ENABLED_FNS = (FN_READ, FN_WRITE, FN_READWRITE)

# The unit's state as the port lines name it: its register list, read
# and write slots and region cache.  A port reads each through the unit
# ``D``, and its shadow-pointer span too; a compiled block binds
# ``BIND``'s names once per entry, and folds the span.
_STATE = {"R": "D.regs", "S": "D.slots[0]", "W": "D.slots[1]",
          "G": "D.regions"}


def _read(i: int, names) -> str:
    """Register word ``i``'s read, over the state spelled by ``names``."""
    return "%s[%d]" % (names[0], i)


def _pick(v, fns: tuple, then: str, other):
    """``then`` if FUNCTION value ``v`` is one of ``fns``, else ``other``:
    chosen now when ``v`` is known, else by a test in the lines."""
    if isinstance(v, int):
        return then if v in fns else other
    return "%s if %s in %r else %s" % (then, v, fns, other)


def _write_lines(i: int, v, names) -> tuple[str | None, list[str]]:
    """Register word ``i``'s write of ``v`` (its value when known, else
    the name of a 32-bit value), as ``(slow, lines)`` over the unit's
    state spelled by ``names``: ``lines`` make the write, and ``slow``,
    which reads nothing they write, holds when the group's region cache
    must change too (``_regroup``), or is None when it cannot.  A known
    ``v`` is folded: each test on it is decided here."""
    R, S, W, G, Q = names
    gid, kind = divmod(i, 3)
    fn, region = i - kind + _FUNCTION, "%s[%d]" % (G, gid)
    lines = []
    if kind == _MASK:
        if isinstance(v, int):
            v &= MASK_BITS_MAX
        else:
            lines.append("%s &= %d" % (v, MASK_BITS_MAX))
    lines.append("%s[%d] = %s" % (R, i, v))
    if kind != _FUNCTION:  # the region moves: drop it, choose anew
        if i == _COMP1:  # its span is protect's
            lines += _overflow(v, Q)
        return ("%s is not None or %s[%d] in %r"
                % (region, R, fn, _ENABLED_FNS)), lines
    # A FUNCTION write chooses the slots from the cached region, which
    # an enabled group needs cached first.
    lines += ["%s[%d] = %s" % (slots, gid, _pick(v, fns, region, _NEVER))
              for slots, fns in ((S, _READ_FNS), (W, _WRITE_FNS))]
    if isinstance(v, int):
        return (region + " is None" if v in _ENABLED_FNS else None), lines
    return "%s in %r and %s is None" % (v, _ENABLED_FNS, region), lines


def _overflow(v, q) -> list[str]:
    """COMP1's write of ``v`` halts outside the span ``q``: the name of
    ``ssp_guard``, or its value when known (None: no span), folded
    here, with ``v`` too when known."""
    if isinstance(q, str):
        return ["if (q := %s) is not None and not q[0] <= %s <= q[1]: "
                "m.halt(D.OVERFLOW)" % (q, v)]
    if q is None or isinstance(v, int) and q[0] <= v <= q[1]:
        return []
    return [("" if isinstance(v, int) else "if not %d <= %s <= %d: "
             % (q[0], v, q[1])) + "m.halt(D.OVERFLOW)"]


def lowest_match(a: str, end: str, arm, slots=None) -> list[str]:
    """The lowest-comparator rule, as lines over the regions ``s0``..``s3``
    of one access kind, or over ``slots``, those regions known: an
    ``if``/``elif`` chain whose arm ``k``, the lines ``arm(k)``, runs
    when the access covering ``[a, end)`` (text) has a byte in region k
    and none in a lower one.  A known empty region has no arm, so the
    chain may have none.  Unrolled: a loop costs twice as much."""
    lines = []
    for k in range(NUM_GROUPS):
        lo, hi = slots[k] if slots else ("s%d[0]" % k, "s%d[1]" % k)
        if slots and lo >= hi:
            continue
        lines += ["%s %s < %s and %s > %s:"
                  % ("elif" if lines else "if", a, hi, end, lo),
                  *(" " + line for line in arm(k))]
    return lines


def _matcher():
    """``DwtUnit.match_access``, compiled from ``lowest_match``."""
    source = ["def match_access(self, addr, size, access):",
              " s0, s1, s2, s3 = self.slots[access]",
              " end = addr + size",
              *(" " + line for line in lowest_match(
                  "addr", "end", lambda k: ["return %d" % k])),
              " return None"]
    match_access = define("\n".join(source), "<dwt>", {})["match_access"]
    match_access.__doc__ = (
        "Lowest matching enabled comparator id for this access, else None."
        "\n\nAn access matches when any byte it covers falls inside a"
        " comparator's region.  Matching uses current register state; a"
        " store that reprograms a comparator only affects later accesses.")
    return match_access


def hull(slots) -> tuple[int, int, int, int]:
    """The hull ``(h0, h1, h2, h3)`` of the regions ``slots``, one access
    kind's in one watch state: ``[h0, h1)`` covers their parts below
    PPB_BASE and ``[h2, h3)`` their parts above, an empty half (0, 0),
    so no region in ``slots`` can match an access outside it.  Worked
    out when a block is compiled; the unit keeps none."""
    out = ()
    for edge_lo, edge_hi in ((0, PPB_BASE), (PPB_BASE, 1 << 32)):
        parts = [(max(lo, edge_lo), min(hi, edge_hi)) for lo, hi in slots]
        parts = [(lo, hi) for lo, hi in parts if lo < hi] or [(0, 0)]
        out += min(lo for lo, _ in parts), max(hi for _, hi in parts)
    return out


def _regroup(D, m, gid: int, stale: bool) -> None:
    """Bring group ``gid``'s cached region, and so its slots, in line
    with its registers after a write whose ``slow`` test held: drop a
    ``stale`` region, cache the region of an enabled group, and choose
    its slots through its FUNCTION port."""
    regs, regions = D.regs, D.regions
    if stale:
        regions[gid] = None
    comp, mask, fn = regs[3 * gid:3 * gid + 3]
    if fn in _ENABLED_FNS and regions[gid] is None:
        span = 1 << mask
        base = comp & ~(span - 1) & MASK32
        regions[gid] = (base, base + span)
    _PORTS[_ADDRS[3 * gid + _FUNCTION]][1](D, m, fn)


def _register_ports() -> dict:
    """Each register word's port by address, compiled in one ``exec``
    from its lines with the state read through the unit: a read returns
    the word, and a write runs its lines, masked to the bus's 32 bits,
    then, when their ``slow`` test holds, ``_regroup``, and answers
    True."""
    names = (*_STATE.values(), "D.ssp_guard")
    source = []
    for i in range(len(_ADDRS)):
        slow, lines = _write_lines(i, "v", names)
        source += ["def r%d(D, m): return %s" % (i, _read(i, names)),
                   "def w%d(D, m, v):" % i, " v &= %d" % MASK32,
                   *(" " + line for line in lines),
                   " if %s: _regroup(D, m, %d, %s); return True"
                   % (slow, i // 3, i % 3 != _FUNCTION)]
    ns = define("\n".join(source), "<dwt>", {"_regroup": _regroup})
    return {addr: (ns["r%d" % i], ns["w%d" % i])
            for i, addr in enumerate(_ADDRS)}


# Each register word's address, in DwtUnit.regs order.
_ADDRS = [DWT_COMP_BASE + gid * DWT_GROUP_STRIDE + off
          for gid in range(NUM_GROUPS)
          for off in (DWT_COMP_OFF, DWT_MASK_OFF, DWT_FUNCTION_OFF)]
# Address -> port, (read(D, m), write(D, m, value)) of unit D on machine
# m, built once at import.  CYCCNT is read-only here, and every word
# outside the register file, CTRL included, reads 0 and drops writes.
_UNMAPPED = (lambda D, m: 0, lambda D, m, value: None)
_PORTS = _register_ports()
_PORTS[DWT_CYCCNT] = (lambda D, m: m.cycles & MASK32, _UNMAPPED[1])


@dataclass(frozen=True)
class ComparatorGroup:
    """A snapshot of one group's registers (``DwtUnit.groups``)."""

    comp: int = 0
    mask: int = 0
    function: int = FN_DISABLED


class DwtUnit:
    """Comparator registers, match logic, and the word-wide register file."""

    # What a compiled block runs once per entry, with ``D`` the unit, to
    # bind the names its in-line lines (``inline``) use.
    BIND = "; ".join("%s = %s" % item for item in _STATE.items())
    # The halt of a COMP1 write outside ssp_guard, as the lines spell it.
    OVERFLOW = HaltReason.STACK_OVERFLOW

    def __init__(self) -> None:
        # Legal [lo, hi] span for COMP1 writes once protect owns it; a
        # write outside the span halts with a shadow stack overflow.
        self.ssp_guard: tuple[int, int] | None = None
        # COMP, MASK and FUNCTION of each group in turn, zero (disabled)
        # at reset like the chip's.
        self.regs = [0] * (3 * NUM_GROUPS)
        # Indexed by access kind (ACCESS_READ, ACCESS_WRITE): one (lo, hi)
        # region per group, _NEVER while the group's FUNCTION excludes
        # that kind.  Only register writes change it, and always in
        # place, so whoever holds it (Machine.watch, a compiled block's S
        # and W, which its in-line FUNCTION writes write) sees every one;
        # a compiled block reads it only as constants, and its snapshot
        # on entry and after each slow path.
        self.slots = ([_NEVER] * NUM_GROUPS, [_NEVER] * NUM_GROUPS)
        # Each group's region from its COMP and MASK, or None until an
        # enabled group needs it again after one of them changed.
        self.regions: list[tuple[int, int] | None] = [None] * NUM_GROUPS

    @property
    def groups(self) -> tuple[ComparatorGroup, ...]:
        """Every group's registers as they are now, as frozen snapshots."""
        r = self.regs
        return tuple(ComparatorGroup(*r[i:i + 3])
                     for i in range(0, 3 * NUM_GROUPS, 3))

    match_access = _matcher()

    # -- register file ------------------------------------------------------

    def snapshot(self, watch) -> tuple:
        """The watch state that code compiled for this unit and ``watch``
        (``Machine.watch``) runs under, as one hashable value: the regions
        of ``watch`` per access kind; True if ``watch`` is this unit's
        slot table, else the unit's slots, which say what each FUNCTION
        word selects (0 and 4 alike); and the unit's cached regions and
        ``ssp_guard``.  No COMP or MASK word is in it, nor so the shadow
        stack pointer: a write of one that is not ``slow`` leaves it."""
        return (*map(tuple, watch),
                watch is self.slots or tuple(map(tuple, self.slots)),
                tuple(self.regions), self.ssp_guard)

    @staticmethod
    def inline(addr: int, access: int, state: tuple, value=None):
        """A compiled block's in-line form of an access to the register
        word at ``addr`` under the watch state ``state`` (``snapshot``),
        over ``BIND``'s names: a read's value as an expression, or a write
        of ``value`` (known, or else the 32-bit ``v``) as ``(lines,
        after)``, the lines with every test on ``state`` decided and the
        watch state after them.  The effect is the port's own, run on a
        unit that holds ``state`` (a ``slow`` test reads only whether a
        group is enabled).  None for CYCCNT and the unmapped words, which
        have no in-line form, and for a write that must take
        ``Machine.store``: one whose ``slow`` test holds, or a FUNCTION
        write of a value the block does not know."""
        if addr not in _ADDRS:
            return None
        i = _ADDRS.index(addr)
        if access == ACCESS_READ:
            return _read(i, tuple(_STATE))
        read, write, unit, regions, ssp = state
        D = DwtUnit()  # state's, with no span: the lines fold it
        D.slots = tuple(map(list, (read, write) if unit is True else unit))
        D.regions = list(regions)
        # FUNCTION 4 + reads + 2 * writes selects those slots (4: none).
        D.regs[_FUNCTION::3] = [4 + (r != _NEVER) + 2 * (w != _NEVER)
                                for r, w in zip(*D.slots)]
        # A COMP or MASK value the block does not know runs as 0: a write
        # that is not slow changes nothing of the state but that word.
        if (value is None and i % 3 == _FUNCTION
                or _PORTS[addr][1](D, None, value or 0)):
            return None
        D.ssp_guard = ssp
        return (_write_lines(i, "v" if value is None else value,
                             (*_STATE, ssp))[1],
                D.snapshot(D.slots if unit is True else (read, write)))

    def mmio_read(self, m, addr: int) -> int:
        return _PORTS.get(addr, _UNMAPPED)[0](self, m)

    def mmio_write(self, m, addr: int, value: int) -> None:
        _PORTS.get(addr, _UNMAPPED)[1](self, m, value)
