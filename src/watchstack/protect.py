"""Write-protection runtime: comparator setup, violation policy, DEMCR.

One call configures the watchpoint unit, through its register file as
boot code does, so that any program store into the shadow stack region,
or onto the DEMCR debug-enable word, is caught before it commits, and
sets ``m.demcr.mon_en``.  It sets the guard, ``m.guard``, and the
regions the machine shows it, ``m.watch``, together: ``m.watch`` is the
unit's slot table, so the machine tests every access against the
comparator regions itself and calls the guard only on a hit.  The
guard, the machine's one access observer, plays the role of the debug
monitor exception: it suppresses the offending write, records it, and
then either halts the machine (reset policy) or lets execution continue
(report policy).  That handling is written once, as Python lines over
the guard's state (``_hit_lines``), in the manner of the unit's
register ports: compiled at import into the guard's ``on_load`` and
``on_store``, which ``step()`` runs, and handed to compiled blocks
(``WatchpointGuard.inline``) as the arms of the unit's
lowest-comparator chain, so a compiled hit under the report policy
makes no state write and no Python call.

The records live in one ``ViolationLog``, which packs each hit into a
fixed-width row of integers and builds a ``ViolationRecord`` only when
one is read, so a report-policy run that makes a hit every few steps
keeps 23 bytes a hit and no Python object.
"""

from __future__ import annotations

import logging
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import starmap

from .dwt import (DWT_COMP_BASE, DWT_COMP_OFF, DWT_FUNCTION_OFF,
                  DWT_GROUP_STRIDE, DWT_MASK_OFF, FN_WRITE, DwtUnit,
                  lowest_match)
from .instrument import ShadowStackConfig
from .machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR, HaltReason,
                      Machine)
from .semantics import define

log = logging.getLogger(__name__)

DEMCR_MON_EN = 1 << 16

POLICY_RESET = "reset"
POLICY_REPORT = "report"
POLICIES = (POLICY_RESET, POLICY_REPORT)


@dataclass
class DemcrModel:
    """Debug exception and monitor control word at ``DEMCR_ADDR``."""

    value: int = 0

    @property
    def mon_en(self) -> bool:
        return bool(self.value & DEMCR_MON_EN)

    def mmio_read(self, m, addr: int) -> int:
        return self.value

    def mmio_write(self, m, addr: int, value: int) -> None:
        self.value = value & 0xFFFFFFFF


@dataclass(slots=True)
class ViolationRecord:
    step_index: int
    pc: int
    data_address: int
    comparator_id: int
    suppressed_value: int
    size: int
    access: int = ACCESS_WRITE

    def to_dict(self) -> dict:
        return {
            "step_index": self.step_index,
            "pc": self.pc,
            "data_address": self.data_address,
            "comparator_id": self.comparator_id,
            "suppressed_value": self.suppressed_value,
            "size": self.size,
            "access": "read" if self.access == ACCESS_READ else "write",
        }


# A ViolationLog row: the fields of a ViolationRecord in order, as
# unsigned little-endian integers with no padding, 23 bytes.
_ROW = struct.Struct("<QIIBIBB")


class ViolationLog(Sequence):
    """The guard's violation records, packed: a read-only sequence of
    ``ViolationRecord`` that only ``append`` and the guard's hit lines
    (``_hit_lines``) extend.

    Each hit is one fixed-width row in one ``bytearray``: 64 bits for
    the step index, 32 each for the pc, data address and suppressed
    value, and 8 each for the comparator id, size and access kind.  A
    record is built from its row each time it is read, so ``log[0] is
    log[0]`` is False while ``log[0] == log[0]``.  Indices and slices
    behave as a list's, a slice being a list of records; iteration reads
    the rows the log held when it began.  A log equals another log or a
    list that holds equal records in the same order.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows = bytearray()

    def append(self, step_index: int, pc: int, data_address: int,
               comparator_id: int, suppressed_value: int, size: int,
               access: int) -> None:
        """Add one record, its fields in ``ViolationRecord``'s order; a
        field too wide for its row is a ``struct.error``."""
        self._rows += _ROW.pack(step_index, pc, data_address, comparator_id,
                                suppressed_value, size, access)

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def __getitem__(self, i):
        # The rows' byte offsets take the index or slice as a list would.
        at = range(0, len(self._rows), _ROW.size)[i]
        if isinstance(at, range):
            return [ViolationRecord(*_ROW.unpack_from(self._rows, off))
                    for off in at]
        return ViolationRecord(*_ROW.unpack_from(self._rows, at))

    def __iter__(self):
        # A copy: an open iteration must not stop the log from growing.
        return starmap(ViolationRecord, _ROW.iter_unpack(bytes(self._rows)))

    def __eq__(self, other) -> bool:
        if isinstance(other, ViolationLog):
            return self._rows == other._rows
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return "ViolationLog(%r)" % list(self)


# The guard's state as its hit lines name it: the append of its log's
# rows and the row packer.  A handler reads each through the guard
# ``J``; a compiled block binds ``BIND``'s names to them once, when it
# is made.
_STATE = {"L": "J.records._rows.extend", "Y": "J.PACK"}


def _hit_lines(names, step: str, pc, addr: str, cid, value: str, size,
               access: int, reset) -> list[str]:
    """The guard's handling of a hit on comparator ``cid`` by the access
    of ``size`` bytes at ``addr`` made at step ``step`` by the
    instruction at ``pc``, as lines over the state spelled by ``names``:
    its record, one packed row appended to the log, then under the reset
    policy the halt.  ``reset`` is the policy when known, a bool folded
    here, else a test in the lines."""
    L, Y = names
    lines = ["%s(%s(%s, %s, %s, %s, %s, %s, %d))"
             % (L, Y, step, pc, addr, cid, value, size, access)]
    halt = "m.halt(J.RESET)"
    if isinstance(reset, str):
        return lines + ["if %s: %s" % (reset, halt)]
    return lines + [halt] if reset else lines


def _handlers() -> tuple:
    """``on_load`` and ``on_store``, compiled in one ``exec`` from the hit
    lines with the state read through the guard ``J``: each names the
    comparator through ``DwtUnit.match_access`` and, on a hit, runs the
    lines; a store's answer is whether it hit, and so is suppressed."""
    names = tuple(_STATE.values())
    load, store = (_hit_lines(names, "m.steps", "m.cur_pc", "addr", "cid",
                              value, "size", access, "J.reset")
                   for access, value in ((ACCESS_READ, "0"),
                                         (ACCESS_WRITE, "value")))
    source = ["def on_load(J, m, addr, size):",
              " cid = J.dwt.match_access(addr, size, %d)" % ACCESS_READ,
              " if cid is not None:", *("  " + line for line in load),
              "def on_store(J, m, addr, size, value):",
              " cid = J.dwt.match_access(addr, size, %d)" % ACCESS_WRITE,
              " if cid is None: return False", *(" " + line for line in store),
              " return True"]
    ns = define("\n".join(source), "<protect>", {})
    return ns["on_load"], ns["on_store"]


_ON_LOAD, _ON_STORE = _handlers()


class WatchpointGuard:
    """Access observer: the debug monitor handler of a comparator hit.

    The machine calls it before the access commits, so a trapped write
    never reaches memory or a device register, and only for an access
    inside a region of ``m.watch``; it matches the access again
    (``DwtUnit.match_access``) to name the lowest comparator.  Shown an
    access that hits nothing, it does nothing, so it gives the same
    records when shown every access.  Reads cannot be suppressed; a
    read match is recorded and the policy applied, but data flows.

    Its handling of a hit is written once, as lines (``_hit_lines``):
    compiled at import into ``on_load``/``on_store``, which ``step()``
    runs, and handed to compiled blocks as the arms of the unit's
    lowest-comparator chain (``inline``), over ``BIND``'s names.
    """

    # What a compiled block runs once, when it is made, with ``J`` the
    # guard, to bind the names its in-line lines use; and the halt of
    # the reset policy, as the lines spell it.
    BIND = "; ".join("%s = %s" % item for item in _STATE.items())
    PACK = _ROW.pack
    RESET = HaltReason.RESET

    def __init__(self, dwt: DwtUnit, reset: bool) -> None:
        self.dwt = dwt
        # Halt on a hit (reset policy), else report; compiled blocks fold
        # it, so it is fixed once the guard is made.
        self.reset = reset
        self.records = ViolationLog()

    on_load = _ON_LOAD
    on_store = _ON_STORE  # True when the store hits: it is suppressed

    def folded(self, m: Machine) -> bool | None:
        """The policy compiled blocks on ``m`` fold into the in-line form
        (``inline``), if ``m.watch`` is the unit's slot table and the
        handlers are the ones the same lines make (not a subclass's or a
        wrapper's); else None, and every compiled access tests the
        regions alone and shows the guard its hits through ``m.load``
        and ``m.store``, the one slow path."""
        handlers = type(self).on_load, type(self).on_store
        if m.watch is not self.dwt.slots or handlers != (_ON_LOAD, _ON_STORE):
            return None
        return self.reset

    @staticmethod
    def inline(reset: bool, access: int, slots, step: str, pc: int,
               addr: str, size: int, value: str = "0") -> list[str]:
        """A compiled block's in-line form of its access of ``size`` bytes
        at ``addr`` (text, as ``step``, the step index, and ``value`` are)
        by the instruction at ``pc``: the unit's lowest-comparator chain
        (``dwt.lowest_match``) over the known regions ``slots`` of
        ``m.watch`` for that access kind, whose arm k is a hit on k under
        the policy ``reset``; an empty region has no arm."""
        return lowest_match(addr, size, lambda k: (
            _hit_lines(tuple(_STATE), step, pc, addr, k, value, size,
                       access, reset)), slots)


def attach_debug_system(m: Machine) -> None:
    """Give the machine its watchpoint unit and DEMCR register."""
    m.dwt = DwtUnit()
    m.demcr = DemcrModel()


def init_write_protection(m: Machine, config: ShadowStackConfig,
                          policy: str = POLICY_RESET) -> bool:
    """Arm the comparators, the DEMCR lock, and the monitor dispatch.

    Trusted boot-time call: it writes the watchpoint registers through
    the unit's register file, but not by executing store instructions,
    so no guard sees them.  Idempotent: a second call is a logged no-op
    and changes nothing.  ``policy`` is ``reset`` or ``report``; any
    other value is a ValueError.
    """
    if policy not in POLICIES:
        raise ValueError("unknown violation policy %r" % (policy,))
    if m.demcr.mon_en:
        log.warning("write protection already initialized; ignoring")
        return False

    dwt: DwtUnit = m.dwt

    def program(gid: int, comp: int, mask: int = 0,
                function: int | None = None) -> None:
        base = DWT_COMP_BASE + gid * DWT_GROUP_STRIDE
        dwt.mmio_write(m, base + DWT_COMP_OFF, comp)
        if function is not None:
            dwt.mmio_write(m, base + DWT_MASK_OFF, mask)
            dwt.mmio_write(m, base + DWT_FUNCTION_OFF, function)

    # Shadow stack region: power-of-two block, write-trapped.
    program(0, config.ss_start, config.ss_size_log2, FN_WRITE)
    # COMP1 is repurposed as the shadow stack pointer register.
    program(1, config.ss_start)
    # DEMCR lock: writes onto any byte of the word, MON_EN's too, trap.
    program(2, DEMCR_ADDR, 2, FN_WRITE)
    # The lock is only as strong as the registers that implement it:
    # group 3 write-traps the group 2 and group 3 register block (32
    # bytes), covering itself.  Groups 0 and 1 stay writable because
    # instrumented code toggles FUNCTION0 and rewrites COMP1.
    program(3, DWT_COMP_BASE + 2 * DWT_GROUP_STRIDE, 5, FN_WRITE)

    # Any COMP1 update outside the legal span is a shadow stack overflow.
    dwt.ssp_guard = (config.ss_start, config.ss_limit)

    m.demcr.value |= DEMCR_MON_EN
    # Set together: the machine shows the guard only the accesses in a
    # comparator region, and the unit's register writes update the table.
    m.guard = WatchpointGuard(dwt, policy == POLICY_RESET)
    m.watch = dwt.slots
    return True

