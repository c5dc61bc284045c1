"""Write-protection runtime: comparator setup, violation policy, DEMCR.

One call configures the watchpoint unit, through its register file as
boot code does, so that any program store into the shadow stack region,
or onto the DEMCR debug-enable word, is caught before it commits, and
sets ``m.demcr.mon_en``.  The guard, ``m.guard``, the machine's one
access observer, plays the role of the debug monitor exception: it
suppresses the offending write, records it, and then either halts the
machine (reset policy) or lets execution continue (report policy).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .dwt import (DWT_COMP_BASE, DWT_COMP_OFF, DWT_FUNCTION_OFF,
                  DWT_GROUP_STRIDE, DWT_MASK_OFF, DWT_WINDOW_HI,
                  DWT_WINDOW_LO, FN_WRITE, DwtUnit)
from .instrument import DEMCR_ADDR, ShadowStackConfig
from .machine import ACCESS_READ, ACCESS_WRITE, HaltReason, Machine

log = logging.getLogger(__name__)

DEMCR_MON_EN = 1 << 16

POLICY_RESET = "reset"
POLICY_REPORT = "report"
POLICIES = (POLICY_RESET, POLICY_REPORT)


@dataclass
class DemcrModel:
    """Debug exception and monitor control word at 0xE000EDFC."""

    value: int = 0

    @property
    def mon_en(self) -> bool:
        return bool(self.value & DEMCR_MON_EN)

    def mmio_read(self, m, addr: int) -> int:
        return self.value

    def mmio_write(self, m, addr: int, value: int) -> None:
        self.value = value & 0xFFFFFFFF


@dataclass
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


class WatchpointGuard:
    """Access observer: checks every data access against the comparators.

    The check runs before the store commits, so a trapped write never
    reaches memory or a device register.  Reads cannot be suppressed;
    a read match is recorded and the policy applied, but data flows.
    """

    def __init__(self, dwt: DwtUnit, reset: bool) -> None:
        self.dwt = dwt
        self.reset = reset  # halt on a hit (reset policy), else report
        self.records: list[ViolationRecord] = []

    def _dispatch(self, m: Machine, rec: ViolationRecord) -> None:
        self.records.append(rec)
        if self.reset:
            m.halt(HaltReason.RESET)

    def on_load(self, m: Machine, addr: int, size: int) -> None:
        cid = self.dwt.match_access(addr, size, ACCESS_READ)
        if cid is None:
            return
        self._dispatch(m, ViolationRecord(m.steps, m.cur_pc, addr, cid,
                                          0, size, ACCESS_READ))

    def on_store(self, m: Machine, addr: int, size: int, value: int) -> bool:
        """True when the store hits a comparator: the write is suppressed."""
        cid = self.dwt.match_access(addr, size, ACCESS_WRITE)
        if cid is None:
            return False
        self._dispatch(m, ViolationRecord(m.steps, m.cur_pc, addr, cid,
                                          value, size, ACCESS_WRITE))
        return True


def attach_debug_system(m: Machine) -> None:
    """Give the machine its watchpoint unit and DEMCR register."""
    m.dwt = DwtUnit()
    m.demcr = DemcrModel()
    m.mmio += [(DWT_WINDOW_LO, DWT_WINDOW_HI, m.dwt),
               (DEMCR_ADDR, DEMCR_ADDR + 4, m.demcr)]


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
    # DEMCR lock: writes onto the monitor-enable word trap too.
    program(2, DEMCR_ADDR, 1, FN_WRITE)
    # The lock is only as strong as the registers that implement it:
    # group 3 write-traps the group 2 and group 3 register block (32
    # bytes), covering itself.  Groups 0 and 1 stay writable because
    # instrumented code toggles FUNCTION0 and rewrites COMP1.
    program(3, DWT_COMP_BASE + 2 * DWT_GROUP_STRIDE, 5, FN_WRITE)

    # Any COMP1 update outside the legal span is a shadow stack overflow.
    dwt.ssp_guard = (config.ss_start, config.ss_limit)

    m.demcr.value |= DEMCR_MON_EN
    m.guard = WatchpointGuard(dwt, policy == POLICY_RESET)
    return True

