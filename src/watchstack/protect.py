"""Write-protection runtime: comparator setup, violation policy, DEMCR.

One call configures the watchpoint unit so that any program store into
the shadow stack region, or onto the DEMCR debug-enable word, is caught
before it commits.  The debug monitor dispatch here plays the role of
the monitor exception: it suppresses the offending write, records it,
and then either halts the machine (reset policy) or lets execution
continue (report policy).  A handler function can optionally be
vectored for observability; the write stays suppressed either way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .dwt import (DWT_COMP_BASE, DWT_GROUP_STRIDE, DWT_WINDOW_HI,
                  DWT_WINDOW_LO, FN_WRITE, DwtUnit)
from .exception_model import DEBUG_MONITOR
from .instrument import DEMCR_ADDR, ShadowStackConfig
from .machine import ACCESS_READ, ACCESS_WRITE, HaltReason, Hit, Machine

log = logging.getLogger(__name__)

DEMCR_MON_EN = 1 << 16

POLICY_RESET = "reset"
POLICY_REPORT = "report"


@dataclass
class DemcrModel:
    """Debug exception and monitor control word at 0xE000EDFC."""

    value: int = 0

    @property
    def mon_en(self) -> bool:
        return bool(self.value & DEMCR_MON_EN)

    def set_mon_en(self) -> None:
        self.value |= DEMCR_MON_EN

    def mmio_read(self, m, addr: int, size: int) -> int:
        return self.value

    def mmio_write(self, m, addr: int, size: int, value: int) -> None:
        self.value = value & 0xFFFFFFFF


@dataclass
class ProtectionPolicy:
    on_violation: str = POLICY_RESET
    vectored: bool = False  # also raise the debug monitor exception


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
    """Access hook: checks every data access against the comparators.

    The check runs before the store commits, so a trapped write never
    reaches memory or a device register.  Reads cannot be suppressed;
    a read match is recorded and the policy applied, but data flows.
    """

    def __init__(self, dwt: DwtUnit, policy: ProtectionPolicy) -> None:
        self.dwt = dwt
        self.policy = policy
        self.records: list[ViolationRecord] = []

    def _dispatch(self, m: Machine, rec: ViolationRecord) -> None:
        self.records.append(rec)
        if self.policy.on_violation == POLICY_RESET:
            m.halt(HaltReason.RESET)
        elif self.policy.vectored and DEBUG_MONITOR in m.vector:
            m.raise_exception(DEBUG_MONITOR)

    def on_load(self, m: Machine, addr: int, size: int) -> None:
        cid = self.dwt.match_access(addr, size, ACCESS_READ)
        if cid is None:
            return
        self._dispatch(m, ViolationRecord(m.steps, m.cur_pc, addr, cid,
                                          0, size, ACCESS_READ))

    def on_store(self, m: Machine, addr: int, size: int, value: int):
        cid = self.dwt.match_access(addr, size, ACCESS_WRITE)
        if cid is None:
            return None
        self._dispatch(m, ViolationRecord(m.steps, m.cur_pc, addr, cid,
                                          value, size, ACCESS_WRITE))
        return Hit(cid, addr, ACCESS_WRITE)


def attach_debug_system(m: Machine) -> None:
    """Give the machine its watchpoint unit and DEMCR register."""
    dwt = DwtUnit()
    demcr = DemcrModel()
    m.add_mmio(DWT_WINDOW_LO, DWT_WINDOW_HI, dwt)
    m.add_mmio(DEMCR_ADDR, DEMCR_ADDR + 4, demcr)
    m.dwt = dwt
    m.demcr = demcr
    m.guard = None


def is_protection_initialized(m: Machine) -> bool:
    return m.demcr.mon_en


def init_write_protection(m: Machine, config: ShadowStackConfig,
                          policy: ProtectionPolicy) -> bool:
    """Arm the comparators, the DEMCR lock, and the monitor dispatch.

    Trusted boot-time call; it programs registers directly rather than
    by executing store instructions.  Idempotent: a second call is a
    logged no-op and changes nothing.
    """
    if is_protection_initialized(m):
        log.warning("write protection already initialized; ignoring")
        return False

    dwt: DwtUnit = m.dwt
    g0, g1, g2, g3 = dwt.groups
    # Shadow stack region: power-of-two block, write-trapped.
    g0.comp = config.ss_start
    g0.mask = config.ss_size_log2
    g0.function = FN_WRITE
    # COMP1 is repurposed as the shadow stack pointer register.
    g1.comp = config.ss_start
    # DEMCR lock: writes onto the monitor-enable word trap too.
    g2.comp = DEMCR_ADDR
    g2.mask = 1
    g2.function = FN_WRITE
    # The lock is only as strong as the registers that implement it:
    # group 3 write-traps the group 2 and group 3 register block (32
    # bytes), covering itself.  Groups 0 and 1 stay writable because
    # instrumented code toggles FUNCTION0 and rewrites COMP1.
    g3.comp = DWT_COMP_BASE + 2 * DWT_GROUP_STRIDE
    g3.mask = 5
    g3.function = FN_WRITE

    # Any COMP1 update outside the legal span is a shadow stack overflow.
    dwt.ssp_guard = (config.ss_start, config.ss_limit)

    m.demcr.set_mon_en()
    guard = WatchpointGuard(dwt, policy)
    m.guard = guard
    m.access_hook = guard
    return True


def shadow_stack_pointer(m: Machine) -> int:
    return m.dwt.groups[1].comp

