"""Hardware exception entry and return: stacking, unstacking, EXC_RETURN.

On entry the core pushes an eight-word frame onto the current stack and
branches to the handler with the magic EXC_RETURN value in lr.  A later
branch to that value unwinds the frame.  Nesting is not modeled: pending
exceptions wait until the core is back in thread mode, and ``svc``,
``udf`` or an undefined fetch in handler mode faults.
``enter_exception`` is the one rule for whether an exception is taken.

Each entry and return appends its event to ``m.events``, the machine's
event log; a fault only halts the machine, and ``Machine._end`` logs
the halt.  Stacking stores go through the machine's hooked store path,
so a frame that lands inside a watchpoint-protected region traps like
any write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .machine import HaltReason

MODE_THREAD = "thread"
MODE_HANDLER = "handler"

# Event kinds in Machine.events.
EV_EXC_ENTERED = "exception_entered"
EV_EXC_RETURNED = "exception_returned"
EV_HALTED = "halted"


@dataclass
class Event:
    kind: str
    at_pc: int
    exc_id: int | None = None
    reason: HaltReason | None = None


# Exception numbers (subset of the v7-M system exception map).
USAGE_FAULT = 6
SVCALL = 11
DEBUG_MONITOR = 12
SYSTICK = 15

EXC_NAMES = {
    USAGE_FAULT: "UsageFault",
    SVCALL: "SVCall",
    DEBUG_MONITOR: "DebugMonitor",
    SYSTICK: "SysTick",
}
# Lower-case names for handler binding and raise specs: each full name
# plus the short forms ``svc`` and ``debugmon``.
EXC_BY_NAME = {name.lower(): num for num, name in EXC_NAMES.items()}
EXC_BY_NAME.update(svc=SVCALL, debugmon=DEBUG_MONITOR)

# Return to thread mode, main stack.  The only valid sentinel here.
EXC_RETURN_THREAD = 0xFFFFFFF9

# Stacked frame layout, offsets from the post-stacking stack pointer.
ESF_BYTES = 32
ESF_OFF_R0 = 0
ESF_OFF_R1 = 4
ESF_OFF_R2 = 8
ESF_OFF_R3 = 12
ESF_OFF_R12 = 16
ESF_OFF_LR = 20
ESF_OFF_RETURN = 24
ESF_OFF_XPSR = 28

ENTRY_CYCLES = 12
RETURN_CYCLES = 12


def enter_exception(m, exc_id: int, return_address: int,
                    charge_cycles: bool = True) -> None:
    """Stack the frame, branch to the vectored handler and log the entry.

    Faults instead if no handler is bound or the core is already in
    handler mode (no nesting).
    """
    handler = m.vector.get(exc_id)
    if handler is None or m.mode != MODE_THREAD:
        m.fault()
        return

    sp = (m.sp - ESF_BYTES) & 0xFFFFFFFF
    m.sp = sp
    frame = (m.gpr[0], m.gpr[1], m.gpr[2], m.gpr[3], m.gpr[12],
             m.lr, return_address, m.xpsr)
    for i, word in enumerate(frame):
        m.store(sp + 4 * i, 4, word)
    m.lr = EXC_RETURN_THREAD
    m.mode = MODE_HANDLER
    m.active_exc = exc_id
    m.xpsr = (m.xpsr & ~0x1FF) | exc_id
    m.pc = handler
    if charge_cycles:
        m.cycles += ENTRY_CYCLES
    m.events.append(Event(EV_EXC_ENTERED, handler, exc_id=exc_id))


def return_from_exception(m, value: int) -> None:
    """Unwind a stacked frame after a branch to an EXC_RETURN value and
    log the return; fault on any other value or outside handler mode."""
    if value != EXC_RETURN_THREAD or m.mode != MODE_HANDLER:
        m.fault()
        return

    left = m.active_exc
    sp = m.sp
    m.gpr[0] = m.load(sp + ESF_OFF_R0, 4)
    m.gpr[1] = m.load(sp + ESF_OFF_R1, 4)
    m.gpr[2] = m.load(sp + ESF_OFF_R2, 4)
    m.gpr[3] = m.load(sp + ESF_OFF_R3, 4)
    m.gpr[12] = m.load(sp + ESF_OFF_R12, 4)
    m.lr = m.load(sp + ESF_OFF_LR, 4)
    ret = m.load(sp + ESF_OFF_RETURN, 4)
    m.xpsr = m.load(sp + ESF_OFF_XPSR, 4)
    m.sp = sp + ESF_BYTES
    m.mode = MODE_THREAD
    m.active_exc = None
    m.pc = ret
    m.cycles += RETURN_CYCLES
    m.events.append(Event(EV_EXC_RETURNED, ret, exc_id=left))
