"""Frame stacking layout, EXC_RETURN validation, round-trip identity."""

from watchstack.exception_model import (ENTRY_CYCLES, ESF_BYTES, ESF_OFF_LR,
                                        ESF_OFF_R0, ESF_OFF_R1, ESF_OFF_R2,
                                        ESF_OFF_R3, ESF_OFF_R12, ESF_OFF_RETURN,
                                        ESF_OFF_XPSR, EV_EXC_ENTERED,
                                        EV_EXC_RETURNED, EXC_RETURN_THREAD,
                                        MODE_HANDLER, MODE_THREAD,
                                        RETURN_CYCLES, SYSTICK, USAGE_FAULT,
                                        Event, enter_exception,
                                        return_from_exception)
from watchstack.machine import WATCH_ALL, HaltReason, Machine

SP0 = 0x20040000
HANDLER = 0x08001000


def primed_machine() -> Machine:
    m = Machine()
    m.sp = SP0
    for i in range(13):
        m.gpr[i] = 0x1000 + i
    m.lr = 0xAAAA5554
    m.xpsr = 0x41000000  # Z and C set
    m.vector[SYSTICK] = HANDLER
    m.vector[USAGE_FAULT] = HANDLER
    return m


def test_stacked_frame_layout_is_the_eight_word_contract():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000122)
    assert m.events == [Event(EV_EXC_ENTERED, HANDLER, exc_id=SYSTICK)]
    assert m.sp == SP0 - ESF_BYTES
    frame = {off: m.mem.read_word(m.sp + off) for off in
             (ESF_OFF_R0, ESF_OFF_R1, ESF_OFF_R2, ESF_OFF_R3,
              ESF_OFF_R12, ESF_OFF_LR, ESF_OFF_RETURN, ESF_OFF_XPSR)}
    assert frame[ESF_OFF_R0] == 0x1000
    assert frame[ESF_OFF_R1] == 0x1001
    assert frame[ESF_OFF_R2] == 0x1002
    assert frame[ESF_OFF_R3] == 0x1003
    assert frame[ESF_OFF_R12] == 0x100C
    assert frame[ESF_OFF_LR] == 0xAAAA5554
    assert frame[ESF_OFF_RETURN] == 0x08000122
    assert frame[ESF_OFF_XPSR] == 0x41000000
    # fixed offsets, not just relative order
    assert (ESF_OFF_R0, ESF_OFF_R1, ESF_OFF_R2, ESF_OFF_R3, ESF_OFF_R12,
            ESF_OFF_LR, ESF_OFF_RETURN, ESF_OFF_XPSR) == (0, 4, 8, 12, 16, 20, 24, 28)


def test_entry_sets_handler_state():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000100)
    assert m.mode == MODE_HANDLER
    assert m.lr == EXC_RETURN_THREAD
    assert m.pc == HANDLER
    assert m.xpsr & 0x1FF == SYSTICK  # IPSR field
    assert m.cycles == ENTRY_CYCLES


def test_entry_without_vector_faults():
    m = primed_machine()
    del m.vector[SYSTICK]
    enter_exception(m, SYSTICK, 0x08000100)
    assert m.halted and m.halt_reason == HaltReason.FAULT
    assert m.events == []  # Machine._end logs the halt


def test_entry_in_handler_mode_faults():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000100)
    enter_exception(m, USAGE_FAULT, HANDLER)
    assert m.halted and m.halt_reason == HaltReason.FAULT
    assert m.pc == HANDLER and m.xpsr & 0x1FF == SYSTICK
    assert [ev.exc_id for ev in m.events] == [SYSTICK]


def test_charge_cycles_false_adds_nothing():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000100, charge_cycles=False)
    assert m.cycles == 0


def test_round_trip_restores_thread_state():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000208)
    # handler scribbles over everything the frame covers
    for i in range(4):
        m.gpr[i] = 0xDEAD0000 + i
    m.gpr[12] = 0xDEAD000C
    m.xpsr = (m.xpsr & ~0xF0000000) | 0x80000000
    return_from_exception(m, EXC_RETURN_THREAD)
    assert m.events[-1] == Event(EV_EXC_RETURNED, 0x08000208, exc_id=SYSTICK)
    assert m.mode == MODE_THREAD and m.xpsr & 0x1FF == 0
    assert m.pc == 0x08000208
    assert m.sp == SP0
    assert [m.gpr[i] for i in range(4)] == [0x1000, 0x1001, 0x1002, 0x1003]
    assert m.gpr[12] == 0x100C
    assert m.lr == 0xAAAA5554
    assert m.xpsr == 0x41000000
    assert m.cycles == ENTRY_CYCLES + RETURN_CYCLES


def test_unstacked_registers_not_in_frame_survive_handler_changes():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000208)
    m.gpr[4] = 0x77777777  # callee-saved: not part of the frame
    return_from_exception(m, EXC_RETURN_THREAD)
    assert m.gpr[4] == 0x77777777


def test_bad_sentinel_faults():
    m = primed_machine()
    enter_exception(m, SYSTICK, 0x08000100)
    return_from_exception(m, 0xFFFFFFF1)
    assert m.halted and m.halt_reason == HaltReason.FAULT
    assert [ev.kind for ev in m.events] == [EV_EXC_ENTERED]


def test_return_from_thread_mode_faults():
    m = primed_machine()
    return_from_exception(m, EXC_RETURN_THREAD)
    assert m.halted and m.halt_reason == HaltReason.FAULT


def test_stacking_flows_through_the_guard():
    stores = []

    class Hook:
        def on_load(self, m, addr, size):
            pass

        def on_store(self, m, addr, size, value):
            stores.append((addr, size))
            return None

    m = primed_machine()
    m.guard = Hook()
    m.watch = WATCH_ALL
    enter_exception(m, SYSTICK, 0x08000100)
    assert len(stores) == 8
    assert all(size == 4 for _, size in stores)
    assert {addr for addr, _ in stores} == {SP0 - ESF_BYTES + 4 * i
                                            for i in range(8)}
