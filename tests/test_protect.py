"""Protection runtime: comparator programming, policies, the DEMCR lock."""

import logging

import pytest

from watchstack.dwt import DWT_COMP1, DWT_CYCCNT, FN_READ, FN_WRITE
from watchstack.instrument import ShadowStackConfig
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, HaltReason,
                                Machine)
from watchstack.protect import (DEMCR_ADDR, DEMCR_MON_EN, POLICY_REPORT,
                                POLICY_RESET, ProtectionPolicy,
                                attach_debug_system, init_write_protection,
                                is_protection_initialized,
                                shadow_stack_pointer)

CFG = ShadowStackConfig()


def machine(policy=POLICY_RESET, vectored=False, init=True) -> Machine:
    m = Machine()
    m.sp = 0x20040000
    attach_debug_system(m)
    if init:
        assert init_write_protection(
            m, CFG, ProtectionPolicy(on_violation=policy, vectored=vectored))
    return m


def test_init_programs_the_comparator_table():
    m = machine()
    g = m.dwt.groups
    assert (g[0].comp, g[0].mask, g[0].function) == (CFG.ss_start, 15, FN_WRITE)
    assert g[1].comp == CFG.ss_start  # the shadow stack pointer home
    assert (g[2].comp, g[2].mask, g[2].function) == (DEMCR_ADDR, 1, FN_WRITE)
    assert (g[3].comp, g[3].mask, g[3].function) == (0xE0001040, 5, FN_WRITE)
    assert m.dwt.ssp_guard == (CFG.ss_start, CFG.ss_limit)
    assert m.demcr.mon_en
    assert is_protection_initialized(m)
    assert shadow_stack_pointer(m) == CFG.ss_start


def test_init_is_idempotent(caplog):
    m = machine()
    m.dwt.groups[1].comp = CFG.ss_start + 64  # simulate live ssp movement
    with caplog.at_level(logging.WARNING):
        assert init_write_protection(m, CFG, ProtectionPolicy()) is False
    assert "already initialized" in caplog.text
    assert m.dwt.groups[1].comp == CFG.ss_start + 64  # untouched


def test_shadow_store_is_suppressed_and_reset_halts():
    m = machine(policy=POLICY_RESET)
    m.mem.write_word(CFG.ss_start + 8, 0x11111111)
    m.store(CFG.ss_start + 8, 4, 0xDEADBEEF)
    assert m.halted and m.halt_reason == HaltReason.RESET
    assert m.mem.read_word(CFG.ss_start + 8) == 0x11111111
    rec = m.guard.records[0]
    assert rec.data_address == CFG.ss_start + 8
    assert rec.suppressed_value == 0xDEADBEEF
    assert rec.comparator_id == 0
    assert rec.access == ACCESS_WRITE
    d = rec.to_dict()
    assert d["access"] == "write" and d["suppressed_value"] == 0xDEADBEEF


def test_report_policy_records_without_halting():
    m = machine(policy=POLICY_REPORT)
    m.store(CFG.ss_start, 1, 0x5A)
    m.store(CFG.ss_limit - 1, 1, 0x5A)
    assert not m.halted
    assert len(m.guard.records) == 2
    assert m.mem.read_byte(CFG.ss_start) == 0
    assert m.mem.read_byte(CFG.ss_limit - 1) == 0


def test_writes_outside_the_region_commit():
    m = machine(policy=POLICY_REPORT)
    m.store(CFG.ss_start - 1, 1, 0x77)
    m.store(CFG.ss_limit, 1, 0x77)
    assert m.guard.records == []
    assert m.mem.read_byte(CFG.ss_start - 1) == 0x77
    assert m.mem.read_byte(CFG.ss_limit) == 0x77


def test_shadow_reads_flow_comparator_is_write_only():
    m = machine(policy=POLICY_REPORT)
    m.mem.write_word(CFG.ss_start + 4, 0xABCD)
    assert m.load(CFG.ss_start + 4, 4) == 0xABCD
    assert m.guard.records == []


def test_read_watchpoint_records_but_data_flows():
    m = machine(policy=POLICY_REPORT)
    m.dwt.groups[0].function = FN_READ  # repurpose group 0 for a read watch
    m.mem.write_word(CFG.ss_start, 42)
    assert m.load(CFG.ss_start, 4) == 42
    assert len(m.guard.records) == 1
    assert m.guard.records[0].access == ACCESS_READ


def test_demcr_write_is_trapped_after_init():
    m = machine(policy=POLICY_REPORT)
    m.store(DEMCR_ADDR, 4, 0)
    assert m.demcr.mon_en  # lock held
    assert len(m.guard.records) == 1
    assert m.guard.records[0].comparator_id == 2


def test_demcr_guard_registers_are_self_protected():
    m = machine(policy=POLICY_REPORT)
    # disabling the DEMCR comparator (group 2 FUNCTION at 0xE0001048)
    m.store(0xE0001048, 4, 0)
    assert m.dwt.groups[2].function == FN_WRITE  # suppressed
    # and the hardening comparator protects itself (0xE0001058)
    m.store(0xE0001058, 4, 0)
    assert m.dwt.groups[3].function == FN_WRITE
    assert len(m.guard.records) == 2
    assert all(r.comparator_id == 3 for r in m.guard.records)


def test_lock_cannot_be_disarmed_in_two_stores():
    # knocking out FUNCTION2 first would make DEMCR writable again, but
    # group 3 traps that store
    m = machine(policy=POLICY_REPORT)
    m.store(0xE0001048, 4, 0)
    m.store(DEMCR_ADDR, 4, 0)
    assert m.demcr.mon_en


def test_group_zero_and_one_stay_writable_for_the_runtime():
    m = machine(policy=POLICY_REPORT)
    m.store(0xE0001028, 4, 0)  # FUNCTION0 off, as prologues do
    assert m.dwt.groups[0].function == 0
    assert m.guard.records == []
    m.store(DWT_COMP1, 4, CFG.ss_start + 4)  # ssp update, as epilogues do
    assert m.dwt.groups[1].comp == CFG.ss_start + 4
    assert m.guard.records == []


def test_comp1_write_outside_span_halts_stack_overflow():
    m = machine()
    m.store(DWT_COMP1, 4, CFG.ss_limit + 4)
    assert m.halted and m.halt_reason == HaltReason.STACK_OVERFLOW


def test_before_init_nothing_traps():
    m = machine(init=False)
    m.store(CFG.ss_start, 4, 123)
    m.store(DEMCR_ADDR, 4, 0)
    assert not m.halted
    assert m.mem.read_word(CFG.ss_start) == 123
    assert not is_protection_initialized(m)


def test_vectored_policy_pends_the_debug_monitor():
    m = machine(policy=POLICY_REPORT, vectored=True)
    m.vector[12] = 0x08002000
    m.store(CFG.ss_start, 4, 7)
    assert m.pending == [12]
    assert not m.halted


def test_vectored_without_handler_degrades_to_report():
    m = machine(policy=POLICY_REPORT, vectored=True)
    m.store(CFG.ss_start, 4, 7)
    assert m.pending == []
    assert len(m.guard.records) == 1


def test_demcr_mmio_byte_access():
    m = machine(init=False)
    m.demcr.set_mon_en()
    assert m.load(DEMCR_ADDR + 2, 1) == 0x01  # bit 16 sits in byte 2
    assert m.load(DEMCR_ADDR, 4) == DEMCR_MON_EN


def test_cyccnt_visible_through_attached_system():
    m = machine(init=False)
    m.cycles = 77
    assert m.load(DWT_CYCCNT, 4) == 77


def test_mmio_byte_loads_read_one_lane_of_any_device():
    m = machine(init=False)
    m.dwt.groups[1].comp = 0x00E01234
    assert [m.load(DWT_COMP1 + i, 1) for i in range(4)] == [0x34, 0x12,
                                                            0xE0, 0x00]
    m.cycles = 0x0A0B0C0D
    assert m.load(DWT_CYCCNT + 1, 1) == 0x0C


def test_mmio_byte_stores_merge_into_the_word():
    m = machine(init=False)
    m.dwt.groups[1].comp = 0x00E01234
    m.store(DWT_COMP1 + 1, 1, 0x56)
    assert m.dwt.groups[1].comp == 0x00E05634
    m.store(DWT_COMP1, 1, 0x1FF)  # only the low byte of the value lands
    assert m.dwt.groups[1].comp == 0x00E056FF
    m.store(DEMCR_ADDR + 2, 1, 0x01)
    assert m.demcr.value == DEMCR_MON_EN


def test_byte_store_to_the_shadow_pointer_keeps_its_other_lanes():
    m = machine()
    m.store(DWT_COMP1, 1, 0x08)  # ss_start + 8, inside the region
    assert shadow_stack_pointer(m) == CFG.ss_start + 8
    assert not m.halted

