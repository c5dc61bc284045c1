"""Protection runtime: comparator programming, policies, the DEMCR lock."""

import logging

import pytest

from watchstack import blocks
from watchstack.dwt import (DWT_COMP1, DWT_CYCCNT, DWT_FUNCTION0, FN_READ,
                            FN_WRITE)
from watchstack.instrument import ShadowStackConfig
from watchstack.isa import Instr
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR,
                                DWT_WINDOW_HI, DWT_WINDOW_LO, PPB_BASE,
                                HaltReason, Machine, ppb_device)
from watchstack.protect import (DEMCR_MON_EN, POLICY_REPORT, POLICY_RESET,
                                attach_debug_system, init_write_protection)

CFG = ShadowStackConfig()


def machine(policy=POLICY_RESET, init=True) -> Machine:
    m = Machine()
    m.sp = 0x20040000
    attach_debug_system(m)
    if init:
        assert init_write_protection(m, CFG, policy)
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


def test_init_is_idempotent(caplog):
    m = machine()
    # simulate live ssp movement
    m.dwt.mmio_write(m, DWT_COMP1, CFG.ss_start + 64)
    with caplog.at_level(logging.WARNING):
        assert init_write_protection(m, CFG) is False
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
    # repurpose group 0 for a read watch
    m.dwt.mmio_write(m, DWT_FUNCTION0, FN_READ)
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
    assert not m.demcr.mon_en


def test_unknown_policy_is_refused_before_anything_is_armed():
    m = machine(init=False)
    with pytest.raises(ValueError, match="unknown violation policy 'Reset'"):
        init_write_protection(m, CFG, "Reset")
    assert not m.demcr.mon_en
    assert m.guard is None
    assert m.dwt.groups[0].function == 0


def test_demcr_mmio_byte_access():
    m = machine(init=False)
    m.demcr.value |= DEMCR_MON_EN
    assert m.load(DEMCR_ADDR + 2, 1) == 0x01  # bit 16 sits in byte 2
    assert m.load(DEMCR_ADDR, 4) == DEMCR_MON_EN


def test_cyccnt_visible_through_attached_system():
    m = machine(init=False)
    m.cycles = 77
    assert m.load(DWT_CYCCNT, 4) == 77


def test_mmio_byte_loads_read_one_lane_of_any_device():
    m = machine(init=False)
    m.dwt.mmio_write(m, DWT_COMP1, 0x00E01234)
    assert [m.load(DWT_COMP1 + i, 1) for i in range(4)] == [0x34, 0x12,
                                                            0xE0, 0x00]
    m.cycles = 0x0A0B0C0D
    assert m.load(DWT_CYCCNT + 1, 1) == 0x0C


def test_mmio_byte_stores_merge_into_the_word():
    m = machine(init=False)
    m.dwt.mmio_write(m, DWT_COMP1, 0x00E01234)
    m.store(DWT_COMP1 + 1, 1, 0x56)
    assert m.dwt.groups[1].comp == 0x00E05634
    m.store(DWT_COMP1, 1, 0x1FF)  # only the low byte of the value lands
    assert m.dwt.groups[1].comp == 0x00E056FF
    m.store(DEMCR_ADDR + 2, 1, 0x01)
    assert m.demcr.value == DEMCR_MON_EN


# (addr, size, reaches a device): the decode tests where an access starts
# against each device's window, so an access that starts outside one and
# runs into it is RAM, and one that starts inside and runs out reaches
# the device.
DECODE = [
    (PPB_BASE, 4, False),
    (DWT_WINDOW_LO - 1, 1, False),
    (DWT_WINDOW_LO - 2, 4, False),
    (DWT_WINDOW_LO, 4, True),  # CTRL: reads 0, drops writes
    (DWT_WINDOW_HI - 1, 1, True),
    (DWT_WINDOW_HI - 2, 4, True),
    (DWT_WINDOW_HI, 4, False),
    (DEMCR_ADDR - 1, 1, False),
    (DEMCR_ADDR - 2, 4, False),
    (DEMCR_ADDR + 3, 1, True),
    (DEMCR_ADDR + 2, 4, True),
    (DEMCR_ADDR + 4, 1, False),
]


@pytest.mark.parametrize("addr,size,device", DECODE,
                         ids=["%#x/%d" % row[:2] for row in DECODE])
def test_an_access_reaches_a_device_by_where_it_starts(addr, size, device):
    m = machine(init=False)
    value = 0x5A5A5A5A >> (32 - 8 * size)
    m.store(addr, size, value)
    assert (m.mem.pages == {}) is device  # RAM took the write or not
    # Without its devices attached, the machine has RAM there.
    bare = Machine()
    bare.store(addr, size, value)
    assert bare.load(addr, size) == value


class Spy:
    """A device that logs which attribute of the machine it was."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def mmio_read(self, m, addr):
        self.log.append(self.name)
        return 0

    def mmio_write(self, m, addr, value):
        self.log.append(self.name)


@pytest.mark.parametrize("addr,size,device", DECODE,
                         ids=["%#x/%d" % row[:2] for row in DECODE])
def test_the_compile_time_decode_agrees_with_the_access_path(addr, size,
                                                              device):
    """``ppb_device`` names the device ``Machine.load``/``store`` reach,
    and a block binds a word access there exactly when it is aligned."""
    log = []
    m = Machine()
    m.dwt, m.demcr = Spy("dwt", log), Spy("demcr", log)
    m.store(addr, size, 0)
    m.load(addr, size)
    name = ppb_device(addr)
    assert (name is not None) is device
    assert set(log) == ({name} if device else set())
    ins = Instr("str", rd=1, rn=0, imm=0)
    bound = blocks._device_word(ins, {0: addr})
    assert bound == ((addr, name) if device and not addr & 3 else None)


def test_byte_store_to_the_shadow_pointer_keeps_its_other_lanes():
    m = machine()
    m.store(DWT_COMP1, 1, 0x08)  # ss_start + 8, inside the region
    assert m.dwt.groups[1].comp == CFG.ss_start + 8
    assert not m.halted

