"""Protection runtime: comparator programming, policies, the DEMCR lock."""

import dataclasses
import logging
import struct
import tracemalloc

import pytest

from watchstack import blocks
from watchstack.asm import parse
from watchstack.dwt import (DWT_COMP0, DWT_COMP1, DWT_CYCCNT, DWT_FUNCTION0,
                            FN_READ, FN_WRITE, DwtUnit)
from watchstack.instrument import ShadowStackConfig
from watchstack.isa import Instr
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR,
                                DWT_WINDOW_HI, DWT_WINDOW_LO, PPB_BASE,
                                HaltReason, Machine, ppb_device)
from watchstack.harness import sweep_program
from watchstack.protect import (DEMCR_MON_EN, POLICY_REPORT, POLICY_RESET,
                                ViolationLog, ViolationRecord,
                                attach_debug_system, init_write_protection)
from watchstack.runner import (OUTCOME_TRAPPED, RunConfig, build_machine,
                               run_machine)

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
    assert (g[2].comp, g[2].mask, g[2].function) == (DEMCR_ADDR, 2, FN_WRITE)
    assert (g[3].comp, g[3].mask, g[3].function) == (0xE0001040, 5, FN_WRITE)
    assert m.dwt.ssp_guard == (CFG.ss_start, CFG.ss_limit)
    assert m.demcr.mon_en


# Clears MON_EN, bit 16 of DEMCR, with one byte store to the word's byte 2.
STRB_ONTO_MON_EN = """\
.org 0x08000000
.func main hal
    movw r0, #%d
    movt r0, #%d
    mov r1, #0
    strb r1, [r0, #2]
    bkpt #0
.endfunc
""" % (DEMCR_ADDR & 0xFFFF, DEMCR_ADDR >> 16)


@pytest.mark.parametrize("policy", [POLICY_RESET, POLICY_REPORT])
def test_the_demcr_lock_covers_the_byte_of_mon_en(policy):
    cfg = RunConfig(protected=True, policy=policy, shadow=CFG)
    m = build_machine(parse(STRB_ONTO_MON_EN), cfg)
    res = run_machine(m, cfg)
    assert res.outcome == OUTCOME_TRAPPED
    assert [(r.data_address, r.size, r.comparator_id)
            for r in res.violations] == [(DEMCR_ADDR + 2, 1, 2)]
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
# runs into it is RAM.  A misaligned word that starts inside one (None)
# reaches neither: it is a bad access, and the machine faults.
DECODE = [
    (PPB_BASE, 4, False),
    (DWT_WINDOW_LO - 1, 1, False),
    (DWT_WINDOW_LO - 2, 4, False),
    (DWT_WINDOW_LO, 4, True),  # CTRL: reads 0, drops writes
    (DWT_WINDOW_HI - 1, 1, True),
    (DWT_WINDOW_HI - 2, 4, None),
    (DWT_WINDOW_HI, 4, False),
    (DEMCR_ADDR - 1, 1, False),
    (DEMCR_ADDR - 2, 4, False),
    (DEMCR_ADDR + 3, 1, True),
    (DEMCR_ADDR + 2, 4, None),
    (DEMCR_ADDR + 4, 1, False),
]


@pytest.mark.parametrize("addr,size,device", DECODE,
                         ids=["%#x/%d" % row[:2] for row in DECODE])
def test_an_access_reaches_a_device_by_where_it_starts(addr, size, device):
    m = machine(init=False)
    m.demcr.value |= DEMCR_MON_EN
    before = (m.dwt.regs[:], m.demcr.value)
    value = 0x5A5A5A5A >> (32 - 8 * size)
    m.store(addr, size, value)
    assert (m.mem.pages == {}) is (device is not False)  # RAM took it or not
    assert m.halted is (device is None)
    if device is None:  # the device is unchanged, and a load reads 0
        assert (m.dwt.regs, m.demcr.value) == before
        assert m.load(addr, size) == 0
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
    where a misaligned word faults instead, and a block runs no word
    there in line, whose address it knows: the unit gives an in-line form
    to its comparators' register words alone, and no row is one
    (``test_a_known_word_runs_in_line_at_the_register_words``)."""
    log = []
    m = Machine()
    m.dwt, m.demcr = Spy("dwt", log), Spy("demcr", log)
    m.store(addr, size, 0)
    m.load(addr, size)
    name = ppb_device(addr)
    assert (name is not None) is (device is not False)
    assert set(log) == ({name} if device else set())
    assert m.halted is (device is None)
    ins = Instr("str", rd=1, rn=0, imm=0)
    state = blocks._state(machine(init=False))
    assert blocks._in_line(ins, {0: addr}, DwtUnit, state) is None


def test_a_known_word_runs_in_line_at_the_register_words():
    """A block's compile-time decode is the unit's: a word ``ldr`` or
    ``str`` (of a known value) whose address the block knows runs in line
    at each of the twelve COMP, MASK and FUNCTION words, and at no other
    address of the DWT window, DEMCR's word or the bytes either side."""
    state = blocks._state(machine(init=False))
    words = {DWT_COMP0 + 16 * gid + off for gid in range(4)
             for off in (0, 4, 8)}
    for addr in (*range(DWT_WINDOW_LO - 4, DWT_WINDOW_HI + 4), DEMCR_ADDR):
        for op in ("ldr", "str"):
            form = blocks._in_line(Instr(op, rd=1, rn=0, imm=0),
                                   {0: addr, 1: 0}, DwtUnit, state)
            assert (form is not None) is (addr in words), (op, hex(addr))


def test_byte_store_to_the_shadow_pointer_keeps_its_other_lanes():
    m = machine()
    m.store(DWT_COMP1, 1, 0x08)  # ss_start + 8, inside the region
    assert m.dwt.groups[1].comp == CFG.ss_start + 8
    assert not m.halted



# -- the packed violation log -------------------------------------------------------

# Each field at the edge of its width: a step index past 32 bits, the
# largest pc, address and value, every comparator, both sizes and both
# access kinds.
EDGE_RECORDS = [
    ViolationRecord(2 ** 40, 0xFFFFFFFF, 0xFFFFFFFF, 3, 0xFFFFFFFF, 4,
                    ACCESS_WRITE),
    ViolationRecord(0, 0, 0, 0, 0, 1, ACCESS_READ),
    ViolationRecord(2 ** 40 + 1, 0x08000002, DEMCR_ADDR + 3, 2, 0xFF, 1,
                    ACCESS_WRITE),
    ViolationRecord(7, 0x08000004, DWT_COMP1, 1, 0, 4, ACCESS_READ),
]


def _log(records) -> ViolationLog:
    log = ViolationLog()
    for rec in records:
        log.append(*dataclasses.astuple(rec))
    return log


def test_the_log_reads_back_each_record_at_its_edges():
    log = _log(EDGE_RECORDS)
    assert len(log) == len(EDGE_RECORDS) and log
    for i, rec in enumerate(EDGE_RECORDS):
        assert log[i] == rec
        assert log[i - len(EDGE_RECORDS)] == rec
    assert log[-1] == EDGE_RECORDS[-1]
    assert log[:8] == EDGE_RECORDS and log[1:3] == EDGE_RECORDS[1:3]
    assert log[::-1] == EDGE_RECORDS[::-1]
    assert list(log) == EDGE_RECORDS
    assert log == EDGE_RECORDS and EDGE_RECORDS == log
    assert log != EDGE_RECORDS[:-1] and log != EDGE_RECORDS[::-1]
    assert log == _log(EDGE_RECORDS) and log != _log(EDGE_RECORDS[1:])
    assert [r.to_dict() for r in log] == [r.to_dict() for r in EDGE_RECORDS]
    # Built on read: equal records, not one object.
    assert log[0] is not log[0]
    with pytest.raises(IndexError):
        log[len(EDGE_RECORDS)]
    with pytest.raises(IndexError):
        log[-len(EDGE_RECORDS) - 1]
    # A field wider than its place in the row is refused, not cut.
    with pytest.raises(struct.error):
        log.append(0, 1 << 32, 0, 0, 0, 4, ACCESS_WRITE)
    assert log == EDGE_RECORDS


def test_an_open_iteration_does_not_stop_the_log_growing():
    """An iteration reads the rows the log held when it began."""
    log = _log(EDGE_RECORDS)
    rows = iter(log)
    log.append(*dataclasses.astuple(EDGE_RECORDS[0]))
    assert list(rows) == EDGE_RECORDS
    assert log == EDGE_RECORDS + EDGE_RECORDS[:1]


def test_an_empty_log_is_false_and_equals_no_records():
    log = ViolationLog()
    assert not log and len(log) == 0
    assert log == [] and [] == log and log == ViolationLog()
    assert log[:8] == [] and list(log) == []
    with pytest.raises(IndexError):
        log[0]
    with pytest.raises(IndexError):
        log[-1]


def test_a_report_sweep_keeps_under_48_bytes_a_record():
    """The 32,768 hits of a report-policy sweep over the whole shadow
    region, each kept as a record: what the run retains, per record."""
    lo, hi = CFG.ss_start - 1024, CFG.ss_limit + 1024
    cfg = RunConfig(protected=True, policy=POLICY_REPORT, shadow=CFG,
                    max_steps=6 * (hi - lo) + 1000)
    m = build_machine(parse(sweep_program(lo, hi)), cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = run_machine(m, cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(run.violations) == CFG.ss_size == 32768
    assert retained / len(run.violations) <= 48
