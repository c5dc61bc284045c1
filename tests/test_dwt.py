"""Watchpoint comparator matching against independent oracles.

The main oracle enumerates per-byte block membership with numpy and
ORs the byte lanes of an access together, which shares no code with
the interval-overlap arithmetic in the unit under test.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from watchstack.dwt import (DWT_COMP0, DWT_COMP1, DWT_COMP_OFF, DWT_CYCCNT,
                            DWT_FUNCTION0, DWT_FUNCTION_OFF, DWT_GROUP_STRIDE,
                            DWT_MASK0, DWT_MASK_OFF, FN_DISABLED, FN_READ,
                            FN_READWRITE, FN_WRITE, NUM_GROUPS, _NEVER,
                            DwtUnit)
from watchstack.instrument import ShadowStackConfig
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR,
                                PPB_BASE, HaltReason, Machine)
from watchstack.protect import attach_debug_system, init_write_protection
from watchstack.semantics import define


def program(d: DwtUnit, gid: int, comp=None, mask=None, fn=None) -> None:
    """Write the given fields of group ``gid`` through the register file."""
    base = DWT_COMP0 + gid * DWT_GROUP_STRIDE
    for off, value in ((DWT_COMP_OFF, comp), (DWT_MASK_OFF, mask),
                       (DWT_FUNCTION_OFF, fn)):
        if value is not None:
            d.mmio_write(None, base + off, value)


def unit(**cfg) -> DwtUnit:
    d = DwtUnit()
    for cid, (comp, mask, fn) in cfg.get("groups", {}).items():
        program(d, cid, comp, mask, fn)
    return d


def oracle_match(comp, mask, addr, size):
    """Numpy membership check over the bytes the access touches."""
    lanes = np.arange(addr, addr + size, dtype=np.uint64)
    blocks = lanes >> np.uint64(mask)
    return bool(np.any(blocks == np.uint64(comp) >> np.uint64(mask)))


def test_oracle_randomized_configurations():
    rng = np.random.default_rng(0xC0FFEE)
    window = 1 << 20
    disagreements = 0
    for _ in range(1000):
        base = int(rng.integers(0, 0xE0000000 - window)) & ~0xFFF
        comp = base + int(rng.integers(0, window))
        mask = int(rng.integers(0, 22))
        fn = int(rng.integers(0, 16))
        d = unit(groups={0: (comp, mask, fn)})
        addrs = base + rng.integers(0, window, size=1000)
        sizes = rng.choice([1, 4], size=1000)
        accesses = rng.choice([ACCESS_READ, ACCESS_WRITE], size=1000)
        for addr, size, acc in zip(addrs, sizes, accesses):
            addr, size, acc = int(addr), int(size), int(acc)
            got = d.match_access(addr, size, acc) == 0
            fn_allows = (fn == FN_READWRITE
                         or (fn == FN_WRITE and acc == ACCESS_WRITE)
                         or (fn == FN_READ and acc == ACCESS_READ))
            want = fn_allows and oracle_match(comp, mask, addr, size)
            if got != want:
                disagreements += 1
    assert disagreements == 0


def test_exact_word_region_boundaries():
    # comp 0x00E00000, mask 15 -> [0x00E00000, 0x00E08000)
    d = unit(groups={0: (0x00E00000, 15, FN_WRITE)})
    assert d.match_access(0x00E00000, 1, ACCESS_WRITE) == 0
    assert d.match_access(0x00E07FFF, 1, ACCESS_WRITE) == 0
    assert d.match_access(0x00DFFFFF, 1, ACCESS_WRITE) is None
    assert d.match_access(0x00E08000, 1, ACCESS_WRITE) is None
    # a word access straddling the low edge still matches
    assert d.match_access(0x00DFFFFD, 4, ACCESS_WRITE) == 0
    assert d.match_access(0x00E07FFD, 4, ACCESS_WRITE) == 0
    # reads never match a write-only comparator
    assert d.match_access(0x00E00000, 4, ACCESS_READ) is None


def test_unaligned_comp_is_rounded_down_to_its_block():
    d = unit(groups={0: (0x20001234, 8, FN_READWRITE)})
    # block is [0x20001200, 0x20001300)
    assert d.match_access(0x20001200, 1, ACCESS_READ) == 0
    assert d.match_access(0x200012FF, 1, ACCESS_WRITE) == 0
    assert d.match_access(0x200011FF, 1, ACCESS_WRITE) is None
    assert d.match_access(0x20001300, 1, ACCESS_WRITE) is None


def test_function_values_other_than_the_three_enables_disable():
    for fn in (0x0, 0x1, 0x4, 0x8, 0x16, 0xF):
        d = unit(groups={0: (0x20000000, 31, fn)})
        assert d.match_access(0x20000000, 4, ACCESS_WRITE) is None, hex(fn)
        assert d.match_access(0x20000000, 4, ACCESS_READ) is None, hex(fn)


def test_lowest_comparator_id_wins():
    d = unit(groups={
        1: (0x20000000, 4, FN_WRITE),
        3: (0x20000000, 4, FN_WRITE),
    })
    assert d.match_access(0x20000004, 4, ACCESS_WRITE) == 1
    program(d, 0, 0x20000000, 4, FN_WRITE)
    assert d.match_access(0x20000004, 4, ACCESS_WRITE) == 0


@settings(max_examples=300, deadline=None)
@given(comp=st.integers(0, 0xFFFFFFFF), mask=st.integers(0, 20),
       addr=st.integers(0, 0xFFFFFFFF - 4), size=st.sampled_from([1, 4]))
def test_match_is_monotone_in_mask(comp, mask, addr, size):
    # widening the mask can only grow the matched block
    small = unit(groups={0: (comp, mask, FN_READWRITE)})
    big = unit(groups={0: (comp, mask + 1, FN_READWRITE)})
    if small.match_access(addr, size, ACCESS_WRITE) == 0:
        assert big.match_access(addr, size, ACCESS_WRITE) == 0


def _machine_with_unit():
    m = Machine()
    d = m.dwt = DwtUnit()
    return m, d


_REGISTERS = (("comp", DWT_COMP_OFF, 0x00E00000),
              ("mask", DWT_MASK_OFF, 15),
              ("function", DWT_FUNCTION_OFF, FN_WRITE))


def test_mmio_register_file_roundtrip():
    # every register of every group, each on a fresh unit
    for gid in range(NUM_GROUPS):
        for name, off, value in _REGISTERS:
            m, d = _machine_with_unit()
            addr = DWT_COMP0 + gid * DWT_GROUP_STRIDE + off
            m.store(addr, 4, value)
            assert getattr(d.groups[gid], name) == value, hex(addr)
            assert m.load(addr, 4) == value, hex(addr)
            # the write reached only its own register
            for i, g in enumerate(d.groups):
                for other, _, _ in _REGISTERS:
                    if (i, other) != (gid, name):
                        assert getattr(g, other) == 0, (hex(addr), i, other)


@pytest.mark.parametrize("addr", [0xE000100C, 0xE000101C, 0xE000102C,
                                  0xE000103C, 0xE000104C, 0xE000105C],
                         ids=hex)
def test_window_gaps_read_zero_and_drop_writes(addr):
    m, d = _machine_with_unit()
    m.store(addr, 4, 0xFFFFFFFF)
    assert m.load(addr, 4) == 0
    assert all(g.comp == g.mask == g.function == 0 for g in d.groups)


def test_mask_register_keeps_five_bits():
    m, d = _machine_with_unit()
    m.store(DWT_MASK0, 4, 0xFFFFFFE3)
    assert d.groups[0].mask == 3


def test_function_register_stores_full_value_but_stays_disabled():
    m, d = _machine_with_unit()
    m.store(DWT_FUNCTION0, 4, 0x16)
    assert d.groups[0].function == 0x16
    program(d, 0, comp=0x20000000, mask=31)
    assert d.match_access(0x20000000, 4, ACCESS_WRITE) is None


def test_cyccnt_reads_the_cycle_counter():
    m, d = _machine_with_unit()
    m.cycles = 1234
    assert m.load(DWT_CYCCNT, 4) == 1234
    m.cycles = 0x1_0000_0005
    assert m.load(DWT_CYCCNT, 4) == 5  # truncated to 32 bits
    m.store(DWT_CYCCNT, 4, 99)  # read-only: write falls away
    m.cycles = 7
    assert m.load(DWT_CYCCNT, 4) == 7


def test_comp1_guard_allows_span_and_halts_outside():
    m, d = _machine_with_unit()
    d.ssp_guard = (0x00E00000, 0x00E08000)
    m.store(DWT_COMP1, 4, 0x00E00004)
    assert not m.halted and d.groups[1].comp == 0x00E00004
    m.store(DWT_COMP1, 4, 0x00E08000)  # inclusive upper edge is legal
    assert not m.halted
    m.store(DWT_COMP1, 4, 0x00E08004)
    assert m.halted and m.halt_reason == HaltReason.STACK_OVERFLOW


def test_comp1_guard_low_side():
    m, d = _machine_with_unit()
    d.ssp_guard = (0x00E00000, 0x00E08000)
    m.store(DWT_COMP1, 4, 0x00DFFFFC)
    assert m.halted and m.halt_reason == HaltReason.STACK_OVERFLOW


def test_comp1_unguarded_accepts_anything():
    m, d = _machine_with_unit()
    m.store(DWT_COMP1, 4, 0x12345678)
    assert not m.halted and d.groups[1].comp == 0x12345678


def test_reprogramming_takes_effect_on_next_check_only():
    d = unit(groups={0: (0x20000000, 2, FN_WRITE)})
    assert d.match_access(0x20000000, 4, ACCESS_WRITE) == 0
    program(d, 0, fn=FN_DISABLED)
    assert d.match_access(0x20000000, 4, ACCESS_WRITE) is None


def test_a_field_changes_only_through_the_register_file():
    d = unit(groups={0: (0x20000000, 2, FN_WRITE)})
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.groups[0].comp = 0x30000000
    assert d.groups[0].comp == 0x20000000
    assert d.match_access(0x20000000, 4, ACCESS_WRITE) == 0


# -- slot table against the per-group reference --------------------------------


def _region(g, access):
    """Group ``g``'s region ``(lo, hi)``, read from its fields, if its
    FUNCTION enables ``access``, else None."""
    allows = {FN_READ: ACCESS_READ, FN_WRITE: ACCESS_WRITE}
    if g.function == FN_READWRITE or allows.get(g.function) == access:
        span = 1 << g.mask
        lo = g.comp & ~(span - 1) & 0xFFFFFFFF
        return lo, lo + span
    return None


def reference_match(d: DwtUnit, addr, size, access):
    """The per-access matcher the slot table replaced, reading the fields."""
    for cid, g in enumerate(d.groups):
        region = _region(g, access)
        if region and addr < region[1] and addr + size > region[0]:
            return cid
    return None


# A small pool makes groups with identical fields common.
_COMPS = st.one_of(st.sampled_from([0x00E00000, 0x00E00004, 0x20001000,
                                    0xE0001040, 0]),
                   st.integers(0, 0xFFFFFFFF))
# Every function code, with the three enabling ones drawn more often.
_FUNCTIONS = st.one_of(st.sampled_from([FN_READ, FN_WRITE, FN_READWRITE]),
                       st.integers(0, 15))
_FIELD_VALUES = {"comp": _COMPS, "mask": st.integers(0, 31),
                 "function": _FUNCTIONS}
_OFFSETS = {"comp": 0, "mask": 4, "function": 8}
_GID = st.integers(0, 3)
# A word or byte store to one register: (gid, field, byte lane, size, value).
_SLOT_OPS = st.tuples(_GID, st.sampled_from(sorted(_OFFSETS)),
                      st.integers(0, 3), st.sampled_from([1, 4])).flatmap(
    lambda t: st.tuples(*map(st.just, t), _FIELD_VALUES[t[1]]))


def _apply(m, op):
    gid, name, lane, size, value = op
    addr = DWT_COMP0 + 16 * gid + _OFFSETS[name]
    if size == 1:
        m.store(addr + lane, 1, value >> (8 * lane))
    else:
        m.store(addr, 4, value)


def _edges(d):
    """Every group's region edges and comparator value, as programmed now."""
    edges = set()
    for g in d.groups:
        span = 1 << g.mask
        lo = g.comp & ~(span - 1) & 0xFFFFFFFF
        edges.update((g.comp, lo, lo + span))
    return edges


def _check_at(d, edges):
    for e in sorted(edges):
        for addr, size in ((e - 4, 4), (e - 3, 4), (e - 1, 1), (e - 1, 4),
                           (e, 1)):
            if not 0 <= addr <= 0xFFFFFFFC:
                continue
            for access in (ACCESS_READ, ACCESS_WRITE):
                assert (d.match_access(addr, size, access)
                        == reference_match(d, addr, size, access)), (
                    hex(addr), size, access, d)


def _check_regions(d):
    """Each access kind's slots are the regions that compiled code tests
    (``binder.Compiled``): slot k is group k's region, from its COMP and
    MASK as ``reference_match`` reads them, while its FUNCTION enables
    that kind, and else ``_NEVER``, which holds no address.  So no
    region that can match lies outside the slots of its kind."""
    for access in (ACCESS_READ, ACCESS_WRITE):
        assert list(d.slots[access]) == [
            _region(g, access) or _NEVER for g in d.groups], (d.slots, access)


def _enabled(d, gid):
    return d.groups[gid].function in (FN_READ, FN_WRITE, FN_READWRITE)


# The span protection gives COMP1, the shadow stack pointer.
_SSP_SPAN = (0x00E00000, 0x00E08000)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_SLOT_OPS, max_size=16),
       extra=st.lists(st.integers(0, 0xFFFFFFFC), max_size=4),
       guarded=st.booleans())
# COMP, then MASK, written while the group is disabled, after its region
# was last worked out: enabling it again must use the new region.
@example(ops=[(0, "function", 0, 4, FN_WRITE), (0, "function", 0, 4, 0),
              (0, "comp", 0, 4, 0x20001000), (0, "function", 0, 4, FN_WRITE)],
         extra=[0x20001000], guarded=False)
@example(ops=[(0, "function", 0, 4, FN_READWRITE), (0, "function", 0, 4, 0),
              (0, "mask", 0, 4, 12), (0, "function", 0, 4, FN_READWRITE)],
         extra=[0xFFC], guarded=False)
# COMP1 moved inside and then outside the span the guard allows.
@example(ops=[(1, "comp", 0, 4, 0x00E00010), (1, "comp", 0, 4, 0x20001000)],
         extra=[0x20001000], guarded=True)
def test_slot_table_matches_reference_after_any_writes(ops, extra, guarded):
    # After every step, probes sit on the edges of the regions the groups
    # held before and after it, so a slot left stale by a missed or
    # misdirected update shows at once.  A write to a group that is
    # disabled before and after it, such as COMP1 as the shadow stack
    # pointer, halted or not by the guard, leaves the slots as they were.
    # After every step each access kind's slots are its groups' regions.
    m, d = _machine_with_unit()
    if guarded:
        d.ssp_guard = _SSP_SPAN
    before = _edges(d)
    _check_at(d, before | set(extra))
    _check_regions(d)
    for op in ops:
        gid = op[0]
        was_enabled = _enabled(d, gid)
        slots = [list(s) for s in d.slots[:2]]
        _apply(m, op)
        if not was_enabled and not _enabled(d, gid):
            assert [list(s) for s in d.slots[:2]] == slots, op
        _check_regions(d)
        after = _edges(d)
        _check_at(d, before | after | set(extra))
        before = after


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_SLOT_OPS, max_size=16))
def test_group_snapshots_read_back_through_the_register_file(ops):
    m, d = _machine_with_unit()
    for op in ops:
        _apply(m, op)
    for gid, g in enumerate(d.groups):
        for name, off in _OFFSETS.items():
            addr = DWT_COMP0 + DWT_GROUP_STRIDE * gid + off
            assert getattr(g, name) == m.load(addr, 4), (gid, name)


def test_arming_watches_the_shadow_region_and_the_lock():
    """Armed, the unit watches no read, and its write regions are the
    shadow region, below PPB_BASE, and, above, the DEMCR word and the
    lock's group 2 and 3 block: FUNCTION0 and COMP1, which the
    instrumented code writes, lie outside every one."""
    m = Machine()
    attach_debug_system(m)
    cfg = ShadowStackConfig()
    assert init_write_protection(m, cfg)
    _check_regions(m.dwt)
    assert m.watch[ACCESS_READ] == [_NEVER] * NUM_GROUPS
    lock = DWT_COMP0 + 2 * DWT_GROUP_STRIDE
    assert m.watch[ACCESS_WRITE] == [
        (cfg.ss_start, cfg.ss_limit), _NEVER, (DEMCR_ADDR, DEMCR_ADDR + 4),
        (lock, lock + 32)]
    assert cfg.ss_limit <= PPB_BASE <= DEMCR_ADDR and PPB_BASE <= lock
    for word in (DWT_FUNCTION0, DWT_COMP1):
        assert m.dwt.match_access(word, 4, ACCESS_WRITE) is None


@pytest.mark.parametrize("value", [FN_DISABLED, FN_READ, FN_WRITE,
                                   FN_READWRITE])
@pytest.mark.parametrize("before", [FN_DISABLED, FN_READ, FN_WRITE,
                                    FN_READWRITE])
def test_an_in_line_function_write_leaves_what_its_port_leaves(before,
                                                               value):
    """The lines ``DwtUnit.inline`` gives a FUNCTION write of a known
    value, run on a unit in the watch state they were made for, leave the
    unit as its port's write leaves it, in the state they name, and write
    a slot of an access kind only where the write changes it.  Every
    group's region is cached; the group written selects ``before``, and
    the others both kinds or neither, so that before the write one
    kind's slots may equal those the other kind's hold after it."""
    for gid in range(NUM_GROUPS):
        for others in (FN_DISABLED, FN_READWRITE):
            d = unit(groups={g: (0x20000000 + 0x100 * g, 4, FN_READWRITE)
                             for g in range(NUM_GROUPS)})
            for g in range(NUM_GROUPS):
                program(d, g, fn=before if g == gid else others)
            port = DwtUnit()
            port.regs, port.regions = d.regs[:], d.regions[:]
            port.slots = tuple(s[:] for s in d.slots)
            addr = DWT_FUNCTION0 + DWT_GROUP_STRIDE * gid
            port.mmio_write(None, addr, value)
            slots = tuple(map(tuple, d.slots))
            lines, after = DwtUnit.inline(addr, ACCESS_WRITE,
                                          d.snapshot(d.slots), value)
            define("\n".join([DwtUnit.BIND, *lines]), "<test>", {"D": d})
            assert (d.regs, d.slots, d.regions) == (
                port.regs, port.slots, port.regions)
            assert after == port.snapshot(port.slots)
            written = sum(line[0] in "SW" for line in lines)
            assert written == sum(tuple(now) != was
                                  for now, was in zip(port.slots, slots))
