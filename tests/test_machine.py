"""Core interpreter semantics: stores, stacks, flags, faults, events."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from programs import WATCH_ALL
from watchstack import blocks
from watchstack.asm import parse
from watchstack.harness import recursion_program, sweep_program
from watchstack.machine import (EV_EXC_ENTERED, EV_HALTED, Event, HaltReason,
                                Machine, MODE_HANDLER, MODE_THREAD)
from watchstack.runner import RunConfig, build_machine, run_machine

SP0 = 0x20040000


def make_machine(src: str, sp: int = SP0):
    prog = parse(src)
    m = Machine()
    m.code = dict(prog.code)
    for addr, val in prog.data:
        m.mem.write_word(addr, val)
    m.sp = sp
    m.pc = prog.entry_address()
    for fn in prog.functions.values():
        if fn.kind == "handler" and fn.name == "usagefault_handler":
            m.vector[6] = fn.entry
    return m, prog


def run(m: Machine, max_steps: int = 10_000) -> Machine:
    while not m.halted and m.steps < max_steps:
        m.step()
    return m


def wrap(body: str) -> str:
    return ".org 0x08000000\n.func main hal\n%s\n    bkpt #0\n.endfunc\n" % body


def test_push_stores_lowest_register_at_lowest_address():
    m, _ = make_machine(wrap("""\
    mov r0, #17
    mov r7, #99
    push {r0, r7}"""))
    run(m)
    assert m.sp == SP0 - 8
    assert m.mem.read_word(m.sp) == 17       # r0 at the lower address
    assert m.mem.read_word(m.sp + 4) == 99   # r7 above it


def test_pop_is_push_inverse():
    m, _ = make_machine(wrap("""\
    mov r1, #5
    mov r2, #6
    push {r1, r2}
    mov r1, #0
    mov r2, #0
    pop {r1, r2}"""))
    run(m)
    assert (m.gpr[1], m.gpr[2]) == (5, 6)
    assert m.sp == SP0


def test_word_access_must_be_aligned():
    m, _ = make_machine(wrap("""\
    movw r1, #0x0002
    movt r1, #0x2000
    ldr r0, [r1]"""))
    run(m)
    assert m.halted and m.halt_reason == HaltReason.FAULT


def test_byte_access_needs_no_alignment():
    m, _ = make_machine(wrap("""\
    movw r1, #0x0003
    movt r1, #0x2000
    mov r0, #0xAB
    strb r0, [r1]
    ldrb r2, [r1]"""))
    run(m)
    assert m.halt_reason == HaltReason.NORMAL
    assert m.gpr[2] == 0xAB


def test_bkpt_zero_halts_normal_nonzero_reports():
    m, _ = make_machine(wrap("    nop"))
    run(m)
    assert m.halt_reason == HaltReason.NORMAL
    m2, _ = make_machine(".org 0x08000000\n.func main hal\n    bkpt #7\n.endfunc\n")
    run(m2)
    assert m2.halt_reason == HaltReason.REPORT


def test_undefined_fetch_without_handler_faults():
    m, _ = make_machine(wrap("    nop"))
    m.pc = 0x0BAD0000  # no code there
    m.step()
    assert m.events == [Event(EV_HALTED, 0x0BAD0000, reason=HaltReason.FAULT)]
    assert m.halt_reason == HaltReason.FAULT


def test_undefined_fetch_with_handler_enters_usage_fault():
    src = """\
.org 0x08000000
.func main hal
    nop
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
"""
    m, prog = make_machine(src)
    m.pc = 0x0BAD0000
    m.step()
    ev = m.events[-1]
    assert ev.kind == EV_EXC_ENTERED and ev.exc_id == 6
    assert m.mode == MODE_HANDLER
    assert m.pc == prog.functions["usagefault_handler"].entry


def test_exception_entry_and_return_cost_twelve_each():
    src = """\
.org 0x08000000
.func main hal
    udf #0
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
"""
    m, _ = make_machine(src)
    run(m)
    assert m.halt_reason == HaltReason.NORMAL
    # udf 1 + entry 12 + bx 2 + return 12 + bkpt 1
    assert m.cycles == 28


def test_svc_costs_twelve_total_and_needs_vector():
    src = """\
.org 0x08000000
.func main hal
    svc #1
    bkpt #0
.endfunc
.func svc_handler handler
    bx lr
.endfunc
"""
    prog = parse(src)
    m = Machine()
    m.code = dict(prog.code)
    m.sp = SP0
    m.pc = prog.entry_address()
    m.vector[11] = prog.functions["svc_handler"].entry
    run(m)
    assert m.halt_reason == HaltReason.NORMAL
    # svc 12 (entry included) + bx 2 + return 12 + bkpt 1
    assert m.cycles == 27

    m2, _ = make_machine(wrap("    svc #1"))
    run(m2)
    assert m2.halt_reason == HaltReason.FAULT


def test_svc_inside_a_handler_faults_at_the_svc():
    src = """\
.org 0x08000000
.func main hal
    udf #0
    bkpt #0
.endfunc
.func usagefault_handler handler
    svc #1
    bx lr
.endfunc
.func svc_handler handler
    bx lr
.endfunc
"""
    m, prog = make_machine(src)
    m.vector[11] = prog.functions["svc_handler"].entry
    run(m)
    svc_at = prog.functions["usagefault_handler"].entry
    assert m.halt_reason == HaltReason.FAULT and m.pc == svc_at + 2
    assert m.events == [Event(EV_EXC_ENTERED, svc_at, exc_id=6),
                        Event(EV_HALTED, svc_at, reason=HaltReason.FAULT)]


def test_cmp_conditions_signed():
    # -1 < 1 signed, but "ne" true and "eq" false
    m, _ = make_machine(wrap("""\
    movw r0, #0xffff
    movt r0, #0xffff
    mov r1, #1
    cmp r0, r1
    blt was_less
    mov r2, #0
    b done
.label was_less
    mov r2, #1
.label done"""))
    run(m)
    assert m.gpr[2] == 1


def test_cmp_ge_on_equal():
    m, _ = make_machine(wrap("""\
    mov r0, #5
    cmp r0, #5
    bge ok
    mov r3, #0
    b out
.label ok
    mov r3, #1
.label out"""))
    run(m)
    assert m.gpr[3] == 1


def test_taken_conditional_branch_costs_one_extra():
    taken, _ = make_machine(wrap("""\
    mov r0, #0
    cmp r0, #0
    beq over
    nop
.label over"""))
    run(taken)
    skipped, _ = make_machine(wrap("""\
    mov r0, #1
    cmp r0, #0
    beq over
    nop
.label over"""))
    run(skipped)
    # taken: mov1 cmp1 beq(1+1) bkpt1 = 5; not taken: mov1 cmp1 beq1 nop1 bkpt1 = 5
    assert taken.cycles == 5 and skipped.cycles == 5
    assert taken.steps == 4 and skipped.steps == 5


def test_bl_links_to_following_instruction():
    src = """\
.org 0x08000000
.func main hal
    bl helper
    bkpt #0
.endfunc
.func helper
    bx lr
.endfunc
"""
    m, prog = make_machine(src)
    assert m.step() is None  # a plain step has no event
    assert m.pc == prog.functions["helper"].entry
    assert m.lr == 0x08000004  # bl is 4 bytes


def test_registers_wrap_to_32_bits():
    m, _ = make_machine(wrap("""\
    movw r0, #0xffff
    movt r0, #0xffff
    addw r0, r0, #2"""))
    run(m)
    assert m.gpr[0] == 1


def test_msr_control_privilege_drop_is_one_way_in_thread_mode():
    m, _ = make_machine(wrap("""\
    mov r0, #1
    mov r1, #0
    msr control, r0
    msr control, r1
    mrs r2, control"""))
    run(m)
    assert m.control == 1 and m.gpr[2] == 1


class _CountingHook:
    """Sees every access; returns True (suppress) for stores to
    ``suppress`` and None, which commits the write, for the rest."""

    def __init__(self, suppress=()):
        self.stores = []
        self.loads = 0
        self.suppress = suppress

    def on_load(self, m, addr, size):
        self.loads += 1

    def on_store(self, m, addr, size, value):
        self.stores.append((addr, size, value))
        return True if addr in self.suppress else None


def test_every_store_flows_through_the_guard():
    src = """\
.org 0x08000000
.func main hal
    mov r0, #1
    mov r1, #2
    push {r0, r1}
    movw r2, #0x0000
    movt r2, #0x2001
    str r0, [r2]
    strb r1, [r2, #8]
    udf #0
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
"""
    for suppress in ((), (0x20010000,)):
        m, _ = make_machine(src)
        hook = _CountingHook(suppress)
        m.guard = hook
        m.watch = WATCH_ALL
        run(m)
        assert m.halt_reason == HaltReason.NORMAL
        # push 2 + str 1 + strb 1 + exception stacking 8
        assert len(hook.stores) == 12
        # The suppressed str leaves memory as it was and ends nothing.
        assert m.mem.read_word(0x20010000) == (0 if suppress else 1)
        assert m.mem.read_byte(0x20010008) == 2
        assert m.mem.read_word(SP0 - 8) == 1


def test_a_guard_installed_without_watch_sees_no_access():
    """``watch`` starts with no region: the guard is shown only the
    accesses that the regions set with it cover."""
    m, _ = make_machine(wrap("""\
    mov r0, #1
    push {r0}
    pop {r1}
    movw r2, #0x0000
    movt r2, #0x2001
    str r0, [r2]
    strb r1, [r2, #8]
    ldr r3, [r2]"""))
    hook = _CountingHook((0x20010000,))
    m.guard = hook
    run(m)
    assert m.halt_reason == HaltReason.NORMAL
    assert hook.stores == [] and hook.loads == 0
    assert m.gpr[3] == 1  # the store the hook would suppress committed


def test_a_hook_without_an_in_line_form_sees_each_compiled_hit_once(
        monkeypatch):
    """A guard that gives compiled blocks no in-line form, here one shown
    every access, is shown each compiled byte store once, through
    Machine.store, the one slow path, and its answer is obeyed: a store
    it suppresses leaves its byte at 0, and any other commits."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    stores = []
    store = Machine.store

    def counted(m, *args):
        stores.append(args)
        store(m, *args)

    monkeypatch.setattr(Machine, "store", counted)
    lo = 0x20010000
    suppress = range(lo + 8, lo + 24)
    m, _ = make_machine(sweep_program(lo, lo + 64))
    hook = _CountingHook(suppress)
    m.guard, m.watch = hook, WATCH_ALL
    m.run(10_000)
    assert m.halt_reason == HaltReason.NORMAL and m.steps == 5 + 4 * 64 + 1
    assert hook.stores == [(addr, 1, 0x5A) for addr in range(lo, lo + 64)]
    assert stores == hook.stores
    assert m.mem.read_region(lo, 64) == bytes(
        0 if addr in suppress else 0x5A for addr in range(lo, lo + 64))


def test_pending_exception_waits_for_thread_mode():
    src = """\
.org 0x08000000
.func main hal
    udf #0
    mov r4, #9
    bkpt #0
.endfunc
.func usagefault_handler handler
    nop
    nop
    bx lr
.endfunc
"""
    m, prog = make_machine(src)
    m.vector[15] = prog.functions["usagefault_handler"].entry  # reuse body
    m.step()  # udf -> handler
    assert m.mode == MODE_HANDLER
    m.raise_exception(15)
    m.step()  # nop, still in handler; systick stays pending
    assert m.mode == MODE_HANDLER and m.pending == [15]
    m.step()  # second nop
    m.step()  # bx lr -> return to thread
    assert m.mode == MODE_THREAD
    m.step()  # pending systick drains before the next instruction
    ev = m.events[-1]
    assert ev.kind == EV_EXC_ENTERED and ev.exc_id == 15


def test_step_after_halt_is_inert():
    m, _ = make_machine(".org 0x08000000\n.func main hal\n    bkpt #0\n.endfunc\n")
    run(m)
    before = _snapshot(m)
    assert m.events == [Event(EV_HALTED, 0x08000000, reason=HaltReason.NORMAL)]
    m.step()
    assert _snapshot(m) == before
    assert len(m.events) == 1


def _snapshot(m: Machine):
    return (m.steps, m.cycles, tuple(m.gpr), m.sp, m.lr, m.pc, m.xpsr,
            m.halt_reason, m.mem.snapshot())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([
    "mov r0, #7", "mov r1, #3", "addw r0, r0, #5", "subw r1, r1, #2",
    "cmp r0, r1", "push {r0}", "pop {r0}", "mov r2, r0", "nop",
    "mov r3, #1",
]), min_size=1, max_size=12))
def test_determinism_identical_runs(body):
    # push/pop pairing is irrelevant here; the stack only moves within RAM
    src = wrap("\n".join("    " + b for b in body))
    m1, _ = make_machine(src)
    m2, _ = make_machine(src)
    run(m1), run(m2)
    assert _snapshot(m1) == _snapshot(m2)


# Addresses near the ends of two adjacent pages and of an untouched one.
_ACCESS_ADDRS = st.sampled_from(
    [0x20000000 + d for d in (0, 1, 2, 3, 4)]
    + [0x20000FFC + d for d in range(8)]
    + [0x20003FFD, 0x20003FFE, 0x20003FFF])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _ACCESS_ADDRS, st.sampled_from((1, 4)),
                          st.integers(0, 0xFFFFFFFF)), max_size=24))
def test_loads_and_stores_agree_with_memory(ops):
    """The machine's inline word access, in a page or straddling two,
    reads and writes what ``Memory``'s own accessors do, creating the
    same pages."""
    m = Machine()
    ref = Machine().mem
    for is_store, addr, size, value in ops:
        if is_store:
            m.store(addr, size, value)
            if size == 4:
                ref.write_word(addr, value)
            else:
                ref.write_byte(addr, value)
        else:
            want = ref.read_word(addr) if size == 4 else ref.read_byte(addr)
            assert m.load(addr, size) == want, (hex(addr), size)
        assert m.mem.snapshot() == ref.snapshot()


def test_a_protected_machine_keeps_a_shared_key_dict():
    """CPython shares one key table among instances that set the same
    attributes in the same order, up to a size limit (29 keys on 3.11).
    Past it each instance gets a dict of its own, and every attribute
    access, on the hot path too, slows down."""
    m = build_machine(parse(recursion_program(3)),
                      RunConfig(protected=True, track_min_sp=True))
    run_machine(m, RunConfig(protected=True))
    attrs = vars(m)
    assert sys.getsizeof(attrs) < sys.getsizeof(dict(attrs)), len(attrs)
