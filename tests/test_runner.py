"""Runner: handler binding, event injection, classification."""

import pytest

from watchstack import blocks
from watchstack.harness import sweep_program
from watchstack.machine import (EV_EXC_ENTERED, EV_EXC_RETURNED, EV_HALTED,
                                Event, HaltReason, Machine)
from watchstack.protect import POLICY_REPORT
from watchstack.runner import (OUTCOME_FAULT, OUTCOME_HIJACK, OUTCOME_SAFE,
                               OUTCOME_TRAPPED, RunConfig, bind_handlers,
                               build_machine, run_source)
from watchstack.asm import parse

COUNTER = """\
.org 0x08000000
.func main hal
    mov r0, #0
.label spin
    addw r0, r0, #1
    cmp r0, #5
    bne spin
    bkpt #0
.endfunc
.func systick_handler handler
    addw r4, r4, #1
    bx lr
.endfunc
"""


def test_handler_names_bind_to_vector_slots():
    text = """\
.org 0x08000000
.func main hal
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
.func svc_handler handler
    bx lr
.endfunc
.func debugmon_handler handler
    bx lr
.endfunc
.func systick handler
    bx lr
.endfunc
"""
    prog = parse(text)
    m = build_machine(prog, RunConfig())
    assert set(m.vector) == {6, 11, 12, 15}
    assert m.vector[6] == prog.functions["usagefault_handler"].entry
    assert m.vector[15] == prog.functions["systick"].entry


def test_unknown_handler_name_is_rejected():
    prog = parse("""\
.org 0x08000000
.func main hal
    bkpt #0
.endfunc
.func flux_capacitor_handler handler
    bx lr
.endfunc
""")
    with pytest.raises(ValueError, match="flux_capacitor"):
        bind_handlers(Machine(), prog)


SVC_TWICE = """\
.org 0x08000000
.func main hal
    svc #0
    bkpt #0
.endfunc
.func svc_handler handler
    bkpt #1
.endfunc
.func svcall_handler handler
    bx lr
.endfunc
"""


def test_two_handlers_for_one_exception_are_rejected():
    # Before, the later function won and svc_handler never ran.
    with pytest.raises(ValueError, match="'svc_handler' and 'svcall_handler' "
                       "both name exception 11"):
        run_source(SVC_TWICE)


def test_injected_exception_runs_the_handler():
    run = run_source(COUNTER, RunConfig(raises=((15, 3),)))
    assert run.outcome == OUTCOME_SAFE
    assert run.machine.read_reg(0) == 5
    assert run.machine.read_reg(4) == 1
    entered = [e for e in run.events if e.kind == EV_EXC_ENTERED]
    assert len(entered) == 1 and entered[0].exc_id == 15


UDF_SVC = """\
.org 0x08000000
.func main hal
    udf #0
    svc #1
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
.func svcall_handler handler
    bx lr
.endfunc
"""


def test_svc_and_udf_entries_are_logged():
    run = run_source(UDF_SVC)
    main = run.program.functions["main"].entry
    usage = run.program.functions["usagefault_handler"].entry
    svc = run.program.functions["svcall_handler"].entry
    assert run.events == [
        Event(EV_EXC_ENTERED, usage, exc_id=6),
        Event(EV_EXC_RETURNED, main + 2, exc_id=6),
        Event(EV_EXC_ENTERED, svc, exc_id=11),
        Event(EV_EXC_RETURNED, main + 4, exc_id=11),
        Event(EV_HALTED, main + 4, reason=HaltReason.NORMAL)]
    assert run.events is run.machine.events


def test_stacking_hit_halt_is_logged_after_the_entry():
    """SysTick stacks its frame into the armed shadow region: the reset
    halt follows the entry, at the pc the exception was taken at."""
    cfg = RunConfig(protected=True, raises=((15, 2),))
    cfg.initial_sp = cfg.shadow.ss_start + 16
    run = run_source(COUNTER, cfg)
    handler = run.program.functions["systick_handler"].entry
    third = sorted(run.program.code)[2]  # cmp, after two steps
    assert [(ev.kind, ev.at_pc, ev.reason) for ev in run.events] == [
        (EV_EXC_ENTERED, handler, None), (EV_HALTED, third, HaltReason.RESET)]


def test_bad_exc_return_halts_at_the_branch():
    run = run_source("""\
.org 0x08000000
.func main hal
    udf #0
    bkpt #0
.endfunc
.func usagefault_handler handler
    movw r0, #0xfff1
    movt r0, #0xffff
    bx r0
.endfunc
""")
    handler = run.program.functions["usagefault_handler"].entry
    assert [(ev.kind, ev.at_pc) for ev in run.events] == [
        (EV_EXC_ENTERED, handler), (EV_HALTED, handler + 8)]
    assert run.halt_reason == HaltReason.FAULT


def test_multiple_injections_fire_in_step_order():
    run = run_source(COUNTER, RunConfig(raises=((15, 10), (15, 2))))
    assert run.machine.read_reg(4) == 2


def test_step_budget_is_a_fault_with_no_halt_reason():
    run = run_source(COUNTER, RunConfig(max_steps=4))
    assert run.outcome == OUTCOME_FAULT
    assert run.halt_reason is None
    assert run.steps == 4


def test_nonzero_bkpt_classifies_as_hijack():
    run = run_source("""\
.org 0x08000000
.func main hal
    bkpt #1
.endfunc
""")
    assert run.outcome == OUTCOME_HIJACK
    assert run.halt_reason == HaltReason.REPORT


@pytest.mark.parametrize("hot", [1, blocks.HOT_THRESHOLD])
def test_reset_policy_store_hit_ends_in_the_reset_halt(hot, monkeypatch):
    """A trapped store under the reset policy halts the machine: the halt
    is the run's only event, the hit its only violation record.  The
    sweep loop is compiled before it reaches the shadow region."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", hot)
    cfg = RunConfig(protected=True)
    start = cfg.shadow.ss_start
    run = run_source(sweep_program(start - 64, start + 64), cfg)
    assert [(ev.kind, ev.reason) for ev in run.events] == [
        (EV_HALTED, HaltReason.RESET)]
    assert [v.data_address for v in run.violations] == [start]
    assert run.outcome == OUTCOME_TRAPPED
    assert run.steps == 5 + 4 * 64 + 1  # setup, the margin, the hit
    assert run.machine.mem.read_byte(start) == 0


def test_violations_are_the_guards_own_records():
    """Like ``events``, ``violations`` is the log the run kept, not a
    copy of it."""
    cfg = RunConfig(protected=True, policy=POLICY_REPORT)
    start = cfg.shadow.ss_start
    run = run_source(sweep_program(start - 4, start + 4), cfg)
    assert run.violations is run.machine.guard.records
    assert [v.data_address for v in run.violations] == [
        start, start + 1, start + 2, start + 3]


def test_a_misspelt_policy_is_refused_not_run_as_report():
    cfg = RunConfig(protected=True, policy="Reset")
    start = cfg.shadow.ss_start
    with pytest.raises(ValueError, match="unknown violation policy"):
        run_source(sweep_program(start - 4, start + 4), cfg)


def _counter_addresses(prog):
    main = prog.functions["main"]
    return main.address(1), main.address(3)  # the loop entry and its bne


@pytest.mark.parametrize("hot", [1, blocks.HOT_THRESHOLD])
def test_counts_and_min_sp(hot, monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", hot)
    run = run_source(COUNTER, RunConfig(track_min_sp=True,
                                        raises=((15, 3), (15, 10))))
    prog = run.program
    spin, bne = _counter_addresses(prog)
    m = run.machine
    retired, taken = m.retired, m.taken
    assert retired[prog.functions["systick_handler"].entry] == 2
    assert retired[spin] == retired[bne] == 5
    assert taken == {bne: 4}
    before = (dict(retired), dict(taken))
    m.run(m.steps + 100)  # halted: runs nothing, folds nothing twice
    assert (m.retired, m.taken) == before
    # the stacked frame dipped below the initial stack pointer
    assert run.machine.min_sp == RunConfig().initial_sp - 32


def test_counts_survive_a_code_swap(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    prog = parse(COUNTER)
    ref = build_machine(prog, RunConfig())
    while not ref.halted:
        ref.step()
    m = build_machine(prog, RunConfig())
    m.run(8)
    m.code = dict(m.code)  # run() drops the blocks compiled so far
    m.run(1000)
    assert m.halted and m.steps == ref.steps
    assert (m.retired, m.taken) == (ref.retired, ref.taken)
    spin, bne = _counter_addresses(prog)
    assert m.retired[spin] == 5 and m.taken == {bne: 4}
