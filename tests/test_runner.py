"""Runner: handler binding, event injection, classification."""

import pytest

from watchstack.machine import EV_EXC_ENTERED, HaltReason, Machine
from watchstack.runner import (OUTCOME_FAULT, OUTCOME_HIJACK, OUTCOME_SAFE,
                               RunConfig, bind_handlers, build_machine,
                               run_source)
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


def test_injected_exception_runs_the_handler():
    run = run_source(COUNTER, RunConfig(raises=((15, 3),)))
    assert run.outcome == OUTCOME_SAFE
    assert run.machine.read_reg(0) == 5
    assert run.machine.read_reg(4) == 1
    entered = [e for e in run.events if e.kind == EV_EXC_ENTERED]
    assert len(entered) == 1 and entered[0].exc_id == 15


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


def test_visited_and_min_sp_tracking():
    run = run_source(COUNTER, RunConfig(track_visited=True, track_min_sp=True,
                                        raises=((15, 3),)))
    prog = run.program
    assert prog.functions["systick_handler"].entry in run.visited
    # the stacked frame dipped below the initial stack pointer
    assert run.machine.min_sp == RunConfig().initial_sp - 32

