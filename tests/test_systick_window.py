"""An instrumented handler is transparent wherever SysTick is taken.

A handler can interrupt a normal prologue or epilogue between its
FUNCTION0 disarm and its rearm, or between its COMP1 writeback and the
shadow slot it still reads.  Its own shadow frame must then neither
rearm the trap under the interrupted code nor overwrite that slot.  So
SysTick is raised before every step of a few benign call trees (the
acceptance-09 generator plus a counting handler, as the benchmark's
corpus builds them), and each run must end as the uninterrupted one
does: the acceptance-09 state, a handler counter of 1 and COMP1 back at
the shadow stack's start.
"""

import random

import pytest

from watchstack.asm import parse
from watchstack.harness import make_benign_program
from watchstack.instrument import ShadowStackConfig, instrument_program
from watchstack.machine import DEMCR_ADDR, PPB_BASE, HaltReason
from watchstack.runner import RunConfig, run_program

SHADOW = ShadowStackConfig()
SYSTICK = 15
COUNTER_ADDR = 0x20011000

HANDLER = """\
.func systick_handler handler
    push {r7, lr}
    movw r7, #0x%04x
    movt r7, #0x%04x
    ldr r1, [r7]
    addw r1, r1, #1
    str r1, [r7]
    pop {r7, pc}
.endfunc
""" % (COUNTER_ADDR & 0xFFFF, COUNTER_ADDR >> 16)


def _regs(m) -> list:
    return [m.read_reg(r) for r in range(13)]


def _problems(plain, run) -> list:
    """How ``run``, interrupted once, differs from the acceptance-09
    outcome against the plain run: a ``normal`` halt, no violation, the
    plain registers and memory but for the shadow stack, the PPB, the
    dead stack below the final frames and the handler's counter, which
    reads 1, and COMP1 back at the shadow stack's start."""
    m = run.machine
    if run.halt_reason != HaltReason.NORMAL or run.violations:
        return ["halt=%s violations=%d" % (run.halt_reason,
                                           len(run.violations))]
    problems = []
    if _regs(m) != _regs(plain.machine):
        problems.append("registers")
    skip = ((SHADOW.ss_start, SHADOW.ss_limit), (PPB_BASE, 1 << 32),
            (COUNTER_ADDR, COUNTER_ADDR + 4),
            (min(m.min_sp, plain.machine.min_sp), RunConfig().initial_sp))
    moved = [a for a in plain.machine.mem.diff(m.mem)
             if not any(lo <= a < hi for lo, hi in skip)]
    if moved:
        problems.append("memory at %#x" % moved[0])
    if m.mem.read_word(COUNTER_ADDR) != 1:
        problems.append("counter=%d" % m.mem.read_word(COUNTER_ADDR))
    if m.dwt.groups[1].comp != SHADOW.ss_start:
        problems.append("comp1=%#x" % m.dwt.groups[1].comp)
    return problems


@pytest.mark.parametrize("seed", range(8))
def test_systick_before_every_step_is_transparent(seed):
    rng = random.Random(seed)
    prog = parse(make_benign_program(rng, rng.randint(4, 12)) + HANDLER)
    inst = instrument_program(prog, SHADOW).program
    plain = run_program(prog, RunConfig(track_min_sp=True))
    prot = run_program(inst, RunConfig(protected=True, shadow=SHADOW))
    assert plain.halt_reason == prot.halt_reason == HaltReason.NORMAL
    failed = {}
    for at in range(prot.steps):
        run = run_program(inst, RunConfig(
            protected=True, shadow=SHADOW, track_min_sp=True,
            raises=((SYSTICK, at),)))
        problems = _problems(plain, run)
        if problems:
            failed[at] = problems
    assert not failed, "%d of %d positions, first %s" % (
        len(failed), prot.steps, next(iter(failed.items())))


TRCENA_ONLY = """\
.org 0x08000000
.func main hal
    movw r0, #0x%04x
    movt r0, #0x%04x
    movw r1, #0
    movt r1, #0x0100
    str r1, [r0]
    nop
    nop
    nop
    bkpt #0
.endfunc
""" % (DEMCR_ADDR & 0xFFFF, DEMCR_ADDR >> 16) + HANDLER


def test_a_handler_skips_its_frame_while_only_trcena_is_set():
    """DEMCR holds TRCENA (bit 24) but not MON_EN (bit 16): the monitor
    is off, so the handler's guard skips its shadow frame, leaving
    FUNCTION0 disarmed and address 0, where COMP1 points on reset,
    unwritten."""
    inst = instrument_program(parse(TRCENA_ONLY), SHADOW).program
    run = run_program(inst, RunConfig(raises=((SYSTICK, 6),)))
    m = run.machine
    assert run.halt_reason == HaltReason.NORMAL
    assert m.demcr.value == 0x01000000 and not m.demcr.mon_en
    assert m.mem.read_word(COUNTER_ADDR) == 1
    assert m.dwt.groups[0].function == 0
    assert m.mem.read_region(0, 32) == bytes(32)
