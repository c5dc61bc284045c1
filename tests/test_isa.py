"""Encoding-width and cycle-cost tables.

The expected numbers are hand derivations from the published encoding
constraints (narrow forms need low registers and small immediates) and
from the cycle model (memory ops 2, multi-transfer 1+N, pc-pop +3,
branches 2, bl 3, svc 12, everything else 1).
"""

import pytest

from watchstack.asm import parse
from watchstack.isa import Instr, cycle_cost, encoding_width, finalize


def _instr(src: str):
    text = ".org 0x08000000\n.func main hal\n    %s\n    bkpt #0\n.endfunc\n" % src
    prog = parse(text)
    return prog.functions["main"].body[0]


# source line, expected bytes
WIDTH_CASES = [
    ("mov r0, #1", 2),
    ("mov r7, #255", 2),
    ("mov r0, #256", 4),       # exceeds the 8-bit narrow immediate
    ("mov r8, #1", 4),         # high register forces wide
    ("mov.w r0, #1", 4),       # explicit wide stays wide
    ("movw r0, #0xffff", 4),
    ("movt r12, #0x1234", 4),
    ("mov r0, r1", 2),
    ("ldr r0, [r1]", 2),
    ("ldr r0, [r1, #124]", 2),
    ("ldr r0, [r1, #128]", 4),  # offset beyond 5-bit scaled field
    ("ldr r0, [r1, #2]", 4),    # unscaled offset needs the wide form
    ("ldr r8, [r1]", 4),
    ("ldr.w r0, [r1]", 4),
    ("str r2, [r3, #64]", 2),
    ("str.w lr, [r0]", 4),
    ("ldrb r0, [r1, #31]", 2),
    ("ldrb r0, [r1, #32]", 4),
    ("strb r7, [r6]", 2),
    ("push {r0, r7}", 2),
    ("push {r7, lr}", 2),       # lr allowed in the narrow push
    ("push {r8}", 4),
    ("push {r4, r5, r6}", 2),
    ("pop {r7, pc}", 2),
    ("pop {r8, pc}", 4),
    ("add sp, #8", 2),
    ("sub sp, #8", 2),
    ("add sp, #508", 2),
    ("add sp, #512", 4),
    ("addw r0, r1, #4095", 4),
    ("subw r12, r12, #4", 4),
    ("cmp r0, #255", 2),
    ("cmp r8, #1", 4),
    ("cmp r0, r9", 2),
    ("b somewhere", 2),
    ("beq somewhere", 2),
    ("bne somewhere", 2),
    ("bl somewhere", 4),
    ("bx lr", 2),
    ("blx r3", 2),
    ("nop", 2),
    ("udf #0", 2),
    ("svc #3", 2),
    ("bkpt #1", 2),
    ("mrs r0, control", 4),
    ("msr control, r0", 4),
]


@pytest.mark.parametrize("src,width", WIDTH_CASES)
def test_encoding_width(src, width):
    if "somewhere" in src:
        text = (".org 0x08000000\n.func main hal\n    %s\n"
                ".label somewhere\n    bkpt #0\n.endfunc\n" % src)
        ins = parse(text).functions["main"].body[0]
    else:
        ins = _instr(src)
    assert ins.width == width, src


# source line, expected cycles
CYCLE_CASES = [
    ("mov r0, #1", 1),
    ("movw r0, #1", 1),
    ("movt r0, #1", 1),
    ("mov r0, r1", 1),
    ("addw r0, r0, #1", 1),
    ("subw r0, r0, #1", 1),
    ("add sp, #4", 1),
    ("sub sp, #4", 1),
    ("cmp r0, #0", 1),
    ("cmp r0, r1", 1),
    ("ldr r0, [r1]", 2),
    ("ldr.w r0, [r1, #16]", 2),
    ("ldrb r0, [r1]", 2),
    ("str r0, [r1]", 2),
    ("strb r0, [r1]", 2),
    ("push {r7}", 2),           # 1 + one register
    ("push {r7, lr}", 3),
    ("push {r4, r5, r6, r7}", 5),
    ("pop {r7}", 2),
    ("pop {r7, pc}", 6),        # 1 + 2 + pipeline refill 3
    ("pop {r4, r5, pc}", 7),
    ("bx lr", 2),
    ("blx r3", 2),
    ("b somewhere", 2),
    ("beq somewhere", 1),       # +1 only when taken, charged at run time
    ("bl somewhere", 3),
    ("nop", 1),
    ("bkpt #0", 1),
    ("udf #0", 1),
    ("svc #1", 12),             # includes the exception entry stacking
    ("mrs r0, control", 1),
    ("msr control, r0", 1),
]


@pytest.mark.parametrize("src,cycles", CYCLE_CASES)
def test_cycle_cost(src, cycles):
    if "somewhere" in src:
        text = (".org 0x08000000\n.func main hal\n    %s\n"
                ".label somewhere\n    bkpt #0\n.endfunc\n" % src)
        ins = parse(text).functions["main"].body[0]
    else:
        ins = _instr(src)
    assert ins.cycles == cycles, src


def test_finalize_fills_width_and_cycles():
    ins = finalize(Instr(op="push", reglist=(7, 14)))
    assert ins.width == 2 and ins.cycles == 3
    assert encoding_width(ins) == 2 and cycle_cost(ins) == 3


def test_structural_key_ignores_address():
    """A branch's resolved target, the one address an instruction
    holds, is a layout result."""
    a = _instr("b main")
    b = a.replace(target=0x1234)
    assert a.structural_key() == b.structural_key()
