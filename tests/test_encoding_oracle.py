"""Each op's encoding width against LLVM's assembler.

For each row of ``isa.OPS`` and each operand class it admits (low and
high registers, an sp or lr base, the edges of each immediate range,
``.w``), one line is read by ``asm.assemble`` and its
``isa.encoding_width`` is compared with the bytes that

    llvm-mc -triple=thumbv7m-none-eabi -show-encoding

encodes the same line in, all lines in one call.  A line that
``llvm-mc`` rejects has no width, so it differs from any width here.

The file is skipped when ``llvm-mc`` is not on ``PATH``; nothing else
in the suite needs it.  Each test records the installed version as its
``llvm_mc`` property (``--junitxml``).  Every difference is pinned, in
``PINNED``, as ``xfail(strict=True)`` with its reason, so that a line
fails once its difference is fixed; the pins were found with LLVM
14.0.6.
"""

import re
import shutil
import subprocess

import pytest

from watchstack.asm import assemble
from watchstack.isa import OPS, encoding_width

LLVM_MC = shutil.which("llvm-mc")
TRIPLE = "thumbv7m-none-eabi"

pytestmark = pytest.mark.skipif(LLVM_MC is None,
                                reason="llvm-mc is not on PATH")

# One op's operand classes a row, split at "|"; branches go to "lbl".
LINES = [line.strip() for row in """\
movw r0, #0 | movw r8, #0xffff | movt r0, #0 | movt lr, #0xffff
mov r0, #0 | mov r7, #255 | mov r0, #256 | mov r0, #0x115 | mov r8, #1
mov r0, #0xffffffff | mov r0, #0x12345678 | mov lr, #1 | mov.w r0, #5
mov r0, r1 | mov r8, r9 | mov lr, sp | mov.w r0, r1
ldr r0, [r1] | ldr r0, [r1, #124] | ldr r0, [r1, #128] | ldr r0, [r1, #2]
ldr r0, [r1, #4095] | ldr r8, [r1, #4] | ldr r0, [r8, #4] | ldr r0, [lr]
ldr r0, [sp] | ldr r0, [sp, #8] | ldr r0, [sp, #1020] | ldr r0, [sp, #1024]
ldr r0, [sp, #2] | ldr lr, [sp, #4] | ldr.w r0, [r1, #4]
str r0, [r1] | str r0, [r1, #124] | str r0, [r1, #128] | str r0, [r1, #4095]
str r8, [r1, #4] | str r0, [sp, #8] | str r0, [sp, #1020] | str lr, [sp]
str.w r0, [r1, #4]
ldrb r0, [r1] | ldrb r0, [r1, #31] | ldrb r0, [r1, #32] | ldrb r8, [r1]
ldrb r0, [r1, #4095] | ldrb r0, [sp, #4] | ldrb.w r0, [r1]
strb r0, [r1, #31] | strb r0, [r1, #32] | strb r8, [r1] | strb r0, [sp, #4]
strb.w r0, [r1]
push {r4} | push {r4, r5, r6, r7, lr} | push {lr} | push {r8}
push {r4, r8, lr}
pop {r4} | pop {r4, pc} | pop {pc} | pop {lr} | pop {r8} | pop {r4, r8, pc}
add sp, #0 | add sp, #508 | add sp, #512 | add sp, #4092
sub sp, #12 | sub sp, #508 | sub sp, #512 | sub sp, #4092
addw r0, r1, #0 | addw r8, r9, #4095 | subw r0, r1, #0 | subw r8, r9, #4095
cmp r0, #0 | cmp r7, #255 | cmp r0, #256 | cmp r1, #0x115 | cmp r0, #4095
cmp r8, #1 | cmp r0, r1 | cmp r8, r9 | cmp r0, r8
b lbl | beq lbl | bne lbl | blt lbl | bge lbl | bl lbl
bx lr | bx r0 | blx r3 | blx lr | msr control, r0 | mrs r0, control | nop
svc #0 | svc #255 | bkpt #0 | bkpt #255 | udf #0 | udf #255
""".splitlines() for line in row.split("|")]

# Why a line's width differs from llvm-mc's.
PINNED = {
    **dict.fromkeys(("mov r0, #0", "mov r7, #255"), (
        "narrow mov rd, #imm: its 16-bit encoding is movs, which sets N "
        "and Z, so llvm-mc encodes mov.w")),
    **dict.fromkeys(("ldr r0, [sp]", "ldr r0, [sp, #8]", "ldr r0, [sp, #1020]",
                     "str r0, [sp, #8]", "str r0, [sp, #1020]"), (
        "ldr/str rt, [sp, #imm] has a 16-bit encoding for a low rt and a "
        "word-aligned imm up to 1,020; _narrow makes an sp base wide")),
    **dict.fromkeys(("cmp r1, #0x115", "cmp r0, #4095"), (
        "cmp rn, #imm past 255 is cmp.w, which takes a modified immediate "
        "(Arm DDI 0403); asm accepts any value up to 4,095, and llvm-mc "
        "rejects this one")),
    "mov r0, #0x12345678": (
        "mov rd, #imm is mov.w, which takes a modified immediate, or "
        "movw, 16 bits; asm accepts any 32-bit value, and llvm-mc rejects "
        "this one"),
}


@pytest.fixture(scope="module")
def llvm_mc_version():
    out = subprocess.run([LLVM_MC, "--version"], capture_output=True,
                         text=True, check=True).stdout
    return re.search(r"LLVM version (\S+)", out).group(1)


@pytest.fixture(scope="module")
def llvm_widths():
    """Each line -> the bytes llvm-mc encodes it in, or None if it
    rejects the line.  The lines go in as one file, with the branch
    label bound after them; a rejected line prints no encoding."""
    out = subprocess.run([LLVM_MC, "-triple=" + TRIPLE, "-show-encoding"],
                         input="\n".join(LINES) + "\nlbl:\n",
                         capture_output=True, text=True)
    rejected = {int(n) for n in re.findall(r"^<stdin>:(\d+):\d+: error:",
                                           out.stderr, re.MULTILINE)}
    encodings = iter(re.findall(r"@ encoding: \[([^\]]*)\]", out.stdout))
    widths = {line: None if n in rejected else len(next(encodings).split(","))
              for n, line in enumerate(LINES, 1)}
    assert next(encodings, None) is None, out.stdout
    return widths


def test_every_op_has_a_line():
    assert {assemble(line).op for line in LINES} == set(OPS)
    assert PINNED.keys() <= set(LINES)


@pytest.mark.parametrize("line", [pytest.param(line, marks=pytest.mark.xfail(
    strict=True, reason=PINNED[line]) if line in PINNED else ())
    for line in LINES])
def test_width_matches_llvm_mc(line, llvm_widths, llvm_mc_version,
                               record_property):
    record_property("llvm_mc", llvm_mc_version)
    assert encoding_width(assemble(line)) == llvm_widths[line], line
