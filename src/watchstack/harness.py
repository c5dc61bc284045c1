"""Program generators, each returning assembler source.

``watchstack bench`` measures ``microbenchmark_program`` when given no
input; the benchmark runs ``recursion_program``, ``sweep_program`` and
the seeded call trees of ``make_benign_program``.
"""

from __future__ import annotations

import random

SCRATCH_BASE = 0x20010000


def _halves(addr: int) -> tuple[int, int]:
    return addr & 0xFFFF, (addr >> 16) & 0xFFFF


# -- microbenchmark ----------------------------------------------------------

def microbenchmark_program() -> str:
    """One call into a function that leaves no GPR free.

    With every register live in the body, the pass has to spill its
    scratches, so the measured prologue and epilogue include the full
    reservation cost.
    """
    return """\
.org 0x08000000
.func main hal
    bl bench
    bkpt #0
.endfunc
.func bench
    push {r7, lr}
    mov r0, #1
    mov r1, #2
    mov r2, #3
    mov r3, #4
    mov r4, #5
    mov r5, #6
    mov r6, #7
    mov r8, #9
    mov r9, #10
    mov r10, #11
    mov r11, #12
    mov r12, #13
    pop {r7, pc}
.endfunc
"""


# -- capacity -----------------------------------------------------------------

def recursion_program(depth: int) -> str:
    """rec(d) recurses d-1 times; exactly d protected returns total."""
    return """\
.org 0x08000000
.func main hal
    movw r0, #%d
    bl rec
    bkpt #0
.endfunc
.func rec
    push {r7, lr}
    cmp r0, #2
    blt rec_done
    subw r0, r0, #1
    bl rec
.label rec_done
    pop {r7, pc}
.endfunc
""" % depth


# -- exhaustive write sweep ---------------------------------------------------

def sweep_program(lo: int, hi: int) -> str:
    """Byte-store loop over [lo, hi); flags nothing, just writes 0x5a."""
    lo_l, lo_h = _halves(lo)
    hi_l, hi_h = _halves(hi)
    return """\
.org 0x08000000
.func main hal
    movw r0, #0x%04x
    movt r0, #0x%04x
    movw r1, #0x%04x
    movt r1, #0x%04x
    mov r2, #0x5a
.label sweep
    strb r2, [r0]
    addw r0, r0, #1
    cmp r0, r1
    bne sweep
    bkpt #0
.endfunc
""" % (lo_l, lo_h, hi_l, hi_h)


# -- randomized program generators --------------------------------------------

def make_benign_program(rng: random.Random, n_funcs: int = 6) -> str:
    """Benign call tree: functions call only higher-numbered functions.

    No register is live across a call and every conditional branch sits
    right after its compare, so the pass's freedom to clobber body-free
    registers cannot change observable behavior.  Results travel through
    memory: each function stores its r0 result to a private slot.
    """
    lines = [".org 0x08000000", ".func main hal"]
    lines.append("    bl f0")
    slot = _halves(SCRATCH_BASE + 4 * n_funcs)
    lines += ["    movw r4, #0x%04x" % slot[0],
              "    movt r4, #0x%04x" % slot[1],
              "    str r0, [r4]"]
    for r in range(1, 13):
        lines.append("    mov r%d, #%d" % (r, rng.randrange(1, 200)))
    lines.append("    bkpt #0")
    lines.append(".endfunc")

    label_n = 0
    for i in range(n_funcs):
        callees = list(range(i + 1, n_funcs))
        rng.shuffle(callees)
        calls = callees[: rng.randint(0, min(3, len(callees)))]
        leaf = not calls and rng.random() < 0.5
        saved = sorted(rng.sample([4, 5, 6, 7], rng.randint(0, 2)))
        lines.append(".func f%d" % i)
        if not leaf:
            lines.append("    push {%s}" % ", ".join(
                ["r%d" % r for r in saved] + ["lr"]))
        regs = rng.sample(range(0, 12), rng.randint(1, 6))
        acc = regs[0]
        lines.append("    mov r%d, #%d" % (acc, rng.randrange(1, 250)))
        for r in regs[1:]:
            lines.append("    mov r%d, #%d" % (r, rng.randrange(1, 250)))
            op = rng.choice(["addw", "subw"])
            lines.append("    %s r%d, r%d, #%d"
                         % (op, r, r, rng.randrange(0, 100)))
        if rng.random() < 0.5:
            label = "sk%d" % label_n
            label_n += 1
            lines.append("    cmp r%d, #%d" % (acc, rng.randrange(0, 300)))
            lines.append("    %s %s" % (rng.choice(["beq", "bne", "blt", "bge"]),
                                        label))
            lines.append("    addw r%d, r%d, #1" % (acc, acc))
            lines.append("    .label %s" % label)
        # Store own partial result before any call; nothing stays live.
        own = _halves(SCRATCH_BASE + 4 * i)
        lines += ["    movw r1, #0x%04x" % own[0],
                  "    movt r1, #0x%04x" % own[1],
                  "    str r%d, [r1]" % acc]
        for j, callee in enumerate(calls):
            lines.append("    bl f%d" % callee)
            dst = _halves(SCRATCH_BASE + 0x100 + 4 * (i * 8 + j))
            lines += ["    movw r1, #0x%04x" % dst[0],
                      "    movt r1, #0x%04x" % dst[1],
                      "    str r0, [r1]"]
        lines.append("    mov r0, #%d" % rng.randrange(1, 250))
        if leaf:
            lines.append("    bx lr")
        else:
            lines.append("    pop {%s}" % ", ".join(
                ["r%d" % r for r in saved] + ["pc"]))
        lines.append(".endfunc")
    return "\n".join(lines) + "\n"
