"""Attack scenarios, microbenchmarks, and program generators.

The flagship program transcribes a classic overflow victim: ``main``
calls ``foo``, which passes an attacker-controlled string and a data
pointer to ``bar``; ``bar`` strcpy's the string into a 6-byte stack
buffer and then writes one byte through the pointer.  Overflowing the
buffer overwrites ``bar``'s stacked return address with the address of
``baz``, a function the program never calls legitimately.  The second
scenario aims the data pointer directly at a shadow stack entry.

The attacker payload is baked into a ``.word`` data block; the overflow
works byte-wise like strcpy, so the payload relies on the victim and
target sharing the upper address bytes (both sit in the same flash
window) and needs only the low bytes of the target address to be
nonzero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .asm import AsmProgram, parse
from .dwt import (DWT_COMP1, DWT_COMP_BASE, DWT_COMP_OFF, DWT_FUNCTION0,
                  DWT_FUNCTION_OFF, DWT_GROUP_STRIDE, DWT_MASK_OFF)
from .exception_model import (ESF_OFF_LR, ESF_OFF_R12, ESF_OFF_RETURN,
                              ESF_OFF_XPSR, SYSTICK)
from .instrument import SEQ_OPTIMAL, ShadowStackConfig, instrument_program
from .machine import DEMCR_ADDR, HaltReason
from .protect import POLICY_REPORT, POLICY_RESET
from .runner import RunConfig, RunResult, run_program

INPUT_ADDR = 0x20000000
PTR1_BENIGN = 0x20001000
SAFE_FLAG = 0x20002000
VIOLATION_FLAG = 0x20002004
EXC_FLAGS = 0x20003000  # z-preserved word, then r12, then lr
SCRATCH_BASE = 0x20010000

# bar's frame: 12 bytes of locals below the saved {r7, lr} pair, buffer
# at the bottom.  Four filler words put the payload word exactly on the
# stacked return address.
HIJACK_FILLER_WORDS = 4

BENIGN_INPUT_WORD = 0x00004948  # "HI\0"


def _halves(addr: int) -> tuple[int, int]:
    return addr & 0xFFFF, (addr >> 16) & 0xFFFF


def attack_program(ptr1: int = PTR1_BENIGN, filler_words: int = 0,
                   benign: bool = True) -> str:
    """Victim program source; payload selected by the arguments."""
    in_lo, in_hi = _halves(INPUT_ADDR)
    p1_lo, p1_hi = _halves(ptr1)
    sf_lo, sf_hi = _halves(SAFE_FLAG)
    vf_lo, vf_hi = _halves(VIOLATION_FLAG)
    if benign:
        payload = [".word 0x%08x" % BENIGN_INPUT_WORD]
    else:
        payload = [".word 0x01010101"] * filler_words
        payload += [".word baz", ".word 0x00000000"]
    return """\
.org 0x08000000
.func main hal
    bl foo
    bkpt #0
.endfunc
.func foo
    push {r7, lr}
    movw r0, #0x%04x
    movt r0, #0x%04x
    movw r1, #0x%04x
    movt r1, #0x%04x
    bl bar
    movw r2, #0x%04x
    movt r2, #0x%04x
    mov r3, #1
    str r3, [r2]
    pop {r7, pc}
.endfunc
.func bar
    push {r7, lr}
    sub sp, #12
    mov r2, sp
.label copy_loop
    ldrb r3, [r0]
    strb r3, [r2]
    addw r0, r0, #1
    addw r2, r2, #1
    cmp r3, #0
    bne copy_loop
    str r1, [sp, #8]
    ldrb r3, [sp]
    ldr r2, [sp, #8]
    str r3, [r2]
    add sp, #12
    pop {r7, pc}
.endfunc
.func baz
    movw r2, #0x%04x
    movt r2, #0x%04x
    mov r3, #1
    str r3, [r2]
    bkpt #1
.endfunc
.org 0x20000000
.label user_input
%s
""" % (in_lo, in_hi, p1_lo, p1_hi, sf_lo, sf_hi, vf_lo, vf_hi,
       "\n".join(payload))


def _prepare(text: str, protected: bool,
             shadow: ShadowStackConfig) -> AsmProgram:
    prog = parse(text)
    if protected:
        prog = instrument_program(prog, shadow).program
    return prog


def run_scenario_1(protected: bool, benign: bool = False,
                   filler_words: int = HIJACK_FILLER_WORDS) -> RunResult:
    """Stack overflow aimed at the stacked return address."""
    shadow = ShadowStackConfig()
    text = attack_program(ptr1=PTR1_BENIGN, filler_words=filler_words,
                          benign=benign)
    prog = _prepare(text, protected, shadow)
    baz = prog.functions["baz"].entry
    if baz & 0xFF == 0:
        raise AssertionError("baz landed on a zero low byte; adjust layout")
    cfg = RunConfig(protected=protected, shadow=shadow, max_steps=100_000)
    return run_program(prog, cfg)


def run_scenario_2(policy: str = POLICY_RESET,
                   target: str = "live") -> RunResult:
    """Direct write through a data pointer aimed at the shadow stack.

    target: "live" hits the newest return-address entry, "unused" an
    empty slot in the middle of the region, "outside" a RAM word past
    the region (a benign write that must not trap).
    """
    shadow = ShadowStackConfig()
    if target == "live":
        ptr1 = shadow.ss_start + 4  # bar's own entry; foo's sits at +0
    elif target == "unused":
        ptr1 = shadow.ss_start + shadow.ss_size // 2
    elif target == "outside":
        ptr1 = shadow.ss_limit + 0x100
    else:
        raise ValueError(target)
    text = attack_program(ptr1=ptr1, benign=True)
    prog = _prepare(text, True, shadow)
    cfg = RunConfig(protected=True, policy=policy, shadow=shadow,
                    max_steps=100_000)
    return run_program(prog, cfg)


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


def run_microbenchmark(sequence: str = SEQ_OPTIMAL) -> RunResult:
    shadow = ShadowStackConfig(sequence=sequence)
    prog = _prepare(microbenchmark_program(), True, shadow)
    cfg = RunConfig(protected=True, shadow=shadow, max_steps=10_000)
    return run_program(prog, cfg)


# -- exception round trip -----------------------------------------------------

_TAMPER_OFFSETS = {"r12": 8 + ESF_OFF_R12, "lr": 8 + ESF_OFF_LR,
                   "ret": 8 + ESF_OFF_RETURN, "xpsr": 8 + ESF_OFF_XPSR}


def exception_program(tamper: str | None = None) -> str:
    """Usage-fault round trip with optional frame tampering.

    The trigger primes r12, lr, and the Z flag, faults, and afterwards
    stores what survived to a flag block.  The handler pushes {r7, lr},
    so the stacked frame sits 8 bytes up from its sp; the tamper write
    aims at one protected frame word through that offset.
    """
    if tamper is None:
        body = ["    nop"]
    else:
        off = _TAMPER_OFFSETS[tamper]
        value = 0 if tamper == "xpsr" else 0xDEADBEEF
        lo, hi = _halves(value)
        body = [
            "    movw r3, #0x%04x" % lo,
            "    movt r3, #0x%04x" % hi,
            "    str.w r3, [sp, #%d]" % off,
        ]
    fl_lo, fl_hi = _halves(EXC_FLAGS)
    return """\
.org 0x08000000
.func main hal
    bl trigger
    bkpt #0
.endfunc
.func trigger
    push {r7, lr}
    movw r12, #0x3412
    movt r12, #0x7856
    mov r0, #7
    cmp r0, #7
    udf #0
    beq z_ok
    mov r1, #0
    b z_done
.label z_ok
    mov r1, #1
.label z_done
    movw r2, #0x%04x
    movt r2, #0x%04x
    str r1, [r2]
    str.w r12, [r2, #4]
    str.w lr, [r2, #8]
    pop {r7, pc}
.endfunc
.func usagefault_handler handler
    push {r7, lr}
%s
    pop {r7, pc}
.endfunc
""" % (fl_lo, fl_hi, "\n".join(body))


@dataclass
class ExceptionRoundTrip:
    run: RunResult
    z_preserved: bool
    r12_value: int
    lr_value: int
    resumed: bool  # reached the post-fault flag stores and finished


def run_exception_test(tamper: str | None = None,
                       protected: bool = True) -> ExceptionRoundTrip:
    """Instrumented round trip; tamper names a frame word (r12/lr/ret/xpsr)."""
    shadow = ShadowStackConfig()
    prog = _prepare(exception_program(tamper), True, shadow)
    cfg = RunConfig(protected=protected, shadow=shadow, max_steps=50_000)
    run = run_program(prog, cfg)
    mem = run.machine.mem
    return ExceptionRoundTrip(
        run=run,
        z_preserved=mem.read_word(EXC_FLAGS) == 1,
        r12_value=mem.read_word(EXC_FLAGS + 4),
        lr_value=mem.read_word(EXC_FLAGS + 8),
        resumed=run.halt_reason == HaltReason.NORMAL,
    )


def preinit_exception_program() -> str:
    """Instrumented SysTick handler, nothing else instrumented."""
    return """\
.org 0x08000000
.func main hal
    mov r0, #0
    mov r1, #0
    mov r2, #0
    mov r3, #0
    mov r4, #0
    mov r5, #0
    mov r6, #0
    mov r0, #1
    bkpt #0
.endfunc
.func systick_handler handler
    push {r7, lr}
    mov r7, #1
    pop {r7, pc}
.endfunc
"""


def run_preinit_exception() -> dict:
    """Fire SysTick at step 4, before anyone armed the protection.

    The handler's enable check reads a zero DEMCR and skips the frame
    copy, so the shadow region stays untouched and nothing traps.
    """
    shadow = ShadowStackConfig()
    prog = _prepare(preinit_exception_program(), True, shadow)
    cfg = RunConfig(protected=False, shadow=shadow, raises=((SYSTICK, 4),),
                    max_steps=10_000)
    run = run_program(prog, cfg)
    m = run.machine
    shadow_bytes = m.mem.read_region(shadow.ss_start, 256)
    return {
        "run": run,
        "resumed": run.halt_reason == HaltReason.NORMAL,
        "handler_ran_once":
            m.retired.get(prog.functions["systick_handler"].entry, 0) == 1,
        "shadow_untouched": shadow_bytes == bytes(256),
        "ssp_unchanged": m.dwt.groups[1].comp == 0,
        "violations": run.violations,
    }


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


def run_recursion(depth: int,
                  shadow: ShadowStackConfig | None = None) -> RunResult:
    shadow = shadow or ShadowStackConfig()
    prog = _prepare(recursion_program(depth), True, shadow)
    cfg = RunConfig(protected=True, shadow=shadow)
    return run_program(prog, cfg)


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


def run_write_sweep(margin: int = 1024,
                    shadow: ShadowStackConfig | None = None) -> RunResult:
    """Probe every byte of the shadow region plus a margin on both sides."""
    shadow = shadow or ShadowStackConfig()
    lo = shadow.ss_start - margin
    hi = shadow.ss_limit + margin
    prog = parse(sweep_program(lo, hi))
    cfg = RunConfig(protected=True, policy=POLICY_REPORT, shadow=shadow,
                    max_steps=6 * (hi - lo) + 1000)
    return run_program(prog, cfg)


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


_FUZZ_TARGETS = (
    DEMCR_ADDR,  # the monitor-enable word itself
    DEMCR_ADDR, DEMCR_ADDR,
    DEMCR_ADDR + 2, DEMCR_ADDR - 4,
    # comparator group 2 and group 3 registers
    *(DWT_COMP_BASE + gid * DWT_GROUP_STRIDE + off for gid in (2, 3)
      for off in (DWT_COMP_OFF, DWT_MASK_OFF, DWT_FUNCTION_OFF)),
    # Program-writable by design: one store of 0 disarms the
    # shadow-region trap (ROADMAP item 6).
    DWT_FUNCTION0,
    DWT_COMP1,  # shadow stack pointer
    0x20020000, 0x20020100,
)


def make_demcr_fuzz_program(rng: random.Random) -> str:
    """Random store salvo biased at DEMCR and the registers guarding it."""
    lines = [".org 0x08000000", ".func main hal"]
    for _ in range(rng.randint(10, 40)):
        kind = rng.random()
        base = rng.randrange(0, 4)
        if kind < 0.55:
            addr = rng.choice(_FUZZ_TARGETS)
            if rng.random() < 0.3:
                addr = (addr + rng.choice((-4, -2, 2, 4))) & 0xFFFFFFFF
            lo, hi = _halves(addr & ~3)
            val = rng.choice((0, 0xFFFFFFFF, 1 << 16, 0xFFFEFFFF,
                              rng.getrandbits(32)))
            vlo, vhi = _halves(val)
            lines += ["    movw r%d, #0x%04x" % (base, lo),
                      "    movt r%d, #0x%04x" % (base, hi),
                      "    movw r5, #0x%04x" % vlo,
                      "    movt r5, #0x%04x" % vhi]
            if rng.random() < 0.2:
                lines.append("    strb r5, [r%d]" % base)
            else:
                lines.append("    str r5, [r%d]" % base)
        elif kind < 0.8:
            # read-modify-write against the enable word
            lo, hi = _halves(DEMCR_ADDR)
            lines += ["    movw r%d, #0x%04x" % (base, lo),
                      "    movt r%d, #0x%04x" % (base, hi),
                      "    ldr r6, [r%d]" % base,
                      "    subw r6, r6, #%d" % rng.randrange(0, 4096),
                      "    str r6, [r%d]" % base]
        else:
            lines.append("    mov r%d, #%d" % (base, rng.randrange(0, 255)))
    lines += ["    bkpt #0", ".endfunc"]
    return "\n".join(lines) + "\n"
