"""``Machine`` against ``reference_isa``, an independent interpreter.

Each test builds a machine and a reference core in the same state, steps
them side by side and compares the whole state after every step:
r0-r12, sp, lr, pc, xPSR, CONTROL, mode, pending exceptions, steps,
cycles, the halt, the event log, the violation records, the comparator
registers (``DwtUnit.regs``, and ``DwtUnit.groups`` at boot and at the
end), DEMCR, and the RAM bytes each step stored.  Memory is also
compared whole at the end of a run.

The machine steps with ``Machine.step()``, which runs the one retire
body that ``Machine.run()`` runs too (``tests/test_run_differential.py``
holds ``run()`` and the compiled blocks to ``step()``).  The compiled
blocks are also held to the reference directly: a few programs run
through ``Machine.run()`` with every block compiled, and the state is
compared at each compiled block's exit.  The runs cover a hypothesis
test per ``isa.OPS`` row, the shipped programs, the scenarios of
``tests/programs.py``, generated programs and, compiled, the flag pairs
program of ``tests/test_run_differential.py``; the reference is pinned
by a few vectors computed by hand from the pseudocode.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_isa as ref
from programs import (attack_program, exception_program,
                      make_demcr_fuzz_program, preinit_exception_program)
from test_run_differential import FLAG_PAIRS_PROGRAM
from watchstack import blocks
from watchstack.asm import parse
from watchstack.dwt import (DWT_COMP0, DWT_COMP1, DWT_CYCCNT, DWT_FUNCTION0,
                            DWT_MASK0)
from watchstack.harness import (make_benign_program, microbenchmark_program,
                                recursion_program, sweep_program)
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL, ShadowStackConfig,
                                   instrument_program)
from watchstack.isa import CONDITIONS, LR, MASK32, OPS, PC, SP, Instr, finalize
from watchstack.machine import DEMCR_ADDR, Machine
from watchstack.protect import (POLICY_REPORT, POLICY_RESET,
                                attach_debug_system, init_write_protection)
from watchstack.runner import RunConfig, build_machine

ROOT = Path(__file__).resolve().parent.parent
SHADOW = ShadowStackConfig()
SYSTICK = 15


# -- lockstep ---------------------------------------------------------------

FIELDS = ("registers", "xpsr", "control", "mode", "pending", "steps",
          "cycles", "halt", "comparators", "demcr")


def machine_state(m: Machine, groups: bool) -> tuple:
    """The machine's state in FIELDS order.  The comparators are the
    unit's register words, or, with ``groups``, ``DwtUnit.groups``."""
    return (m.gpr + [m.sp, m.lr, m.pc], m.xpsr, m.control, m.mode,
            m.pending, m.steps, m.cycles,
            m.halt_reason.value if m.halted else None,
            [v for g in m.dwt.groups for v in (g.comp, g.mask, g.function)]
            if groups else m.dwt.regs, m.demcr.value)


def core_state(c: ref.Core) -> tuple:
    return (c.R, c.xpsr, c.control, c.mode, c.pending, c.steps, c.cycles,
            c.halt, c.dwt, c.demcr)


class Lockstep:
    """A machine and a reference core, compared after every step."""

    def __init__(self, m: Machine, core: ref.Core, label: str) -> None:
        self.m, self.core, self.label = m, core, label
        self.pages = {a >> 12 for a in core.mem}
        self.events = self.records = 0
        self.check("boot", groups=True)

    def fail(self, where: str, what: str, got, want):
        pytest.fail("%s, %s: %s is %r, the reference has %r"
                    % (self.label, where, what, got, want))

    def check(self, where: str, groups: bool = False) -> None:
        m, core = self.m, self.core
        got, want = machine_state(m, groups), core_state(core)
        if got != want:
            for name, g, w in zip(FIELDS, got, want):
                if g != w:
                    self.fail(where, name, g, w)
        if len(m.events) != self.events or len(core.events) != self.events:
            events = [(e.kind, e.at_pc, e.exc_id,
                       e.reason and e.reason.value)
                      for e in m.events[self.events:]]
            if events != core.events[self.events:]:
                self.fail(where, "the new events", events,
                          core.events[self.events:])
            self.events = len(core.events)
        log = m.guard.records if m.guard is not None else []
        if len(log) != self.records or len(core.records) != self.records:
            records = [(v.step_index, v.pc, v.data_address, v.comparator_id,
                        v.suppressed_value, v.size, v.access)
                       for v in log[self.records:]]
            if records != core.records[self.records:]:
                self.fail(where, "the new violation records", records,
                          core.records[self.records:])
            self.records = len(core.records)
        for address, byte in core.stored.items():
            if m.mem.read_byte(address) != byte:
                self.fail(where, "the byte at %#x" % address,
                          m.mem.read_byte(address), byte)
        if core.stored:
            self.pages |= {a >> 12 for a in core.stored}
        if m.mem.pages.keys() != self.pages:
            self.fail(where, "the RAM pages", sorted(m.mem.pages),
                      sorted(self.pages))

    def step(self) -> None:
        where = "step %d at %#x" % (self.m.steps, self.m.pc)
        self.m.step()
        ref.step(self.core)
        self.check(where)

    def check_memory(self) -> None:
        """The whole state, with the comparators as ``DwtUnit.groups``,
        and every byte of memory."""
        self.check("the end", groups=True)
        want = {}
        for address, byte in self.core.mem.items():
            want.setdefault(address >> 12, bytearray(4096))[
                address & 0xFFF] = byte
        pages = self.m.mem.pages
        for base in sorted(set(want) | set(pages)):
            got = bytes(pages.get(base, bytes(4096)))
            page = bytes(want.get(base, bytes(4096)))
            if got != page:
                at = next(i for i in range(4096) if got[i] != page[i])
                self.fail("the end", "the byte at %#x" % ((base << 12) + at),
                          got[at], page[at])


def boot(prog, cfg: RunConfig, label: str) -> Lockstep:
    """The runner's machine for ``prog`` and a reference core that boots
    the same way: code, data, sp, pc, handlers and, if asked, protection."""
    m = build_machine(prog, cfg)
    core = ref.Core(dict(prog.code), dict(m.vector))
    for address, value in prog.data:
        core.write_word(address, value)
    core.R[SP] = cfg.initial_sp
    core.R[PC] = prog.entry_address()
    if cfg.protected:
        core.arm(cfg.shadow.ss_start, cfg.shadow.ss_size_log2, cfg.policy)
    return Lockstep(m, core, label)


def lockstep(prog, cfg: RunConfig, label: str) -> ref.Core:
    """Run both to a halt or the budget, raising as the runner does: an
    exception scheduled at step n is raised once n steps have run."""
    pair = boot(prog, cfg, label)
    raises = sorted(cfg.raises, key=lambda t: t[1])
    while pair.core.halt is None and pair.core.steps < cfg.max_steps:
        while raises and raises[0][1] <= pair.core.steps:
            exc_id, _ = raises.pop(0)
            pair.m.raise_exception(exc_id)
            pair.core.pending.append(exc_id)
        pair.step()
    pair.check_memory()
    return pair.core


def _cfg(protected: bool = True, policy: str = POLICY_RESET, raises=(),
         max_steps: int = 20_000, shadow=SHADOW) -> RunConfig:
    return RunConfig(protected=protected, policy=policy, shadow=shadow,
                     raises=tuple(raises), max_steps=max_steps)


def _instrumented(text: str, shadow=SHADOW):
    return instrument_program(parse(text), shadow).program


# -- the pseudocode by hand --------------------------------------------------

def _one(ins: Instr, **regs) -> ref.Core:
    """A reference core that has run ``ins`` at 0x08000000 once."""
    ins = ins.replace(width=ins.width or 2, cycles=1, target=0x08000100)
    core = ref.Core({0x08000000: ins}, {})
    core.R[PC] = 0x08000000
    for name, value in regs.items():
        core.R[{"sp": SP, "lr": LR}.get(name) or int(name[1:])] = value
    ref.step(core)
    return core


def _flags(core: ref.Core) -> str:
    return "".join(f if core.xpsr >> bit & 1 else "-"
                   for f, bit in zip("NZCV", (31, 30, 29, 28)))


@pytest.mark.parametrize("a, b, flags", [
    (0x80000000, 1, "--CV"),   # most negative minus one overflows
    (7, 7, "-ZC-"),            # equal: no borrow, so C is set
    (0, 1, "N---"),            # a borrow clears C
    (0x7FFFFFFF, 0xFFFFFFFF, "N--V"),  # max positive minus -1
    (0xFFFFFFFE, 0x7FFFFFFF, "--CV"),  # -2 minus max positive
    (5, 3, "--C-"),
])
def test_cmp_sets_the_flags_of_add_with_carry(a, b, flags):
    core = _one(Instr("cmp_reg", rn=0, rm=1), r0=a, r1=b)
    assert _flags(core) == flags


@pytest.mark.parametrize("cond, nzcv, passed", [
    ("eq", 0b0100, True), ("eq", 0b1011, False),
    ("ne", 0b0100, False), ("ne", 0b1011, True),
    ("lt", 0b1000, True), ("lt", 0b0001, True), ("lt", 0b1001, False),
    ("ge", 0b1001, True), ("ge", 0b0000, True), ("ge", 0b0001, False)])
def test_conditions_read_the_flags(cond, nzcv, passed):
    core = ref.Core({}, {})
    core.xpsr = nzcv << 28
    assert ref.condition_passed(core, cond) == passed


def test_blx_lr_branches_to_the_old_lr():
    core = _one(Instr("blx", rm=LR), lr=0x08000041)
    assert core.R[PC] == 0x08000041
    assert core.R[LR] == 0x08000002  # the instruction after the blx


def test_push_puts_the_lowest_register_at_the_lowest_address():
    core = _one(Instr("push", reglist=(1, 7, LR)), r1=11, r7=77, lr=0x99,
                sp=0x20001000)
    assert core.R[SP] == 0x20000FF4
    assert [ref.load(core, 0x20000FF4 + 4 * i, 4) for i in range(3)] == [
        11, 77, 0x99]


def test_exception_entry_stacks_eight_words_and_return_restores_xpsr():
    core = ref.Core({}, {SYSTICK: 0x08000200})
    core.R[:4] = [1, 2, 3, 4]
    core.R[12], core.R[LR], core.R[SP] = 12, 0x0800_0011, 0x20001000
    core.R[PC], core.xpsr = 0x08000040, 0x6000_0000
    core.pending.append(SYSTICK)
    ref.step(core)
    assert core.R[SP] == 0x20000FE0 and core.R[LR] == ref.EXC_RETURN
    assert [ref.load(core, 0x20000FE0 + 4 * i, 4) for i in range(8)] == [
        1, 2, 3, 4, 12, 0x08000011, 0x08000040, 0x60000000]
    assert core.xpsr == 0x6000_000F and core.cycles == 12
    ref.exception_return(core, ref.EXC_RETURN)
    assert core.xpsr == 0x6000_0000 and core.R[PC] == 0x08000040
    assert core.events[-1] == ("exception_returned", 0x08000040, SYSTICK,
                               None)


def test_the_monitor_suppresses_a_hit_store_and_names_the_comparator():
    core = ref.Core({}, {})
    core.arm(SHADOW.ss_start, SHADOW.ss_size_log2, "report")
    ref.store(core, SHADOW.ss_start + 8, 1, 0x5A)
    ref.store(core, DEMCR_ADDR + 2, 1, 0)
    assert core.mem == {} and core.demcr & ref.MON_EN
    assert [r[2:4] for r in core.records] == [(SHADOW.ss_start + 8, 0),
                                              (DEMCR_ADDR + 2, 2)]
    ref.store(core, DWT_COMP1, 4, SHADOW.ss_limit)  # the span is closed
    assert core.halt is None
    ref.store(core, DWT_COMP1, 4, SHADOW.ss_limit + 4)
    assert core.halt == "stack_overflow"


# -- one step of each op, from random states ---------------------------------

EDGES = (0, 1, 2, 7, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF,
         ref.EXC_RETURN, 0xFFFFFFF1, 0xF0000000, SHADOW.ss_start,
         SHADOW.ss_start + 4, SHADOW.ss_limit - 4, SHADOW.ss_limit,
         DEMCR_ADDR, DWT_COMP0, DWT_MASK0, DWT_FUNCTION0, DWT_COMP1,
         DWT_CYCCNT, 0xE0000FFC, 0x20000000, 0x08000000)
WORDS = st.one_of(st.sampled_from(EDGES), st.integers(0, MASK32))


def _registers(b: bytes) -> list:
    """Fifteen register values from 75 bytes, five each: a first byte
    below 128 picks an edge value, else the other four are the value.
    SP[1:0] is zero on ARMv7-M, and no op here can set it."""
    regs = [EDGES[b[i] % len(EDGES)] if b[i] < 128
            else int.from_bytes(b[i + 1:i + 5], "little")
            for i in range(0, 75, 5)]
    regs[SP] &= ~3
    return regs


LOW = st.integers(0, 12)
LOW_LR = st.sampled_from([*range(13), LR])
BASE = st.sampled_from([*range(13), SP, LR])
OFFSET = st.one_of(st.sampled_from((0, 1, 2, 3, 4, 8)), st.integers(0, 4095))
CODE = 0x08000000
TARGET = st.integers(CODE // 2, CODE // 2 + 0x800).map(lambda v: 2 * v)
HANDLERS = {6: 0x08001000, 11: 0x08002000, SYSTICK: 0x08003000}


def _reglist(*high):
    return st.sets(st.sampled_from([*range(13), *high]), min_size=1).map(
        lambda regs: tuple(sorted(regs)))


# Each op's operand fields, over the registers the assembler admits.
OPERANDS = {
    "movw": dict(rd=LOW_LR, imm=st.integers(0, 0xFFFF)),
    "movt": dict(rd=LOW_LR, imm=st.integers(0, 0xFFFF)),
    "mov_imm": dict(rd=LOW_LR, imm=WORDS),
    "mov_reg": dict(rd=LOW_LR, rm=BASE),
    "ldr": dict(rd=LOW_LR, rn=BASE, imm=OFFSET),
    "str": dict(rd=LOW_LR, rn=BASE, imm=OFFSET),
    "ldrb": dict(rd=LOW, rn=BASE, imm=OFFSET),
    "strb": dict(rd=LOW, rn=BASE, imm=OFFSET),
    "push": dict(reglist=_reglist(LR)),
    "pop": dict(reglist=_reglist(LR, PC)),
    "add_sp": dict(imm=st.integers(0, 1023).map(lambda v: 4 * v)),
    "sub_sp": dict(imm=st.integers(0, 1023).map(lambda v: 4 * v)),
    "addw": dict(rd=LOW, rn=LOW, imm=st.integers(0, 4095)),
    "subw": dict(rd=LOW, rn=LOW, imm=st.integers(0, 4095)),
    "cmp_imm": dict(rn=LOW, imm=st.integers(0, 4095)),
    "cmp_reg": dict(rn=LOW, rm=LOW),
    "b": dict(target=TARGET),
    "bcond": dict(cond=st.sampled_from(CONDITIONS), target=TARGET),
    "bl": dict(target=TARGET),
    "bx": dict(rm=LOW_LR),
    "blx": dict(rm=LOW_LR),
    "msr": dict(rn=LOW),
    "mrs": dict(rd=LOW),
    "nop": {},
    "svc": dict(imm=st.integers(0, 255)),
    "bkpt": dict(imm=st.integers(0, 255)),
    "udf": dict(imm=st.integers(0, 255)),
}
# Each op, plus the returns through lr that an operand draw can miss.
CASES = {**{op: (op, OPERANDS[op]) for op in OPS},
         "blx lr": ("blx", dict(rm=st.just(LR))),
         "bx lr": ("bx", dict(rm=st.just(LR))),
         "pop pc": ("pop", dict(reglist=st.just((7, PC))))}


def _instructions(op: str, fields: dict):
    def make(wide, target=0, **operands):
        return finalize(Instr(op, wide=wide, **operands)).replace(
            target=target)
    return st.builds(make, st.booleans(), **fields)


INSTRUCTIONS = {case: _instructions(*CASES[case]) for case in CASES}
# The state the instruction runs in.
STATES = st.fixed_dictionaries({
    "regs": st.binary(min_size=75, max_size=75).map(_registers),
    "xpsr": WORDS,
    "mode": st.sampled_from((ref.THREAD, ref.HANDLER)),
    "control": st.integers(0, 1),
    "pending": st.sampled_from(((), (), (SYSTICK,), (6, SYSTICK))),
    "vector": st.sets(st.sampled_from(sorted(HANDLERS))),
    "policy": st.sampled_from((None, POLICY_RESET, POLICY_REPORT)),
    "function0": st.sampled_from((0, 5, 6, 7)),
    "ssp": st.integers(0, 8).map(lambda k: SHADOW.ss_start + 4 * k),
    "cycles": st.integers(0, 1 << 33),
    "memory": st.integers(0, MASK32),
})


def _pair(ins: Instr, s: dict) -> Lockstep:
    """A bare machine and a reference core, both about to run ``ins`` in
    state ``s``."""
    m = Machine()
    attach_debug_system(m)
    vector = {n: HANDLERS[n] for n in s["vector"]}
    core = ref.Core({CODE: ins}, dict(vector))
    m.code, m.vector = {CODE: ins}, vector
    if s["policy"] is not None:
        init_write_protection(m, SHADOW, s["policy"])
        core.arm(SHADOW.ss_start, SHADOW.ss_size_log2, s["policy"])
    for addr, value in ((DWT_FUNCTION0, s["function0"]),
                        (DWT_COMP1, s["ssp"])):
        m.dwt.mmio_write(m, addr, value)
        ref.device_write(core, addr, value)
    m.gpr, (m.sp, m.lr) = list(s["regs"][:13]), s["regs"][13:]
    core.R[:15] = s["regs"]
    m.pc = core.R[PC] = CODE
    m.xpsr = core.xpsr = s["xpsr"]
    m.mode = core.mode = s["mode"]
    m.control = core.control = s["control"]
    m.pending, core.pending = list(s["pending"]), list(s["pending"])
    m.cycles = core.cycles = s["cycles"]
    # RAM that the step reads: a pop's words or an exception frame from
    # sp up, and a load's word.
    rng = random.Random(s["memory"])
    sp = s["regs"][SP]
    words = [sp + 4 * i for i in range(8)]
    if ins.op in ("ldr", "ldrb"):
        words.append(s["regs"][ins.rn] + ins.imm & ~3)
    for addr in words:
        value = rng.choice((0, ref.EXC_RETURN, CODE + 2, rng.getrandbits(32)))
        m.mem.write_word(addr & MASK32, value)
        core.write_word(addr & MASK32, value)
    return Lockstep(m, core, repr(ins))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_each_op_from_random_states(case, data):
    """One step of the op, then one more: the next fetch finds no
    instruction (a UsageFault) unless the first step halted."""
    pair = _pair(data.draw(INSTRUCTIONS[case]), data.draw(STATES))
    for _ in range(2):
        pair.step()
    pair.check_memory()


# -- programs -----------------------------------------------------------------

def _shipped(name: str) -> str:
    return (ROOT / "programs" / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("at", [None, 6, 8, 20])
@pytest.mark.parametrize("name", ["demo.ws", "scenario1.ws"])
def test_shipped_programs_instrumented_and_protected(name, at):
    raises = () if at is None else ((SYSTICK, at),)
    lockstep(_instrumented(_shipped(name)), _cfg(raises=raises),
             "%s raise@%s" % (name, at))


@pytest.mark.parametrize("at", [6, 8])
def test_the_systick_window_is_closed(at):
    """SysTick raised inside the demo's shadow push (step 6) and just
    after it (step 8) leaves the acceptance-09 outcome: a ``normal``
    halt, no violation record and COMP1 (the comparators' fourth word)
    back at the shadow stack's start."""
    core = lockstep(_instrumented(_shipped("demo.ws")),
                    _cfg(raises=((SYSTICK, at),)), "demo.ws raise@%d" % at)
    assert core.halt == "normal"
    assert core.records == []
    assert core.dwt[3] == SHADOW.ss_start


# Each scenario's (source, instrumented, protected, policy).
SCENARIOS = {
    "scenario 1 hijack, plain": (
        attack_program(filler_words=4, benign=False), False, False, None),
    "scenario 1 hijack": (
        attack_program(filler_words=4, benign=False), True, True, None),
    "scenario 1 benign": (attack_program(), True, True, None),
    **{"scenario 2 %s %s" % (target, policy): (
        attack_program(ptr1=ptr1), True, True, policy)
       for target, ptr1 in (("live", SHADOW.ss_start + 4),
                            ("unused", SHADOW.ss_start + SHADOW.ss_size // 2),
                            ("outside", SHADOW.ss_limit + 0x100))
       for policy in (POLICY_RESET, POLICY_REPORT)},
    **{"exception %s" % tamper: (exception_program(tamper), True, True, None)
       for tamper in (None, "r12", "lr", "ret", "xpsr")},
    # The tampered return address loops through UsageFault to the budget.
    "exception unprotected": (exception_program("ret"), True, False, None),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_harness_scenarios(name):
    text, instrumented, protected, policy = SCENARIOS[name]
    prog = _instrumented(text) if instrumented else parse(text)
    lockstep(prog, _cfg(protected, policy or POLICY_RESET, max_steps=2_000),
             name)


def test_the_preinit_exception():
    lockstep(_instrumented(preinit_exception_program()),
             _cfg(False, raises=((SYSTICK, 4),)), "preinit")


@pytest.mark.parametrize("sequence", [SEQ_OPTIMAL, SEQ_NAIVE])
def test_the_microbenchmark(sequence):
    shadow = ShadowStackConfig(sequence=sequence)
    lockstep(_instrumented(microbenchmark_program(), shadow),
             _cfg(shadow=shadow), "microbenchmark %s" % sequence)


def test_a_recursion_64_deep():
    core = lockstep(_instrumented(recursion_program(64)), _cfg(),
                    "recursion 64")
    assert core.halt == "normal"


def test_a_recursion_that_overflows_a_four_slot_shadow_stack():
    """COMP1 climbs to the span's end, which is legal, then past it."""
    shadow = ShadowStackConfig(ss_size_log2=4)
    core = lockstep(_instrumented(recursion_program(8), shadow),
                    _cfg(shadow=shadow), "recursion 8, 4 slots")
    assert core.halt == "stack_overflow"
    assert core.dwt[3] == shadow.ss_limit + 4


def test_a_short_sweep_under_report():
    lo = SHADOW.ss_start - 12
    core = lockstep(parse(sweep_program(lo, SHADOW.ss_start + 12)),
                    _cfg(policy=POLICY_REPORT), "sweep")
    assert len(core.records) == 12


def test_words_that_straddle_2_to_the_32_wrap_to_0():
    """With sp at 2, ``push {r0, r1}`` writes the words at 0xFFFFFFFA and
    0xFFFFFFFE, whose last two bytes wrap to addresses 0 and 1, and the
    pop reads them back from there."""
    text = "\n".join([
        ".org 0x08000000", ".func main hal",
        "    movw r0, #0x3344", "    movt r0, #0x1122",
        "    movw r1, #0x7788", "    movt r1, #0x5566",
        "    push {r0, r1}", "    pop {r2, r3}", "    bkpt #0",
        ".endfunc", ""])
    core = lockstep(parse(text), RunConfig(initial_sp=2, max_steps=100),
                    "sp at 2")
    assert core.halt == "normal"
    assert core.R[2:4] == [0x11223344, 0x55667788]
    assert [core.mem[a] for a in (0, 1)] == [0x66, 0x55]


# An instrumented SysTick handler that counts its runs past the benign
# programs' result slots.
HANDLER = """\
.func systick_handler handler
    push {r7, lr}
    movw r7, #0x1000
    movt r7, #0x2001
    ldr r1, [r7]
    addw r1, r1, #1
    str r1, [r7]
    pop {r7, pc}
.endfunc
"""


@pytest.mark.parametrize("seed", range(20))
def test_generated_programs(seed):
    rng = random.Random(seed)
    policy = (POLICY_RESET, POLICY_REPORT)[seed % 2]
    lockstep(parse(make_demcr_fuzz_program(rng)), _cfg(policy=policy),
             "demcr fuzz %d" % seed)
    prog = _instrumented(make_benign_program(rng, rng.randint(4, 10))
                         + HANDLER)
    length = lockstep(prog, _cfg(policy=policy), "benign %d" % seed).steps
    for at in range(seed % 5, length, length // 3 + 1):
        lockstep(prog, _cfg(policy=policy, raises=((SYSTICK, at),)),
                 "benign %d raise@%d" % (seed, at))


# -- the compiled tier -------------------------------------------------------
#
# ``Machine.run()`` with every block compiled on first reach.  Each
# compiled block's function is wrapped: after it returns, the reference
# core steps up to the machine's step count and the whole state is
# compared, so a slip in how ``blocks`` compiles an op fails here even
# where ``step()`` would make the same slip.

def catch_up(pair: Lockstep, where: str) -> None:
    """Step the core to the machine's step count, then compare, with
    every RAM byte the core stored on the way."""
    core, stored = pair.core, {}
    while core.steps < pair.m.steps and core.halt is None:
        ref.step(core)
        stored.update(core.stored)
    core.stored = stored
    pair.check(where)


def _raise(exc_id: int):
    def raise_both(pair: Lockstep) -> None:
        pair.m.raise_exception(exc_id)
        pair.core.pending.append(exc_id)
    return raise_both


def compiled_lockstep(prog, cfg: RunConfig, label: str,
                      monkeypatch, stops=()) -> ref.Core:
    """As ``lockstep``, but the machine runs through ``Machine.run()``
    with the hot threshold at 1, checked at each compiled block's exit.
    ``run()`` returns at each raise's step, and at each step of
    ``stops``, ``(step, change)`` pairs, where ``change(pair)`` changes
    the machine and the core alike between two ``run()`` calls."""
    pair = boot(prog, cfg, label)
    compile_block = blocks.Block.compile

    def compile_checked(blk, m, pc):
        compile_block(blk, m, pc)
        if blk.fn is not None:
            def checked(m, limit, fn=blk.fn):
                missed = fn(m, limit)  # True: its entry check missed
                catch_up(pair, "the exit of the block at %#x" % pc)
                return missed
            blk.fn = checked

    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        mp.setattr(blocks.Block, "compile", compile_checked)
        for at, change in sorted([*((at, _raise(exc_id))
                                    for exc_id, at in cfg.raises), *stops],
                                 key=lambda t: t[0]):
            pair.m.run(at)
            catch_up(pair, "the stop at step %d" % at)
            if pair.m.halted:
                break
            change(pair)
        pair.m.run(cfg.max_steps)
    catch_up(pair, "the end")
    pair.check_memory()
    return pair.core


def test_the_compiled_recursion(monkeypatch):
    core = compiled_lockstep(_instrumented(recursion_program(64)), _cfg(),
                             "compiled recursion 64", monkeypatch)
    assert core.halt == "normal"


def test_a_compiled_short_sweep_under_report(monkeypatch):
    lo = SHADOW.ss_start - 12
    core = compiled_lockstep(parse(sweep_program(lo, SHADOW.ss_start + 12)),
                             _cfg(policy=POLICY_REPORT), "compiled sweep",
                             monkeypatch)
    assert len(core.records) == 12


@pytest.mark.parametrize("policy", [POLICY_REPORT, POLICY_RESET])
def test_a_compiled_sweep_interrupted_in_its_loop(policy, monkeypatch):
    """The sweep from 40 bytes below the shadow stack to 40 into it,
    with a SysTick raised at points in its compiled loop: each raise
    cuts the loop at a budget, whose exit writes the flags the pass kept
    in locals, and the exception entry then stacks them."""
    prog = parse(sweep_program(SHADOW.ss_start - 40, SHADOW.ss_start + 40)
                 + HANDLER)
    for at in (6, 7, 31, 102, 167, 250):
        compiled_lockstep(prog, _cfg(policy=policy, raises=((SYSTICK, at),)),
                          "compiled sweep %s raise@%d" % (policy, at),
                          monkeypatch)


@pytest.mark.parametrize("max_steps", [60, 61, 62, 63, 20_000])
def test_the_compiled_flag_pairs(max_steps, monkeypatch):
    """``FLAG_PAIRS``' program compiled: every compare and conditional
    branch of it, each block's exit, and a budget that cuts its loop."""
    core = compiled_lockstep(parse(FLAG_PAIRS_PROGRAM),
                             _cfg(max_steps=max_steps),
                             "compiled flag pairs %d" % max_steps,
                             monkeypatch)
    assert (core.halt == "normal") == (max_steps == 20_000)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_generated_programs(seed, monkeypatch):
    rng = random.Random(seed)
    policy = (POLICY_RESET, POLICY_REPORT)[seed % 2]
    compiled_lockstep(parse(make_demcr_fuzz_program(rng)), _cfg(policy=policy),
                      "compiled demcr fuzz %d" % seed, monkeypatch)
    prog = _instrumented(make_benign_program(rng, rng.randint(4, 10))
                         + HANDLER)
    length = compiled_lockstep(prog, _cfg(policy=policy),
                               "compiled benign %d" % seed, monkeypatch).steps
    at = length // 2
    compiled_lockstep(prog, _cfg(policy=policy, raises=((SYSTICK, at),)),
                      "compiled benign %d raise@%d" % (seed, at), monkeypatch)
