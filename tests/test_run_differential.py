"""Machine.run against a plain loop of one Machine.step per instruction.

Both step through the machine's one retire body, so what this holds to
the step loop is what only ``run()`` does: block dispatch, compiled
blocks and the step budget.  The reference semantics of each
instruction is ``tests/reference_isa.py``, which
``tests/test_reference_isa.py`` holds ``step()`` to.

Every run is made twice from the same build, once by ``runner.run_machine``
(which drives ``Machine.run``) and once by the plain step loop below, and
every observable piece of the two machines and results must agree.  The
programs are acceptance-09 benign call trees plus an instrumented
SysTick handler, interrupted at a stride of positions under both
violation policies and by raise schedules that reach the runner's edge
cases.  With the hot threshold at 1 every block is compiled, so the
compiled path sees every instruction and every interrupt position; with
it at 10**9 none is, so run()'s own stepping loop sees them all.
"""

import ast
import dataclasses
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from programs import (WATCH_ALL, make_demcr_fuzz_program,
                      preinit_exception_program)
from watchstack import blocks, dwt, semantics
from watchstack.asm import parse
from watchstack.cli import EXIT_FAULT, EXIT_VIOLATION, _exit_code
from watchstack.dwt import (DWT_COMP0, DWT_COMP1, DWT_CYCCNT, DWT_FUNCTION0,
                            DWT_GROUP_STRIDE, DWT_MASK0, FN_DISABLED, FN_READ,
                            FN_READWRITE, FN_WRITE, DwtUnit)
from watchstack.harness import (make_benign_program, recursion_program,
                                sweep_program)
from watchstack.instrument import ShadowStackConfig, instrument_program
from watchstack.isa import LR
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR,
                                DWT_WINDOW_HI, DWT_WINDOW_LO, EXC_RETURN_MIN,
                                HaltReason, Machine, PAGE_SIZE, PPB_BASE)
from watchstack.protect import (POLICY_REPORT, POLICY_RESET, DemcrModel,
                                ViolationRecord, WatchpointGuard)
from watchstack.runner import (OUTCOME_SAFE, RunConfig, attribute,
                               build_machine, run_machine, run_program)

SHADOW = ShadowStackConfig()
SYSTICK = 15
GOLDEN = Path(__file__).resolve().parent / "golden"

# The handler counts its runs in a word at 0x20011000, past the benign
# programs' result slots.
HANDLERS = """\
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


def reference_run(m, cfg: RunConfig) -> bool:
    """The run loop as a plain step() per instruction.
    Returns whether the step budget ran out."""
    raises = sorted(cfg.raises, key=lambda t: t[1])
    ridx = 0
    while not m.halted:
        if m.steps >= cfg.max_steps:
            return True
        while ridx < len(raises) and raises[ridx][1] <= m.steps:
            m.raise_exception(raises[ridx][0])
            ridx += 1
        m.step()
    return False


def observe(m, budget) -> dict:
    return {
        "regs": list(m.gpr) + [m.sp, m.lr, m.pc, m.xpsr, m.control],
        "mode": (m.mode, list(m.pending)),
        "mem": m.mem.snapshot(),
        "steps": m.steps,
        "cycles": m.cycles,
        "halt": (m.halted, m.halt_reason, budget),
        "retired": dict(m.retired),
        "taken": dict(m.taken),
        "attribution": attribute(m),
        "min_sp": m.min_sp,
        "violations": m.guard.records if m.guard else None,
        "events": m.events,
        "dwt": (m.dwt.groups, m.demcr.value, tuple(map(tuple, m.dwt.slots)),
                tuple(m.dwt.regions)) if m.dwt else None,
    }


def _build(prog, cfg: RunConfig, arm):
    m = build_machine(prog, cfg)
    if arm is not None:
        arm(m)
    return m


def reference(prog, cfg: RunConfig, arm=None) -> dict:
    m = _build(prog, cfg, arm)
    return observe(m, reference_run(m, cfg))


def fast(prog, cfg: RunConfig, arm=None) -> dict:
    m = _build(prog, cfg, arm)
    res = run_machine(m, cfg)
    assert res.events is m.events
    return observe(m, res.halt_reason is None)


def check(prog, cfg: RunConfig, label: str, monkeypatch, arm=None) -> dict:
    """The reference run, compared with run() at the default hot
    threshold, with every block compiled on first reach, and with none
    compiled, so that run() steps every instruction itself."""
    want = reference(prog, cfg, arm)
    assert_same(want, fast(prog, cfg, arm), label)
    for hot in (1, 10**9):
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "HOT_THRESHOLD", hot)
            assert_same(want, fast(prog, cfg, arm),
                        "%s threshold %d" % (label, hot))
    return want


def assert_same(want: dict, got: dict, label: str) -> None:
    for key in want:
        assert got[key] == want[key], "%s: %s differs" % (label, key)


def _cfg(policy: str, raise_at: int | None, max_steps: int,
         **kw) -> RunConfig:
    return RunConfig(protected=True, policy=policy, shadow=SHADOW,
                     max_steps=max_steps,
                     raises=() if raise_at is None else ((SYSTICK, raise_at),),
                     track_min_sp=True, **kw)


@pytest.mark.parametrize("seed", range(40))
def test_benign_programs_interrupted_at_a_stride(seed, monkeypatch):
    rng = random.Random(seed)
    text = make_benign_program(rng, rng.randint(4, 12)) + HANDLERS
    prog = instrument_program(parse(text), SHADOW).program
    plain = reference(prog, _cfg(POLICY_RESET, None, 20_000))
    assert plain["halt"] == (True, HaltReason.NORMAL, False)
    length = plain["steps"]
    stride = length // 2 + seed % 5
    for at in range(seed % 7, length + 1, stride):
        for policy in (POLICY_RESET, POLICY_REPORT):
            check(prog, _cfg(policy, at, 20_000),
                  "%s raise@%d" % (policy, at), monkeypatch)


@pytest.mark.parametrize("max_steps", [3, 97, 1000, 10_000])
def test_step_budget_cuts_inside_a_block(max_steps, monkeypatch):
    prog = instrument_program(parse(recursion_program(40)), SHADOW).program
    check(prog, _cfg(POLICY_RESET, 50, max_steps), "budget %d" % max_steps,
          monkeypatch)


# Three blocks in a loop, laid out so that no branch lands on the next
# instruction and linked by register exits, which no trace follows: main
# (8 instructions) puts the entries of a, bb and cc in r8-r10, then per
# pass a (3), bb (4) and cc (3), 10 steps, 40 passes.
CHAIN_FORM = """\
.org 0x08000000
.func main hal
    mov r5, #40
    movw r8, #{a}
    movt r8, #0x0800
    movw r9, #{bb}
    movt r9, #0x0800
    movw r10, #{cc}
    movt r10, #0x0800
    bx r8
.label cc
    subw r5, r5, #1
    cmp r5, #0
    bne a
    bkpt #0
.label bb
    addw r7, r7, #1
    addw r7, r7, #1
    addw r7, r7, #1
    bx r10
.label a
    addw r6, r6, #1
    addw r6, r6, #2
    bx r9
.endfunc
"""
CHAIN = CHAIN_FORM.format(**{
    name: addr & 0xFFFF
    for name, addr in parse(CHAIN_FORM.format(a=0, bb=0, cc=0)).labels.items()})


@pytest.mark.parametrize("hot", [1, None], ids=["threshold 1", "default"])
def test_step_budget_cuts_inside_a_hot_chain(hot, monkeypatch):
    """Budgets that end inside the 2nd and 3rd block of a chain of
    compiled blocks, and one step before each of them would fit.

    All three loop blocks become hot in pass ``hot - 1``: a, then bb,
    then cc are compiled and run on reaching their heat, and from the
    cc that ends that pass on, run() calls the compiled blocks back to
    back.  That chain's 2nd block (a) runs steps [c0 + 3, c0 + 6) and
    its 3rd (bb) [c0 + 6, c0 + 10)."""
    prog = parse(CHAIN)
    labels = prog.labels
    assert [len(blocks._block_at(prog.code, labels[name]))
            for name in ("a", "bb", "cc")] == [3, 4, 3]
    hot = hot or blocks.HOT_THRESHOLD
    c0 = 8 + 10 * (hot - 1) + 7
    for budget in range(c0 + 1, c0 + 11):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "chain budget %d" % budget, monkeypatch)
        assert want["steps"] == budget and want["halt"][2]


def test_report_policy_sweep_records_each_hit(monkeypatch):
    # Every store into the region is suppressed and recorded, and the
    # run goes on past each hit, inside a compiled block or not.
    lo = SHADOW.ss_start - 8
    prog = parse(sweep_program(lo, SHADOW.ss_start + 24) + HANDLERS)
    for at in (None, 5, 41, 70):
        want = check(prog, _cfg(POLICY_REPORT, at, 1000),
                     "sweep raise@%s" % at, monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert len(want["violations"]) == 24


# Raise schedules, from the length n of the uninterrupted run and the
# step budget b.  Exception 99 has no handler: taking it faults.
SCHEDULES = {
    "two at one step": lambda n, b: ((SYSTICK, n // 3), (SYSTICK, n // 3)),
    "at step 0": lambda n, b: ((SYSTICK, n // 2), (SYSTICK, 0)),
    "at and past the budget": lambda n, b: ((SYSTICK, b + 1), (SYSTICK, b)),
    "after the halt": lambda n, b: ((SYSTICK, 5), (SYSTICK, n + 500)),
    "unbound": lambda n, b: ((99, n // 4), (SYSTICK, n // 4 + 1)),
}


@pytest.mark.parametrize("budget", [0, 1, 7, 40, 20_000])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_raise_schedules(schedule, budget, monkeypatch):
    """run_machine walks the schedule as the reference does: raises in
    step order, none at or past the budget, none after a halt."""
    rng = random.Random(7)
    text = make_benign_program(rng, 6) + HANDLERS
    prog = instrument_program(parse(text), SHADOW).program
    n = reference(prog, _cfg(POLICY_RESET, None, 20_000))["steps"]
    raises = SCHEDULES[schedule](n, budget)
    for policy in (POLICY_RESET, POLICY_REPORT):
        cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                        max_steps=budget, raises=raises, track_min_sp=True)
        want = check(prog, cfg, "%s %s budget %d" % (schedule, policy,
                                                     budget), monkeypatch)
        entries = [ev.exc_id for ev in want["events"]
                   if ev.kind == "exception_entered"]
        if budget == 0:
            assert want["steps"] == 0 and want["halt"] == (False, None, True)
        elif budget > n + 500:
            taken = {"two at one step": 2, "at step 0": 2,
                     "at and past the budget": 0, "after the halt": 1,
                     "unbound": 0}[schedule]
            assert entries == [SYSTICK] * taken
            if schedule == "unbound":
                assert want["halt"] == (True, HaltReason.FAULT, False)


def test_code_replaced_between_runs(monkeypatch):
    """Replacing ``m.code`` drops run()'s compiled blocks; their counts
    must be folded in first.  Each slice of the run starts on a fresh
    copy of the code map."""
    prog = instrument_program(parse(recursion_program(40)), SHADOW).program
    cfg = _cfg(POLICY_RESET, None, 10_000)
    want = reference(prog, cfg)
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    m = build_machine(prog, cfg)
    while not m.halted and m.steps < cfg.max_steps:
        m.code = dict(m.code)
        m.run(min(m.steps + 50, cfg.max_steps))
    assert_same(want, observe(m, not m.halted), "code swaps")


# 40 passes, so the loop block gets hot; its addw immediate makes a
# block source that no other test compiles.
LOOP = """\
.org 0x08000000
.func main hal
    mov r5, #40
.label loop
    addw r6, r6, #%d
    subw r5, r5, #1
    cmp r5, #0
    bne loop
    bkpt #0
.endfunc
"""


def _count_compiles(monkeypatch) -> list:
    """The block sources compiled from now on."""
    sources = []

    def counting(source, name, *args):
        if name == "<block>":
            sources.append(source)
        return compile(source, name, *args)

    monkeypatch.setattr(semantics, "compile", counting, raising=False)
    return sources


def _count_sources(monkeypatch) -> list:
    """The block sources generated from now on."""
    sources = []
    source = blocks._source

    def counting(trace, shape, state):
        sources.append(source(trace, shape, state))
        return sources[-1]

    monkeypatch.setattr(blocks, "_source", counting)
    return sources


def _run_loop(prog, step: int) -> None:
    m = build_machine(prog, RunConfig())
    run_machine(m, RunConfig())
    assert m.halt_reason == HaltReason.NORMAL
    assert m.gpr[6] == 40 * step


def test_equal_code_compiles_its_hot_block_once(monkeypatch):
    """Two parses of one text give equal code maps, whose values are
    shared or equal: the second machine reuses the loop block the first
    one compiled, and generates no source for it either."""
    sources = _count_compiles(monkeypatch)
    generated = _count_sources(monkeypatch)
    text = LOOP % 0x7A1
    _run_loop(parse(text), 0x7A1)
    assert len(sources) == len(generated) == 1
    _run_loop(parse(text), 0x7A1)
    assert len(sources) == len(generated) == 1


def _golden_sources(monkeypatch) -> list:
    """Every distinct source that blocks generate at a hot threshold of 1,
    in sorted order: for the instrumented recursion 16 deep, unprotected
    and under both policies, and for the sweep 64 bytes either side of
    the shadow region under report."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    blocks._make.cache_clear()  # so each source is generated here
    sources = _count_sources(monkeypatch)
    rec = instrument_program(parse(recursion_program(16)), SHADOW).program
    run_program(rec, RunConfig())
    for policy in (POLICY_RESET, POLICY_REPORT):
        run_program(rec, RunConfig(protected=True, policy=policy,
                                   shadow=SHADOW))
    sweep = parse(sweep_program(SHADOW.ss_start - 64, SHADOW.ss_limit + 64))
    run_program(sweep, RunConfig(protected=True, policy=POLICY_REPORT,
                                 shadow=SHADOW))
    return sorted(set(sources))


def test_the_block_sources_are_the_golden_source(monkeypatch):
    """The sources of ``_golden_sources`` are byte for byte the golden's."""
    golden = (GOLDEN / "block_sources.txt").read_text()
    assert "\n".join(_golden_sources(monkeypatch)) == golden


def test_a_changed_instruction_compiles_anew(monkeypatch):
    """The loop's addw at the same address, changed by a new parse and
    then replaced in the code map, gives new block code each time."""
    sources = _count_compiles(monkeypatch)
    _run_loop(parse(LOOP % 0x7A2), 0x7A2)
    prog = parse(LOOP % 0x7A3)
    _run_loop(prog, 0x7A3)
    at, addw = next((at, ins) for at, ins in prog.code.items()
                    if ins.op == "addw")
    prog.code[at] = addw.replace(imm=0x7A4)
    _run_loop(prog, 0x7A4)
    assert len(sources) == 3


def test_svc_and_udf_in_a_hot_loop(monkeypatch):
    """Each pass enters and leaves two exceptions from thread code; the
    loop and both handlers run as compiled blocks once hot, and a raised
    SysTick lands between them.  Every entry and return is logged."""
    loops = blocks.HOT_THRESHOLD + 8
    text = "\n".join([
        ".org 0x08000000", ".func main hal",
        "    mov r5, #%d" % loops,
        ".label loop",
        "    udf #0", "    svc #1", "    subw r5, r5, #1",
        "    cmp r5, #0", "    bne loop", "    bkpt #0", ".endfunc",
        ".func usagefault_handler handler", "    addw r6, r6, #1",
        "    bx lr", ".endfunc",
        ".func svcall_handler handler", "    addw r7, r7, #1",
        "    bx lr", ".endfunc", HANDLERS])
    prog = parse(text)
    for at in (None, 3, 150, 151, 152):
        want = check(prog, _cfg(POLICY_RESET, at, 10_000),
                     "svc/udf raise@%s" % at, monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert want["regs"][6:8] == [loops, loops]
        kinds = [(ev.kind, ev.exc_id) for ev in want["events"]]
        assert kinds.count(("exception_entered", 6)) == loops
        assert kinds.count(("exception_returned", 11)) == loops
        assert kinds.count(("exception_entered", SYSTICK)) == (at is not None)
        assert kinds[-1] == ("halted", None)


# (a, b) pairs that set every combination of N, Z, C and V in cmp.
FLAG_PAIRS = [(0, 0), (1, 2), (2, 1), (5, 5), (0x80000000, 1),
              (1, 0x80000000), (0x7FFFFFFF, 0xFFFFFFFF),
              (0xFFFFFFFF, 0x7FFFFFFF), (0x80000000, 0x7FFFFFFF),
              (0x7FFFFFFF, 0x80000000), (0xFFFFFFFF, 0), (0, 0xFFFFFFFF)]


def _flag_pairs_program() -> str:
    """Each pair through cmp and all four conditional branches, a bit
    of r2 set for each one taken, and r2 stored beside the pair."""
    table = "\n".join(".word 0x%08x\n.word 0x%08x\n.word 0" % p
                      for p in FLAG_PAIRS)
    branches = []
    for i, (cond, bit) in enumerate((("eq", 1), ("lt", 2), ("ge", 4),
                                     ("ne", 8))):
        branches += ["    cmp r0, r1", "    b%s t%d" % (cond, i),
                     "    b n%d" % i, ".label t%d" % i,
                     "    addw r2, r2, #%d" % bit, ".label n%d" % i]
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        "    movw r5, #0x0000", "    movt r5, #0x2000",
        "    mov r6, #%d" % len(FLAG_PAIRS),
        ".label loop",
        "    ldr r0, [r5]", "    ldr r1, [r5, #4]", "    mov r2, #0",
        *branches,
        "    str r2, [r5, #8]", "    addw r5, r5, #12",
        "    subw r6, r6, #1", "    cmp r6, #0", "    bne loop",
        "    bkpt #0", ".endfunc", ".org 0x20000000", table, ""])


FLAG_PAIRS_PROGRAM = _flag_pairs_program()


def test_condition_codes_on_every_flag_combination(monkeypatch):
    """Each pair through cmp and all four conditional branches; the
    taken set and the final flags land in memory and registers."""
    want = check(parse(FLAG_PAIRS_PROGRAM), _cfg(POLICY_RESET, None, 10_000),
                 "flags", monkeypatch)
    def signed(v):
        return v - (1 << 32) if v >> 31 else v

    for i, (a, b) in enumerate(FLAG_PAIRS):
        lt = signed(a) < signed(b)
        taken = (a == b) | lt << 1 | (not lt) << 2 | (a != b) << 3
        assert want["mem"][0x20000][12 * i + 8] == taken, (a, b)


def test_read_watch_hits_inside_a_block(monkeypatch):
    """A load that matches a read comparator records a violation; under
    the report policy the run goes on, inside the compiled block, with
    no event until the halt."""
    text = "\n".join([
        ".org 0x08000000", ".func main hal",
        "    movw r0, #0x%04x" % ((SHADOW.ss_start - 16) & 0xFFFF),
        "    movt r0, #0x%04x" % ((SHADOW.ss_start - 16) >> 16),
        "    mov r3, #12",
        ".label loop",
        "    ldr r1, [r0]", "    addw r0, r0, #4", "    subw r3, r3, #1",
        "    cmp r3, #0", "    bne loop", "    bkpt #0", ".endfunc", ""])

    def watch_reads(m):
        m.dwt.mmio_write(m, DWT_FUNCTION0, FN_READWRITE)

    prog = parse(text + HANDLERS)
    want = check(prog, _cfg(POLICY_REPORT, None, 10_000), "read watch",
                 monkeypatch, arm=watch_reads)
    assert len(want["violations"]) == 8
    assert [ev.kind for ev in want["events"]] == ["halted"]
    # Under the reset policy the first read hit halts inside the block.
    want = check(prog, _cfg(POLICY_RESET, None, 10_000), "read watch reset",
                 monkeypatch, arm=watch_reads)
    assert [ev.kind for ev in want["events"]] == ["halted"]
    assert want["halt"] == (True, HaltReason.RESET, False)


def test_interrupt_before_protection_takes_the_tagged_branch(monkeypatch):
    """Unprotected, an instrumented handler's enable check is taken, and
    a taken tagged branch charges its extra cycle to the tag."""
    prog = instrument_program(parse(preinit_exception_program()),
                              SHADOW).program
    for at in range(0, 10, 3):
        cfg = RunConfig(shadow=SHADOW, raises=((SYSTICK, at),) * 3,
                        track_min_sp=True)
        want = check(prog, cfg, "preinit raise@%d" % at, monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)


# -- the watched access path against a guard that sees every access --------

def _see_everything(m):
    """Show the guard every access, so it decides each through
    DwtUnit.match_access."""
    assert m.watch is m.dwt.slots
    m.watch = WATCH_ALL


def check_watch(prog, cfg: RunConfig, label: str, monkeypatch,
                arm=None) -> dict:
    """The shipped run, where the machine tests the comparator regions
    inline, against the run whose guard checks every access; each
    stepped and in compiled blocks, and each armed by ``arm`` first."""
    def arm_all(m):
        if arm is not None:
            arm(m)
        _see_everything(m)

    want = check(prog, cfg, label + " see-everything", monkeypatch,
                 arm=arm_all)
    assert_same(want, check(prog, cfg, label, monkeypatch, arm=arm), label)
    return want


# Hypothesis runs many examples in one test call; each check() patches
# blocks.HOT_THRESHOLD only inside its own context.
_WATCH_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_WATCH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       policy=st.sampled_from((POLICY_RESET, POLICY_REPORT)))
def test_watch_matches_the_guard_on_demcr_fuzz(seed, policy, monkeypatch):
    prog = parse(make_demcr_fuzz_program(random.Random(seed)) + HANDLERS)
    cfg = _cfg(policy, seed % 60, 2_000)
    check_watch(prog, cfg, "fuzz %d" % seed, monkeypatch)
    # Unprotected, the same salvo of DWT, DEMCR and RAM stores runs in
    # blocks whose every access tests the empty hull first.
    check(prog, dataclasses.replace(cfg, protected=False),
          "fuzz %d unprotected" % seed, monkeypatch)


@_WATCH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), at=st.integers(0, 400),
       policy=st.sampled_from((POLICY_RESET, POLICY_REPORT)))
def test_watch_matches_the_guard_on_benign_programs(seed, at, policy,
                                                    monkeypatch):
    rng = random.Random(seed)
    text = make_benign_program(rng, rng.randint(2, 8)) + HANDLERS
    prog = instrument_program(parse(text), SHADOW).program
    check_watch(prog, _cfg(policy, at, 20_000), "benign %d@%d" % (seed, at),
                monkeypatch)


@_WATCH_SETTINGS
@given(edge=st.sampled_from((SHADOW.ss_start, SHADOW.ss_limit)),
       below=st.integers(0, 9), above=st.integers(1, 9),
       at=st.none() | st.integers(0, 60),
       policy=st.sampled_from((POLICY_RESET, POLICY_REPORT)))
def test_watch_matches_the_guard_on_edge_sweeps(edge, below, above, at,
                                                policy, monkeypatch):
    prog = parse(sweep_program(edge - below, edge + above) + HANDLERS)
    check_watch(prog, _cfg(policy, at, 1_000), "sweep 0x%x-%d+%d" % (
        edge, below, above), monkeypatch)


# Each pass disarms comparator 0 (FUNCTION0 = 0), writes one shadow
# slot, arms it again (FUNCTION0 = 6) and writes the next slot.
TOGGLE = """\
.org 0x08000000
.func main hal
    mov r5, #%d
    movw r0, #0x1028
    movt r0, #0xe000
    movw r1, #0x%04x
    movt r1, #0x%04x
.label loop
    mov r2, #0
    str r2, [r0]
    str r5, [r1]
    mov r2, #6
    str r2, [r0]
    str r5, [r1, #4]
    subw r5, r5, #1
    cmp r5, #0
    bne loop
    bkpt #0
.endfunc
""" % (blocks.HOT_THRESHOLD + 8, SHADOW.ss_start & 0xFFFF,
       SHADOW.ss_start >> 16)


def test_a_function0_store_disarms_and_arms_at_once(monkeypatch):
    """The disarmed write commits and the armed one is suppressed and
    recorded, on every pass: the first passes stepped, the rest inside
    the loop's compiled block."""
    passes = blocks.HOT_THRESHOLD + 8
    prog = parse(TOGGLE)
    want = check_watch(prog, _cfg(POLICY_REPORT, None, 10_000), "toggle",
                       monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    assert [(r.data_address, r.comparator_id, r.suppressed_value)
            for r in want["violations"]] == [
        (SHADOW.ss_start + 4, 0, n) for n in range(passes, 0, -1)]
    page = want["mem"][SHADOW.ss_start >> 12]
    off = SHADOW.ss_start & 0xFFF
    assert page[off:off + 8] == bytes([1, 0, 0, 0, 0, 0, 0, 0])
    # Under the reset policy the first armed write halts the run.
    want = check_watch(prog, _cfg(POLICY_RESET, None, 10_000),
                       "toggle reset", monkeypatch)
    assert want["halt"] == (True, HaltReason.RESET, False)
    assert [r.suppressed_value for r in want["violations"]] == [passes]
    assert want["mem"][SHADOW.ss_start >> 12][off] == passes


# -- instructions no other program here executes -----------------------------

BLX = """\
.org 0x08000000
.func main hal
    movw r4, #0x0100
    movt r4, #0x0800
    blx r4
    mov r2, #9
    bkpt #0
.endfunc
.org 0x08000100
.func f hal
    mov r1, lr
    mov r0, #7
    bx lr
.endfunc
"""


def test_blx_links_branches_and_returns(monkeypatch):
    """The target runs with lr on the instruction after the blx, and its
    bx lr returns there."""
    prog = parse(BLX)
    after = prog.functions["main"].address(3)
    want = check(prog, RunConfig(), "blx", monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    regs = want["regs"]
    assert (regs[0], regs[1], regs[2], regs[14]) == (7, after, 9, after)
    assert want["steps"] == 8


# lr is 0x08000011 when the blx reads it, and the bkpt's address after.
BLX_LR = """\
.org 0x08000000
.func main hal
    movw lr, #0x0011
    movt lr, #0x0800
    blx lr
    bkpt #1
.endfunc
"""


def test_blx_lr_reads_its_target_before_it_links(monkeypatch):
    """BLX (register) reads R[m] before it writes LR: ``blx lr`` goes to
    the odd 0x08000011, an undefined fetch that faults, and not to its
    own return address, whose bkpt #1 would end the run as reported."""
    want = check(parse(BLX_LR), RunConfig(), "blx lr", monkeypatch)
    assert want["halt"] == (True, HaltReason.FAULT, False)
    assert want["events"][-1].at_pc == 0x08000011
    assert want["regs"][14] == 0x0800000A and want["steps"] == 4


MISALIGNED_STR = """\
.org 0x08000000
.func main hal
    movw r0, #0x0002
    movt r0, #0x2000
    mov r1, #7
    str r1, [r0]
    mov r2, #1
    bkpt #0
.endfunc
"""


def test_a_misaligned_word_store_faults_without_writing(monkeypatch):
    want = check(parse(MISALIGNED_STR), RunConfig(), "misaligned str",
                 monkeypatch)
    assert want["halt"] == (True, HaltReason.FAULT, False)
    assert want["steps"] == 4 and want["regs"][2] == 0
    assert not any(want["mem"].get(0x20000000 >> 12, b""))


# -- code at and above EXC_RETURN_MIN ----------------------------------------------

# main counts to 40, then branches to code at EXC_RETURN_MIN: a branch
# there is an exception return, which faults in thread mode.
FAR_BRANCH = """\
.org 0x08000000
.func main hal
    mov r5, #0
.label loop
    addw r5, r5, #1
    cmp r5, #40
    bge far
    b loop
.endfunc
.org 0x%08x
.func far hal
    bkpt #0
.endfunc
""" % EXC_RETURN_MIN

# A straight line whose next instruction sits at EXC_RETURN_MIN.
FAR_FALL_THROUGH = """\
.org 0x%08x
.func main hal
    mov r5, #1
    addw r6, r6, #1
    nop
    bkpt #0
.endfunc
""" % (EXC_RETURN_MIN - 6)


@pytest.mark.parametrize("text,steps", [(FAR_BRANCH, 160),
                                        (FAR_FALL_THROUGH, 2)],
                         ids=["bge", "fall-through"])
def test_reaching_exc_return_min_is_an_exception_return(text, steps,
                                                        monkeypatch):
    want = check(parse(text), RunConfig(), "far", monkeypatch)
    assert want["halt"] == (True, HaltReason.FAULT, False)
    assert want["steps"] == steps


# -- word accesses bound to a device at compile time -------------------------------

PASSES = blocks.HOT_THRESHOLD + 8


def _main(*body: str) -> str:
    """main at 0x08000000: r7 points at a RAM word holding its own
    address, r5 counts PASSES down, and the loop runs ``body``."""
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        "    movw r7, #0x0100", "    movt r7, #0x2000", "    str r7, [r7]",
        "    mov r5, #%d" % PASSES,
        ".label loop", *("    " + line for line in body),
        "    subw r5, r5, #1", "    cmp r5, #0", "    bne loop",
        "    bkpt #0", ".endfunc", ""])


def _const(r: str, addr: int) -> list[str]:
    return ["movw %s, #0x%04x" % (r, addr & 0xFFFF),
            "movt %s, #0x%04x" % (r, addr >> 16)]


# Each replaces the DWT address in r0 with a RAM address (mrs: 0) before
# the store, which must then land in RAM; bound to COMP0 + 4 it would
# rewrite MASK0 instead.
OVERWRITES = {
    "ldr": ["ldr r0, [r7]"],
    "pop": ["push {r7}", "pop {r0}"],
    "mov_reg": ["mov r0, r7"],
    "addw": ["addw r0, r7, #0"],
    "mrs": ["mrs r0, control"],
}


@pytest.mark.parametrize("op", sorted(OVERWRITES))
def test_an_overwritten_base_is_not_bound(op, monkeypatch):
    prog = parse(_main(*_const("r0", DWT_COMP0), *OVERWRITES[op],
                       "str r5, [r0, #4]"))
    for policy in (POLICY_RESET, POLICY_REPORT):
        want = check_watch(prog, _cfg(policy, None, 10_000),
                           "%s %s" % (op, policy), monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert want["dwt"][0][0].mask == SHADOW.ss_size_log2
        page, off = (0, 4) if op == "mrs" else (0x20000, 0x104)
        assert want["mem"][page][off] == 1  # the last pass's r5


# Stores onto the lock: COMP2 and FUNCTION3 (group 3's region) and the
# DEMCR word (group 2's).
LOCK = _main(*_const("r0", DWT_COMP0 + 0x20), *_const("r2", DEMCR_ADDR),
             "str r5, [r0]", "str r5, [r0, #0x18]", "str r5, [r2]")


def test_bound_stores_onto_the_lock_are_recorded(monkeypatch):
    prog = parse(LOCK)
    stores = [prog.functions["main"].address(i) for i in range(8, 11)]
    want = check_watch(prog, _cfg(POLICY_REPORT, None, 10_000), "lock",
                       monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    got = [(r.pc, r.data_address, r.comparator_id, r.suppressed_value)
           for r in want["violations"]]
    assert got == [(pc, addr, cid, n) for n in range(PASSES, 0, -1)
                   for pc, addr, cid in zip(stores, (
                       DWT_COMP0 + 0x20, DWT_COMP0 + 0x38, DEMCR_ADDR),
                       (3, 3, 2))]
    # Each record's step index is its store's step: 4 before the loop,
    # 10 per pass, and the stores at 4, 5 and 6 into it.
    assert [r.step_index for r in want["violations"][:4]] == [8, 9, 10, 18]
    assert want["dwt"][1] == 1 << 16  # DEMCR as init left it
    want = check_watch(prog, _cfg(POLICY_RESET, None, 10_000), "lock reset",
                       monkeypatch)
    assert want["halt"] == (True, HaltReason.RESET, False)
    assert len(want["violations"]) == 1


# COMP1 steps up by 256 each pass, past the shadow region in pass 129;
# the instructions after the store must not run then.
OVERFLOW = "\n".join([
    ".org 0x08000000", ".func main hal",
    "    movw r7, #0x0100", "    movt r7, #0x2000",
    ".label loop", *("    " + line for line in _const("r0", DWT_COMP1)),
    "    ldr r1, [r0]", "    addw r1, r1, #256", "    str r1, [r0]",
    "    addw r6, r6, #1", "    str r6, [r7]", "    b loop",
    ".endfunc", ""])


def test_a_bound_comp1_store_halts_on_overflow(monkeypatch):
    want = check_watch(parse(OVERFLOW), _cfg(POLICY_RESET, None, 10_000),
                       "overflow", monkeypatch)
    assert want["halt"] == (True, HaltReason.STACK_OVERFLOW, False)
    passes = SHADOW.ss_size // 256 + 1
    assert want["steps"] == 2 + 8 * (passes - 1) + 5
    assert want["regs"][6] == passes - 1
    assert want["events"][-1].at_pc == parse(OVERFLOW).functions[
        "main"].address(6)


CYCCNT = _main(*_const("r0", DWT_CYCCNT), "ldr r1, [r0]", "str r1, [r7]",
               "addw r7, r7, #4")


def test_a_bound_cyccnt_load_reads_the_cycle_count(monkeypatch):
    want = check_watch(parse(CYCCNT), _cfg(POLICY_RESET, None, 10_000),
                       "cyccnt", monkeypatch)
    page = want["mem"][0x20000]
    counts = [int.from_bytes(page[0x100 + 4 * i:0x104 + 4 * i], "little")
              for i in range(PASSES)]
    # The first ldr retires at cycle 9, and a pass costs 11.
    assert counts == [9 + 11 * i for i in range(PASSES)]


# Group 0 read-watches COMP1's own word, which the loop reads through a
# bound load.
COMP1_READ = _main(*_const("r0", DWT_COMP1), "ldr r1, [r0]",
                   "str r1, [r7, #4]")


def _watch_comp1_reads(m):
    m.dwt.mmio_write(m, DWT_COMP0, DWT_COMP1)
    m.dwt.mmio_write(m, DWT_MASK0, 2)
    m.dwt.mmio_write(m, DWT_FUNCTION0, FN_READ)


def test_a_bound_load_that_hits_records_its_step_and_pc(monkeypatch):
    """The guard's record of a bound load's hit reads the step index and
    pc that step() would have left, though a bound load that misses
    writes neither."""
    prog = parse(COMP1_READ)
    ldr = prog.functions["main"].address(6)
    assert prog.code[ldr].op == "ldr"
    for policy, records in ((POLICY_REPORT, PASSES), (POLICY_RESET, 1)):
        want = check_watch(prog, _cfg(policy, None, 10_000),
                           "comp1 read " + policy, monkeypatch,
                           arm=_watch_comp1_reads)
        # 4 steps before the loop, 7 a pass, the ldr 3rd in each.
        assert [(r.step_index, r.pc, r.data_address, r.comparator_id,
                 r.access) for r in want["violations"]] == [
            (6 + 7 * i, ldr, DWT_COMP1, 0, ACCESS_READ)
            for i in range(records)]


def _window_words():
    return [*range(DWT_WINDOW_LO, DWT_WINDOW_HI, 4), DEMCR_ADDR]


def _register_bits(addr: int) -> int | None:
    """The bits a register word at ``addr`` keeps; None for CYCCNT and
    for the words that read 0 and drop writes."""
    off = addr - DWT_COMP0
    if addr == DEMCR_ADDR or (off >= 0 and off % 16 in (0, 8)):
        return 0xFFFFFFFF
    return 0x1F if off >= 0 and off % 16 == 4 else None


@pytest.mark.parametrize("addr", _window_words(), ids=hex)
def test_every_device_word_through_a_bound_load_and_store(addr,
                                                          monkeypatch):
    """Each pass reads the word, bound (its address known to the block),
    into RAM and writes back what it read plus 4: unprotected, where the
    block runs a watchpoint register's read and write in line, the lines
    its port runs, with no mmio_* call, but for a FUNCTION word's write,
    whose effect on the watch state the block cannot know before it runs
    and so hands to Machine.store, once a pass; and reaches CTRL,
    CYCCNT, an unmapped word or DEMCR through Machine.load/store, with
    as many mmio_* calls as step() makes; and armed under the report
    policy, where the lock's words and DEMCR trap and the shadow region
    moves."""
    prog = parse(_main(*_const("r0", addr), "ldr r1, [r0]", "str r1, [r7]",
                       "addw r7, r7, #4", "addw r1, r1, #4",
                       "str r1, [r0]"))
    want = check(prog, RunConfig(max_steps=10_000), "%#x" % addr,
                 monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    page = want["mem"][0x20000]
    reads = [int.from_bytes(page[0x100 + 4 * i:0x104 + 4 * i], "little")
             for i in range(PASSES)]
    bits = _register_bits(addr)
    if addr == DWT_CYCCNT:
        assert reads == [reads[0] + 14 * i for i in range(PASSES)]
    elif bits is None:
        assert reads == [0] * PASSES
    else:  # each pass reads what the one before wrote
        assert all(b == (a + 4) & bits for a, b in zip(reads, reads[1:]))
    with monkeypatch.context() as mp:
        mmio = _counted(mp, DwtUnit, "mmio_read", "mmio_write")
        demcr = _counted(mp, DemcrModel, "mmio_read", "mmio_write")
        reference(prog, RunConfig(max_steps=10_000))
        stepped = mmio[0] + demcr[0]
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        mmio[0] = demcr[0] = 0
        assert fast(prog, RunConfig(max_steps=10_000)) == want
        compiled = mmio[0] + demcr[0]
    assert stepped == 2 * PASSES
    register = addr != DEMCR_ADDR and bits is not None
    function = register and (addr - DWT_COMP0) % 16 == 8
    assert compiled == (PASSES if function else 0 if register else stepped)
    want = check_watch(prog, _cfg(POLICY_REPORT, None, 10_000),
                       "%#x armed" % addr, monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)


def test_the_comp1_overflow_halts_in_line(monkeypatch):
    """Compiled, the overflowing COMP1 store of ``OVERFLOW`` runs the
    COMP1 port's lines in line, with no mmio_write call, and they halt
    the block there as step() halts
    (``test_a_bound_comp1_store_halts_on_overflow``)."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    cfg = _cfg(POLICY_RESET, None, 10_000)
    m = build_machine(parse(OVERFLOW), cfg)
    mmio = _counted(monkeypatch, DwtUnit, "mmio_read", "mmio_write")
    run_machine(m, cfg)
    assert m.halt_reason == HaltReason.STACK_OVERFLOW and mmio[0] == 0
    assert m.steps == 2 + 8 * (SHADOW.ss_size // 256) + 5


# The FUNCTION values a block stores as a constant: the three enables,
# disabled, and values outside them, which disable the group too.
FOLDED_FUNCTIONS = (FN_DISABLED, FN_READ, FN_WRITE, FN_READWRITE, 4, 0x106,
                    0xFFFFFFFF)
# Where each group's region starts once armed: the shadow region, COMP1's
# byte, the DEMCR word and the lock's register block.
ARMED_REGIONS = (SHADOW.ss_start, SHADOW.ss_start, DEMCR_ADDR,
                 DWT_COMP0 + 2 * DWT_GROUP_STRIDE)


def _ram_region(gid: int) -> int:
    return 0x20002000 + DWT_GROUP_STRIDE * gid


def _ram_regions(m):
    """Unprotected: group g watches the RAM word at _ram_region(g)."""
    for gid in range(4):
        m.dwt.mmio_write(m, DWT_COMP0 + DWT_GROUP_STRIDE * gid,
                         _ram_region(gid))
        m.dwt.mmio_write(m, DWT_MASK0 + DWT_GROUP_STRIDE * gid, 2)


@pytest.mark.parametrize("value", FOLDED_FUNCTIONS, ids=hex)
@pytest.mark.parametrize("gid", range(4))
def test_a_folded_function_store_runs_as_step_does(gid, value, monkeypatch):
    """Each pass stores ``value``, a constant the block knows, to group
    gid's FUNCTION, then stores to and loads from the group's region.
    Compiled, the write is folded at compile time, and every observed
    field must equal step()'s: unprotected, with each group watching a
    RAM word, and armed under both policies."""
    def prog(region):
        return parse(_main(
            *_const("r0", DWT_FUNCTION0 + DWT_GROUP_STRIDE * gid),
            *_const("r1", value), "str r1, [r0]", *_const("r2", region),
            "str r5, [r2]", "ldr r3, [r2]", "str r3, [r7]",
            "addw r7, r7, #4"))

    want = check(prog(_ram_region(gid)), RunConfig(max_steps=10_000),
                 "unprotected", monkeypatch, arm=_ram_regions)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    assert want["dwt"][0][gid].function == value
    for policy in (POLICY_RESET, POLICY_REPORT):
        check(prog(ARMED_REGIONS[gid]), _cfg(policy, None, 10_000), policy,
              monkeypatch)


@pytest.mark.parametrize("name", ["dwt", "demcr"])
def test_a_device_replaced_between_runs_is_the_one_read(name, monkeypatch):
    """A device replaced between runs is the one that the passes after
    the swap read and write: a compiled block binds the watchpoint unit
    on every entry, and checks on entry the watch state its in-line
    forms were made for, and every other device word goes through
    Machine.load/store, which find the device at run time."""
    addr = DWT_COMP1 if name == "dwt" else DEMCR_ADDR
    # Each pass reads the word into RAM and writes its pass count there.
    prog = parse(_main(*_const("r0", addr), "ldr r1, [r0]", "str r1, [r7]",
                       "addw r7, r7, #4", "str r5, [r0]"))
    cut = 4 + 9 * (PASSES - 3) + 1  # the movw of a compiled pass

    def swapped(run) -> dict:
        m = build_machine(prog, RunConfig())
        run(m, cut)
        dev = DwtUnit() if name == "dwt" else DemcrModel()
        dev.mmio_write(None, addr, 0x5A5A)
        setattr(m, name, dev)
        run(m, 10_000)
        return observe(m, False)

    def stepped(m, limit):
        while m.steps < limit and not m.halted:
            m.step()

    want = swapped(stepped)
    assert want["halt"][:2] == (True, HaltReason.NORMAL)
    page = want["mem"][0x20000]
    reads = [int.from_bytes(page[0x100 + 4 * i:0x104 + 4 * i], "little")
             for i in range(PASSES)]
    assert reads[PASSES - 3:] == [0x5A5A, 3, 2]
    for hot in (1, blocks.HOT_THRESHOLD):
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "HOT_THRESHOLD", hot)
            assert_same(want, swapped(Machine.run), "%s hot %d" % (name, hot))


@pytest.mark.parametrize("swap", ["guard", "watch"])
def test_a_guard_replaced_between_runs_is_the_one_shown(swap, monkeypatch):
    """Four stores before a report-policy sweep leaves the shadow
    region, past its loop's compile, the guard is replaced by a fresh
    one, or the machine is made to show it every access.  The passes
    after the swap record into the new guard's log, or show the guard
    each store, which names only the four hits, as step() does: run()
    drops its blocks on a new guard, whose hits run the guard's lines
    bound to its log, and a block made for the unit's regions finds
    another watch state on entry once the guard is shown every access."""
    prog = parse(sweep_program(SHADOW.ss_limit - 40, SHADOW.ss_limit + 40))
    cfg = RunConfig(protected=True, policy=POLICY_REPORT, shadow=SHADOW)
    cut = 5 + 4 * 36  # the strb of pass 37, four bytes below the limit

    def swapped(run) -> dict:
        m = build_machine(prog, cfg)
        first = m.guard
        run(m, cut)
        if swap == "guard":
            m.guard = WatchpointGuard(m.dwt, first.reset)
        else:
            _see_everything(m)
        run(m, 10_000)
        return {**observe(m, False), "first": first.records}

    def stepped(m, limit):
        while m.steps < limit and not m.halted:
            m.step()

    want = swapped(stepped)
    assert want["halt"][:2] == (True, HaltReason.NORMAL)
    split = (36, 4) if swap == "guard" else (40, 40)
    assert (len(want["first"]), len(want["violations"])) == split
    for hot in (1, blocks.HOT_THRESHOLD):
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "HOT_THRESHOLD", hot)
            assert_same(want, swapped(Machine.run), "%s hot %d" % (swap, hot))


@pytest.mark.parametrize("op", sorted(OVERWRITES))
def test_a_movt_after_an_overwrite_is_not_folded(op, monkeypatch):
    """movw, an overwrite of its register, then movt: the movt keeps the
    overwritten low half, which the block does not know, while a movt
    right after its movw is compiled to the constant the two make."""
    tail = ["movt r0, #0x2001", "str r5, [r0]", "str r0, [r7, #4]"]
    prog = parse(_main("movw r0, #0x0200", *OVERWRITES[op], *tail))
    want = check(prog, RunConfig(max_steps=10_000), op, monkeypatch)
    assert want["regs"][0] == 0x20010000 | (0 if op == "mrs" else 0x100)
    plain = parse(_main("movw r0, #0x0200", *tail))
    folded = "r0 = %d" % 0x20010200  # the loop keeps r0 in a local
    for p, fold in ((prog, False), (plain, True)):
        loop = p.functions["main"].address(4)  # the loop's entry
        source = blocks._source(blocks._block_at(p.code, loop),
                                blocks._shape(Machine()),
                                blocks._state(Machine()))
        assert (folded in source) is fold


def _no_devices(m):
    m.dwt = m.demcr = None


@pytest.mark.parametrize("text", [LOCK, CYCCNT, OVERFLOW],
                         ids=["lock", "cyccnt", "overflow"])
def test_bound_accesses_on_a_machine_without_devices(text, monkeypatch):
    """Without its devices the machine has RAM at their addresses: a
    block that knows a device word's address runs no in-line form there
    and reaches the RAM through Machine.load/store."""
    want = check(parse(text), RunConfig(max_steps=2_000), "no devices",
                 monkeypatch, arm=_no_devices)
    assert want["dwt"] is None and want["steps"] > 2 * blocks.HOT_THRESHOLD


# -- blocks that branch back to their own entry ------------------------------------

# main's mov, then the loop block's 4 instructions per pass: pass p runs
# steps [1 + 4 (p - 1), 1 + 4 p).  run() first reaches the loop entry
# in pass 2, so the block is compiled, and loops, from pass hot + 1.
SELF_LOOP = LOOP % 3


@pytest.mark.parametrize("hot", [1, None], ids=["threshold 1", "default"])
def test_a_self_loop_stops_at_every_budget(hot, monkeypatch):
    """Budgets from the start of the last pass stepped before the block
    is compiled through the end of its second compiled pass: the loop
    must stop at each, mid-pass or between passes."""
    prog = parse(SELF_LOOP)
    hot = hot or blocks.HOT_THRESHOLD
    first = 1 + 4 * hot  # the first compiled pass's first step
    for budget in range(first - 4, first + 9):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "self-loop budget %d" % budget, monkeypatch)
        assert want["steps"] == budget and want["halt"][2]


def test_a_reset_sweep_halts_at_its_first_hit_inside_the_loop(monkeypatch):
    """The sweep's first store into the region comes in pass 41, after
    its loop block is compiled; it halts the run inside the loop."""
    prog = parse(sweep_program(SHADOW.ss_start - 40, SHADOW.ss_start + 8))
    strb = prog.functions["main"].address(5)
    want = check_watch(prog, _cfg(POLICY_RESET, None, 1_000), "reset sweep",
                       monkeypatch)
    assert want["halt"] == (True, HaltReason.RESET, False)
    assert want["steps"] == 5 + 4 * 40 + 1
    assert [(r.step_index, r.pc, r.data_address)
            for r in want["violations"]] == [(5 + 4 * 40, strb,
                                              SHADOW.ss_start)]
    assert want["events"][-1].at_pc == strb


# Each pass moves sp down by 8, with a push after an instruction that
# leaves it alone; the final add puts it back above its minimum.
SP_LOOP = """\
.org 0x08000000
.func main hal
    mov r5, #40
.label loop
    addw r6, r6, #1
    sub sp, #4
    push {r6}
    subw r5, r5, #1
    cmp r5, #0
    bne loop
    add sp, #320
    bkpt #0
.endfunc
"""


def test_a_loop_that_moves_sp_tracks_its_minimum(monkeypatch):
    want = check(parse(SP_LOOP), _cfg(POLICY_RESET, None, 10_000),
                 "sp loop", monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    sp = want["regs"][13]
    assert want["min_sp"] == sp - 320


# An endless loop of a byte store and an add, closed by a plain b.
B_LOOP = """\
.org 0x08000000
.func main hal
    movw r7, #0x0100
    movt r7, #0x2000
.label loop
    strb r5, [r7]
    addw r5, r5, #1
    b loop
.endfunc
"""


@pytest.mark.parametrize("budget", [1, 2, 3, 97, 98, 99, 100, 101, 1_000])
def test_a_b_self_loop_runs_to_the_budget(budget, monkeypatch):
    want = check_watch(parse(B_LOOP), _cfg(POLICY_REPORT, None, budget),
                       "b loop budget %d" % budget, monkeypatch)
    assert want["steps"] == budget and want["halt"] == (False, None, True)
    assert want["regs"][5] == (budget - 1) // 3  # addw runs 4th, 7th, ...


def test_a_loop_commits_what_the_see_everything_guard_lets_through(
        monkeypatch):
    """Shown every store, the guard answers False for each: the loop's
    compiled stores write them through Machine.store."""
    prog = parse(_main("str r5, [r7]", "strb r5, [r7, #4]",
                       "addw r7, r7, #8"))
    want = check(prog, _cfg(POLICY_RESET, None, 10_000), "see-everything",
                 monkeypatch, arm=_see_everything)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    assert want["violations"] == []
    page = want["mem"][0x20000]
    assert [page[0x100 + 8 * i] for i in range(PASSES)] == [
        PASSES - i for i in range(PASSES)]
    assert [page[0x104 + 8 * i] for i in range(PASSES)] == [
        PASSES - i for i in range(PASSES)]


# -- RAM accesses compiled inline ------------------------------------------------


def _loop(*body: str, head: tuple = ()) -> str:
    """main at 0x08000000: ``head``, then r5 counts PASSES down while the
    loop runs ``body``."""
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *("    " + line for line in head), "    mov r5, #%d" % PASSES,
        ".label loop", *("    " + line for line in body),
        "    subw r5, r5, #1", "    cmp r5, #0", "    bne loop",
        "    bkpt #0", ".endfunc", ""])


FRESH = 0x20100000
NEXT_PAGE = ["addw r6, r6, #2048", "addw r6, r6, #2048"]

# Each pass reads a word and a byte from a page nothing wrote, then
# writes a byte to the next page and a word to the last word of the
# page after, each fresh, and reads both back.
FRESH_PAGES = _loop(
    "ldr r1, [r6]", "ldrb r2, [r6, #4095]", *NEXT_PAGE,
    "strb r5, [r6, #1]", "ldrb r3, [r6, #1]", *NEXT_PAGE,
    "str r5, [r6, #4092]", "ldr r4, [r6, #4092]", *NEXT_PAGE,
    head=_const("r6", FRESH))


def test_unwritten_pages_read_zero_and_stores_create_theirs(monkeypatch):
    for policy in (POLICY_RESET, POLICY_REPORT):
        want = check_watch(parse(FRESH_PAGES), _cfg(policy, None, 10_000),
                           "fresh pages " + policy, monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert want["regs"][1:5] == [0, 0, 1, 1]
        assert sorted(want["mem"]) == sorted(
            (FRESH >> 12) + 3 * i + k for i in range(PASSES) for k in (1, 2))
        page = want["mem"][(FRESH >> 12) + 2]
        assert page[-4:] == bytes([PASSES, 0, 0, 0])


# Each pass pushes r5 and r6 and pops them into r1 and r2; r6 counts up
# by 3 through the stack.
PUSH_POP = _loop("push {r5, r6}", "pop {r1, r2}", "addw r6, r2, #3")


@pytest.mark.parametrize("sp", [
    0x20001008, 0x20001004, 0x20001006, 0x20001005, 0x20001007, 0x20001002,
    PPB_BASE + 8, PPB_BASE + 4, PPB_BASE + 2, PPB_BASE + 12, 4, 0],
    ids=lambda sp: "%#x" % sp)
def test_push_and_pop_on_page_and_ppb_edges(sp, monkeypatch):
    """The pushed words at sp - 8 and sp - 4: both on one page, the last
    word of a page and the first of the next, or one across two pages;
    below, at and across PPB_BASE; and across address 0, where sp and
    the words' addresses wrap to the top of the 32-bit space."""
    for policy in (POLICY_RESET, POLICY_REPORT):
        want = check_watch(parse(PUSH_POP),
                           _cfg(policy, None, 10_000, initial_sp=sp),
                           "push/pop sp %#x %s" % (sp, policy), monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert want["regs"][1:3] == [1, 3 * (PASSES - 1)]
        assert want["regs"][6] == 3 * PASSES and want["regs"][13] == sp
        assert all(0 <= base < 1 << 20 for base in want["mem"])


def test_a_pop_and_push_on_watchpoint_registers(monkeypatch):
    """sp at COMP0: each pass pops COMP0 and MASK0 from the unit and
    pushes them back, through its register file and not RAM."""
    prog = parse(_loop("pop {r1, r2}", "push {r1, r2}", "addw r6, r2, #0"))
    for policy in (POLICY_RESET, POLICY_REPORT):
        want = check_watch(prog, _cfg(policy, None, 10_000,
                                      initial_sp=DWT_COMP0),
                           "COMP0 " + policy, monkeypatch)
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert want["regs"][1:3] == [SHADOW.ss_start, SHADOW.ss_size_log2]
        assert want["mem"] == {} and want["violations"] == []


PUSH_ONTO_DEMCR = "\n".join([
    ".org 0x08000000", ".func main hal", "    movw r0, #0xabcd",
    "    mov r1, #7", "    push {r0, r1}", "    bkpt #0", ".endfunc", ""])


def test_a_misaligned_push_word_on_demcr_faults(monkeypatch):
    """sp at DEMCR + 6: the second pushed word starts inside the control
    word, misaligned.  Unprotected it is a bad access: the run faults
    there, and RAM takes the first word, at DEMCR - 2.  Protected, both
    words hit the lock's comparator, which covers the whole control
    word, and are suppressed; the reset policy halts at the push, and
    the report policy runs on to the bkpt.  DEMCR keeps its value."""
    prog = parse(PUSH_ONTO_DEMCR)
    off = (DEMCR_ADDR - 2) & 0xFFF
    for policy in (None, POLICY_RESET, POLICY_REPORT):
        if policy is None:
            cfg = RunConfig(initial_sp=DEMCR_ADDR + 6)
            want = check(prog, cfg, "push onto DEMCR", monkeypatch)
            assert want["mem"][DEMCR_ADDR >> 12][off:off + 4] == bytes(
                [0xCD, 0xAB, 0, 0])
            assert want["halt"] == (True, HaltReason.FAULT, False)
            assert want["steps"] == 3
        else:
            cfg = _cfg(policy, None, 100, initial_sp=DEMCR_ADDR + 6)
            want = check_watch(prog, cfg, "push onto DEMCR " + policy,
                               monkeypatch)
            assert want["mem"] == {}
            assert [(r.data_address, r.comparator_id)
                    for r in want["violations"]] == [(DEMCR_ADDR - 2, 2),
                                                     (DEMCR_ADDR + 2, 2)]
            assert want["halt"] == (
                (True, HaltReason.RESET, False) if policy == POLICY_RESET
                else (True, HaltReason.NORMAL, False))
            assert want["steps"] == (3 if policy == POLICY_RESET else 4)
        assert want["dwt"][1] == build_machine(prog, cfg).demcr.value


def test_the_first_halt_of_an_instruction_stands(monkeypatch):
    """A shadow region that ends where the DWT window starts, and sp 6
    bytes into the window: the push's first word, 2 bytes below the
    window, hits comparator 0 and is suppressed; its second starts
    misaligned inside the window, a bad access.  Under the reset policy
    the guard halts first, and that halt stands: the run ends RESET and
    the CLI exits 3.  Under the report policy the fault ends the run."""
    prog = parse(PUSH_ONTO_DEMCR)
    shadow = ShadowStackConfig(ss_start=DWT_WINDOW_LO - 0x100, ss_size_log2=8)
    for policy, reason, code in ((POLICY_RESET, HaltReason.RESET,
                                  EXIT_VIOLATION),
                                 (POLICY_REPORT, HaltReason.FAULT,
                                  EXIT_FAULT)):
        cfg = RunConfig(protected=True, policy=policy, shadow=shadow,
                        max_steps=100, initial_sp=DWT_WINDOW_LO + 6)
        want = check(prog, cfg, "push across the DWT window " + policy,
                     monkeypatch)
        assert want["halt"] == (True, reason, False)
        assert [(r.data_address, r.comparator_id)
                for r in want["violations"]] == [(DWT_WINDOW_LO - 2, 0)]
        assert [e.reason for e in want["events"]] == [reason]
        assert want["steps"] == 3
        assert _exit_code(run_machine(build_machine(prog, cfg), cfg)) == code


# Passes that reach the region read-watched by comparator 0 come after
# the loop block is compiled: the ldr reads from the region in the last
# 2 passes, and the pop's second word in the last 2 passes, its first
# word in the last one.
READS = {
    "ldr": (_loop("addw r6, r6, #1", "ldr r1, [r7]", "addw r7, r7, #4",
                  head=_const("r7", SHADOW.ss_start - 4 * (PASSES - 2))),
            {}, 2),
    "pop": (_loop("addw r6, r6, #1", "pop {r1, r2}", "sub sp, #4"),
            {"initial_sp": SHADOW.ss_start - 4 * PASSES + 4}, 3),
}


@pytest.mark.parametrize("op", sorted(READS))
def test_read_watch_hits_late_in_a_compiled_loop(op, monkeypatch):
    text, kw, hits = READS[op]

    def watch_reads(m):
        m.dwt.mmio_write(m, DWT_FUNCTION0, FN_READ)

    for policy, records in ((POLICY_REPORT, hits), (POLICY_RESET, 1)):
        want = check_watch(parse(text), _cfg(policy, None, 10_000, **kw),
                           "%s read watch %s" % (op, policy), monkeypatch,
                           arm=watch_reads)
        assert want["halt"][:2] == (True, HaltReason.NORMAL
                                    if policy == POLICY_REPORT
                                    else HaltReason.RESET)
        assert len(want["violations"]) == records
        assert {r.access for r in want["violations"]} == {ACCESS_READ}
        assert want["violations"][0].step_index > 4 * blocks.HOT_THRESHOLD


def test_a_reset_push_commits_the_word_after_a_hit(monkeypatch):
    """The last pass pushes r5 onto the last word of the shadow region,
    which comparator 0 suppresses, and r6 just above it, which commits
    though the guard halted the run on the first word."""
    sp = SHADOW.ss_limit - 4 + 8 * PASSES
    prog = parse(_loop("push {r5, r6}", "addw r6, r6, #1"))
    for policy in (POLICY_RESET, POLICY_REPORT):
        want = check_watch(prog, _cfg(policy, None, 10_000, initial_sp=sp),
                           "push hit " + policy, monkeypatch)
        assert [(r.data_address, r.suppressed_value)
                for r in want["violations"]] == [(SHADOW.ss_limit - 4, 1)]
        page = want["mem"][SHADOW.ss_limit >> 12]
        assert page[:4] == bytes([PASSES - 1, 0, 0, 0])
        assert want["halt"][1] == (HaltReason.RESET if policy == POLICY_RESET
                                   else HaltReason.NORMAL)


# r0 holds CYCCNT's address, loaded from RAM so that the block cannot
# bind it; each pass reads the counter after inline accesses, through
# r0 and through a constant, and stores both readings.
CYCCNT_LATE = _loop(
    "ldr r0, [r7]", "push {r5, r6}", "pop {r1, r2}", "ldr r3, [r0]",
    "ldrb r4, [r0, #1]", "str r3, [r6]", "strb r4, [r6, #4]",
    *_const("r2", DWT_CYCCNT), "ldr r4, [r2]", "str r4, [r6, #8]",
    "addw r6, r6, #12",
    head=(*_const("r7", 0x20000100), *_const("r0", DWT_CYCCNT),
          "str r0, [r7]", *_const("r6", 0x20000200)))


def test_cyccnt_reads_after_inline_accesses(monkeypatch):
    want = check_watch(parse(CYCCNT_LATE), _cfg(POLICY_RESET, None, 10_000),
                       "cyccnt late", monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    page = want["mem"][0x20000]
    first = int.from_bytes(page[0x200:0x204], "little")
    counts = [int.from_bytes(page[0x200 + 12 * i:0x204 + 12 * i], "little")
              for i in range(PASSES)]
    cost = counts[1] - first
    assert counts == [first + cost * i for i in range(PASSES)]
    assert page[0x204] == (first >> 8) & 0xFF


# -- the hull, the one test of compiled stack and register accesses -------

def _program(m, gid: int, comp: int, mask: int, function: int) -> None:
    base = DWT_COMP0 + DWT_GROUP_STRIDE * gid
    for off, value in ((0, comp), (4, mask), (8, function)):
        m.dwt.mmio_write(m, base + off, value)


# sp starts at FRAME_SP; each pass pushes a 12-byte frame, stores and
# loads inside it through sp, and pops it.  Comparator 0 write-watches
# the frame's middle word and comparator 2 read-watches its top word, so
# per pass 2 writes (the pushed r6, the str) and 3 reads (the ldr, the
# ldrb, the popped r3) hit; the frame's bottom word misses both, outside
# the hull, and the popped middle word misses inside it.
FRAME_SP = 0x20001008
FRAME = _loop("push {r5, r6, r7}", "str r5, [sp, #4]", "ldr r4, [sp, #8]",
              "ldrb r4, [sp, #9]", "strb r5, [sp]", "pop {r1, r2, r3}",
              "addw r6, r6, #1")


def _watch_the_frame(m):
    _program(m, 0, FRAME_SP - 8, 2, FN_WRITE)
    _program(m, 2, FRAME_SP - 4, 2, FN_READ)


def test_pushed_and_popped_words_hit_comparators_on_the_stack(monkeypatch):
    for policy, passes in ((POLICY_REPORT, PASSES), (POLICY_RESET, 1)):
        want = check_watch(parse(FRAME),
                           _cfg(policy, None, 10_000, initial_sp=FRAME_SP),
                           "frame " + policy, monkeypatch,
                           arm=_watch_the_frame)
        hits = [(r.data_address, r.comparator_id, r.access)
                for r in want["violations"]]
        assert hits == [(FRAME_SP - 8, 0, ACCESS_WRITE),
                        (FRAME_SP - 8, 0, ACCESS_WRITE),
                        (FRAME_SP - 4, 2, ACCESS_READ),
                        (FRAME_SP - 3, 2, ACCESS_READ),
                        (FRAME_SP - 4, 2, ACCESS_READ)][
            :1 if policy == POLICY_RESET else 5] * passes
        assert want["halt"] == (True, HaltReason.NORMAL
                                if policy == POLICY_REPORT
                                else HaltReason.RESET, False)
        # The suppressed words never reach RAM: the pops read 0 there.
        assert want["regs"][2] == 0


# Each pass disarms comparator 0, reads COMP1 and writes it back 4 up,
# and arms comparator 0 again, through constant addresses that the block
# binds to the unit's ports.
BOUND_WORDS = _loop(*_const("r0", DWT_FUNCTION0), *_const("r1", DWT_COMP1),
                    "mov r3, #0", "str r3, [r0]", "ldr r2, [r1]",
                    "addw r2, r2, #4", "str r2, [r1]", "mov r3, #6",
                    "str r3, [r0]")


def _watch_groups_0_and_1(function):
    """Comparator 2 over [COMP0, COMP2), FUNCTION0's and COMP1's words
    among them, for the accesses ``function`` names."""
    def arm(m):
        _program(m, 2, DWT_COMP0, 5, function)
    return arm


@pytest.mark.parametrize("name", ["loop", "recursion"])
def test_bound_register_words_hit_a_comparator(name, monkeypatch):
    """The loop's four register accesses a pass hit and are suppressed
    or recorded; the instrumented recursion's COMP1 reads hit a read
    comparator, and its register writes, inside the hull, miss."""
    if name == "loop":
        prog, function, kinds = parse(BOUND_WORDS), FN_READWRITE, [
            (DWT_FUNCTION0, ACCESS_WRITE), (DWT_COMP1, ACCESS_READ),
            (DWT_COMP1, ACCESS_WRITE), (DWT_FUNCTION0, ACCESS_WRITE)]
    else:
        prog = instrument_program(parse(recursion_program(40)),
                                  SHADOW).program
        function, kinds = FN_READ, [(DWT_COMP1, ACCESS_READ)]
    for policy in (POLICY_REPORT, POLICY_RESET):
        want = check_watch(prog, _cfg(policy, None, 10_000),
                           "%s %s" % (name, policy), monkeypatch,
                           arm=_watch_groups_0_and_1(function))
        hits = [(r.data_address, r.access) for r in want["violations"]]
        assert {r.comparator_id for r in want["violations"]} == {2}
        if policy == POLICY_RESET:
            assert hits == kinds[:1]
            assert want["halt"][:2] == (True, HaltReason.RESET)
            continue
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert hits == kinds * (len(hits) // len(kinds))
        assert len(hits) >= len(kinds) * PASSES
        if name == "loop":  # every write was suppressed
            groups = want["dwt"][0]
            assert (groups[0].function, groups[1].comp) == (
                FN_WRITE, SHADOW.ss_start)


# -- what reaches the generic access path ------------------------------------------

def _counted(monkeypatch, owner, *names) -> list:
    """One counter, in a list, of the calls of the named methods of
    ``owner`` from now on."""
    calls = [0]

    def counting(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    return calls


def test_the_recursion_makes_no_generic_access_a_call(monkeypatch):
    """Compiled, the instrumented recursion's six watchpoint-register
    accesses a call reach the unit directly, and its RAM accesses (the
    two pushed words, the pop, and the shadow store and load of lr) miss
    the comparators and touch their pages inline.  The only generic
    calls are the Machine.store calls that create the stack's page, one
    for each word of the push that finds it absent, and the shadow
    stack's."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    loads = _counted(monkeypatch, Machine, "load")
    stores = _counted(monkeypatch, Machine, "store")
    depth = 64
    prog = instrument_program(parse(recursion_program(depth)),
                              SHADOW).program
    cfg = RunConfig(protected=True, shadow=SHADOW)
    m = build_machine(prog, cfg)
    mmio = _counted(monkeypatch, DwtUnit, "mmio_read", "mmio_write")
    run = run_machine(m, cfg)
    assert run.outcome == OUTCOME_SAFE and run.steps == 24 * depth + 1
    assert loads[0] == mmio[0] == 0
    assert stores[0] == len(m.mem.pages) + 1 == 3


def test_no_recursion_block_tests_a_comparator_region(monkeypatch):
    """At the default hot threshold the instrumented recursion compiles
    three blocks, each for the watch state it runs under.  Their pushed
    words test the write regions' hull, as constants, their popped words
    test no hull, as no comparator watches reads, and no block reads
    ``m.watch`` or has a hit arm: the shadow stack's ``str.w lr`` runs
    with FUNCTION0 disarmed, and the lock's regions lie above PPB_BASE,
    where no access in line does."""
    entries = []
    compile_block = blocks.Block.compile

    def recorded(blk, m, pc):
        compile_block(blk, m, pc)
        entries.append(pc)

    monkeypatch.setattr(blocks.Block, "compile", recorded)
    prog = instrument_program(parse(recursion_program(8192)), SHADOW).program
    cfg = RunConfig(protected=True, shadow=SHADOW)
    run = run_program(prog, cfg)
    assert run.outcome == OUTCOME_SAFE and len(entries) == 3
    m = build_machine(prog, cfg)
    hulls = 0
    for entry in entries:
        source = blocks._source(blocks._block_at(prog.code, entry),
                                blocks._shape(m), blocks._state(m))
        assert "m.watch" not in source and "L(Y(" not in source
        hulls += source.count("(sp >= %d or sp + " % SHADOW.ss_limit)
    assert hulls == 2  # a push in two blocks; the pop in one tests none


def test_no_compiled_pass_calls_a_watchpoint_port(monkeypatch):
    """At the default hot threshold, the protected recursion's six
    watchpoint-register accesses a call reach a port only while run()
    steps a block that is not hot yet, and while the machine is armed:
    compiled blocks run them in line, with no port call, direct or
    through Machine.load/store."""
    calls = {True: 0, False: 0}  # by whether compiled code made them

    def compiled() -> bool:
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_filename != "<block>":
            frame = frame.f_back
        return frame is not None

    def counted(port):
        def wrapper(*args):
            calls[compiled()] += 1
            return port(*args)
        return wrapper

    for addr, (read, write) in list(dwt._PORTS.items()):
        monkeypatch.setitem(dwt._PORTS, addr, (counted(read), counted(write)))
    depth = 1024
    prog = instrument_program(parse(recursion_program(depth)), SHADOW).program
    run = run_program(prog, RunConfig(protected=True, shadow=SHADOW))
    assert run.outcome == OUTCOME_SAFE and run.steps == 24 * depth + 1
    assert calls[False] > 0 and calls[True] == 0


def _guard_calls(run) -> dict:
    """Calls of the guard's handlers made while ``run()`` runs, by
    whether compiled code made them, directly or through the machine."""
    handlers = {WatchpointGuard.on_load.__code__,
                WatchpointGuard.on_store.__code__}
    calls = {True: 0, False: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in handlers:
            while frame is not None and frame.f_code.co_filename != "<block>":
                frame = frame.f_back
            calls[frame is not None] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_compiled_sweep_shows_the_guard_each_hit_once(monkeypatch):
    """Compiled, a report-policy sweep's byte stores test the comparators
    in line, and each hit runs the guard's own lines there: 256 records,
    no guard call from compiled code, and one store through
    Machine.store, the first, which creates its page.  Stepped, the
    guard's handler is called once a hit."""
    stores = _counted(monkeypatch, Machine, "store")
    prog = parse(sweep_program(SHADOW.ss_start - 64, SHADOW.ss_start + 256))
    cfg = RunConfig(protected=True, policy=POLICY_REPORT, shadow=SHADOW)
    for hot, calls in ((1, {True: 0, False: 0}), (10**9, {False: 256})):
        stores[0] = 0
        runs = []
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "HOT_THRESHOLD", hot)
            got = _guard_calls(lambda: runs.append(run_program(prog, cfg)))
        run, = runs
        assert run.halt_reason == HaltReason.NORMAL
        assert run.steps == 5 + 4 * 320 + 1 and len(run.violations) == 256
        assert got == {True: 0, False: 0, **calls}
        assert stores[0] == (1 if hot == 1 else 320)


# -- comparator hits recorded in line ---------------------------------------------

def _watch_words(nested: bool):
    """Group g watches reads and writes of the word at ss_start + 16 g;
    ``nested``, group 3 watches all four words, so that the lowest group
    covering an access must name it."""
    def arm(m):
        for gid in range(4):
            _program(m, gid, SHADOW.ss_start + 16 * gid,
                     6 if nested and gid == 3 else 2, FN_READWRITE)
    return arm


# Each op's access to the watched word in r0, as a loop body.
HIT_OPS = {"str": "str r5, [r0]", "strb": "strb r5, [r0, #1]",
           "ldr": "ldr r1, [r0]", "ldrb": "ldrb r1, [r0, #3]"}


@pytest.mark.parametrize("nested", [False, True], ids=["apart", "nested"])
@pytest.mark.parametrize("gid", range(4))
@pytest.mark.parametrize("op", sorted(HIT_OPS))
def test_each_comparator_hit_is_recorded_as_step_does(op, gid, nested,
                                                      monkeypatch):
    """Every pass's access hits comparator gid, alone or under group 3's
    wider region: its record, equal to step()'s byte for byte, names the
    lowest, and the policy is applied in the compiled loop."""
    prog = parse(_loop("addw r1, r1, #7", HIT_OPS[op], "str r1, [r7]",
                       head=(*_const("r0", SHADOW.ss_start + 16 * gid),
                             *_const("r7", 0x20000100))))
    for policy, hits in ((POLICY_REPORT, PASSES), (POLICY_RESET, 1)):
        want = check(prog, _cfg(policy, None, 10_000),
                     "%s %d %s" % (op, gid, policy), monkeypatch,
                     arm=_watch_words(nested))
        assert want["halt"][:2] == (True, HaltReason.NORMAL
                                    if policy == POLICY_REPORT
                                    else HaltReason.RESET)
        assert len(want["violations"]) == hits
        assert {r.comparator_id for r in want["violations"]} == {gid}


@pytest.mark.parametrize("policy", [POLICY_RESET, POLICY_REPORT])
def test_a_hit_on_a_loops_last_pass_at_the_budget(policy, monkeypatch):
    """The sweep's first store into the shadow region is pass 51's, in
    its compiled loop at any threshold; budgets up to, at and past the
    end of that pass cut the loop before it, on it, or after it."""
    prog = parse(sweep_program(SHADOW.ss_start - 50, SHADOW.ss_start + 8))
    first = 5 + 4 * 50  # the step index of the first hit
    for budget in range(first - 3, first + 10):
        want = check(prog, _cfg(policy, None, budget),
                     "budget %d %s" % (budget, policy), monkeypatch)
        hits = max(0, budget - first + 3) // 4
        assert len(want["violations"]) == (
            min(hits, 1) if policy == POLICY_RESET else hits)
        assert [r.step_index for r in want["violations"]] == [
            first + 4 * k for k in range(len(want["violations"]))]


# -- traces: blocks that follow b and bl ------------------------------------------

@pytest.mark.parametrize("loop", ["descent", "ascent"])
def test_step_budget_cuts_inside_the_recursions_trace_loops(loop,
                                                             monkeypatch):
    """The instrumented recursion 40 deep: main (2 steps), then per call
    its prologue and test (13) and, but for the deepest, the subw and bl
    (2) that the descent's trace follows back into the prologue, so a
    descent pass of 15 steps starts at step 15 k; then 40 epilogues of 9
    steps from step 600, each of whose bx lr returns to the next, and the
    bkpt.  Every budget from the first descent pass to the halt.  At a
    hot threshold of 1 both are compiled loops; by default the ascent
    is from its 32nd pass."""
    prog = instrument_program(parse(recursion_program(40)), SHADOW).program
    entry, size, first, last = {"descent": (0x08000038, 15, 15, 600),
                                "ascent": (0x08000040, 9, 600, 961)}[loop]
    assert len(blocks._block_at(prog.code, entry)) == size
    for budget in range(first, last + 1):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "%s budget %d" % (loop, budget), monkeypatch)
        assert want["steps"] == budget


def test_the_recursion_runs_as_two_compiled_loops(monkeypatch):
    """With every block compiled on first reach, the recursion's run()
    calls three compiled blocks: main's, which follows the bl into the
    first call, the descent, and the ascent."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    calls = []
    compile_block = blocks.Block.compile

    def counted(blk, m, pc):
        compile_block(blk, m, pc)
        fn = blk.fn
        if fn is not None:
            def counting(m, limit):
                calls.append(pc)
                return fn(m, limit)
            blk.fn = counting

    monkeypatch.setattr(blocks.Block, "compile", counted)
    prog = instrument_program(parse(recursion_program(64)), SHADOW).program
    run = run_program(prog, RunConfig(protected=True, shadow=SHADOW))
    assert run.outcome == OUTCOME_SAFE and run.steps == 24 * 64 + 1
    assert calls == [0x08000000, 0x08000038, 0x08000040]


# A loop that puts FUNCTION0's address in lr, then calls f through a bl
# that the loop's trace follows; f stores r1 through lr, which the bl
# has made the return address, a RAM word past the bl.
LINKED_LR = """\
.org 0x08000000
.func main hal
    mov r5, #%d
    mov r1, #0x55
.label loop
    movw lr, #0x%04x
    movt lr, #0x%04x
    bl f
    subw r5, r5, #1
    cmp r5, #0
    bne loop
    bkpt #0
.endfunc
.func f
    str r1, [lr]
    bx lr
.endfunc
""" % (PASSES, DWT_FUNCTION0 & 0xFFFF, DWT_FUNCTION0 >> 16)


def test_a_followed_bl_forgets_the_constant_in_lr(monkeypatch):
    """The trace folds movw/movt into lr, but the bl writes lr, so f's
    store lands in RAM at the return address, not on FUNCTION0."""
    prog = parse(LINKED_LR)
    after = prog.functions["main"].address(5)
    assert after % 4 == 0
    want = check(prog, RunConfig(max_steps=10_000), "linked lr",
                 monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    assert want["dwt"][0][0].function == 0
    page = want["mem"][after >> 12]
    assert page[after & 0xFFF] == 0x55


# A loop whose trace follows a b and a bl into f, which stores at r7 and
# moves r7 up a word; r7 starts PASSES - 1 words below the shadow stack,
# so pass PASSES stores into it.  main takes 2 steps and each pass 6:
# mov, bl, str, addw, bx lr, b.
FOLLOWED_HIT = """\
.org 0x08000000
.func main hal
    movw r7, #0x%04x
    movt r7, #0x%04x
.label loop
    mov r6, #1
    bl f
    b loop
.endfunc
.func f
    str r6, [r7]
    addw r7, r7, #4
    bx lr
.endfunc
""" % ((SHADOW.ss_start - 4 * (PASSES - 1)) & 0xFFFF,
       (SHADOW.ss_start - 4 * (PASSES - 1)) >> 16)


def test_a_reset_hit_after_a_followed_bl_records_its_step_and_pc(
        monkeypatch):
    prog = parse(FOLLOWED_HIT)
    str_at = prog.functions["f"].entry
    want = check_watch(prog, _cfg(POLICY_RESET, None, 10_000),
                       "followed hit", monkeypatch)
    hit = 2 + 6 * (PASSES - 1) + 2  # steps before pass PASSES's str
    assert want["halt"] == (True, HaltReason.RESET, False)
    assert want["steps"] == hit + 1
    assert [(r.step_index, r.pc, r.data_address)
            for r in want["violations"]] == [(hit, str_at, SHADOW.ss_start)]
    assert want["events"][-1].at_pc == str_at


# -- the packed violation log against a plain list ---------------------------------

class ListGuard(WatchpointGuard):
    """The guard, also keeping each hit it records as a ViolationRecord
    in a plain list, made from the machine state it sees."""

    def __init__(self, dwt, reset):
        super().__init__(dwt, reset)
        self.plain = []

    def on_load(self, m, addr, size):
        self._keep(m, addr, size, 0, ACCESS_READ)
        super().on_load(m, addr, size)

    def on_store(self, m, addr, size, value):
        self._keep(m, addr, size, value, ACCESS_WRITE)
        return super().on_store(m, addr, size, value)

    def _keep(self, m, addr, size, value, access):
        cid = self.dwt.match_access(addr, size, access)
        if cid is not None:
            self.plain.append(ViolationRecord(m.steps, m.cur_pc, addr, cid,
                                              value, size, access))


def _watch_reads(m):
    m.dwt.mmio_write(m, DWT_FUNCTION0, FN_READ)


# Name -> (program, arm, hits under the report policy): the report
# sweep, a read-watched ldr and a bound one, and stores onto the DEMCR
# lock (comparator 2) and group 3's registers.
LOGGED = {
    "sweep": (sweep_program(SHADOW.ss_start - 64, SHADOW.ss_start + 256),
              None, 256),
    "read": (READS["ldr"][0], _watch_reads, 2),
    "bound read": (COMP1_READ, _watch_comp1_reads, PASSES),
    "lock": (LOCK, None, 3 * PASSES),
}


@pytest.mark.parametrize("policy", [POLICY_REPORT, POLICY_RESET])
@pytest.mark.parametrize("name", sorted(LOGGED))
def test_the_log_equals_a_plain_list_of_the_same_hits(name, policy,
                                                      monkeypatch):
    text, arm, hits = LOGGED[name]
    prog = parse(text)
    cfg = _cfg(policy, None, 10_000)

    def logged(run):
        m = build_machine(prog, cfg)
        if arm is not None:
            arm(m)
        m.guard = ListGuard(m.dwt, m.guard.reset)
        run(m)
        return m.guard

    guards = [logged(lambda m: reference_run(m, cfg)),
              logged(lambda m: run_machine(m, cfg))]
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        guards.append(logged(lambda m: run_machine(m, cfg)))
    for guard in guards:
        assert len(guard.plain) == (hits if policy == POLICY_REPORT else 1)
        assert guard.records == guard.plain and guard.plain == guard.records
        assert list(guard.records) == guard.plain
        n = len(guard.plain)
        assert [guard.records[i - n] for i in range(n)] == guard.plain
        assert guard.plain == guards[0].plain


# -- flags and counts a compiled loop keeps in locals -------------------------------

FLAGS_TABLE = 0x20000800
FLAGS_SCRATCH = FLAGS_TABLE - 4


def _flags_loop(r7: int) -> str:
    """main (6 steps), then PASSES passes of 8 steps: a byte store at r7,
    which then moves up one, the pass's pair loaded from a table and
    compared, a word store after the compare, and ``bne`` back while the
    pair differs.  The pairs are FLAG_PAIRS' unequal ones in turn, so a
    pass leaves other flags than the pass before it; the last pass's
    pair is equal.  Pass p (from 1) starts at step 6 + 8 (p - 1) with
    its byte store."""
    unequal = [p for p in FLAG_PAIRS if p[0] != p[1]]
    pairs = [unequal[p % len(unequal)] for p in range(PASSES - 1)] + [(5, 5)]
    head = (*_const("r5", FLAGS_TABLE), *_const("r7", r7),
            *_const("r4", FLAGS_SCRATCH))
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *("    " + line for line in head),
        ".label loop",
        "    strb r6, [r7]", "    addw r7, r7, #1",
        "    ldr r0, [r5]", "    ldr r1, [r5, #4]", "    cmp r0, r1",
        "    str r0, [r4]", "    addw r5, r5, #8", "    bne loop",
        "    bkpt #0", ".endfunc", ".org 0x%08x" % FLAGS_TABLE,
        *(".word 0x%08x\n.word 0x%08x" % p for p in pairs), ""])


def _pass_start(p: int) -> int:
    return 6 + 8 * (p - 1)


def _nzcv(a: int, b: int) -> int:
    """xPSR's top four bits after ``cmp`` of a and b, from the signed and
    unsigned orders alone."""
    def signed(v):
        return v - (1 << 32) if v >> 31 else v

    r = (a - b) & 0xFFFFFFFF
    v = signed(a) - signed(b) != signed(r)
    return (r >> 31) << 3 | (r == 0) << 2 | (a >= b) << 1 | v


def test_deferred_flags_at_every_budget(monkeypatch):
    """Budgets that cut the loop at every step of its passes 1-3, and of
    the three passes from the default hot threshold on.  A compiled pass
    keeps its compare's flags in locals: the budget return must write
    the flags of the pass it ends, which the pass before it did not
    leave, and step() then reads them."""
    prog = parse(_flags_loop(0x20000400))
    for p in (1, blocks.HOT_THRESHOLD):
        for budget in range(_pass_start(p), _pass_start(p + 3) + 1):
            want = check(prog, _cfg(POLICY_RESET, None, budget),
                         "flags budget %d" % budget, monkeypatch)
            assert want["steps"] == budget and want["halt"][2]


@pytest.mark.parametrize("hit", [1, 2, 3, blocks.HOT_THRESHOLD + 2])
def test_deferred_flags_at_a_reset_hit_before_the_compare(hit, monkeypatch):
    """r7 starts hit - 1 bytes below the shadow stack, so the byte store
    of pass ``hit``, before that pass's compare, hits comparator 0 and
    halts: the machine is left with the flags of pass hit - 1's compare,
    which an exit of a compiled pass past its first must write."""
    unequal = [p for p in FLAG_PAIRS if p[0] != p[1]]
    prog = parse(_flags_loop(SHADOW.ss_start - (hit - 1)))
    want = check(prog, _cfg(POLICY_RESET, None, 10_000),
                 "flags hit in pass %d" % hit, monkeypatch)
    assert want["halt"] == (True, HaltReason.RESET, False)
    assert want["steps"] == _pass_start(hit) + 1
    assert [r.step_index for r in want["violations"]] == [_pass_start(hit)]
    if hit > 1:
        last = unequal[(hit - 2) % len(unequal)]  # pass hit - 1's pair
        assert want["regs"][16] >> 28 == _nzcv(*last)


class _FlagsHook:
    """Sees every access and lets each through, keeping the step, pc and
    xPSR that the machine shows it at each."""

    def __init__(self) -> None:
        self.records = []

    def on_load(self, m, addr, size):
        self.records.append((m.steps, m.cur_pc, m.xpsr))

    def on_store(self, m, addr, size, value):
        self.records.append((m.steps, m.cur_pc, m.xpsr))
        return False


def _show_flags(m) -> None:
    m.guard = _FlagsHook()
    m.watch = WATCH_ALL


class _RegsHook(_FlagsHook):
    """As _FlagsHook, keeping the step and the registers the machine
    shows it at each access."""

    def on_load(self, m, addr, size):
        self.records.append((m.steps, tuple(m.gpr), m.sp, m.lr))

    def on_store(self, m, addr, size, value):
        self.on_load(m, addr, size)
        return False


def _show_regs(m) -> None:
    m.guard = _RegsHook()
    m.watch = WATCH_ALL


# A loop of 9 steps a pass, after 4 of main, whose six accesses all take
# the slow path under WATCH_ALL: it writes r6, pushes r6 and lr, pops
# them into r2 and r3 (the second word's guard call sees r2 written),
# reads and writes a word at r7 and calls the pass's tail with bl.
REGS_LOOP = _main("addw r6, r6, #1", "push {r6, lr}", "pop {r2, r3}",
                  "ldr r1, [r7]", "str r6, [r7]", "bl tail", ".label tail")


def test_a_guard_call_sees_the_registers_step_leaves(monkeypatch):
    """A hook shown every access reads the GPRs, sp and lr at each: a
    compiled loop that keeps them in locals must write them back before
    it shows the hook an access, at each budget that cuts a pass, and
    at its exits."""
    prog = parse(REGS_LOOP)
    first = 4 + 9 * (blocks.HOT_THRESHOLD - 1)  # pass HOT_THRESHOLD's start
    for budget in (10_000, *range(first, first + 2 * 9 + 1)):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "regs hook budget %d" % budget, monkeypatch,
                     arm=_show_regs)
        seen = want["violations"]
        if budget == 10_000:
            assert want["halt"][:2] == (True, HaltReason.NORMAL)
            assert len(seen) == 1 + 6 * PASSES  # main's str, then 6 a pass
            # four register states a pass: the push's, each pop word's
            # (the second sees r2 written) and the ldr's and str's
            assert len({regs[1:] for regs in seen}) > 4 * PASSES


# A loop that writes r2 before each of two loads and again after it: a
# RAM word at r7, and COMP1, whose address the block knows but which
# WATCH_ALL puts inside the read hull, so both take the slow path.
DEAD_LOOP = _main(*_const("r0", DWT_COMP1), "mov r2, #5", "ldr r1, [r7]",
                  "mov r2, #6", "ldr r3, [r0]", "mov r2, #7")


def test_a_write_that_only_a_slow_path_reads_is_kept(monkeypatch):
    """A register that the block writes again before it reads it is read
    by each slow path between, which shows a hook the access: a compiled
    block must keep the write before it, for a RAM word and for a device
    word at a known address inside its access kind's hull."""
    prog = parse(DEAD_LOOP)
    want = check(prog, _cfg(POLICY_RESET, None, 10_000), "dead writes",
                 monkeypatch, arm=_show_regs)
    assert want["halt"][:2] == (True, HaltReason.NORMAL)
    assert [regs[1][2] for regs in want["violations"]] == [0] + [5, 6] * PASSES


def test_deferred_flags_before_a_guard_call(monkeypatch):
    """A hook shown every access reads xPSR at each: the three before a
    pass's compare see the pass before's flags, the store after it the
    pass's own, so a compiled block must write pending flags with the
    state before it shows the hook an access."""
    prog = parse(_flags_loop(0x20000400))
    # budget -> accesses shown: 4 a pass, and 1 or 3 of pass 3's
    for budget, shown in ((10_000, 4 * PASSES), (_pass_start(3) + 2, 9),
                          (_pass_start(3) + 5, 11)):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "flags hook budget %d" % budget, monkeypatch,
                     arm=_show_flags)
        seen = want["violations"]
        assert len(seen) == shown and len({x for _, _, x in seen}) > 2


# Loops by the way their block reaches its entry: the program text
# (None: the instrumented recursion, 40 deep), the entry's label or
# address, and the budgets run besides 10**5.
FALL_THROUGH_LOOP = """\
.org 0x08000000
.func main hal
    mov r5, #%d
    b loop
.label check
    cmp r5, #0
    beq done
.label loop
    addw r6, r6, #1
    subw r5, r5, #1
    b check
.label done
    bkpt #0
.endfunc
""" % PASSES

# An endless loop whose trace follows its b back to a compare, which
# ends the block before the entry it falls through to; r5 counts down
# through 20, so the flags change over the first passes.
COMPARE_LAST_LOOP = """\
.org 0x08000000
.func main hal
    mov r5, #24
    b loop
.label back
    subw r5, r5, #1
    cmp r5, #20
.label loop
    addw r6, r6, #1
    b back
.endfunc
"""

LOOP_SHAPES = {
    "bcond taken": (_loop("addw r6, r6, #1"), "loop", range(1, 4 * PASSES)),
    "bcond falling through": (FALL_THROUGH_LOOP, "loop",
                              range(1, 5 * PASSES)),
    "bx lr": (None, 0x08000040, range(600, 962, 5)),
    "b, cut by the budget": (B_LOOP, "loop", range(1, 4 * PASSES)),
    "cmp, cut by the budget": (COMPARE_LAST_LOOP, "loop",
                               range(1, 4 * PASSES)),
}


@pytest.mark.parametrize("shape", sorted(LOOP_SHAPES))
def test_counts_are_folded_at_each_loop_exit(shape, monkeypatch):
    """A pass that goes on counts nothing; each exit adds the passes its
    call made, by the steps they took, to the last instruction's count,
    and to its taken count when a taken bcond reached the entry.  After
    each shape of loop, left at the end and at each budget, retired and
    taken are step()'s."""
    text, entry, budgets = LOOP_SHAPES[shape]
    if text is None:
        prog = instrument_program(parse(recursion_program(40)),
                                  SHADOW).program
    else:
        prog = parse(text)
        entry = prog.labels[entry]
    at, ins = blocks._block_at(prog.code, entry)[-1]
    exits = blocks._exits(at, ins)
    assert exits is None or entry in exits
    assert {"bcond taken": ins.op == "bcond" and ins.target == entry,
            "bcond falling through": ins.op == "bcond"
            and ins.target != entry,
            "bx lr": ins.op == "bx",
            "b, cut by the budget": exits == (entry,),
            "cmp, cut by the budget": ins.op == "cmp_imm"
            and exits == (entry,)}[shape]
    for budget in (10**5, *budgets):
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "%s budget %d" % (shape, budget), monkeypatch)
        if budget == 10**5:  # each loop makes 40 passes or more
            assert want["retired"][at] >= 40


def _fast_pass(source: str) -> list:
    """The statements and tests a compiled loop's pass runs when it goes
    on and takes no slow path: its while body, less each branch that
    leaves (a break or a return) or writes m.steps (as a block writes
    the state only at an exit or before a slow path)."""
    def fast(stmts):
        if any(isinstance(st, (ast.Break, ast.Return))
               or isinstance(st, ast.Assign)
               and ast.unparse(st.targets[0]) == "m.steps" for st in stmts):
            return []
        out = []
        for st in stmts:
            if isinstance(st, ast.If):
                out += [st.test, *fast(st.body), *fast(st.orelse)]
            else:
                out.append(st)
        return out

    loop, = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.While)]
    return fast(loop.body)


def _benchmark_loops() -> dict:
    """The benchmark's loops, by entry, each with the condition its last
    branch tests (or None for ``bx``), as generated for the benchmark's
    machines: the sweep's under report, and the recursion's descent
    (0x08000038) and ascent (0x08000040) under reset."""
    sweep = parse(sweep_program(SHADOW.ss_start - 1024,
                                SHADOW.ss_limit + 1024))
    recursion = instrument_program(parse(recursion_program(SHADOW.capacity)),
                                   SHADOW).program
    cases = ((sweep, POLICY_REPORT, sweep.labels["sweep"], "ne"),
             (recursion, POLICY_RESET, 0x08000038, "lt"),
             (recursion, POLICY_RESET, 0x08000040, None))
    loops = {}
    for prog, policy, entry, cond in cases:
        m = build_machine(prog, _cfg(policy, None, 10_000))
        loops[entry] = cond, blocks._source(
            blocks._block_at(prog.code, entry), blocks._shape(m),
            blocks._state(m))
    return loops


def _fast_nodes(source: str) -> list:
    return [node for st in _fast_pass(source) for node in ast.walk(st)]


def test_a_continuing_pass_writes_neither_flags_nor_counts():
    """The sweep's loop and the recursion's descent, as generated for the
    benchmark's machines: a pass that goes on branches on its pending
    compare, reads and writes no xPSR, and touches no count."""
    for cond, source in _benchmark_loops().values():
        if cond is None:
            continue
        nodes = _fast_nodes(source)
        text = {ast.unparse(node) for node in nodes}
        assert ast.unparse(ast.parse(semantics.COND[cond][1])) in text
        assert blocks.XPSR not in text
        assert not [node for node in nodes if isinstance(node, ast.Attribute)
                    and node.attr == "xpsr"]
        assert not [node for node in nodes if isinstance(node, ast.Subscript)
                    and ast.unparse(node.value) == "cnt"]


def _home(r: int) -> str:
    return {13: "m.sp", 14: "m.lr"}.get(r, "g[%d]" % r)


def _names_a_home(node) -> bool:
    """Whether ``node`` spells a register where the machine keeps it."""
    return (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "g"
            or isinstance(node, ast.Attribute)
            and ast.unparse(node) in ("m.gpr", "m.sp", "m.lr"))


def _register_move(st) -> str | None:
    """What kind of register move the statement ``st`` is: a local
    loaded from its home, ``load``; a home written from its local,
    ``back``; a pop's word read into both, ``word``; else None."""
    if not isinstance(st, ast.Assign):
        return None
    targets = [ast.unparse(t) for t in st.targets]
    value = ast.unparse(st.value)
    local = re.fullmatch(r"r(\d+)", targets[0])
    if local is None:
        back = re.fullmatch(r"r(\d+)", value)
        return "back" if back and targets == [_home(int(back[1]))] else None
    home = _home(int(local[1]))
    if targets == [local[0]] and value == home:
        return "load"
    return ("word" if targets == [local[0], home]
            and value == "m.load(a, 4) & M" else None)


def test_every_block_spells_each_register_one_way(monkeypatch):
    """Every block that the block-source golden holds, looping or not,
    keeps the registers it names in locals: it loads them on entry, in
    the block's own body, and writes them back, and no other statement
    names ``g[...]``, ``m.gpr``, ``m.sp`` or ``m.lr``, but ``g = m.gpr``,
    a pop's word moved through ``m.load``, which writes the machine's
    register as well, and the min_sp check of a block that names no
    sp."""
    for source in _golden_sources(monkeypatch):
        block, = [node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "block"]
        allowed = {"g = m.gpr", *["m.min_sp = min(m.min_sp, m.sp)"] * (
            "r13" not in source)}
        stray, moves = [], set()
        for st in ast.walk(block):
            kind = _register_move(st)
            moves.add(kind)
            if kind == "load":
                assert st in block.body, ast.unparse(st)
            elif (kind is None and isinstance(st, ast.stmt)
                  and not isinstance(st, ast.FunctionDef)
                  and ast.unparse(st) not in allowed):
                inner = (st.test if isinstance(st, (ast.If, ast.While))
                         else st)
                stray += [ast.unparse(node) for node in ast.walk(inner)
                          if _names_a_home(node)]
        assert not stray, source
        assert "load" in moves, source


def test_a_continuing_pass_touches_no_register_through_m():
    """The sweep's loop and both of the recursion's, as generated for
    the benchmark's machines: a pass that goes on keeps every register
    it reads or writes in a local, with no ``g[...]`` subscript and no
    ``m.gpr``, ``m.sp`` or ``m.lr``."""
    for entry, (_, source) in _benchmark_loops().items():
        nodes = _fast_nodes(source)
        assert nodes, hex(entry)
        assert not [node for node in nodes if isinstance(node, ast.Subscript)
                    and ast.unparse(node.value) == "g"], hex(entry)
        assert not [node for node in nodes if isinstance(node, ast.Attribute)
                    and ast.unparse(node) in ("m.gpr", "m.sp", "m.lr")], (
                        hex(entry))
