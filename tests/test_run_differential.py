"""Machine.run against the reference: one Machine.step per instruction.

Every run is made twice from the same build, once by ``runner.run_machine``
(which drives ``Machine.run``) and once by the plain step loop below, and
every observable piece of the two machines and results must agree.  The
programs are acceptance-09 benign call trees plus an instrumented
SysTick handler, interrupted at a stride of positions under both
violation policies and by raise schedules that reach the runner's edge
cases.  With the hot threshold at 1 every block is compiled, so the
compiled path sees every instruction and every interrupt position.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from watchstack import blocks
from watchstack.asm import parse
from watchstack.dwt import DWT_FUNCTION0, FN_READWRITE
from watchstack.harness import (make_benign_program, make_demcr_fuzz_program,
                                preinit_exception_program, recursion_program,
                                sweep_program)
from watchstack.instrument import ShadowStackConfig, instrument_program
from watchstack.machine import WATCH_ALL, HaltReason
from watchstack.protect import POLICY_REPORT, POLICY_RESET
from watchstack.runner import (RunConfig, attribute, build_machine,
                               run_machine)

SHADOW = ShadowStackConfig()
SYSTICK = 15

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
    """The run loop before Machine.run existed: step() per instruction.
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
        "mode": (m.mode, m.active_exc, list(m.pending)),
        "mem": m.mem.snapshot(),
        "steps": m.steps,
        "cycles": m.cycles,
        "halt": (m.halted, m.halt_reason, budget),
        "retired": dict(m.retired),
        "taken": dict(m.taken),
        "attribution": attribute(m),
        "min_sp": m.min_sp,
        "violations": list(m.guard.records) if m.guard else None,
        "events": m.events,
        "dwt": (m.dwt.groups, m.demcr.value),
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
    threshold and with every block compiled on first reach."""
    want = reference(prog, cfg, arm)
    assert_same(want, fast(prog, cfg, arm), label)
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        assert_same(want, fast(prog, cfg, arm), label + " threshold 1")
    return want


def assert_same(want: dict, got: dict, label: str) -> None:
    for key in want:
        assert got[key] == want[key], "%s: %s differs" % (label, key)


def _cfg(policy: str, raise_at: int | None, max_steps: int) -> RunConfig:
    return RunConfig(protected=True, policy=policy, shadow=SHADOW,
                     max_steps=max_steps,
                     raises=() if raise_at is None else ((SYSTICK, raise_at),),
                     track_min_sp=True)


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
    """The generated sources ``blocks`` compiles from now on."""
    sources = []

    def counting(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(blocks, "compile", counting, raising=False)
    return sources


def _run_loop(prog, step: int) -> None:
    m = build_machine(prog, RunConfig())
    run_machine(m, RunConfig())
    assert m.halt_reason == HaltReason.NORMAL
    assert m.gpr[6] == 40 * step


def test_equal_code_compiles_its_hot_block_once(monkeypatch):
    """Two parses of one text share no Instr, yet the second machine
    reuses the loop block the first one compiled."""
    sources = _count_compiles(monkeypatch)
    text = LOOP % 0x7A1
    _run_loop(parse(text), 0x7A1)
    assert len(sources) == 1
    _run_loop(parse(text), 0x7A1)
    assert len(sources) == 1


def test_a_changed_instruction_compiles_anew(monkeypatch):
    """The loop's addw at the same address, changed by a new parse and
    then in place, gives new block code each time."""
    sources = _count_compiles(monkeypatch)
    _run_loop(parse(LOOP % 0x7A2), 0x7A2)
    prog = parse(LOOP % 0x7A3)
    _run_loop(prog, 0x7A3)
    addw = next(ins for ins in prog.code.values() if ins.op == "addw")
    addw.imm = 0x7A4
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


def test_condition_codes_on_every_flag_combination(monkeypatch):
    """Each pair through cmp and all four conditional branches; the
    taken set and the final flags land in memory and registers."""
    table = "\n".join(".word 0x%08x\n.word 0x%08x\n.word 0" % p
                      for p in FLAG_PAIRS)
    branches = []
    for i, (cond, bit) in enumerate((("eq", 1), ("lt", 2), ("ge", 4),
                                     ("ne", 8))):
        branches += ["    cmp r0, r1", "    b%s t%d" % (cond, i),
                     "    b n%d" % i, ".label t%d" % i,
                     "    addw r2, r2, #%d" % bit, ".label n%d" % i]
    text = "\n".join([
        ".org 0x08000000", ".func main hal",
        "    movw r5, #0x0000", "    movt r5, #0x2000",
        "    mov r6, #%d" % len(FLAG_PAIRS),
        ".label loop",
        "    ldr r0, [r5]", "    ldr r1, [r5, #4]", "    mov r2, #0",
        *branches,
        "    str r2, [r5, #8]", "    addw r5, r5, #12",
        "    subw r6, r6, #1", "    cmp r6, #0", "    bne loop",
        "    bkpt #0", ".endfunc", ".org 0x20000000", table, ""])
    want = check(parse(text), _cfg(POLICY_RESET, None, 10_000), "flags",
                 monkeypatch)
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
    """Put back Machine.watch's default: the guard is shown every access
    and decides each through DwtUnit.match_access."""
    assert m.watch is m.dwt.slots
    m.watch = WATCH_ALL


def check_watch(prog, cfg: RunConfig, label: str, monkeypatch) -> dict:
    """The shipped run, where the machine tests the comparator regions
    inline, against the run whose guard checks every access; each
    stepped and in compiled blocks."""
    want = check(prog, cfg, label + " see-everything", monkeypatch,
                 arm=_see_everything)
    assert_same(want, check(prog, cfg, label, monkeypatch), label)
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
    check_watch(prog, _cfg(policy, seed % 60, 2_000), "fuzz %d" % seed,
                monkeypatch)


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
