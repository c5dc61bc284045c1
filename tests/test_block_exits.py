"""A compiled push or pop as one test, halt exits only where a path can
halt, and ``min_sp`` checked only where it is tracked (``blocks``).

Each program runs through ``check()``, run() against the step loop at
the hot thresholds 1, the default and 10**9, both as built and with the
guard shown every access (``check_watch``, so that compiled blocks call
it), and through ``compiled_lockstep``, the reference interpreter at
each compiled block's exit.  The stack cases put a push's or pop's
words on a page's last bytes, across a page, on a page nothing wrote,
across PPB_BASE, and onto the watched region's lower edge, then a word
into the watched region, first the second word; the budget cases cut a
push and pop loop at each step of a pass, and a loop whose carry flips
in its first compiled pass at every budget; the halt cases stop a
compiled block at a reset hit on a store and on a load, at a COMP1
overflow in line and through ``Machine.store``, and at a misaligned
word.
"""

import pytest

from test_reference_isa import compiled_lockstep
from test_run_differential import (PASSES, SHADOW, SP_LOOP, _cfg, _const,
                                   _loop, assert_same, check, check_watch,
                                   observe)
from watchstack import blocks
from watchstack.asm import parse
from watchstack.dwt import (DWT_COMP1, DWT_FUNCTION0, FN_READ, FN_READWRITE,
                            FN_WRITE)
from watchstack.machine import ACCESS_WRITE, HaltReason, PPB_BASE
from watchstack.protect import POLICY_REPORT, POLICY_RESET
from watchstack.runner import RunConfig, build_machine

POLICIES = (POLICY_RESET, POLICY_REPORT)


def both(text: str, cfg: RunConfig, label: str, monkeypatch) -> dict:
    """``check_watch()`` of the program, then its compiled lockstep."""
    prog = parse(text)
    want = check_watch(prog, cfg, label, monkeypatch)
    compiled_lockstep(prog, cfg, label, monkeypatch)
    return want


def _arm(function: int) -> list[str]:
    """Head lines that disarm comparator 0, over the shadow region, write
    a word on the region's first page, so that the page is present, and
    arm the comparator for ``function``."""
    return [*_const("r0", DWT_FUNCTION0), "mov r3, #0", "str r3, [r0]",
            *_const("r1", SHADOW.ss_start + 0x100), "str r3, [r1]",
            "mov r3, #%d" % function, "str r3, [r0]"]


# -- push and pop ------------------------------------------------------------

# Each pass pushes r5 and r6, pops them into r1 and r2 and moves sp up 4.
# From WALK_SP the third-last pass's words end at the shadow region's
# start, the one write region below PPB_BASE; the second-last pass's
# second word is its first word, and the last pass's both are in it, on
# a present page.
WALK_SP = SHADOW.ss_start - 4 * PASSES + 12


def _walk(function: int) -> str:
    return _loop("push {r5, r6}", "pop {r1, r2}", "add sp, #4",
                 head=_arm(function))


def test_the_walk_starts_below_the_shadow_region():
    cfg = _cfg(POLICY_RESET, None, 10_000, initial_sp=WALK_SP)
    watch = build_machine(parse(_walk(FN_WRITE)), cfg).watch
    assert [(lo, hi) for lo, hi in watch[ACCESS_WRITE]
            if lo < min(hi, PPB_BASE)] == [(SHADOW.ss_start, SHADOW.ss_limit)]
    assert WALK_SP + 4 * (PASSES - 3) == SHADOW.ss_start


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("function", [FN_WRITE, FN_READWRITE],
                         ids=["write", "readwrite"])
def test_a_push_and_pop_walk_onto_the_hull_edge(function, policy,
                                                monkeypatch):
    """The second word hits first: under reset the push halts there
    after it has written the first word; under report the pushes' hits
    are suppressed and, read-watched too, the pops' are recorded."""
    cfg = _cfg(policy, None, 10_000, initial_sp=WALK_SP)
    want = both(_walk(function), cfg, "walk %d %s" % (function, policy),
                monkeypatch)
    hits = [(r.data_address, r.access) for r in want["violations"]]
    start = SHADOW.ss_start
    if policy == POLICY_RESET:
        assert want["halt"] == (True, HaltReason.RESET, False)
        assert hits == [(start, 1)]
        assert want["regs"][5] == 2  # in the second-last pass
    else:
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        reads = function == FN_READWRITE
        assert hits == [(start, 1), *[(start, 0)] * reads,
                        (start, 1), (start + 4, 1),
                        *[(start, 0), (start + 4, 0)] * reads]


# push {r5, r6} and pop {r1, r2} on one spot; r6 counts up by 3.
PUSH_POP = _loop("push {r5, r6}", "pop {r1, r2}", "addw r6, r2, #3")
# pop {r1, r2} from one spot, which nothing writes.
POP_ONLY = _loop("pop {r1, r2}", "sub sp, #8", "addw r6, r1, #1")
FRESH_SP = 0x20100008


@pytest.mark.parametrize("text,sp", [
    (PUSH_POP, 0x20001000), (PUSH_POP, 0x20001004), (PUSH_POP, FRESH_SP),
    (PUSH_POP, PPB_BASE + 4), (POP_ONLY, FRESH_SP)],
    ids=["page end", "across pages", "fresh page", "across PPB_BASE",
         "pop from a fresh page"])
@pytest.mark.parametrize("policy", POLICIES)
def test_push_and_pop_off_the_one_test(text, sp, policy, monkeypatch):
    """Words on a page's last 8 bytes take the one test; words across a
    page or PPB_BASE, or on a page not yet created, go word by word, and
    a push there creates its page (``Machine.store``)."""
    want = both(text, _cfg(policy, None, 10_000, initial_sp=sp),
                "stack %#x %s" % (sp, policy), monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    pages = {(sp - 8) >> 12, (sp - 1) >> 12}
    if text is PUSH_POP:
        assert want["regs"][1:3] == [1, 3 * (PASSES - 1)]
        assert pages <= set(want["mem"])
    else:
        assert want["regs"][6] == 1 and not pages & set(want["mem"])


@pytest.mark.parametrize("budget", range(200, 206))
def test_a_budget_cut_in_a_push_and_pop_loop(budget, monkeypatch):
    """Budgets that end at each step of a pass, after the loop is
    compiled at every threshold (in its 33rd pass at the default one,
    from step 193)."""
    want = both(PUSH_POP, _cfg(POLICY_RESET, None, budget,
                               initial_sp=0x20001000),
                "budget %d" % budget, monkeypatch)
    assert want["steps"] == budget and want["halt"] == (False, None, True)


def _crossing(hot: int) -> str:
    """A loop that counts r5 up from -1 - hot and compares it with 3: the
    carry stays set while r5 is negative and clears in pass hot + 1,
    where r5 reaches 0.  main falls into the loop, so its trace holds the
    first pass, and the loop's entry is first reached by pass 2: pass
    hot + 1 is the first that a hot threshold of ``hot`` runs compiled."""
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *("    " + line for line in _const("r5", -1 - hot & 0xFFFFFFFF)),
        ".label loop", "    addw r5, r5, #1", "    cmp r5, #3",
        "    bne loop", "    bkpt #0", ".endfunc", ""])


CARRY = 1 << 29


@pytest.mark.parametrize("hot", [1, blocks.HOT_THRESHOLD])
def test_a_budget_cut_after_one_pass_writes_its_flags(hot, monkeypatch):
    """Cut at every budget to the end.  Where the budget leaves room for
    only the loop's first compiled pass, the block's first call runs it
    alone and returns at the budget, which must write that pass's flags,
    as its carry is not the pass before's.  Every other cut checks a
    pass's cycles, counts and steps; ``check`` runs the default
    threshold, 1 and none."""
    prog = parse(_crossing(hot))
    main, n = 2, 3  # steps: main's, then each pass's
    first = main + n * hot  # where pass hot + 1 starts
    for budget in range(1, main + n * (hot + 4) + 2):  # r5 reaches 3; bkpt
        want = check(prog, _cfg(POLICY_RESET, None, budget),
                     "threshold %d, budget %d" % (hot, budget), monkeypatch)
        if budget in (first, first + n):
            assert bool(want["regs"][-2] & CARRY) == (budget == first)
    assert want["halt"] == (True, HaltReason.NORMAL, False)


# -- halts -------------------------------------------------------------------

# Each pass loads and stores the word at r7 and moves r7 up 4: the last
# 2 passes reach the shadow region, with comparator 0 set to watch
# the loads or the stores.
def _access_walk(function: int) -> str:
    return _loop("ldr r1, [r7]", "str r5, [r7]", "addw r7, r7, #4",
                 head=(*_arm(function),
                       *_const("r7", SHADOW.ss_start - 4 * (PASSES - 2))))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("function", [FN_READ, FN_WRITE],
                         ids=["load", "store"])
def test_an_in_line_hit_on_a_load_or_a_store(function, policy, monkeypatch):
    """Under reset the first hit halts the compiled loop in its arm, the
    load's after its read; under report both hits are recorded."""
    want = both(_access_walk(function), _cfg(policy, None, 10_000),
                "access walk %d %s" % (function, policy), monkeypatch)
    start = SHADOW.ss_start
    access = int(function == FN_WRITE)
    hits = [(r.data_address, r.access) for r in want["violations"]]
    if policy == POLICY_RESET:
        assert want["halt"] == (True, HaltReason.RESET, False)
        assert hits == [(start, access)] and want["regs"][5] == 2
    else:
        assert want["halt"] == (True, HaltReason.NORMAL, False)
        assert hits == [(start, access), (start + 4, access)]


# The loop moves COMP1 up 256 bytes a pass until it leaves the shadow
# span: through a constant address, which the block binds to the port's
# in-line lines, or through an address loaded from RAM, which it cannot
# bind, so the store takes Machine.store.
def _overflow(bound: bool) -> str:
    head = [] if bound else [*_const("r0", DWT_COMP1), "str r0, [r7]"]
    comp1 = _const("r0", DWT_COMP1) if bound else ["ldr r0, [r7]"]
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *("    " + line for line in [*_const("r7", 0x20000100), *head]),
        ".label loop", *("    " + line for line in [
            *comp1, "ldr r1, [r0]", "addw r1, r1, #256", "str r1, [r0]",
            "addw r6, r6, #1", "b loop"]),
        ".endfunc", ""])


@pytest.mark.parametrize("bound", [True, False], ids=["in line", "commit"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_comp1_overflow_halts_the_block(bound, policy, monkeypatch):
    want = both(_overflow(bound), _cfg(policy, None, 10_000),
                "overflow %s" % policy, monkeypatch)
    assert want["halt"] == (True, HaltReason.STACK_OVERFLOW, False)
    assert want["regs"][6] == SHADOW.ss_size // 256


# r7 steps by 4 from an aligned word, and by 5 in the pass where r5 is 3,
# so the next pass's word access is misaligned and faults.
def _misaligned(access: str) -> str:
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *("    " + line for line in _const("r7", 0x20000100)),
        "    mov r5, #%d" % PASSES,
        ".label loop", "    " + access, "    addw r7, r7, #4",
        "    cmp r5, #3", "    bne next", "    addw r7, r7, #1",
        ".label next", "    subw r5, r5, #1", "    cmp r5, #0",
        "    bne loop", "    bkpt #0", ".endfunc", ""])


@pytest.mark.parametrize("access", ["ldr r1, [r7]", "str r5, [r7]"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_misaligned_word_halts_the_block(access, policy, monkeypatch):
    want = both(_misaligned(access), _cfg(policy, None, 10_000),
                "misaligned %s %s" % (access, policy), monkeypatch)
    assert want["halt"] == (True, HaltReason.FAULT, False)
    assert want["regs"][5] == 2


# -- min_sp ------------------------------------------------------------------

def _toggled(prog, go, hot: int, monkeypatch) -> tuple:
    """Run ``prog`` by ``go(m, limit)`` to step 60 untracked, to 120
    tracked, to 180 untracked and to the end tracked: the end state, and
    min_sp at the end of each run."""
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", hot)
        m = build_machine(prog, RunConfig())
        seen = []
        for i, limit in enumerate((60, 120, 180, 10_000)):
            if i:  # tracking switched on, or off, between two runs
                m.min_sp = m.sp if m.min_sp is None else None
            go(m, limit)
            seen.append(m.min_sp)
        return observe(m, not m.halted), seen


def test_min_sp_switched_on_and_off_between_runs(monkeypatch):
    """Blocks compiled while min_sp is untracked check nothing, and run()
    drops them once it is tracked, and the other way round."""
    prog = parse(SP_LOOP)

    def steps(m, limit):
        while not m.halted and m.steps < limit:
            m.step()

    want, seen = _toggled(prog, steps, 1, monkeypatch)
    assert want["halt"] == (True, HaltReason.NORMAL, False)
    assert seen[0] is None and seen[2] is None and seen[1] > seen[3]
    for hot in (1, blocks.HOT_THRESHOLD):
        got = _toggled(prog, lambda m, limit: m.run(limit), hot, monkeypatch)
        assert got[1] == seen
        assert_same(want, got[0], "min_sp toggled, threshold %d" % hot)
