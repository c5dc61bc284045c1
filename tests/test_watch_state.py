"""Compiled blocks while the watch state changes under them.

A compiled block is made for the watch state it runs under
(``blocks._state``): the comparator regions per access kind, and the
unit's slots, cached regions and ``ssp_guard``, all compiled in as
constants.  It checks that state on entry, after
each slow ``Machine.load``/``store``, and, by how it is made, at the
end of each pass: a pass that ends in another state does not loop.
These tests change the state every way a run can:

* drawn DWT configurations, written through the unit's ports before the
  run (from a seed Hypothesis draws, derandomized, so each run draws
  the same examples), under which the recursion, the sweep,
  ``FLAG_PAIRS_PROGRAM`` and short drawn op sequences run with every
  block compiled on first reach, against the step loop: every
  ``observe`` field, the ``ViolationLog``'s bytes and every page;
* named cases, each at the hot thresholds 1, 32 and 10**9 against the
  step loop and through ``compiled_lockstep``: a compiled loop that
  rewrites FUNCTION0, COMP0 or MASK0 through an address the block does
  not know, protection, ``m.watch`` or ``m.dwt`` changed between two
  ``run()`` calls on one machine, a pass that ends with comparator 0 disarmed, and the shapes
  with no in-line guard form (``WATCH_ALL``, no guard, a subclass's
  handlers);
* what the state holds: FUNCTION values that select the same slots are
  one state, and a state that watches no read lets a pop and a read of
  a watched register skip the write regions;
* each in-line access site's page in a compiled loop: pushes and pops
  that walk through a region that starts mid-page, across a page
  boundary, never keep the page that holds it.
"""

import copy
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_isa as ref
from programs import WATCH_ALL
from test_reference_isa import compiled_lockstep
from test_run_differential import (FLAG_PAIRS_PROGRAM, SHADOW, _const,
                                   _loop, assert_same, check, observe,
                                   reference, fast)
from watchstack import blocks
from watchstack.asm import parse
from watchstack.dwt import (DWT_COMP0, DWT_COMP_BASE, DWT_FUNCTION0,
                            DWT_MASK0, FN_DISABLED, FN_READ, FN_READWRITE,
                            FN_WRITE)
from watchstack.harness import recursion_program, sweep_program
from watchstack.instrument import instrument_program
from watchstack.machine import DEMCR_ADDR, Machine
from watchstack.protect import (POLICY_REPORT, POLICY_RESET,
                                WatchpointGuard, init_write_protection)
from watchstack.runner import DEFAULT_SP, RunConfig, build_machine

POLICIES = (POLICY_RESET, POLICY_REPORT)
FUNCTIONS = (FN_DISABLED, FN_READ, FN_WRITE, FN_READWRITE)
# The unit's twelve register words, COMP, MASK and FUNCTION by group.
REGISTERS = [DWT_COMP_BASE + 16 * gid + 4 * k
             for gid in range(4) for k in range(3)]
# RAM the programs below touch, where drawn regions go: the shadow
# region's start, the flag pairs' table, the drawn programs' words and
# the top of the stack; and the lock's words above PPB_BASE.
BASES = (SHADOW.ss_start, SHADOW.ss_start + 0x40, 0x20000000, 0x20000010,
         0x20000100, DEFAULT_SP - 0x20, DEMCR_ADDR, DWT_COMP_BASE + 0x20)
SPANS = (None, (SHADOW.ss_start, SHADOW.ss_limit))

# A few examples a test, each short: the module runs in a few seconds.
_DRAWN = settings(max_examples=12, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def _config(rng: random.Random) -> tuple:
    """Up to ten register writes, COMP values from BASES (so regions
    nest and overlap), MASK values 0-12 and FUNCTION values 0, 5, 6 and
    7, then COMP1's span on or off."""
    writes = []
    for _ in range(rng.randint(0, 10)):
        i = rng.randrange(12)
        writes.append((REGISTERS[i], (rng.choice(BASES), rng.randint(0, 12),
                                      rng.choice(FUNCTIONS))[i % 3]))
    return writes, rng.choice(SPANS)


def _arm(config):
    """Write ``config`` through the unit's ports, as boot code would."""
    writes, span = config

    def arm(m):
        m.dwt.ssp_guard = None  # so that no write here halts
        for addr, value in writes:
            m.dwt.mmio_write(m, addr, value)
        m.dwt.ssp_guard = span
    return arm


def _against_step(prog, cfg: RunConfig, arm, monkeypatch, label) -> dict:
    """run() with every block compiled on first reach against the step
    loop, from machines that ``arm`` set up alike."""
    want = reference(prog, cfg, arm)
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        got = fast(prog, cfg, arm)
    assert_same(want, got, label)
    if want["violations"] is not None:  # the log's own bytes, too
        assert bytes(got["violations"]._rows) == bytes(
            want["violations"]._rows), label
    return want


PROGRAMS = {
    "recursion": instrument_program(parse(recursion_program(12)),
                                    SHADOW).program,
    "sweep": parse(sweep_program(SHADOW.ss_start - 24, SHADOW.ss_start + 24)),
    "flag pairs": parse(FLAG_PAIRS_PROGRAM),
}


@_DRAWN
@given(seed=st.integers(0, 2**32 - 1))
def test_fixed_programs_under_drawn_configurations(seed, monkeypatch):
    rng = random.Random(seed)
    name, config = rng.choice(sorted(PROGRAMS)), _config(rng)
    cfg = RunConfig(protected=True, policy=rng.choice(POLICIES),
                    shadow=SHADOW, max_steps=3_000)
    _against_step(PROGRAMS[name], cfg, _arm(config), monkeypatch,
                  "%s %r" % (name, config))


# What a drawn op sequence's registers point at and hold: watchpoint
# registers, RAM in and beside the shadow region, and values for them.
DEVICE_WORDS = (DWT_FUNCTION0, DWT_COMP0, DWT_MASK0, DWT_FUNCTION0 + 16)
RAM_WORDS = (SHADOW.ss_start, SHADOW.ss_start + 0x40, 0x20000010)
VALUES = {DWT_FUNCTION0: FUNCTIONS, DWT_FUNCTION0 + 16: FUNCTIONS,
          DWT_COMP0: (SHADOW.ss_start, SHADOW.ss_start + 0x40, 0x20000000),
          DWT_MASK0: (0, 4, 6, SHADOW.ss_size_log2)}


def _ops(rng: random.Random) -> str:
    """A loop of four passes, entered through a conditional branch so
    that its block is first entered in the state the configuration left.
    A pass is one to three rounds of accesses to RAM through r4, in and
    beside the shadow region, each round ending in a register write:
    one to FUNCTION0, mostly, of a value the block knows to an address
    it knows (r0, r1, set in the round), or of a value it reads (r3) to
    an address it does not (r2); the accesses are word and byte stores
    and loads, and a push and a pop."""
    body = []
    for _ in range(rng.randint(1, 3)):
        for _ in range(rng.randint(1, 3)):
            body.append(rng.choice((
                "strb r5, [r4, #%d]" % rng.randint(0, 3), "str r5, [r4]",
                "ldr r3, [r4, #4]", "push {r3, r5}", "pop {r3, r6}")))
        word = rng.choice((DWT_FUNCTION0,) * 3 + DEVICE_WORDS)
        value = rng.choice(VALUES[word])
        if rng.randrange(3):
            body += [*_const("r0", word), *_const("r1", value),
                     "str r1, [r0]"]
        else:  # the value from a table the head wrote, at r7
            body += ["ldr r3, [r7, #%d]" % (4 * len(body) % 64),
                     "str r3, [r2]"]
    head = [*_const("r7", 0x20000100)]
    for off in range(0, 64, 4):
        head += [*_const("r3", rng.choice(FUNCTIONS)),
                 "str r3, [r7, #%d]" % off]
    return "\n".join([
        ".org 0x08000000", ".func main hal", *head,
        *_const("r2", rng.choice(DEVICE_WORDS)),
        *_const("r4", rng.choice(RAM_WORDS)),
        "mov r5, #4", "cmp r5, #0", "bne loop", "bkpt #0",
        ".label loop", *body,
        "subw r5, r5, #1", "cmp r5, #0", "bne loop", "bkpt #0",
        ".endfunc", ""])


@settings(_DRAWN, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_drawn_op_sequences_under_drawn_configurations(seed, monkeypatch):
    rng = random.Random(seed)
    text = _ops(rng)
    # Mostly report: under reset a pass rarely outlives its first hit.
    cfg = RunConfig(protected=True, policy=rng.choice(POLICIES + (
        POLICY_REPORT,)), shadow=SHADOW, max_steps=2_000)
    _against_step(parse(text), cfg, _arm(_config(rng)), monkeypatch, text)


# -- named cases -------------------------------------------------------------

PASSES = blocks.HOT_THRESHOLD + 8
TABLE = 0x20000200  # a word of the table for each pass


def _rewrite(register: int, values) -> str:
    """A loop whose pass reads ``register``'s address from RAM, so its
    block does not know it, writes the pass's value from a table there,
    then stores into and loads from the shadow region's start."""
    return "\n".join([
        ".org 0x08000000", ".func main hal",
        *_const("r7", 0x20000100), *_const("r0", register), "str r0, [r7]",
        *_const("r6", TABLE), *_const("r1", SHADOW.ss_start),
        "mov r5, #%d" % PASSES,
        ".label loop",
        "ldr r0, [r7]", "ldr r2, [r6]", "str r2, [r0]",
        "str r5, [r1]", "strb r5, [r1, #5]", "ldr r3, [r1, #8]",
        "addw r6, r6, #4", "subw r5, r5, #1", "cmp r5, #0", "bne loop",
        "bkpt #0", ".endfunc",
        ".org 0x%08x" % TABLE,
        *(".word 0x%08x" % values[i % len(values)] for i in range(PASSES)),
        ""])


REWRITES = {
    "function0": (DWT_FUNCTION0, (FN_WRITE, FN_WRITE, FN_DISABLED,
                                  FN_READWRITE, FN_READ, FN_DISABLED)),
    "comp0": (DWT_COMP0, (SHADOW.ss_start, SHADOW.ss_start + 0x100,
                          SHADOW.ss_start, 0x20000100, SHADOW.ss_start)),
    "mask0": (DWT_MASK0, (SHADOW.ss_size_log2, 2, 2, 0, 6,
                          SHADOW.ss_size_log2)),
}


def _both(prog, cfg: RunConfig, label: str, monkeypatch, arm=None,
          stops=()) -> dict:
    """``check()`` (the step loop against run() at the hot thresholds
    32, 1 and 10**9), then the compiled lockstep, with ``stops`` the
    changes that ``arm`` makes, made there between two run() calls."""
    want = check(prog, cfg, label, monkeypatch, arm=arm)
    compiled_lockstep(prog, cfg, label, monkeypatch, stops=stops)
    return want


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(REWRITES))
def test_a_loop_rewrites_a_register_through_an_unknown_address(
        name, policy, monkeypatch):
    """Each pass hands its register write to Machine.store, whose effect
    the block cannot know; where it changes the watch state, the block
    leaves after it, and the next entry runs the block made for the
    new one."""
    register, values = REWRITES[name]
    prog = parse(_rewrite(register, values))
    cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                    max_steps=5_000)
    want = _both(prog, cfg, name, monkeypatch)
    assert want["halt"][0]
    if policy == POLICY_REPORT:
        assert want["halt"][1].value == "normal" and want["violations"]


def _misses(monkeypatch) -> list:
    """The ``Block.compile`` calls, from now on, of blocks compiled
    before: their entry checks' misses."""
    misses = []
    compile_block = blocks.Block.compile

    def counted(blk, m, pc):
        if blk.fn is not None:
            misses.append(pc)
        compile_block(blk, m, pc)

    monkeypatch.setattr(blocks.Block, "compile", counted)
    return misses


def _writes(writes, span=...):
    """A change between run() calls: ``writes`` to the machine's unit
    and, given one, the reference core's alike, and COMP1's span if
    given."""
    def change(m, core=None):
        for addr, value in writes:
            m.dwt.mmio_write(m, addr, value)
            if core is not None:
                ref.device_write(core, addr, value)
        if span is not ...:
            m.dwt.ssp_guard = span
            if core is not None:
                core.ssp_span = span
    return change


def _arm_protection(m, core=None):
    init_write_protection(m, SHADOW)
    if core is not None:
        core.arm(SHADOW.ss_start, SHADOW.ss_size_log2, POLICY_RESET)


def _watch_all(m, core=None):
    """``m.watch`` replaced: the guard is shown every access."""
    m.watch = WATCH_ALL


def _new_unit(m, core=None):
    """``m.dwt`` replaced by an equal copy, with the watch and the guard's
    unit, which protection sets with it: the watch state is the one the
    cached blocks were made for, and their in-line port writes must
    reach the copy."""
    m.dwt = copy.deepcopy(m.dwt)
    m.watch = m.dwt.slots
    m.guard.dwt = m.dwt


CHANGES = {
    "disarm 0": _writes([(DWT_FUNCTION0, FN_DISABLED)]),
    "watch reads": _writes([(DWT_FUNCTION0, FN_READWRITE)]),
    "move 0": _writes([(DWT_COMP0, SHADOW.ss_start + 0x80), (DWT_MASK0, 4)]),
    "span off": _writes([], None),
    "arm": _arm_protection,
    "watch all": _watch_all,
    "new unit": _new_unit,
}
AT = 300  # at the descent's entry, between two passes of its loop


@pytest.mark.parametrize("name", sorted(CHANGES))
def test_protection_changed_between_two_runs(name, monkeypatch):
    """The recursion, 64 deep, run to step AT, changed, and run on: the
    blocks made before the change find another watch state on entry
    and run the ones made for it (or, armed, the machine's new guard
    drops them); a new unit in an equal state runs them as made, each
    entry binding the unit it finds."""
    prog = instrument_program(parse(recursion_program(64)), SHADOW).program
    cfg = RunConfig(protected=name != "arm", shadow=SHADOW, max_steps=5_000)
    change = CHANGES[name]

    def runs():
        m = build_machine(prog, cfg)
        m.run(AT)
        change(m)
        m.run(cfg.max_steps)
        return observe(m, not m.halted)

    def steps():
        m = build_machine(prog, cfg)
        while m.steps < cfg.max_steps and not m.halted:
            if m.steps == AT:
                change(m)
            m.step()
        return observe(m, not m.halted)

    want = steps()
    for hot in (1, 32, 10**9):
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "HOT_THRESHOLD", hot)
            misses = _misses(mp)
            assert_same(want, runs(), "%s at threshold %d" % (name, hot))
            if hot == 1 and name in ("disarm 0", "move 0", "span off"):
                assert misses, "no entry check missed"
    compiled_lockstep(prog, cfg, name, monkeypatch,
                      stops=((AT, lambda pair: change(pair.m, pair.core)),))


# The loop is entered through a conditional branch, so its block is
# first entered armed, as protection leaves comparator 0; each pass
# stores into the shadow region's start, disarms the comparator and
# stores again, so it ends disarmed, and only the first pass hits.
DISARMING = "\n".join([
    ".org 0x08000000", ".func main hal",
    *_const("r1", SHADOW.ss_start), "mov r5, #%d" % PASSES,
    "cmp r5, #0", "bne loop", "bkpt #0",
    ".label loop", "str r5, [r1]", *_const("r0", DWT_FUNCTION0),
    "mov r2, #%d" % FN_DISABLED, "str r2, [r0]", "strb r5, [r1, #9]",
    "subw r5, r5, #1", "cmp r5, #0", "bne loop", "bkpt #0", ".endfunc",
    ""])


@pytest.mark.parametrize("policy", POLICIES)
def test_a_pass_that_ends_with_slot_0_disarmed(policy, monkeypatch):
    """The loop's block made for its first entry, armed, does not loop,
    as its pass ends disarmed: looping, its next pass would test its
    first store against the armed comparator.  The block made for the
    disarmed state ends each pass as it began, and loops.  Under the
    reset policy the first pass's hit halts the run."""
    prog = parse(DISARMING)
    cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                    max_steps=5_000)
    loops = []
    source = blocks._source

    def recorded(trace, shape, state):
        text = source(trace, shape, state)
        if trace[0][1].op == "str":  # the loop's block, not main's
            loops.append("  for s in range(" in text)
        return text

    with monkeypatch.context() as mp:
        mp.setattr(blocks, "_source", recorded)
        blocks._make.cache_clear()
        want = _both(prog, cfg, "disarming " + policy, monkeypatch)
    assert len(want["violations"]) == 1
    assert sorted(set(loops)) == ([False, True] if policy == POLICY_REPORT
                                  else [False])


class _Subclass(WatchpointGuard):
    """The guard with handlers of its own, which have no in-line form."""

    def on_store(self, m, addr, size, value):
        return WatchpointGuard.on_store(self, m, addr, size, value)


def _see_all(m):
    m.watch = WATCH_ALL


def _no_guard(m):
    m.guard, m.watch = None, Machine().watch


def _subclass(m):
    m.guard = _Subclass(m.dwt, m.guard.reset)


SHAPES = {"watch all": _see_all, "no guard": _no_guard,
          "subclass": _subclass}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_without_an_in_line_guard(shape, policy, monkeypatch):
    """The FUNCTION0 rewrites of a compiled loop, where the guard gives
    no in-line form: every access tests the regions, known, or takes
    the slow path; without a guard the unit's writes still change its state
    and the lines a block runs for it."""
    prog = parse(_rewrite(*REWRITES["function0"]))
    cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                    max_steps=5_000)
    arm = SHAPES[shape]

    def change(pair):
        arm(pair.m)
        if shape == "no guard":
            pair.core.policy = None
    want = _both(prog, cfg, shape, monkeypatch, arm=arm, stops=((0, change),))
    assert want["halt"][0]


# -- what the state holds ------------------------------------------------------

def _sources(monkeypatch) -> list:
    """The (entry pc, watch state) of each block source generated from
    now on, with ``_make``'s cache cleared."""
    made = []
    source = blocks._source

    def recorded(trace, shape, state):
        made.append((trace[0][0], state))
        return source(trace, shape, state)

    monkeypatch.setattr(blocks, "_source", recorded)
    blocks._make.cache_clear()
    return made


def test_function_values_that_select_alike_are_one_state(monkeypatch):
    """FUNCTION1 at 0 and at 4 selects no slot either way: the two
    machines are in one watch state, and the second compiles no block
    the first did not."""
    prog = PROGRAMS["recursion"]
    cfg = RunConfig(protected=True, shadow=SHADOW, max_steps=3_000)
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    made = _sources(monkeypatch)
    states = []
    for value in (FN_DISABLED, 4):
        m = build_machine(prog, cfg)
        m.dwt.mmio_write(m, DWT_FUNCTION0 + 16, value)
        states.append(blocks._state(m))
        m.run(cfg.max_steps)
        made.append(None)
    assert states[0] == states[1]
    first = made.index(None)
    assert first and made[first + 1:] == [None]


def test_an_unknown_write_that_alternates_0_and_4_keeps_the_state(
        monkeypatch):
    """A loop that hands FUNCTION0 0, 4, 0, ... through an address it does
    not know: main's block, which runs the first pass, leaves after the
    write that disarms comparator 0; the loop's block is then made once,
    for the disarmed state, and its entry check never misses, though
    the word changes every pass."""
    prog = parse(_rewrite(DWT_FUNCTION0, (FN_DISABLED, 4)))
    cfg = RunConfig(protected=True, shadow=SHADOW, max_steps=5_000)
    want = _both(prog, cfg, "0 and 4", monkeypatch)
    assert want["halt"][0]
    loop = prog.labels["loop"]
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        made, misses = _sources(mp), _misses(mp)
        assert_same(want, fast(prog, cfg), "0 and 4 at threshold 1")
    assert [pc for pc, _ in made].count(loop) == 1 and not misses


# A loop that reads COMP2, a word of the lock's group 2 and 3 block, at an
# address it knows, and pushes and pops two words on the stack.
LOCK_READ = "\n".join([
    ".org 0x08000000", ".func main hal",
    "mov r5, #%d" % PASSES,
    ".label loop", *_const("r0", DWT_COMP0 + 32), "ldr r2, [r0]",
    "push {r2, r5}", "pop {r3, r6}",
    "subw r5, r5, #1", "cmp r5, #0", "bne loop", "bkpt #0", ".endfunc", ""])


def _watch_reads(m):
    """Comparators 0, over the shadow region, and 3, over the lock's
    block, watch reads too."""
    for register in (DWT_FUNCTION0, DWT_FUNCTION0 + 48):
        m.dwt.mmio_write(m, register, FN_READWRITE)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_state_that_watches_no_read_skips_the_read_regions(policy,
                                                             monkeypatch):
    """Armed, no comparator watches reads: the loop's pop tests no
    region, on the arm its page misses on, nor keeps the page only
    outside one, and its read of COMP2, inside the lock's write region,
    runs in line.
    With comparators 0 and 3 watching reads too, the pop, on the stack
    just above the shadow region, tests that region, keeps a page only
    wholly outside it, and the read of COMP2, a hit now, takes
    ``m.load``."""
    prog = parse(LOCK_READ)
    cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                    initial_sp=SHADOW.ss_limit + 8, max_steps=5_000)
    region = "(sp >= %d or sp <= %d)" % (SHADOW.ss_limit,
                                        SHADOW.ss_start - 8)
    page = "not %d < sp & -4096 < %d" % (SHADOW.ss_start - 4096,
                                         SHADOW.ss_limit)
    for arm in (None, _watch_reads):
        want = _both(prog, cfg, policy, monkeypatch, arm=arm)
        assert bool(want["violations"]) == bool(arm)  # the reads of COMP2
        m = build_machine(prog, cfg)
        if arm:
            arm(m)
        source = blocks._source(blocks._block_at(m.code, prog.labels["loop"]),
                                blocks._shape(m), blocks._state(m))
        lines = source.splitlines()
        at = next(i for i, line in enumerate(lines) if "UN('<2I', p," in line)
        miss, fill = lines[at - 1], lines[at + 1]  # the pop's miss arm
        assert ("r2 = R[6]" in source) == (region not in miss) == (
            page not in fill) == (not arm)


# -- each access site's page ---------------------------------------------------

# Comparator 0 over 256 bytes that start mid-page, watching reads and
# writes; the stack starts 512 bytes above that page, so the loops'
# blocks, compiled at any threshold, meet the page boundary too.
MID_PAGE = 0x2003FA00
WALK_SP = (MID_PAGE | 0xFFF) + 1 + 0x200
WALK = (WALK_SP - MID_PAGE + 0x100) // 8  # passes, to 256 bytes below it
WALKING = "\n".join([
    ".org 0x08000000", ".func main hal",
    "movw r5, #%d" % WALK,
    ".label down", "push {r4, r5}", "subw r5, r5, #1", "cmp r5, #0",
    "bne down",
    "movw r5, #%d" % WALK,
    ".label up", "pop {r4, r6}", "subw r5, r5, #1", "cmp r5, #0", "bne up",
    "bkpt #0", ".endfunc", ""])


@pytest.mark.parametrize("policy", POLICIES)
def test_a_cached_page_never_holds_a_region(policy, monkeypatch):
    """The pushes walk down across a page boundary and through the
    region, and the pops walk back up: the page that holds the region
    is never a site's page, so every access in the region reaches the
    guard; under the reset policy the first push into it, both its
    words, halts the run, and under report each of the 32 pushes there
    is suppressed and each of the 32 pops there recorded, a word
    each."""
    prog = parse(WALKING)
    cfg = RunConfig(protected=True, policy=policy, shadow=SHADOW,
                    initial_sp=WALK_SP, max_steps=5 * 4 * WALK)
    arm = _writes([(DWT_COMP0, MID_PAGE), (DWT_MASK0, 8),
                   (DWT_FUNCTION0, FN_READWRITE)])
    want = check(prog, cfg, "walk " + policy, monkeypatch, arm=arm)
    hits = want["violations"]
    if policy == POLICY_RESET:
        assert want["halt"][1].value == "reset" and len(hits) == 2
    else:
        assert want["halt"][1].value == "normal" and len(hits) == 4 * 32


# Comparators 2 and 3, moved into RAM, watch a word each, just below and
# just above the words that a push and pop loop walks up through from
# GAP_SP: each pass pushes two words below sp, pops them and moves sp up
# 4, on one page.
GAP_SP = 0x20002028
GAP = (GAP_SP - 12, GAP_SP + 4 * PASSES - 4)


def _compiled_calls(monkeypatch) -> list:
    """One counter, in a list, of the Machine.load and Machine.store
    calls made from compiled code from now on."""
    calls = [0]

    def counting(method):
        def wrapper(*args):
            calls[0] += sys._getframe(1).f_code.co_filename == "<block>"
            return method(*args)
        return wrapper

    for name in ("load", "store"):
        monkeypatch.setattr(Machine, name, counting(getattr(Machine, name)))
    return calls


def test_a_walk_between_two_regions_moves_its_words_in_line(monkeypatch):
    """Two regions below PPB_BASE that watch reads and writes, with the
    walk in the gap between them: a compiled push or pop tests each
    region on its own, so every word moves in line, with no
    Machine.load or Machine.store call from compiled code, and none
    hits."""
    prog = parse(_loop("push {r5, r6}", "pop {r1, r2}", "add sp, #4"))
    cfg = RunConfig(protected=True, shadow=SHADOW, initial_sp=GAP_SP,
                    max_steps=5_000)
    writes = _writes([(register + 16 * gid, value)
                      for gid, lo in zip((2, 3), GAP)
                      for register, value in ((DWT_COMP0, lo), (DWT_MASK0, 2),
                                              (DWT_FUNCTION0, FN_READWRITE))])

    def arm(m):
        m.store(GAP_SP, 4, 0)  # the walk's page, present
        writes(m)
    want = check(prog, cfg, "gap", monkeypatch, arm=arm)
    assert want["halt"][1].value == "normal" and not want["violations"]
    assert want["dwt"][2][1][2:] == tuple((lo, lo + 4) for lo in GAP)
    calls = _compiled_calls(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(blocks, "HOT_THRESHOLD", 1)
        assert_same(want, fast(prog, cfg, arm), "gap at threshold 1")
    assert calls[0] == 0
