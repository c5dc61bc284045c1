"""Instrumentation pass: analysis, rewriting shape, plans, tags."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from watchstack.asm import format_instr, format_tagged, parse, print_program
from watchstack.cli import main
from watchstack.harness import make_benign_program
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL, InstrumentError,
                                   ShadowStackConfig, analyze_free_gprs,
                                   instrument_program)
from watchstack.isa import PC
from watchstack.runner import (OUTCOME_SAFE, RunConfig, run_program,
                               run_source)

from test_instrument_corpus import SEEDS, corpus_source, placement

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
DEMO = README.parent / "programs" / "demo.ws"
HEADER = ".org 0x08000000\n"


def one_func(body: str, kind: str = "") -> str:
    k = (" " + kind) if kind else ""
    return (HEADER + ".func main hal\n    bl f\n    bkpt #0\n.endfunc\n"
            + ".func f%s\n%s\n.endfunc\n" % (k, body))


def instrument(src: str, **cfg):
    return instrument_program(parse(src), ShadowStackConfig(**cfg))


# -- free-GPR analysis ---------------------------------------------------------

def brute_force_free(func) -> set:
    """Regex scan over the canonically printed body, our oracle."""
    used = set()
    for ins in func.body:
        from watchstack.asm import format_instr
        line = format_instr(ins).split(";")[0]
        for n in range(13):
            if re.search(r"\br%d\b" % n, line):
                used.add(n)
    return set(range(13)) - used


FREE_CASES = [
    ("    nop\n    bx lr", set(range(13))),
    ("    mov r0, #1\n    bx lr", set(range(13)) - {0}),
    ("    push {r4, r7, lr}\n    pop {r4, r7, pc}", set(range(13)) - {4, 7}),
    ("    ldr r1, [r2, #4]\n    str r1, [r3]\n    bx lr",
     set(range(13)) - {1, 2, 3}),
    ("    movw r12, #1\n    cmp r12, #2\n    bx lr", set(range(13)) - {12}),
    ("    mov r0, r9\n    bx lr", set(range(13)) - {0, 9}),
]


@pytest.mark.parametrize("body,expected", FREE_CASES)
def test_free_gpr_analysis_hand_cases(body, expected):
    prog = parse(one_func(body))
    func = prog.functions["f"]
    assert analyze_free_gprs(func) == expected
    assert brute_force_free(func) == expected


_OPS_POOL = [
    "mov r%d, #9", "addw r%d, r%d, #2", "cmp r%d, #0",
    "ldr r%d, [sp]", "push {r%d}", "pop {r%d}", "mov.w r%d, #1",
]


def test_free_gpr_analysis_matches_brute_force_on_random_functions():
    rng = random.Random(7)
    for _ in range(200):
        lines = []
        for _ in range(rng.randint(1, 10)):
            tpl = rng.choice(_OPS_POOL)
            reg = rng.randrange(0, 13)
            lines.append("    " + tpl.replace("%d", str(reg)))
        lines.append("    bx lr")
        func = parse(one_func("\n".join(lines))).functions["f"]
        assert analyze_free_gprs(func) == brute_force_free(func)


# -- scratch selection and plans ----------------------------------------------

def test_two_free_scratches_no_reservation():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"))
    plan = res.plan_for("f")
    assert len(plan.scratch_gprs) == 2
    assert plan.reserved_gprs == ()
    assert set(plan.scratch_gprs) <= set(plan.free_gprs)
    assert not any(l.startswith("push") for l in plan.inserted_prologue)


def test_zero_free_forces_reservation_with_push_pop():
    body = "\n".join("    mov r%d, #1" % r for r in (0, 1, 2, 3, 4, 5, 6, 8,
                                                     9, 10, 11, 12))
    src = one_func("    push {r7, lr}\n%s\n    pop {r7, pc}" % body)
    plan = instrument(src).plan_for("f")
    assert plan.free_gprs == ()
    assert len(plan.reserved_gprs) == 2
    assert plan.inserted_prologue[0].startswith("push {")
    assert plan.inserted_prologue[-1].startswith("pop {")


def test_one_free_reserves_only_the_shortfall():
    body = "\n".join("    mov r%d, #1" % r for r in (0, 1, 2, 3, 4, 5, 6, 8,
                                                     9, 10, 11))
    src = one_func("    push {r7, lr}\n%s\n    pop {r7, pc}" % body)
    plan = instrument(src).plan_for("f")
    assert plan.free_gprs == (12,)
    assert 12 in plan.scratch_gprs
    assert len(plan.reserved_gprs) == 1


def test_naive_needs_three_scratches():
    src = one_func("    push {r7, lr}\n    pop {r7, pc}")
    plan = instrument(src, sequence="naive").plan_for("f")
    assert len(plan.scratch_gprs) == 3


def test_hal_functions_are_skipped():
    src = (HEADER + ".func main hal\n    bl f\n    bkpt #0\n.endfunc\n"
           ".func f hal\n    push {r7, lr}\n    pop {r7, pc}\n.endfunc\n")
    res = instrument(src)
    plan = res.plan_for("f")
    assert plan.skipped and plan.size_delta_bytes == 0
    assert plan.inserted_prologue == ()
    orig = parse(src)
    assert (res.program.functions["f"].structural_key()
            == orig.functions["f"].structural_key())


EMPTY = (HEADER + ".func main hal\n    bl f\n    bkpt #0\n.endfunc\n"
         ".func f%s\n.endfunc\n.func g\n    bx lr\n.endfunc\n")


@pytest.mark.parametrize("kind", ["", " handler"])
def test_an_empty_function_is_refused(kind):
    # An empty normal f aliases g: f's prologue runs on into g's, and the
    # one epilogue left pops one of the two shadow slots they push.
    with pytest.raises(InstrumentError) as err:
        instrument(EMPTY % kind)
    assert err.value.function == "f"
    assert err.value.message == "%s function has an empty body" % (
        kind.strip() or "normal")


def test_the_pass_refuses_its_own_output():
    """Instrumented twice, every call would push two shadow slots: a body
    that already holds a tagged instruction is refused."""
    once = print_program(instrument(DEMO.read_text()).program)
    with pytest.raises(InstrumentError) as err:
        instrument(once)
    assert err.value.function == "quintuple_plus_one"
    assert err.value.message == ("already instrumented: "
                                 "movw r12, #0x1020 ;@pro:other")


def test_an_empty_hal_function_is_copied():
    res = instrument(EMPTY % " hal")
    assert res.plan_for("f").skipped
    assert res.program.functions["f"].body == []


def _span(func) -> int:
    """The bytes a laid-out function spans, first to last instruction."""
    return func.address(len(func.body)) - func.address(0)


def _return_shape(ins) -> str | None:
    if ins.op == "bx":
        return "bx lr"
    if ins.op == "pop" and PC in ins.reglist:
        return "pop {pc}" if ins.reglist == (PC,) else "pop {rN, pc}"
    return None


def test_size_delta_matches_layout_growth():
    """Every plan of the frozen corpus under both sequences: the plan's
    size delta is the function's laid-out growth.  The corpus has every
    return shape, functions with several return sites, handlers and
    reserved spills."""
    seen = set()
    for seed in SEEDS:
        prog = parse(corpus_source(seed))
        for seq in (SEQ_OPTIMAL, SEQ_NAIVE):
            res = instrument_program(prog, ShadowStackConfig(sequence=seq))
            for plan in res.plans:
                old = prog.functions[plan.function]
                grown = _span(res.program.functions[plan.function]) - _span(old)
                assert plan.size_delta_bytes == grown, (seed, seq, plan)
                seen.update(_return_shape(ins) for ins in old.body)
                seen.update((plan.kind, plan.epilogue_sites > 1,
                             bool(plan.reserved_gprs)))
    assert seen >= {"bx lr", "pop {pc}", "pop {rN, pc}", "handler", "normal",
                    True, False}


# -- rewriting shape -----------------------------------------------------------

def test_prologue_shape_optimal():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"))
    pro = res.plan_for("f").inserted_prologue
    base = "r%d" % max(res.plan_for("f").scratch_gprs)
    work = "r%d" % min(res.plan_for("f").scratch_gprs)
    assert list(pro) == [
        "movw %s, #0x1020" % base,
        "movt %s, #0xe000" % base,
        "mov.w %s, #0" % work,
        "str.w %s, [%s, #8]" % (work, base),   # FUNCTION0 off
        "ldr.w %s, [%s, #16]" % (work, base),  # ssp from COMP1
        "str.w lr, [%s]" % work,               # mirror the return address
        "addw %s, %s, #4" % (work, work),
        "str.w %s, [%s, #16]" % (work, base),  # ssp back to COMP1
        "mov.w %s, #6" % work,
        "str.w %s, [%s, #8]" % (work, base),   # FUNCTION0 on
    ]


def test_prologue_shape_naive_has_extra_address_materialization():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"),
                     sequence="naive")
    pro = res.plan_for("f").inserted_prologue
    text = "\n".join(pro)
    assert "movw" in text and "#0x1030" in text  # ssp register address
    assert len(pro) == 12  # optimal's 10 plus the two-instruction address load


def test_epilogue_writes_ssp_before_reloading_lr():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"))
    epi = list(res.plan_for("f").inserted_epilogue)
    str_back = next(i for i, l in enumerate(epi)
                    if l.startswith("str.w") and "[lr]" in l)
    lr_load = next(i for i, l in enumerate(epi) if l.startswith("ldr.w lr"))
    assert str_back < lr_load
    assert epi[-1] == "bx lr"


def test_bx_lr_return_is_rewritten_too():
    res = instrument(one_func("    mov r0, #1\n    bx lr"))
    f = res.program.functions["f"]
    tagged = [i for i in f.body if i.tag]
    assert any(i.op == "bx" for i in tagged)
    plan = res.plan_for("f")
    assert plan.epilogue_sites == 1


def test_multiple_return_sites_all_converted():
    body = """\
    push {r7, lr}
    cmp r0, #0
    beq alt
    pop {r7, pc}
.label alt
    mov r0, #5
    pop {r7, pc}"""
    res = instrument(one_func(body))
    assert res.plan_for("f").epilogue_sites == 2
    text = print_program(res.program)
    assert text.count("ldr.w lr, [") >= 2


def test_indirect_bx_is_rejected_atomically():
    src = (HEADER + ".func main hal\n    bl f\n    bkpt #0\n.endfunc\n"
           ".func ok\n    push {r7, lr}\n    pop {r7, pc}\n.endfunc\n"
           ".func f\n    bx r3\n.endfunc\n")
    with pytest.raises(InstrumentError):
        instrument(src)


# -- ways out of a function ------------------------------------------------------

def _funcs(*funcs: str, main: str = "    bl a") -> str:
    """``main`` (hal), whose lines are ``main`` and a halt, then
    ``funcs``, each ``(name, body)`` text: ``.func name`` and its
    lines."""
    return HEADER + "".join(".func %s\n%s\n.endfunc\n" % f for f in (
        ("main hal", main + "\n    bkpt #0"), *funcs))


# main -> a -> w -> g, where w's body ends in the tail call ``b g``.  w
# names r0-r11, so its prologue spills r4, and g names r0, so no
# prologue here takes a register that holds a live value.  Plain, r0
# is 6 + 100 = 106.  Instrumented, nothing would pop w's shadow slot,
# which holds the return into a after ``bl w``: g's epilogue pops its
# own, and a's then returns through w's into a's own tail, which adds
# 100 again, so r0 read 206 with no violation and exit 0.
TAIL_CALL = _funcs(
    ("a", "    push {r7, lr}\n    mov r0, #6\n    bl w\n"
          "    addw r0, r0, #100\n    pop {r7, pc}"),
    ("w", "    push {r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11}\n"
          "    pop {r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11}\n"
          "    b g"),
    ("g", "    mov r0, r0\n    bx lr"))


def test_a_tail_call_is_refused(tmp_path, capsys):
    plain = run_source(TAIL_CALL)
    assert plain.outcome == OUTCOME_SAFE and plain.machine.gpr[0] == 106
    with pytest.raises(InstrumentError) as err:
        instrument(TAIL_CALL)
    assert err.value.function == "w"
    assert err.value.message == (
        "branch out of the function is unsupported: b g")
    src = tmp_path / "tail.ws"
    src.write_text(TAIL_CALL)
    assert main(["instrument", str(src)]) == 1
    assert main(["run", str(src), "--instrument", "--protected"]) == 1
    assert capsys.readouterr().err.count("branch out of the function") == 2


G = ("g", "    bx lr")


@pytest.mark.parametrize("body,branch", [
    ("    cmp r0, #0\n    beq g\n    bx lr", "beq g"),
    ("    cmp r0, #0\n    bne a\n    bx lr", "bne a"),
    ("    b a", "b a"),
    ("    push {r7, lr}\n.label a_body\n    pop {r7, pc}\n    b a_other",
     "b a_other")], ids=["bcond to another", "bcond to its entry",
                         "b to its entry", "b to another's label"])
def test_a_branch_to_a_label_outside_the_body_is_refused(body, branch):
    """A branch to the function's own entry would run its prologue again
    and push a second shadow slot; one to any other function's code
    would leave without popping its own."""
    text = _funcs(("a", body), G, ("b2", ".label a_other\n    bx lr"))
    with pytest.raises(InstrumentError) as err:
        instrument(text)
    assert (err.value.function, err.value.message) == (
        "a", "branch out of the function is unsupported: " + branch)


def test_a_branch_to_a_label_inside_the_body_is_kept():
    """Labels bound to the body, its first instruction's too, lie past
    the prologue: a loop back to them stays in the function."""
    res = instrument(_funcs(("a", ".label top\n    subw r0, r0, #1\n"
                                  "    cmp r0, #0\n    bne top\n"
                                  "    b done\n.label done\n    bx lr")))
    assert res.plan_for("a").epilogue_sites == 1


@pytest.mark.parametrize("last", ["mov r0, #1", "bl g", "beq g2", "svc #0",
                                  "udf #0"])
def test_a_function_that_falls_off_its_end_is_refused(last):
    """Past its last instruction runs the next function's code, with this
    function's shadow slot pushed and never popped."""
    text = _funcs(("a", "    cmp r0, #0\n    beq g2\n.label g2\n    " + last),
                  G)
    with pytest.raises(InstrumentError) as err:
        instrument(text)
    assert (err.value.function, err.value.message) == (
        "a", "falls off its end after " + last)


@pytest.mark.parametrize("last", ["bkpt #1", "b a_loop", "bx lr",
                                  "pop {r7, pc}"])
def test_a_function_may_end_in_a_halt_a_jump_or_a_return(last):
    text = _funcs(("a", "    push {r7, lr}\n.label a_loop\n    " + last))
    assert not instrument(text).plan_for("a").skipped


# -- registers live across a call ------------------------------------------------
#
# The pass takes any register a function's body never names as a free
# scratch and uses it unsaved: sound only where no value is live across
# a call, as the generators here guarantee.  Under the calling
# convention (r4-r11 callee-saved, r0-r3 arguments and r0-r1 results)
# these two programs are ordinary code, and the instrumented run gives
# another answer than the plain one, with exit 0.


def _plain_and_protected(text: str) -> tuple:
    plain = run_source(text)
    prot = run_program(instrument(text).program, RunConfig(protected=True))
    assert plain.outcome == prot.outcome == OUTCOME_SAFE
    return plain.machine.gpr, prot.machine.gpr


@pytest.mark.xfail(strict=True, reason=(
    "the pass uses f's unnamed r4 as its prologue's work register without "
    "saving it, so main reads r4 = 0x00E00000, the shadow stack pointer, "
    "not 7"))
def test_a_callee_saved_register_survives_a_call():
    """main keeps 7 in r4 across a call of f, which names only r0-r3 and
    r12."""
    plain, prot = _plain_and_protected(_funcs(
        ("f", "    mov r0, #1\n    mov r1, #2\n    mov r2, #3\n"
              "    mov r3, #4\n    mov r12, r0\n    bx lr"),
        main="    mov r4, #7\n    bl f"))
    assert plain[4] == 7
    assert prot[4] == 7


@pytest.mark.xfail(strict=True, reason=(
    "the wrapper f names no r0, so the pass takes r0 as its work register: "
    "its prologue overwrites the argument before bl g and its epilogue "
    "g's result, and r0 reads 0x00E00000, not 0x2b"))
def test_an_argument_and_a_result_pass_through_a_wrapper():
    """f is ``push {lr}; bl g; pop {pc}``, the code for ``int f(int x)
    { return g(x); }`` without tail calls, and g adds 1 to its
    argument."""
    plain, prot = _plain_and_protected(_funcs(
        ("f", "    push {lr}\n    bl g\n    pop {pc}"),
        ("g", "    addw r0, r0, #1\n    bx lr"),
        main="    mov r0, #0x2a\n    bl f"))
    assert plain[0] == 0x2b
    assert prot[0] == 0x2b


def test_original_body_preserved_in_order():
    body = "    push {r7, lr}\n    mov r0, #1\n    addw r0, r0, #2\n    pop {r7, pc}"
    res = instrument(one_func(body))
    ops = [i.op for i in res.program.functions["f"].body if i.tag is None]
    # original instructions, with the return pop converted (pc removed)
    assert ops == ["push", "mov_imm", "addw", "pop"]


def test_all_inserted_instructions_are_tagged():
    res = instrument(one_func("    push {r7, lr}\n    mov r1, #2\n    pop {r7, pc}"))
    orig_keys = {i.structural_key()
                 for i in parse(one_func("    push {r7, lr}\n    mov r1, #2\n    pop {r7, pc}")).functions["f"].body}
    for ins in res.program.functions["f"].body:
        if ins.tag is None:
            # untagged instructions are original (or their converted pop)
            assert ins.structural_key() in orig_keys or ins.op == "pop"


def test_config_variants_change_the_emitted_addresses():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"),
                     ss_start=0x20018000, ss_size_log2=10)
    text = print_program(res.program)
    assert "#0x1020" in text  # comparator base unchanged
    run_ok = "#0x1030" in text or "[lr]" in text
    assert run_ok


@pytest.mark.parametrize("kw", [{"ss_start": 0x00E00100},
                                {"ss_start": 0x00E04000},
                                {"ss_start": -0x8000},
                                {"ss_start": 1 << 32},
                                {"ss_size_log2": 1},
                                {"ss_size_log2": 32},
                                {"ss_size_log2": 40}])
def test_shadow_region_must_be_one_comparator_block(kw):
    # Comparator 0 traps an aligned 2**MASK block, MASK at most 31; any
    # other region would leave part of the shadow stack writable.
    with pytest.raises(ValueError):
        ShadowStackConfig(**kw)
    ShadowStackConfig(ss_size_log2=2)
    ShadowStackConfig(ss_start=0x80000000, ss_size_log2=31)


@pytest.mark.parametrize("sequence", ["Naive", "OPTIMAL", "fast", ""])
def test_a_misspelt_sequence_is_refused_not_built_as_optimal(sequence):
    with pytest.raises(ValueError, match="unknown instrumentation sequence"):
        ShadowStackConfig(sequence=sequence)


# -- handlers ------------------------------------------------------------------

HANDLER_SRC = (HEADER + ".func main hal\n    udf #0\n    bkpt #0\n.endfunc\n"
               + ".func usagefault_handler handler\n"
               "    push {r7, lr}\n    nop\n    pop {r7, pc}\n.endfunc\n")


def test_handler_gets_enable_guard_and_frame_copy():
    res = instrument(HANDLER_SRC)
    plan = res.plan_for("usagefault_handler")
    assert plan.kind == "handler"
    assert len(plan.scratch_gprs) == 3
    pro = "\n".join(plan.inserted_prologue)
    assert "#0xedfc" in pro and "#0xe000" in pro  # DEMCR poll
    assert "cmp" in pro and "beq" in pro          # skip when disarmed
    # the four protected frame words, highest offset first
    for off in (28, 24, 20, 16):
        assert "[sp, #%d]" % off in pro
    epi = "\n".join(plan.inserted_epilogue)
    assert "cmp" in epi and "beq" in epi
    for off in (28, 24, 20, 16):
        assert "[sp, #%d]" % off in epi


def test_handler_skip_labels_are_unique_and_resolved():
    res = instrument(HANDLER_SRC)
    text = print_program(res.program)
    labels = re.findall(r"__ws_[a-z0-9_]+", text)
    defined = [l for l in re.findall(r"\.label (\S+)", text)]
    assert len(set(defined)) == len(defined)
    for lab in labels:
        assert lab in defined or labels.count(lab) >= 1
    parse(text)  # must reassemble cleanly


def test_a_user_label_keeps_the_name_the_pass_would_take():
    """A user label named like the handler's skip label keeps its name and
    place; the pass's label steps aside to the ``_1`` name."""
    taken = "__ws_usagefault_handler_pro_skip"
    res = instrument(HANDLER_SRC.replace("    nop\n",
                                         ".label %s\n    nop\n" % taken))
    pro = res.plan_for("usagefault_handler").inserted_prologue
    assert "beq %s_1" % taken in pro
    prog = res.program
    assert prog.code[prog.labels[taken]].op == "nop"
    assert prog.code[prog.labels[taken + "_1"]].op == "push"


def _output(res) -> tuple:
    return (res.text, [p.to_dict() for p in res.plans],
            placement(res.program),
            [(at, ins.structural_key(), ins.label, ins.conv_extra,
              ins.target, ins.width, ins.cycles)
             for at, ins in res.program.code.items()])


def test_handler_blocks_are_copies_with_their_own_skip_labels():
    """Blocks share their template's instructions: two handlers with one
    choice of scratch registers, normal functions with ``pop {r4, r7,
    pc}`` and ``bx lr`` sites, and a hal function after them.  Each
    guard is a value of its own that skips to its own label, in the code
    and in the plan text.  Instrumenting one input twice leaves its
    text, labels, entries and code-map keys as parsed, and gives equal
    outputs."""
    src = (HANDLER_SRC + HANDLER_SRC.split(".endfunc\n")[1].replace(
        "usagefault", "systick") + ".endfunc\n"
        + ".func f\n    push {r4, r7, lr}\n    cmp r0, #0\n    beq f_out\n"
        "    pop {r4, r7, pc}\n    .label f_out\n    pop {r4, r7, pc}\n"
        ".endfunc\n.func g\n    mov r0, #1\n    bx lr\n.endfunc\n"
        ".func h hal\n    bx lr\n.endfunc\n")
    parsed = parse(src)
    want = placement(parsed)
    config = ShadowStackConfig()
    first = instrument_program(parsed, config)
    second = instrument_program(parsed, config)
    assert placement(parsed) == want
    assert _output(first) == _output(second)
    prog = first.program
    for name in ("usagefault_handler", "systick_handler"):
        plan = first.plan_for(name)
        assert plan.scratch_gprs == (0, 1, 12)
        for skip, text in (("pro_skip", plan.inserted_prologue),
                           ("epi1_skip", plan.inserted_epilogue)):
            label = "__ws_%s_%s" % (name, skip)
            assert "beq " + label in text
            beqs = [ins for ins in prog.code.values() if ins.label == label]
            assert [ins.target for ins in beqs] == [prog.labels[label]]


def test_handler_scratches_stay_in_caller_saved_set():
    res = instrument(HANDLER_SRC)
    plan = res.plan_for("usagefault_handler")
    unsaved = [r for r in plan.scratch_gprs if r not in plan.reserved_gprs]
    assert set(unsaved) <= {0, 1, 2, 3, 12}


# -- golden blocks (criterion: exact instruction counts) -----------------------

def _bench_src():
    regs = (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12)
    body = "\n".join("    mov r%d, #%d" % (r, r + 1) for r in regs)
    return one_func("    push {r7, lr}\n%s\n    pop {r7, pc}" % body)


def test_access_block_golden_optimal():
    res = instrument(_bench_src())
    block = res.plan_for("f").access_block
    want = (GOLDEN / "access_block_optimal.txt").read_text().splitlines()
    assert list(block) == want
    assert len(block) == 6
    assert len(res.plan_for("f").scratch_gprs) == 2


def test_access_block_golden_naive():
    res = instrument(_bench_src(), sequence="naive")
    block = res.plan_for("f").access_block
    want = (GOLDEN / "access_block_naive.txt").read_text().splitlines()
    assert list(block) == want
    assert len(block) == 7
    assert len(res.plan_for("f").scratch_gprs) == 3


def test_instrumented_output_reassembles_and_is_stable():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"))
    again = parse(res.text)
    assert again.structural_key() == res.program.structural_key()
    assert print_program(again) == res.text


def test_text_is_rendered_on_first_access():
    res = instrument(one_func("    push {r7, lr}\n    pop {r7, pc}"))
    assert "text" not in vars(res)
    text = res.text
    assert text == print_program(res.program)
    assert res.text is text


# -- plan text is the inserted code --------------------------------------------

def _two_returns(name: str, kind: str, used, ret: str) -> str:
    """A function that touches ``used`` and r0 and returns twice by
    ``ret``, the second time behind a label."""
    lines = [".func %s %s" % (name, kind)]
    if ret != "bx lr":
        lines.append("    push {%slr}" % ("r7, " if "r7" in ret else ""))
    lines += ["    mov r%d, #%d" % (r, r + 1) for r in sorted(used)]
    lines += ["    cmp r0, #1", "    beq %s_alt" % name, "    " + ret,
              "    .label %s_alt" % name, "    " + ret, ".endfunc"]
    return "\n".join(lines) + "\n"


def _first_inserted_blocks(orig, new):
    """The prologue and the first return site's block, as inserted."""
    pro = 0
    while new.body[pro].tag is not None and new.body[pro].tag[0] == "pro":
        pro += 1
    site = next(i for i, ins in enumerate(orig.body)
                if ins.op == "bx" or (ins.op == "pop" and PC in ins.reglist))
    start = end = pro + site
    while new.body[end].op != "bx":
        end += 1
    return new.body[:pro], new.body[start:end + 1]


_RETURNS = st.sampled_from(["bx lr", "pop {pc}", "pop {r7, pc}"])


@pytest.mark.parametrize("sequence", [SEQ_OPTIMAL, SEQ_NAIVE])
@pytest.mark.parametrize("reserve", [False, True])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n_funcs=st.integers(1, 6),
       busy=st.sets(st.integers(1, 12)), busy_ret=_RETURNS,
       hw=st.sets(st.sampled_from([1, 2, 3, 12])),
       others=st.sets(st.integers(4, 11)), handler_ret=_RETURNS)
def test_plan_text_is_the_inserted_code(sequence, reserve, seed, n_funcs,
                                        busy, busy_ret, hw, others,
                                        handler_ret):
    """Each plan's text is ``format_instr`` of the instructions the pass
    inserted, so the lines it writes its blocks in are canonical.  The
    handler reserves registers when the body leaves fewer than three of
    the hardware-restored ones free (r0 is always used)."""
    hw = set(sorted(hw)[:1]) if not reserve else hw | {1, 2}
    text = (make_benign_program(random.Random(seed), n_funcs)
            + _two_returns("busy", "", busy, busy_ret)
            + _two_returns("systick_handler", "handler", hw | others,
                           handler_ret))
    prog = parse(text)
    res = instrument_program(prog, ShadowStackConfig(sequence=sequence))
    assert bool(res.plan_for("systick_handler").reserved_gprs) == reserve
    for plan in res.plans:
        if plan.skipped:
            continue
        pro, epi = _first_inserted_blocks(prog.functions[plan.function],
                                          res.program.functions[plan.function])
        assert tuple(map(format_instr, pro)) == plan.inserted_prologue
        assert tuple(map(format_instr, epi)) == plan.inserted_epilogue
        rest = iter(plan.inserted_prologue)
        assert all(line in rest for line in plan.access_block)


# -- the README's instrumented function --------------------------------------

def test_readme_shows_the_blocks_the_pass_writes():
    """README "Instrumentation" prints ``f`` (body ``bx lr``) as the
    optimal sequence rewrites it: scratches r0 and r12, tags included."""
    section = README.read_text().split("\n## Instrumentation\n")[1]
    shown = section.split("```asm\n.func f\n")[1].split("\n.endfunc")[0]
    res = instrument(HEADER + ".func f\n    bx lr\n.endfunc\n")
    assert res.plan_for("f").scratch_gprs == (0, 12)
    body = res.program.functions["f"].body
    assert shown.splitlines() == ["    " + format_tagged(i) for i in body]
