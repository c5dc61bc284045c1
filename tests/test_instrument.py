"""Instrumentation pass: analysis, rewriting shape, plans, tags."""

import random
import re
from pathlib import Path

import pytest

from watchstack.asm import parse, print_program
from watchstack.instrument import (InstrumentError, ShadowStackConfig,
                                   analyze_free_gprs, instrument_program)

GOLDEN = Path(__file__).parent / "golden"
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


def test_size_delta_matches_layout_growth():
    src = one_func("    push {r7, lr}\n    mov r0, #3\n    pop {r7, pc}")
    res = instrument(src)
    plan = res.plan_for("f")
    grown = res.program.functions["f"].size_bytes()
    orig = parse(src).functions["f"].size_bytes()
    assert plan.size_delta_bytes == grown - orig > 0


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
