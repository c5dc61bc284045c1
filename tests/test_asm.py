"""Parser, layout, canonical printing, and their round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from watchstack.asm import (AsmError, _split_nested, _split_operands, listing,
                            parse, print_program)

HEADER = ".org 0x08000000\n"


def wrap(body: str) -> str:
    return HEADER + ".func main hal\n%s\n.endfunc\n" % body


# -- errors -------------------------------------------------------------------

ERROR_CASES = [
    (wrap(".label x\n    nop\n.label x\n    nop"), "duplicate name"),
    (wrap("    push {r7, r4}"), "strictly ascending"),
    (wrap("    .word 5"), ".word inside a function"),
    (HEADER + ".func main hal\n    nop\n.endfunc\n.org 0x04000000\n.word 1\n",
     ".org moves backwards"),
    (wrap("    nop\n.label tail"), "at end of function"),
    (wrap("    frob r0"), "unknown mnemonic"),
    (HEADER + ".func main hal\n    nop\n", "missing .endfunc"),
    (wrap("    movw r0, #0x10000"), "out of range"),
    (wrap("    b nowhere"), "unresolved label"),
    (HEADER + ".func a\n    bx lr\n.endfunc\n.func a\n    bx lr\n.endfunc\n",
     "duplicate name"),
    (wrap("    add sp, #3"), "multiple of 4"),
    (wrap("    ldr r0, [r1, #4096]"), "out of range"),
    (wrap("    svc #256"), "out of range"),
    (wrap("    push {}"), "empty register list"),
    (wrap("    mov r16, #1"), "bad register"),
    (HEADER + "    nop\n", "outside of a .func"),
]


@pytest.mark.parametrize("src,fragment", ERROR_CASES)
def test_errors_carry_line_and_message(src, fragment):
    with pytest.raises(AsmError) as err:
        parse(src)
    assert fragment in str(err.value)
    assert err.value.line > 0


# -- layout -------------------------------------------------------------------

# Malformed operand lines, each the only instruction of main (line 3), with
# the whole message the parser gives.  Comma-splitting has a fast path for
# operands without brackets; these pin its output, empty operands included.
OPERAND_ERRORS = [
    ("mov r0,", "line 3: mov takes 2 operands"),
    ("mov r0,,#1", "line 3: mov takes 2 operands"),
    ("mov r0, , #1", "line 3: mov takes 2 operands"),
    ("mov r0", "line 3: mov takes 2 operands"),
    ("mov ,", "line 3: mov takes 2 operands"),
    ("addw r0, r1,", "line 3: addw takes 3 operands"),
    ("cmp r0, #1, #2", "line 3: cmp takes 2 operands"),
    ("b", "line 3: b takes 1 operands"),
    ("b ,", "line 3: bad branch target ''"),
    ("bl f, g", "line 3: bl takes 1 operands"),
    ("nop ,", "line 3: nop takes 0 operands"),
    ("svc", "line 3: svc takes 1 operands"),
    ("push {r4, lr", "line 3: expected register list, got '{r4, lr'"),
    ("push r4, lr}", "line 3: push takes 1 operands"),
    ("push {r4}, {r5}", "line 3: push takes 1 operands"),
    ("pop {,}", "line 3: empty register list"),
    ("push {r4,}", "line 3: empty name in register list '{r4,}'"),
    ("push {,r4}", "line 3: empty name in register list '{,r4}'"),
    ("push {r4,,lr}", "line 3: empty name in register list '{r4,,lr}'"),
    ("push {{r4}}", "line 3: bad register '{r4}'"),
    ("ldr r0, [r1,]", "line 3: bad memory operand '[r1,]'"),
    ("ldr r0, [r1, #4", "line 3: bad memory operand '[r1, #4'"),
    ("ldr r0, r1]", "line 3: bad memory operand 'r1]'"),
    ("ldr r0, [r1]]", "line 3: bad memory operand '[r1]]'"),
    ("ldr r0, [r1, r2]", "line 3: bad memory operand '[r1, r2]'"),
    ("str r0, [r1], #4", "line 3: str takes 2 operands"),
    ("ldrb r0, [sp, #4],r1", "line 3: ldrb takes 2 operands"),
    ("mov r0, [r1, #1]", "line 3: bad register '[r1, #1]'"),
    # A stray closer nests the rest of the line one level below zero.
    ("mov r0}, r1", "line 3: mov takes 2 operands"),
    ("mov r0], r1", "line 3: mov takes 2 operands"),
    # A trailing comma on a line that otherwise parses.
    ("addw r0, r1, #1,", "line 3: trailing comma in 'addw r0, r1, #1,'"),
    ("bx lr,", "line 3: trailing comma in 'bx lr,'"),
    ("push {r4, lr},", "line 3: trailing comma in 'push {r4, lr},'"),
    ("ldr r0, [r1, #4],", "line 3: trailing comma in 'ldr r0, [r1, #4],'"),
]


@pytest.mark.parametrize("line,message", OPERAND_ERRORS)
def test_malformed_operands_give_exact_messages(line, message):
    with pytest.raises(AsmError) as err:
        parse(wrap("    " + line))
    assert str(err.value) == message


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=" ,{}[]r0#x", max_size=14))
def test_operand_split_matches_the_character_loop(text):
    assert _split_operands(text) == _split_nested(text)


def test_layout_assigns_consecutive_addresses():
    # widths derived instruction by instruction from the encoding rules
    src = wrap("""\
    push {r7, lr}
    movw r0, #0x1234
    movt r0, #0x2000
    ldr r1, [r0]
    addw r1, r1, #1
    str r1, [r0]
    pop {r7, pc}""")
    prog = parse(src)
    body = prog.functions["main"].body
    widths = [2, 4, 4, 2, 4, 2, 2]
    assert [i.width for i in body] == widths
    addr = 0x08000000
    for ins, w in zip(body, widths):
        assert ins.addr == addr
        addr += w
    assert prog.functions["main"].size_bytes() == sum(widths)


def test_protection_block_size_sums_from_width_table():
    # a naive-flavor prologue with one reserved scratch: narrow push/pop
    # around nine wide operations = 2 + 9*4 + 2 = 40 bytes
    src = wrap("""\
    push {r4}
    movw r4, #0x1020
    movt r4, #0xe000
    mov.w r4, #0
    str.w r4, [r4, #8]
    movw r4, #0x1030
    movt r4, #0xe000
    str.w lr, [r4]
    addw r4, r4, #4
    str.w r4, [r4]
    pop {r4}""")
    body = parse(src).functions["main"].body
    assert [i.width for i in body] == [2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2]
    assert sum(i.width for i in body) == 40


def test_word_directive_aligns_and_resolves_labels():
    src = (HEADER
           + ".func main hal\n    nop\n.endfunc\n"
           + ".word 0x11223344\n.label ptr\n.word main\n")
    prog = parse(src)
    # nop ends at 0x08000002; first word aligns up to 0x08000004
    assert prog.data[0] == (0x08000004, 0x11223344)
    assert prog.labels["ptr"] == 0x08000008
    assert prog.data[1] == (0x08000008, 0x08000000)  # label value baked in


def test_org_switches_regions():
    src = (HEADER + ".func main hal\n    nop\n.endfunc\n"
           + ".org 0x20000000\n.label blob\n.word 9\n")
    prog = parse(src)
    assert prog.labels["blob"] == 0x20000000
    assert (0x20000000, 9) in prog.data


def test_entry_address_prefers_main():
    src = (".org 0x08000000\n.func helper\n    bx lr\n.endfunc\n"
           ".func main hal\n    bkpt #0\n.endfunc\n")
    prog = parse(src)
    assert prog.entry_address() == prog.functions["main"].entry
    src2 = ".org 0x08000000\n.func solo\n    bx lr\n.endfunc\n"
    assert parse(src2).entry_address() == 0x08000000


def test_inserting_code_shifts_following_functions():
    base = (HEADER + ".func a\n    nop\n.endfunc\n"
            ".func b\n    bkpt #0\n.endfunc\n")
    grown = (HEADER + ".func a\n    nop\n    nop\n.endfunc\n"
             ".func b\n    bkpt #0\n.endfunc\n")
    pa, pb = parse(base), parse(grown)
    assert pb.functions["b"].entry == pa.functions["b"].entry + 2


def test_branch_targets_resolve_across_layout():
    src = wrap("""\
    b fwd
    nop
.label fwd
    bkpt #0""")
    prog = parse(src)
    b = prog.functions["main"].body[0]
    assert b.target == prog.labels["fwd"] == 0x08000004


# -- canonical printing round trip -------------------------------------------

FIXED_PROGRAMS = [
    wrap("    nop"),
    wrap("    push {r0, r1, r7, lr}\n    pop {r0, r1, r7, pc}"),
    wrap("    mov.w r0, #6\n    str.w r0, [r12, #8]"),
    wrap("    movw r0, #0xffff\n    cmp r0, #255\n    beq out\n"
         "    nop\n.label out\n    bkpt #0"),
    (HEADER + ".func main hal\n    bl f\n    bkpt #0\n.endfunc\n"
     ".func f\n    push {r7, lr}\n    pop {r7, pc}\n.endfunc\n"
     ".func systick_handler handler\n    push {r7, lr}\n    pop {r7, pc}\n"
     ".endfunc\n.org 0x20000000\n.label blob\n.word 0x55aa55aa\n.word f\n"),
    wrap("    ldrb r1, [r2, #3]\n    strb r1, [r2, #4]\n"
         "    add sp, #8\n    sub sp, #8\n    svc #2\n    udf #0"),
    wrap("    mrs r3, control\n    msr control, r3\n    blx r4\n    bx lr"),
]


@pytest.mark.parametrize("src", FIXED_PROGRAMS)
def test_print_parse_round_trip_fixed(src):
    prog = parse(src)
    text = print_program(prog)
    again = parse(text)
    assert again.structural_key() == prog.structural_key()
    # printing is idempotent once canonical
    assert print_program(again) == text


def test_tag_comments_survive_round_trip():
    src = wrap("    mov.w r0, #0 ;@pro:aw\n    str.w lr, [r4] ;@epi:uss\n"
               "    addw r4, r4, #4 ;@pro:assp\n    push {r4} ;@pro:other")
    prog = parse(src)
    body = prog.functions["main"].body
    assert body[0].tag == ("pro", "AW")
    assert body[1].tag == ("epi", "USS")
    assert body[2].tag == ("pro", "ASSP")
    assert body[3].tag == ("pro", "Other")
    text = print_program(prog)
    assert ";@pro:aw" in text and ";@epi:uss" in text
    again = parse(text)
    assert [i.tag for i in again.functions["main"].body] == \
        [i.tag for i in body]


def test_plain_comments_are_ignored():
    src = wrap("    nop ; trailing words\n    ; a full comment line\n    bkpt #1")
    prog = parse(src)
    assert [i.op for i in prog.functions["main"].body] == ["nop", "bkpt"]


def test_listing_shows_addresses_and_widths():
    out = listing(parse(wrap("    push {r7, lr}\n    bkpt #0")))
    assert "08000000" in out and "08000002" in out


_SIMPLE_OPS = st.sampled_from([
    "nop", "mov r0, #1", "mov r5, #200", "mov r9, #3", "mov r1, r2",
    "movw r3, #0x1234", "movt r3, #0x2000", "addw r2, r2, #100",
    "subw r2, r2, #1", "cmp r2, #0", "cmp r1, r2", "ldr r0, [r1]",
    "str r0, [r1, #4]", "ldrb r4, [r5, #1]", "strb r4, [r5, #2]",
    "push {r0, r6}", "pop {r0, r6}", "push {r4, r5, lr}",
    "add sp, #16", "sub sp, #16", "str.w lr, [r0]", "ldr.w r12, [r1, #8]",
    "mov.w r7, #0", "bx lr", "mrs r0, control", "svc #9", "udf #1",
])


@settings(max_examples=120, deadline=None)
@given(st.lists(_SIMPLE_OPS, min_size=1, max_size=16),
       st.booleans(), st.booleans())
def test_print_parse_round_trip_random(ops, with_branch, second_func):
    lines = ["    " + op for op in ops]
    if with_branch:
        lines = (["    b mid"] + lines[: len(lines) // 2] + [".label mid"]
                 + lines[len(lines) // 2:])
    body = "\n".join(lines)
    src = HEADER + ".func main hal\n%s\n    bkpt #0\n.endfunc\n" % body
    if second_func:
        src += ".func extra\n    push {r7, lr}\n    pop {r7, pc}\n.endfunc\n"
    prog = parse(src)
    again = parse(print_program(prog))
    assert again.structural_key() == prog.structural_key()
    assert again.code.keys() == prog.code.keys()
