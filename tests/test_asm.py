"""Parser, layout, canonical printing, and their round trip."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from watchstack import asm
from watchstack.asm import (LINE_CACHE_SIZE, _IMM_LIMIT, AsmError,
                            _line_template, _Parser, layout, listing, parse,
                            print_program)
from watchstack.harness import make_benign_program
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL, ShadowStackConfig,
                                   instrument_program)
from watchstack.isa import CONDITIONS, OPS, REG_PARSE, Instr, format_instr

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


# Directive, operand and tag faults that ERROR_CASES does not reach, each
# with the whole message and the line it is reported on.
FAULT_LINES = [
    (wrap(".org 0x08000100\n    nop"), "line 3: .org inside a function"),
    (HEADER + ".func\n", "line 2: .func takes a name and an optional kind"),
    (HEADER + ".func f hal x\n",
     "line 2: .func takes a name and an optional kind"),
    (".org 0x20000000\n.word\n", "line 2: .word takes one value or label"),
    (".org 0x20000000\n.word 1 2\n",
     "line 2: .word takes one value or label"),
    (wrap(".label a b\n    nop"), "line 3: .label takes one identifier"),
    (HEADER + ".endfunc\n", "line 2: .endfunc without .func"),
    (wrap("    movw r0, 1"), "line 3: expected immediate, got '1'"),
    (wrap("    addw r0, sp, #4"), "line 3: register sp not allowed here"),
    (wrap("    add r0, #4"), "line 3: add supports only the sp form"),
    (wrap("    sub r1, #4"), "line 3: sub supports only the sp form"),
    (wrap("    msr primask, r0"), "line 3: msr supports only control"),
    (wrap("    mrs r0, basepri"), "line 3: mrs supports only control"),
    (wrap("    nop\n    ;@pro:aw"),
     "line 4: tag comment without an instruction"),
    (wrap("    bkpt #0") + ".label tail\n",
     "line 5: label 'tail' is not bound to anything"),
    (".word nowhere\n", "line 1: unresolved label 'nowhere'"),
    (".org 1 2\n", "line 1: .org takes one address"),
]


@pytest.mark.parametrize("src,message", FAULT_LINES)
def test_faults_give_exact_messages_and_lines(src, message):
    with pytest.raises(AsmError) as err:
        parse(src)
    assert str(err.value) == message


# -- layout -------------------------------------------------------------------

# Malformed operand lines, each the only instruction of main (line 3), with
# the whole message the parser gives.  These pin how commas split the
# operands, brackets, stray closers and empty operands included.
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
    # Only mov, ldr, str, ldrb and strb have a .w form.
    ("push.w {r4, lr}", "line 3: push has no .w form"),
    ("b.w main", "line 3: b has no .w form"),
    ("cmp.w r0, #1", "line 3: cmp has no .w form"),
    ("addw.w r0, r1, #1", "line 3: addw has no .w form"),
    ("bkpt.w #0", "line 3: bkpt has no .w form"),
]


@pytest.mark.parametrize("line,message", OPERAND_ERRORS)
def test_malformed_operands_give_exact_messages(line, message):
    with pytest.raises(AsmError) as err:
        parse(wrap("    " + line))
    assert str(err.value) == message


# Lines with tabs around the mnemonic, each with the space-separated line
# it must assemble like: the mnemonic ends at the first run of whitespace.
WHITESPACE_FORMS = [
    ("\tbx\tlr", "bx lr"),
    ("\tmov\tr0, #1", "mov r0, #1"),
    ("mov.w \t r0,\t#1", "mov.w r0, #1"),
    ("push\t{r4, lr}", "push {r4, lr}"),
]


@pytest.mark.parametrize("line,spaced", WHITESPACE_FORMS)
def test_mnemonic_ends_at_any_whitespace(line, spaced):
    def body(text):
        fn = parse(wrap(text)).functions["main"]
        return [ins.structural_key() for ins in fn.body]

    assert body(line) == body("    " + spaced)


# -- register admission -------------------------------------------------------

# The high registers that each register field of each op admits, with or
# without ``.w``.  Every field admits r0-r12; any other high register there
# is refused with "register X not allowed here".
HIGH_REGISTERS = {
    ("movw", "rd"): "lr", ("movt", "rd"): "lr",
    ("mov_imm", "rd"): "lr",
    ("mov_reg", "rd"): "lr", ("mov_reg", "rm"): "sp lr",
    ("ldr", "rd"): "lr", ("ldr", "mem"): "sp lr",
    ("str", "rd"): "lr", ("str", "mem"): "sp lr",
    ("ldrb", "rd"): "", ("ldrb", "mem"): "sp lr",
    ("strb", "rd"): "", ("strb", "mem"): "sp lr",
    ("push", "reglist"): "lr", ("pop", "reglist"): "lr pc",
    ("addw", "rd"): "", ("addw", "rn"): "",
    ("subw", "rd"): "", ("subw", "rn"): "",
    ("cmp_imm", "rn"): "", ("cmp_reg", "rn"): "", ("cmp_reg", "rm"): "",
    ("bx", "rm"): "lr", ("blx", "rm"): "lr",
    ("msr", "rn"): "", ("mrs", "rd"): "",
}


def _register_fields(op):
    return [f for f in ("rd", "rn", "rm", "mem", "reglist")
            if "{%s}" % f in OPS[op].form]


def test_the_admission_table_names_every_register_field():
    assert set(HIGH_REGISTERS) == {(op, f) for op in OPS
                                   for f in _register_fields(op)}


ADMISSION_CASES = [
    (op, f, name, wide) for op, f in HIGH_REGISTERS
    for name in ("sp", "lr", "pc")
    for wide in ((False, True) if "{w}" in OPS[op].form else (False,))]


@pytest.mark.parametrize("op,field_name,name,wide", ADMISSION_CASES)
def test_each_register_field_admits_its_high_registers(op, field_name, name,
                                                         wide):
    reg = REG_PARSE[name]
    fields = dict(rd=1, rn=2, rm=3, imm=0, reglist=(4,), label="main",
                  cond="eq", wide=wide)
    if field_name == "reglist":
        fields["reglist"] = (reg,)
    else:
        fields["rn" if field_name == "mem" else field_name] = reg
    line = format_instr(Instr(op, **fields))
    src = wrap("    " + line)
    if name in HIGH_REGISTERS[op, field_name].split():
        assert format_instr(parse(src).functions["main"].body[0]) == line
    else:
        with pytest.raises(AsmError) as err:
            parse(src)
        assert str(err.value) == "line 3: register %s not allowed here" % name


def _admitted(op, field_name):
    return list(range(13)) + [REG_PARSE[name] for name
                              in HIGH_REGISTERS[op, field_name].split()]


@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_op_round_trips_through_its_printed_form(op, data):
    """An op drawn with admitted registers and its immediate at 0 or at
    its limit prints and parses back; one past the limit is refused."""
    form = OPS[op].form
    fields = dict(label="main" if "{label}" in form else None)
    for f in _register_fields(op):
        regs = st.sampled_from(_admitted(op, f))
        if f == "reglist":
            fields["reglist"] = tuple(sorted(data.draw(
                st.lists(regs, min_size=1, max_size=4, unique=True))))
        else:
            fields["rn" if f == "mem" else f] = data.draw(regs)
    if "{cond}" in form:
        fields["cond"] = data.draw(st.sampled_from(CONDITIONS))
    if "{w}" in form:
        fields["wide"] = data.draw(st.booleans())
    limit = _IMM_LIMIT.get(op)
    if limit is not None:
        top = limit & ~3 if op in ("add_sp", "sub_sp") else limit
        fields["imm"] = data.draw(st.sampled_from([0, top]))
    ins = Instr(op, **fields)
    again = parse(wrap("    " + format_instr(ins))).functions["main"].body[0]
    assert again.structural_key() == ins.structural_key()
    if limit is not None:
        ins = ins.replace(imm=limit + 1)
        with pytest.raises(AsmError, match="out of range"):
            parse(wrap("    " + format_instr(ins)))


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
    for i, w in enumerate(widths):
        assert prog.functions["main"].address(i) == addr
        assert prog.code[addr] is body[i]
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


# Values and placements past the 32-bit address space, each with the
# whole message: the line is the offending item's.
RANGE_ERRORS = [
    (".org 0x20000000\n.word 0x1ffffffff\n",
     "line 2: .word value out of range: 0x1ffffffff"),
    (".org 0x20000000\n.word 99999999999999999999\n",
     "line 2: .word value out of range: 99999999999999999999"),
    (".org 0x1ffffffff\n.func main hal\n    bkpt #0\n.endfunc\n",
     "line 2: address 0x1ffffffff is past 32 bits"),
    (".org 0xfffffffe\n.func main hal\n    movw r0, #1\n    bkpt #0\n"
     ".endfunc\n", "line 3: address 0x100000001 is past 32 bits"),
    # The word aligns up to 0x100000000.
    (".org 0xfffffffd\n.word 1\n",
     "line 2: address 0x100000003 is past 32 bits"),
    # An empty function would take its entry from the next free address.
    (".org 0xfffffffc\n.word 1\n.func f\n.endfunc\n",
     "line 3: address 0x100000000 is past 32 bits"),
]


@pytest.mark.parametrize("src,message", RANGE_ERRORS)
def test_nothing_is_placed_or_stored_past_32_bits(src, message):
    with pytest.raises(AsmError) as err:
        parse(src)
    assert str(err.value) == message


def test_layout_fills_the_address_space_to_its_last_byte_and_no_further():
    top = ".org 0xfffffffc\n.func main hal\n    nop\n    bkpt #0\n.endfunc\n"
    assert parse(top).functions["main"].address(1) == 0xfffffffe
    assert parse(".org 0xfffffffc\n.word 0xffffffff\n").data == [
        (0xfffffffc, 0xffffffff)]
    with pytest.raises(AsmError, match="line 5: address 0x100000001 is past"):
        parse(top.replace("bkpt #0", "bkpt #0\n    nop"))


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
    b = prog.code[prog.functions["main"].entry]
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


def test_a_label_before_func_binds_the_function_entry():
    src = (HEADER + ".label start\n.func main hal\n    bl f\n    bkpt #0\n"
           ".endfunc\n.label entry\n.func f\n    bx lr\n.endfunc\n"
           ".org 0x20000000\n.word start\n.word entry\n")
    prog = parse(src)
    assert prog.functions["f"].labels == ("entry",)
    main, f = (prog.functions[name].entry for name in ("main", "f"))
    assert (prog.labels["start"], prog.labels["entry"]) == (main, f)
    assert prog.data == [(0x20000000, main), (0x20000004, f)]
    text = print_program(prog)
    assert ".label start\n.func main hal\n" in text
    assert ".label entry\n.func f\n" in text
    assert parse(text).data == prog.data


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


# -- the line cache -----------------------------------------------------------

def _no_template(line):
    raise AsmError(0, "no template")


def _parse_uncached(text):
    """The parse with every line assembled afresh, the reference: each
    template lookup fails, so every instruction line takes the parse of
    its exact text."""
    cached = asm._line_template
    asm._line_template = _no_template
    try:
        prog = _Parser(text).parse()
    finally:
        asm._line_template = cached
    layout(prog)
    return prog


def _outcome(parse_text, text):
    """What a parse gives: the error, or the program and its layout."""
    try:
        prog = parse_text(text)
    except AsmError as err:
        return ("error", err.line, err.message)
    return ("ok", prog.structural_key(), prog.code_size, [
        (fn.address(i), ins.width, ins.cycles, fn.lines[i], ins.tag,
         fn.labels_at.get(i, ()), prog.code[fn.address(i)].target)
        for fn in prog.functions.values() for i, ins in enumerate(fn.body)])


@functools.cache
def _corpus_texts():
    """Generated call trees, plain and instrumented (tagged) by both
    sequences."""
    texts = []
    for seed in range(4):
        text = make_benign_program(random.Random(seed), n_funcs=3 + seed)
        texts.append(text)
        for seq in (SEQ_OPTIMAL, SEQ_NAIVE):
            out = instrument_program(parse(text),
                                     ShadowStackConfig(sequence=seq))
            texts.append(print_program(out.program))
    return texts


_MUTATIONS = st.lists(st.tuples(
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.sampled_from(["replace", "insert", "delete", "upper", "comma",
                     "duplicate"]),
    st.sampled_from(list(" ,#[]{}r0147x.wlpcsbq;@:-"))), max_size=4)


def _mutate(text, mutations):
    lines = text.splitlines()
    for where, at, kind, ch in mutations:
        i = where % len(lines)
        line = lines[i]
        j = at % (len(line) + 1)
        if kind == "replace":
            line = line[:j] + ch + line[j + 1:]
        elif kind == "insert":
            line = line[:j] + ch + line[j:]
        elif kind == "delete":
            line = line[:j] + line[j + 1:]
        elif kind == "upper":
            line = line.upper()
        elif kind == "comma":
            line += ","
        else:
            lines.insert(i, line)
        lines[i] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 11), _MUTATIONS)
def test_cached_parse_matches_the_uncached_reference(which, mutations):
    text = _mutate(_corpus_texts()[which], mutations)
    want = _outcome(_parse_uncached, text)
    # The second parse meets every line of the first in the cache.
    assert _outcome(parse, text) == want
    assert _outcome(parse, text) == want


def test_a_bad_line_carries_the_line_of_each_parse():
    parse(wrap("    movw r0, #0"))  # the second line's shape is cached
    for line, message in (("mov r0, #x", "bad number 'x'"),
                          ("movw r0, #65536",
                           "movw immediate out of range: 65536")):
        for before in (0, 3, 1):
            src = wrap("    nop\n" * before + "    " + line)
            with pytest.raises(AsmError) as err:
                parse(src)
            assert str(err.value) == "line %d: %s" % (3 + before, message)


# Lines of shapes the cache holds: each op's immediate at its limit and
# one past it, values across a narrow/wide boundary of one shape, and
# numbers spelled other than plain decimal or 0x hex, which take the
# parse of the exact line.
SHAPE_LINES = [
    "movw r0, #65535", "movw r0, #65536", "movt r0, #0xffff",
    "movt r0, #0x10000", "mov r0, #0xffffffff", "mov r0, #0x100000000",
    "mov.w r0, #4294967295", "mov.w r0, #4294967296",
    "ldr r0, [r1, #4095]", "ldr r0, [r1, #4096]", "str r0, [sp, #4095]",
    "str r0, [sp, #4096]", "ldrb r0, [r1, #4095]", "ldrb r0, [r1, #4096]",
    "strb.w r0, [r1, #4095]", "strb.w r0, [r1, #4096]",
    "add sp, #4092", "add sp, #4094", "add sp, #4096", "sub sp, #8",
    "sub sp, #6", "sub sp, #4096",
    "addw r0, r1, #4095", "addw r0, r1, #4096", "subw r0, r1, #4095",
    "subw r0, r1, #4096", "cmp r1, #4095", "cmp r1, #4096",
    "svc #255", "svc #256", "bkpt #255", "bkpt #256", "udf #255", "udf #256",
    "mov r1, #255", "mov r1, #256", "cmp r1, #255", "cmp r1, #256",
    "ldr r0, [r1, #124]", "ldr r0, [r1, #126]", "ldr r0, [r1, #128]",
    "ldrb r0, [r1, #31]", "ldrb r0, [r1, #32]",
    "add sp, #-4", "movw r0, #0X1F", "movw r0, #1_0", "movw r0, #010",
    "movw r0, # 4", "movw r0, #00", "movw r0, #0x", "movw r0, #0x1F",
    "ldr r0, [r1, #0x7c]", "ldr r0, [r1, #4 ]", "ldr r0, [r1, #1_2]",
]


@pytest.mark.parametrize("line", SHAPE_LINES)
def test_a_cached_shape_parses_as_its_exact_line(line):
    head, _, tail = line.partition("#")
    shape = head + ("#0]" if tail.endswith("]") else "#0")
    text = wrap("    %s\n    %s" % (shape, line))
    want = _outcome(_parse_uncached, text)
    assert _outcome(parse, text) == want
    assert _outcome(parse, text) == want


def test_lines_that_differ_only_in_immediates_share_their_entries():
    parse(wrap("    movw r0, #1\n    ldr r1, [r0, #4]\n    add sp, #8\n"
               "    bkpt #0"))
    misses = _line_template.cache_info().misses
    prog = parse(wrap("    movw r0, #0x1234\n    ldr r1, [r0, #128]\n"
                      "    add sp, #4092\n    bkpt #1"))
    assert _line_template.cache_info().misses == misses
    assert [(ins.imm, ins.width) for ins in prog.code.values()] == [
        (0x1234, 4), (128, 4), (4092, 4), (1, 2)]


def test_line_cache_stays_within_its_bound():
    count = LINE_CACHE_SIZE + 64
    prog = parse(wrap("\n".join(".label l%d\n    b l%d" % (i, i)
                                for i in range(count))))
    assert len(prog.code) == count
    info = _line_template.cache_info()
    assert info.maxsize == LINE_CACHE_SIZE
    assert info.currsize == LINE_CACHE_SIZE
