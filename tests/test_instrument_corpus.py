"""Frozen instrumentation output of a seeded corpus, and what programs share.

Each program is an acceptance-09 benign call tree plus an instrumented
SysTick handler (four shapes: ``pop {.., pc}`` with and without a
remainder, two ``bx lr`` sites behind a label, and a body that leaves no
hardware-restored register free) and, on every other seed, a function
that touches most registers so the pass has to spill scratches.  For
both sequences the golden holds the sha256 of the canonical rewritten
text, the laid-out code size and every plan.  Any change to the pass
that moves one byte of its output fails here.  To print the table of
the current tree:

    PYTHONPATH=src python tests/test_instrument_corpus.py
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from watchstack.asm import AsmFunction, parse, print_program
from watchstack.harness import make_benign_program
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL,
                                   InstrumentationPlan, ShadowStackConfig,
                                   instrument_program)
from watchstack.isa import FIELDS

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "instrument_corpus.json")
SEEDS = range(60)
SEQUENCES = (SEQ_OPTIMAL, SEQ_NAIVE)
BLOCK_FIELDS = ("inserted_prologue", "inserted_epilogue", "access_block")

HANDLERS = (
    """\
.func systick_handler handler
    push {r7, lr}
    movw r7, #0x1000
    movt r7, #0x2001
    ldr r1, [r7]
    addw r1, r1, #1
    str r1, [r7]
    pop {r7, pc}
.endfunc
""",
    """\
.func systick_handler handler
    .label st_top
    movw r2, #0x1004
    movt r2, #0x2001
    ldr r3, [r2]
    cmp r3, #0
    beq st_out
    addw r3, r3, #1
    str r3, [r2]
    bx lr
    .label st_out
    bx lr
.endfunc
""",
    """\
.func systick_handler handler
    push {r4, lr}
    movw r12, #0x1000
    movt r12, #0x2001
    ldr r0, [r12]
    mov r1, #1
    mov r2, #2
    mov r3, #3
    addw r0, r0, #1
    str r0, [r12]
    pop {r4, pc}
.endfunc
""",
    """\
.func systick_handler handler
    push {lr}
    mov r0, #1
    mov r1, #2
    mov r2, #3
    mov r3, #4
    mov r12, #5
    cmp r0, #1
    bne st_alt
    pop {pc}
    .label st_alt
    pop {pc}
.endfunc
""",
)


def busy_function(rng: random.Random) -> str:
    """A function touching 10-13 registers, leaf or not, two returns."""
    used = sorted(rng.sample(range(13), rng.randint(10, 13)))
    leaf = rng.random() < 0.5
    saved = [r for r in (4, 5, 6, 7) if r in used]
    lines = [".func busy"]
    if not leaf:
        lines.append("    push {%s}" % ", ".join(
            ["r%d" % r for r in saved] + ["lr"]))
    lines += ["    mov r%d, #%d" % (r, rng.randrange(1, 200)) for r in used]
    lines += ["    cmp r%d, #7" % used[0], "    beq busy_out"]
    ret = "    bx lr" if leaf else "    pop {%s}" % ", ".join(
        ["r%d" % r for r in saved] + ["pc"])
    lines += [ret, "    .label busy_out", ret, ".endfunc"]
    return "\n".join(lines) + "\n"


def corpus_source(seed: int) -> str:
    rng = random.Random(seed)
    text = make_benign_program(rng, rng.randint(4, 12))
    extra = random.Random(10_000 + seed)
    text += HANDLERS[seed % len(HANDLERS)]
    if seed % 2:
        text += busy_function(extra)
    return text


def _row(result, blocks: dict) -> dict:
    """One program's output; a plan is its field values in order, with
    each inserted block given as an index into the shared block list."""
    text = print_program(result.program)
    plans = []
    for plan in result.plans:
        d = plan.to_dict()
        for key in BLOCK_FIELDS:
            d[key] = blocks.setdefault(d[key], len(blocks))
        plans.append(list(d.values()))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "code_size": result.program.code_size,
        "plans": plans,
    }


def corpus_table() -> dict:
    blocks: dict[tuple, int] = {}
    rows = {}
    for seed in SEEDS:
        prog = parse(corpus_source(seed))
        for seq in SEQUENCES:
            result = instrument_program(prog, ShadowStackConfig(sequence=seq))
            rows["%d/%s" % (seed, seq)] = _row(result, blocks)
    return {
        "fields": [f.name for f in dataclasses.fields(InstrumentationPlan)],
        "blocks": [list(b) for b in blocks],
        "rows": rows,
    }


def expand(table: dict) -> dict:
    """Rows with every plan back in its ``to_dict()`` form."""
    rows = {}
    for key, row in table["rows"].items():
        plans = []
        for values in row["plans"]:
            d = dict(zip(table["fields"], values))
            for field in BLOCK_FIELDS:
                d[field] = table["blocks"][d[field]]
            plans.append(d)
        rows[key] = dict(row, plans=plans)
    return rows


def dump(table: dict) -> str:
    """JSON with one block and one program row per line."""
    def compact(v):
        return json.dumps(v, separators=(",", ":"))
    return "\n".join(
        ["{", ' "fields": %s,' % compact(table["fields"]), ' "blocks": [']
        + [",\n".join("  " + compact(b) for b in table["blocks"])]
        + [" ],", ' "rows": {']
        + [",\n".join("  %s: %s" % (compact(k), compact(v))
                       for k, v in table["rows"].items())]
        + [" }", "}"]) + "\n"


def test_instrumented_corpus_matches_golden():
    want = expand(json.loads(GOLDEN.read_text()))
    got = expand(json.loads(dump(corpus_table())))
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def _functions(prog) -> list:
    return [item for item in prog.items if isinstance(item, AsmFunction)]


def placement(prog) -> tuple:
    """A laid-out program's text and what layout placed: its labels, each
    function's entry, lines and bound labels, and the code map's keys."""
    return (print_program(prog), dict(prog.labels),
            [(fn.name, fn.entry, list(fn.lines), dict(fn.labels_at))
             for fn in _functions(prog)], list(prog.code))


# A hal function after instrumented ones: it moves when they grow.
TAIL = ".func tail hal\n    bx lr\n.endfunc\n"


def test_programs_share_instructions_but_no_placement():
    """Input, output and a second output of the same input share
    instruction values but no function, list or placement: re-parsing
    the text and instrumenting the input twice leave the input's text,
    labels, entries and code-map keys as parsed, and the two outputs
    are equal."""
    for seq in SEQUENCES:
        config = ShadowStackConfig(sequence=seq)
        for seed in (0, 1, 2, 3):
            prog = parse(corpus_source(seed) + TAIL)
            want = placement(prog)
            reparsed = parse(corpus_source(seed) + TAIL)
            first = instrument_program(prog, config)
            second = instrument_program(prog, config)
            assert placement(prog) == want, (seed, seq)
            assert placement(reparsed) == want, (seed, seq)
            assert placement(first.program) == placement(second.program)
            assert first.program.code == second.program.code
            assert first.plans == second.plans


def test_instructions_are_shared_immutable_values():
    """Assigning any field of a parsed, an inserted or a code-map
    instruction raises.  Two parses of one text hold the same objects
    wherever the line cache supplies them (a line whose immediate is
    none or 0), and equal ones elsewhere; two outputs of one input hold
    the same objects, the input's and the templates', but for each
    handler guard naming its function's skip label."""
    for seq in SEQUENCES:
        config = ShadowStackConfig(sequence=seq)
        for seed in (0, 1, 2, 3):
            prog = parse(corpus_source(seed))
            reparsed = parse(corpus_source(seed))
            first = instrument_program(prog, config)
            second = instrument_program(prog, config)
            for fn, again in zip(_functions(prog), _functions(reparsed)):
                for a, b in zip(fn.body, again.body, strict=True):
                    assert a == b
                    assert (a is b) == (not a.imm), (seed, a)
            for fn, again in zip(_functions(first.program),
                                 _functions(second.program)):
                for a, b in zip(fn.body, again.body, strict=True):
                    assert a == b
                    skip = (a.label or "").startswith("__ws_")
                    assert (a is b) != skip, (seed, seq, a)
            inserted = next(ins for ins in first.program.code.values()
                            if ins.tag is not None)
            branch = next(ins for ins in prog.code.values()
                          if ins.label is not None)
            for ins in (prog.functions["main"].body[0], inserted, branch):
                for name in FIELDS:
                    with pytest.raises(AttributeError):
                        setattr(ins, name, getattr(ins, name))
                    with pytest.raises(AttributeError):
                        delattr(ins, name)


if __name__ == "__main__":
    print(dump(corpus_table()), end="")
