"""``isa.OPS`` is the one op vocabulary.

The machine has an executor for exactly its ops, one table,
``semantics.SEMANTICS``, holds exactly its non-TRAP ops for both the
machine and the compiled blocks, every op's printed form parses back to
the same instruction, the registers and flags a row says an op writes
are exactly the ones ``Machine.step()`` writes, those it says it reads
exactly the ones whose value ``step()`` depends on, every register a
form prints is read or written, the executors ``step()`` runs are the
source in ``tests/golden/step_executors.txt``, and an op outside it is
a ``ValueError``.  The reference semantics of each op is
``tests/reference_isa.py``, which has one function per row and which
``tests/test_reference_isa.py`` holds the machine to.
"""

from pathlib import Path
from string import Formatter

import pytest

from programs import WATCH_ALL
from watchstack import machine, semantics
from watchstack.asm import parse
from watchstack.isa import (ALU, BRANCH, FLAGS, LR, MEMORY, NUM_GPRS, OPS, PC,
                            SP, TRAP, Instr, cycle_cost, encoding_width,
                            finalize, format_instr, regs)

GOLDEN = Path(__file__).resolve().parent / "golden"

# One instruction of each op, with the fields the parser gives it.
SAMPLES = {
    "movw": Instr("movw", rd=3, imm=0x1234),
    "movt": Instr("movt", rd=LR, imm=0xE000),
    "mov_imm": Instr("mov_imm", rd=9, imm=300, wide=True),
    "mov_reg": Instr("mov_reg", rd=2, rm=SP),
    "ldr": Instr("ldr", rd=LR, rn=SP, imm=8, wide=True),
    "str": Instr("str", rd=1, rn=4, imm=0),
    "ldrb": Instr("ldrb", rd=4, rn=5, imm=31),
    "strb": Instr("strb", rd=6, rn=LR, imm=40, wide=True),
    "push": Instr("push", reglist=(4, 7, LR)),
    "pop": Instr("pop", reglist=(4, 7, PC)),
    "add_sp": Instr("add_sp", imm=16),
    "sub_sp": Instr("sub_sp", imm=4092),
    "addw": Instr("addw", rd=0, rn=12, imm=4095),
    "subw": Instr("subw", rd=12, rn=12, imm=4),
    "cmp_imm": Instr("cmp_imm", rn=8, imm=0),
    "cmp_reg": Instr("cmp_reg", rn=0, rm=11),
    "b": Instr("b", label="there"),
    "bcond": Instr("bcond", cond="ge", label="there"),
    "bl": Instr("bl", label="there"),
    "bx": Instr("bx", rm=LR),
    "blx": Instr("blx", rm=3),
    "msr": Instr("msr", rn=1),
    "mrs": Instr("mrs", rd=2),
    "nop": Instr("nop"),
    "svc": Instr("svc", imm=3),
    "bkpt": Instr("bkpt", imm=0),
    "udf": Instr("udf", imm=255),
}


def test_every_op_has_a_kind_and_a_sample():
    assert {row.kind for row in OPS.values()} == {ALU, MEMORY, BRANCH, TRAP}
    assert set(SAMPLES) == set(OPS)


def test_the_machine_executes_exactly_the_ops():
    assert set(machine._EXEC) == set(OPS)


def test_blocks_emit_exactly_the_non_trap_ops():
    """One table holds their semantics, for both execution tiers: the
    machine writes no executor of its own but a TRAP op's."""
    non_trap = {op for op, row in OPS.items() if row.kind != TRAP}
    assert set(semantics.SEMANTICS) == non_trap
    assert not {"_x_" + op for op in non_trap} & set(vars(machine.Machine))


@pytest.mark.parametrize("op", sorted(OPS))
def test_the_printed_form_parses_back_to_the_op(op):
    ins = SAMPLES[op]
    text = (".func main hal\n    %s\n.label there\n    nop\n.endfunc\n"
            % format_instr(ins))
    got = parse(text).functions["main"].body[0]
    assert got.op == op
    assert got.structural_key() == ins.structural_key()
    assert (got.width, got.cycles) == (encoding_width(ins), cycle_cost(ins))


NON_TRAP = sorted(op for op, row in OPS.items() if row.kind != TRAP)


class _Seen:
    """A guard shown every access, which keeps each and lets it through."""

    def __init__(self) -> None:
        self.records = []

    def on_load(self, m, addr, size):
        self.records.append((addr, size))

    def on_store(self, m, addr, size, value):
        self.records.append((addr, size, value))
        return False


def _step(op: str, change=None) -> dict:
    """What one ``step()`` of ``op``'s sample leaves, from every register
    at a value no sample leaves in it, with register ``change`` set to 0
    first, or for FLAGS, xPSR's N set: each register by number, FLAGS,
    and all else, every access the step showed a guard among it."""
    ins = finalize(SAMPLES[op]).replace(target=0x08000100)
    m = machine.Machine()
    m.gpr = [0xA5A50000 + r for r in range(NUM_GPRS)]
    m.sp, m.lr, m.pc = 0x20001000, 0xA5A5000E, 0x08000000
    m.code[m.pc] = ins
    m.guard, m.watch = _Seen(), WATCH_ALL
    if change == FLAGS:
        m.xpsr ^= 0x80000000
    elif change is not None:
        m.write_reg(change, 0)
    m.step()
    return {**{r: m.read_reg(r) for r in range(PC + 1)}, FLAGS: m.xpsr,
            "rest": (m.control, m.cycles, m.halted, m.mem.snapshot(),
                     m.guard.records)}


@pytest.mark.parametrize("op", NON_TRAP)
def test_the_written_registers_are_what_step_writes(op):
    """``writes``, as ``isa.regs`` reads it, names exactly the registers
    below pc that the machine writes: every register starts at a value
    no sample leaves in it."""
    ins = finalize(SAMPLES[op]).replace(target=0x08000100)
    m = machine.Machine()
    m.gpr = [0xA5A50000 + r for r in range(NUM_GPRS)]
    m.sp, m.lr, m.pc = 0x20001000, 0xA5A5000E, 0x08000000
    m.code[m.pc] = ins
    before = [m.read_reg(r) for r in range(PC)]
    m.step()
    written = {r for r in range(PC) if m.read_reg(r) != before[r]}
    assert written == regs(ins, "writes") - {PC, FLAGS}


@pytest.mark.parametrize("op", NON_TRAP)
def test_sets_flags_is_what_step_writes(op):
    """FLAGS is among the registers ``writes`` names, as ``isa.regs``
    reads it, for exactly the ops whose step changes xPSR from 0 or from
    all four flags set."""
    changed = False
    for flags in (0, 0xF0000000):
        ins = finalize(SAMPLES[op]).replace(target=0x08000100)
        m = machine.Machine()
        m.gpr = [0xA5A50000 + r for r in range(NUM_GPRS)]
        m.sp, m.lr, m.pc, m.xpsr = 0x20001000, 0xA5A5000E, 0x08000000, flags
        m.code[m.pc] = ins
        m.step()
        changed |= m.xpsr != flags
    assert changed == (FLAGS in regs(ins, "writes"))


@pytest.mark.parametrize("op", NON_TRAP)
def test_the_read_registers_are_what_step_reads(op):
    """``reads``, as ``isa.regs`` reads it: a register or the flags
    outside it, changed before ``step()``, changes nothing of what the
    step leaves but itself, where the step does not write it, and one
    inside it changes more, the accesses the step shows a guard among
    it."""
    ins = SAMPLES[op]
    base, reads, writes = _step(op), regs(ins, "reads"), regs(ins, "writes")
    for r in (*range(PC), FLAGS):
        got = _step(op, r)
        same = all(got[k] == base[k] for k in base if k != r or r in writes)
        assert same is (r not in reads), "r%d" % r


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_register_a_form_prints_is_read_or_written(op):
    """The register fields a row's form prints (``{mem}`` prints ``rn``)
    are exactly the fields its ``reads`` and ``writes`` name, and a
    register the form spells, sp, is among them too."""
    row = OPS[op]
    fields = {"rn" if name == "mem" else name
              for _, name, _, _ in Formatter().parse(row.form) if name}
    named = set(row.reads + row.writes)
    assert named - {"sp", "lr", "flags"} == fields & {
        "rd", "rn", "rm", "reglist"}
    if "sp" in row.form.replace(",", " ").split():
        assert "sp" in named


def test_the_step_executors_are_the_golden_source(monkeypatch):
    """The source ``executors()`` compiles for ``step()`` is byte for byte
    the golden's: the compiled tier binds SEMANTICS anew (a compare's
    flags kept in locals, say) without moving what ``step()`` runs."""
    sources = []

    def recording(source, name, *args):
        if name == "<step>":
            sources.append(source)
        return compile(source, name, *args)

    monkeypatch.setattr(semantics, "compile", recording, raising=False)
    semantics.executors()
    golden = (GOLDEN / "step_executors.txt").read_text()
    assert sources == [golden.removesuffix("\n")]


@pytest.mark.parametrize("fn", [encoding_width, cycle_cost, format_instr])
def test_an_unknown_op_is_a_value_error(fn):
    with pytest.raises(ValueError, match="unknown op 'bogus'"):
        fn(Instr("bogus"))
