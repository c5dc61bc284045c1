"""Instruction model for the mini Thumb-2-style ISA.

Instructions are kept symbolic: register indices, immediates, and label
names instead of binary encodings.  ``OPS`` is the one table of what
each op is: its printed form, its kind (ALU, MEMORY, BRANCH or TRAP),
its encoding width, its base cycle cost, and the registers it reads and
writes, the flags among them.  Encoding widths (2 or 4 bytes) exist only
so the assembler can lay out addresses and account for code size;
cycle costs are deterministic.  ``finalize`` gives an ``Instr``, an
immutable value, both, and ``format_instr`` prints the canonical text,
from the op's row.  ``regs`` is the one reader of a row's registers:
the compiled blocks and the instrumentation pass both ask it, and what
each non-TRAP op does is written once, in ``semantics.SEMANTICS``, for
the machine's executors and the compiled blocks alike.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

MASK32 = 0xFFFFFFFF

# Core register file: r0-r12 general purpose, then sp, lr, pc.
NUM_GPRS = 13
SP = 13
LR = 14
PC = 15

FLAGS = 16  # xPSR's N, Z, C and V, as ``regs`` names them

REG_NAMES = {i: "r%d" % i for i in range(NUM_GPRS)}
REG_NAMES[SP] = "sp"
REG_NAMES[LR] = "lr"
REG_NAMES[PC] = "pc"

REG_PARSE = {name: num for num, name in REG_NAMES.items()}
REG_PARSE["ip"] = 12
REG_PARSE["r13"] = SP
REG_PARSE["r14"] = LR
REG_PARSE["r15"] = PC

CONDITIONS = ("eq", "ne", "lt", "ge")


# What an instruction is: ``Instr``'s fields, in its constructor's order.
FIELDS = ("op", "rd", "rn", "rm", "imm", "reglist", "label", "cond", "wide",
          "target", "width", "cycles", "tag", "conv_extra")
_KEY = attrgetter(*FIELDS)


class _Slots:
    """An ``Instr``'s storage: written while one is built, which then
    takes the class ``Instr``, whose fields no assignment reaches."""

    __slots__ = FIELDS


class Instr(_Slots):
    """What one instruction is: op, operands, ``.w``, width, cycles,
    tag, what the return it replaces cost above it (``conv_extra``)
    and, in a code map, its label's resolved address (``target``).

    An immutable, hashable value, so caches, programs and block traces
    share one object; where it sits (address, source line, the labels
    bound to it) is its program's (``asm.AsmFunction``).  Slots, filled
    on a ``_Slots`` that then takes this class, read as fast as plain
    attributes and build in a few hundred nanoseconds.
    """

    __slots__ = ()

    def __new__(cls, op, rd=None, rn=None, rm=None, imm=None, reglist=(),
                label=None, cond=None, wide=False, target=0, width=0,
                cycles=0, tag=None, conv_extra=0):
        ins = _new(_Slots)
        (ins.op, ins.rd, ins.rn, ins.rm, ins.imm, ins.reglist, ins.label,
         ins.cond, ins.wide, ins.target, ins.width, ins.cycles, ins.tag,
         ins.conv_extra) = (op, rd, rn, rm, imm, reglist, label, cond, wide,
                            target, width, cycles, tag, conv_extra)
        ins.__class__ = Instr
        return ins

    def replace(self, **changes) -> Instr:
        """This instruction with ``changes`` made to its fields."""
        ins = _new(_Slots)
        (ins.op, ins.rd, ins.rn, ins.rm, ins.imm, ins.reglist, ins.label,
         ins.cond, ins.wide, ins.target, ins.width, ins.cycles, ins.tag,
         ins.conv_extra) = _KEY(self)
        for name, value in changes.items():
            setattr(ins, name, value)
        ins.__class__ = Instr
        return ins

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError("an Instr is immutable: %r stays" % name)

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is Instr and _KEY(self) == _KEY(other)

    def __hash__(self) -> int:
        return hash(_KEY(self))

    def __repr__(self) -> str:
        return "Instr(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(FIELDS, _KEY(self)))

    def structural_key(self):
        """Identity for round-trip comparison; layout results excluded."""
        return (
            self.op, self.rd, self.rn, self.rm, self.imm, self.reglist,
            self.label, self.cond, self.wide, self.tag,
        )


_new = object.__new__


# Op kinds.  A TRAP op (exception entry or halt) is only ever stepped;
# compiled blocks run every other kind.
ALU, MEMORY, BRANCH, TRAP = "alu", "memory", "branch", "trap"


class Op(NamedTuple):
    """One op's fixed facts: ``form`` prints it (``{w}`` is the ``.w``
    written, ``{mem}`` a memory operand, ``rn`` and ``imm``); a ``width``
    of 0 leaves 2 or 4 bytes to ``_narrow``; ``cycles`` is the base cost;
    ``reads`` and ``writes`` name the registers it reads and writes
    (``regs``): its own ``rd``, ``rn``, ``rm`` or ``reglist``, and ``sp``,
    ``lr`` and ``flags`` where its fields do not name them.  A write is
    the whole register's (a ``movt`` reads the half it keeps)."""

    form: str
    kind: str
    width: int
    cycles: int = 1
    reads: tuple = ()
    writes: tuple = ()


OPS = {
    "movw": Op("movw {rd}, {imm}", ALU, 4, writes=("rd",)),
    "movt": Op("movt {rd}, {imm}", ALU, 4, 1, ("rd",), ("rd",)),
    "mov_imm": Op("mov{w} {rd}, {imm}", ALU, 0, writes=("rd",)),
    "mov_reg": Op("mov{w} {rd}, {rm}", ALU, 0, 1, ("rm",), ("rd",)),
    "ldr": Op("ldr{w} {rd}, {mem}", MEMORY, 0, 2, ("rn",), ("rd",)),
    "str": Op("str{w} {rd}, {mem}", MEMORY, 0, 2, ("rd", "rn")),
    "ldrb": Op("ldrb{w} {rd}, {mem}", MEMORY, 0, 2, ("rn",), ("rd",)),
    "strb": Op("strb{w} {rd}, {mem}", MEMORY, 0, 2, ("rd", "rn")),
    "push": Op("push {reglist}", MEMORY, 0, 1, ("sp", "reglist"), ("sp",)),
    "pop": Op("pop {reglist}", MEMORY, 0, 1, ("sp",), ("sp", "reglist")),
    "add_sp": Op("add sp, {imm}", ALU, 0, 1, ("sp",), ("sp",)),
    "sub_sp": Op("sub sp, {imm}", ALU, 0, 1, ("sp",), ("sp",)),
    "addw": Op("addw {rd}, {rn}, {imm}", ALU, 4, 1, ("rn",), ("rd",)),
    "subw": Op("subw {rd}, {rn}, {imm}", ALU, 4, 1, ("rn",), ("rd",)),
    "cmp_imm": Op("cmp {rn}, {imm}", ALU, 0, 1, ("rn",), ("flags",)),
    "cmp_reg": Op("cmp {rn}, {rm}", ALU, 2, 1, ("rn", "rm"), ("flags",)),
    "b": Op("b {label}", BRANCH, 2, 2),
    "bcond": Op("b{cond} {label}", BRANCH, 2, reads=("flags",)),  # +1 taken
    "bl": Op("bl {label}", BRANCH, 4, 3, writes=("lr",)),
    "bx": Op("bx {rm}", BRANCH, 2, 2, ("rm",)),
    "blx": Op("blx {rm}", BRANCH, 2, 2, ("rm",), ("lr",)),
    "msr": Op("msr control, {rn}", ALU, 4, reads=("rn",)),
    "mrs": Op("mrs {rd}, control", ALU, 4, writes=("rd",)),
    "nop": Op("nop", ALU, 2),
    "svc": Op("svc {imm}", TRAP, 2, 12),  # includes hardware stacking
    "bkpt": Op("bkpt {imm}", TRAP, 2),
    "udf": Op("udf {imm}", TRAP, 2),
}

_IMPLICIT = {"sp": SP, "lr": LR, "flags": FLAGS}  # named whatever the fields


def _reader(names: tuple) -> tuple:
    """``(fixed, get)`` of a row's register ``names``: the implicit
    registers, and a getter of the instruction's own as one iterable (a
    list is a tuple; the first field asked for twice makes one field a
    tuple too), or ``[]`` where it names none."""
    own = [name for name in names if name not in _IMPLICIT]
    return frozenset(map(_IMPLICIT.get, set(names) - set(own))), own and (
        attrgetter("reglist") if own == ["reglist"]
        else attrgetter(*own, own[0]))


# Each op's ``_reader`` by the fields ``regs`` is asked for.
_REGS = {fields: {op: _reader(sum((getattr(row, f) for f in fields), ()))
                  for op, row in OPS.items()}
         for fields in (("reads",), ("writes",), ("reads", "writes"))}


def regs(ins: Instr, *fields: str) -> frozenset:
    """The registers ``ins`` reads or writes by its row in ``OPS``, as
    ``fields`` asks: ``"reads"``, ``"writes"`` or the two in that order;
    r0-r12, sp, lr, pc and, for the flags, FLAGS."""
    fixed, get = _REGS[fields][ins.op]
    return fixed.union(get(ins)) if get else fixed


def _row(ins: Instr) -> Op:
    row = OPS.get(ins.op)
    if row is None:
        raise ValueError("unknown op %r" % ins.op)
    return row


def _narrow(ins: Instr, imm: int | None) -> bool:
    """Whether a width-0 op fits its 16-bit encoding with immediate
    ``imm``: low registers (a push may also list lr, a pop pc), a short
    immediate, and no ``.w``."""
    op = ins.op
    if op == "push" or op == "pop":
        link = LR if op == "push" else PC
        return all(r < 8 or r == link for r in ins.reglist)
    if op == "add_sp" or op == "sub_sp":
        return imm <= 508
    if op == "cmp_imm":
        return ins.rn < 8 and imm <= 255
    if ins.wide:
        return False
    if op == "mov_reg":
        return True
    if op == "mov_imm":
        return ins.rd < 8 and imm <= 255
    if ins.rd > 7 or ins.rn > 7:
        return False
    if op == "ldrb" or op == "strb":
        return imm <= 31
    return imm <= 124 and not imm % 4  # ldr, str


def encoding_width(ins: Instr) -> int:
    """Byte width under the narrow/wide rules of the 16/32-bit encodings."""
    return _row(ins).width or (2 if _narrow(ins, ins.imm) else 4)


def cycle_cost(ins: Instr) -> int:
    """Deterministic cycle cost: the op's base cost, plus one per listed
    register, plus 3 to refill the pipeline after ``pop {..., pc}``.
    Exception returns charge their 12 unstacking cycles at return time,
    on top of the cost of the branch instruction that triggered them."""
    n = _row(ins).cycles + len(ins.reglist)
    return n + 3 if PC in ins.reglist else n


def finalize(ins: Instr) -> Instr:
    """``ins`` with its width and cycles filled in (after parsing)."""
    return ins.replace(width=encoding_width(ins), cycles=cycle_cost(ins))


def with_imm(ins: Instr, imm: int) -> Instr:
    """Finalised ``ins`` with immediate ``imm``, which may change its
    width but not its cycles."""
    return Instr(ins.op, ins.rd, ins.rn, ins.rm, imm, ins.reglist, ins.label,
                 ins.cond, ins.wide, ins.target,
                 OPS[ins.op].width or (2 if _narrow(ins, imm) else 4),
                 ins.cycles, ins.tag, ins.conv_extra)


def reg_name(r: int) -> str:
    return REG_NAMES[r]


def imm_str(v: int) -> str:
    return "#0x%x" % v if v >= 256 else "#%d" % v


def mem_str(rn: int, imm: int) -> str:
    base = reg_name(rn)
    return "[%s, %s]" % (base, imm_str(imm)) if imm else "[%s]" % base


def reglist_str(regs) -> str:
    return "{%s}" % ", ".join(reg_name(r) for r in regs)


class _Operands(dict):
    """One instruction's form fields, each printed when the form names it."""

    def __init__(self, ins: Instr) -> None:
        self.ins = ins

    def __missing__(self, field: str) -> str:
        ins = self.ins
        if field in ("rd", "rn", "rm"):
            return reg_name(getattr(ins, field))
        if field == "w":
            return ".w" if ins.wide else ""
        if field == "imm":
            return imm_str(ins.imm)
        if field == "mem":
            return mem_str(ins.rn, ins.imm)
        if field == "reglist":
            return reglist_str(ins.reglist)
        return getattr(ins, field)  # label, cond


def format_instr(ins: Instr) -> str:
    """Canonical printable form (lowercase, one space after mnemonic)."""
    return _row(ins).form.format_map(_Operands(ins))
