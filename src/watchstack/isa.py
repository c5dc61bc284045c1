"""Instruction model for the mini Thumb-2-style ISA.

Instructions are kept symbolic: register indices, immediates, and label
names instead of binary encodings.  Encoding widths (2 or 4 bytes) exist
only so the assembler can lay out addresses and account for code size;
cycle costs come from a fixed deterministic table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

MASK32 = 0xFFFFFFFF

# Core register file: r0-r12 general purpose, then sp, lr, pc.
NUM_GPRS = 13
SP = 13
LR = 14
PC = 15

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


@dataclass
class Instr:
    """One instruction plus layout and attribution metadata."""

    op: str
    rd: int | None = None
    rn: int | None = None
    rm: int | None = None
    imm: int | None = None
    reglist: tuple[int, ...] = ()
    label: str | None = None
    cond: str | None = None
    wide: bool = False  # explicit .w suffix was written

    # Filled in by layout / the instrumentation pass.
    addr: int = 0
    target: int = 0  # resolved branch target address
    width: int = 0
    cycles: int = 0
    line: int = 0
    labels: tuple[str, ...] = ()  # labels bound to this instruction's address
    tag: tuple[str, str] | None = None  # (phase, category) cycle attribution
    conv_extra: int = 0  # cycles the original return cost above this replacement

    def structural_key(self):
        """Identity for round-trip comparison; layout results excluded."""
        return (
            self.op, self.rd, self.rn, self.rm, self.imm, self.reglist,
            self.label, self.cond, self.wide, self.labels, self.tag,
        )

    def copy(self) -> "Instr":
        return _plain_copy(self)


def _make_plain_copy(cls):
    """``copy()``: every field assigned on a bare instance.

    About ten times cheaper than ``dataclasses.replace``, which builds
    keyword arguments and runs ``__init__``.  Assigning field by field
    rather than through ``__dict__`` keeps CPython's inline attribute
    values on both objects, so a copied instruction's fields read as
    fast as a parsed one's.
    """
    lines = ["def plain_copy(self):", "    new = _new(_cls)"]
    lines += ["    new.%s = self.%s" % (f.name, f.name) for f in fields(cls)]
    lines.append("    return new")
    namespace = {"_new": object.__new__, "_cls": cls}
    exec("\n".join(lines), namespace)
    return namespace["plain_copy"]


_plain_copy = _make_plain_copy(Instr)


def encoding_width(ins: Instr) -> int:
    """Byte width under the narrow/wide rules of the 16/32-bit encodings."""
    op = ins.op
    if op in ("movw", "movt", "addw", "subw", "bl", "msr", "mrs"):
        return 4
    if op in ("b", "bcond", "bx", "blx", "nop", "svc", "bkpt", "udf",
              "add_sp", "sub_sp", "cmp_reg"):
        return 2
    if op == "mov_imm":
        if ins.wide or ins.rd > 7 or ins.imm > 255:
            return 4
        return 2
    if op == "mov_reg":
        return 4 if ins.wide else 2
    if op in ("ldr", "str"):
        if ins.wide or ins.rd > 7 or ins.rn > 7 or ins.imm % 4 or ins.imm > 124:
            return 4
        return 2
    if op in ("ldrb", "strb"):
        if ins.wide or ins.rd > 7 or ins.rn > 7 or ins.imm > 31:
            return 4
        return 2
    if op == "push":
        return 2 if all(r < 8 or r == LR for r in ins.reglist) else 4
    if op == "pop":
        return 2 if all(r < 8 or r == PC for r in ins.reglist) else 4
    if op == "cmp_imm":
        return 2 if ins.rn < 8 and ins.imm <= 255 else 4
    raise ValueError("unknown op %r" % op)


def cycle_cost(ins: Instr) -> int:
    """Deterministic cycle cost.

    Conditional branches are costed not-taken here; the machine charges one
    extra cycle when the branch is taken.  SVC includes hardware stacking.
    Exception returns charge their 12 unstacking cycles at return time, on
    top of the cost of the branch instruction that triggered them.
    """
    op = ins.op
    if op in ("ldr", "str", "ldrb", "strb"):
        return 2
    if op == "push":
        return 1 + len(ins.reglist)
    if op == "pop":
        n = 1 + len(ins.reglist)
        return n + 3 if PC in ins.reglist else n
    if op in ("b", "bx", "blx"):
        return 2
    if op == "bl":
        return 3
    if op == "svc":
        return 12
    # mov/movw/movt/addw/subw/add_sp/sub_sp/cmp/nop/msr/mrs/bkpt/udf/bcond
    return 1


def finalize(ins: Instr) -> Instr:
    """Fill width and cycle fields in place (after parsing)."""
    ins.width = encoding_width(ins)
    ins.cycles = cycle_cost(ins)
    return ins


def reg_name(r: int) -> str:
    return REG_NAMES[r]


def _imm_str(v: int) -> str:
    return "#0x%x" % v if v >= 256 else "#%d" % v


def _mem_str(rn: int, imm: int) -> str:
    base = reg_name(rn)
    return "[%s, %s]" % (base, _imm_str(imm)) if imm else "[%s]" % base


def _reglist_str(regs) -> str:
    return "{%s}" % ", ".join(reg_name(r) for r in regs)


def format_instr(ins: Instr) -> str:
    """Canonical printable form (lowercase, one space after mnemonic)."""
    op = ins.op
    w = ".w" if ins.wide else ""
    if op == "movw" or op == "movt":
        return "%s %s, %s" % (op, reg_name(ins.rd), _imm_str(ins.imm))
    if op == "mov_imm":
        return "mov%s %s, %s" % (w, reg_name(ins.rd), _imm_str(ins.imm))
    if op == "mov_reg":
        return "mov%s %s, %s" % (w, reg_name(ins.rd), reg_name(ins.rm))
    if op in ("ldr", "str", "ldrb", "strb"):
        return "%s%s %s, %s" % (op, w, reg_name(ins.rd),
                                _mem_str(ins.rn, ins.imm))
    if op in ("push", "pop"):
        return "%s %s" % (op, _reglist_str(ins.reglist))
    if op == "add_sp":
        return "add sp, %s" % _imm_str(ins.imm)
    if op == "sub_sp":
        return "sub sp, %s" % _imm_str(ins.imm)
    if op in ("addw", "subw"):
        return "%s %s, %s, %s" % (op, reg_name(ins.rd), reg_name(ins.rn),
                                  _imm_str(ins.imm))
    if op == "cmp_imm":
        return "cmp %s, %s" % (reg_name(ins.rn), _imm_str(ins.imm))
    if op == "cmp_reg":
        return "cmp %s, %s" % (reg_name(ins.rn), reg_name(ins.rm))
    if op == "b":
        return "b %s" % ins.label
    if op == "bcond":
        return "b%s %s" % (ins.cond, ins.label)
    if op == "bl":
        return "bl %s" % ins.label
    if op in ("bx", "blx"):
        return "%s %s" % (op, reg_name(ins.rm))
    if op == "msr":
        return "msr control, %s" % reg_name(ins.rn)
    if op == "mrs":
        return "mrs %s, control" % reg_name(ins.rd)
    if op == "nop":
        return "nop"
    if op in ("svc", "bkpt", "udf"):
        return "%s %s" % (op, _imm_str(ins.imm))
    raise ValueError("unknown op %r" % op)
