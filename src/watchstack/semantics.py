"""What each op does, written once for both execution tiers.

``SEMANTICS`` gives each non-TRAP op's effect as source over operand
slots, instantiated twice, as QEMU runs one op description by its
compiler and its interpreter: by ``_Stepped`` as the executors that
``step()`` runs (``executors``, which ``machine`` calls at import), and
by ``blocks``' binder with a block's operands known.  What an op is and
which registers it reads and writes are its row in ``isa.OPS``; a TRAP
op's executor is ``machine``'s own.

Generated code is compiled and run in one function, ``define``, under
a file name per kind (``<step>``, ``<block>``, ...), which tracebacks
and per-file counts show.
"""

from __future__ import annotations

from .exception_model import MODE_HANDLER
from .isa import LR, MASK32, NUM_GPRS, OPS, PC, SP, TRAP


def define(source: str, name: str, ns: dict) -> dict:
    """Run generated ``source``, compiled as file ``name``, in ``ns``."""
    exec(compile(source, name, "exec"), ns)
    return ns


# SEMANTICS gives each op's effect as lines of Python over a binder
# ``b``, whose slots spell the operands, each named by an expression on
# ``ins``: a field's value ``k``, a register's read ``reg`` (PC reads
# the next pc) and write ``set``, sp's and lr's own ``name``, read and
# written in place, the access at ``a``, ``load`` or
# ``store``, ``access()`` per listed register ``r`` at ``a`` from ``sp``
# (``words``), a compare's ``flags`` of ``a - b``, and a ``branch``,
# ``_Stepped``'s alone (``blocks._tail`` emits a block's last branch).

def _cmp(a: str, b: str) -> list[str]:
    """N, Z, C and V of ``a - b`` into xPSR, as AddWithCarry sets them."""
    return ["a = %s; b = %s; r = (a - b) & M" % (a, b),
            "x = m.xpsr & 0x0FFFFFFF",
            "if r & 0x80000000: x |= 0x80000000",
            "if r == 0: x |= 0x40000000",
            "if a >= b: x |= 0x20000000",
            "if a >> 31 != b >> 31 and a >> 31 != r >> 31: x |= 0x10000000",
            "m.xpsr = x"]


# Each condition's test on x = m.xpsr, and on a compare that a block
# left pending in fa, fb: Z is fa == fb, and N != V a signed fa < fb.
COND = {
    "eq": ("x & 0x40000000", "fa == fb"),
    "ne": ("not x & 0x40000000", "fa != fb"),
    "lt": ("bool(x & 0x80000000) != bool(x & 0x10000000)",
           "(fa ^ 0x80000000) < (fb ^ 0x80000000)"),
    "ge": ("bool(x & 0x80000000) == bool(x & 0x10000000)",
           "(fa ^ 0x80000000) >= (fb ^ 0x80000000)"),
}
# write_flags(m, fa, fb) writes a pending compare's flags, by _cmp's rule.
write_flags = define("def F(m, fa, fb):\n " + "\n ".join(_cmp("fa", "fb")),
                     "<flags>", {"M": MASK32})["F"]


def _at(b) -> str:
    """The address ``a``: a zero offset's is the base register itself,
    as every register holds 32 bits."""
    imm = b.k("ins.imm")
    return "a = " + (b.reg("ins.rn") if imm == "0" else "(%s + %s) & M" % (
        b.reg("ins.rn"), imm))


def _aligned(lines: list[str]) -> list[str]:
    """A word access: an unaligned address faults, else ``lines`` run."""
    return ["if a & 3: m.fault()", "else:", *(" " + line for line in lines)]


SEMANTICS = {
    "movw": lambda b: b.set("ins.rd", b.k("ins.imm")),
    "movt": lambda b: b.set("ins.rd", "(%s & 0xFFFF) | %s" % (
        b.reg("ins.rd"), b.k("ins.imm << 16"))),
    "mov_imm": lambda b: b.set("ins.rd", b.k("ins.imm")),
    "mov_reg": lambda b: b.set("ins.rd", b.reg("ins.rm")),
    "ldr": lambda b: [_at(b), *_aligned(b.load("ins.rd", 4))],
    "str": lambda b: [_at(b), *_aligned(b.store(4, b.reg("ins.rd")))],
    "ldrb": lambda b: [_at(b), *b.load("ins.rd", 1)],
    "strb": lambda b: [_at(b), *b.store(1, "%s & 0xFF" % b.reg("ins.rd"))],
    "push": lambda b: [
        "sp = (%s - %s) & M" % (b.name(SP), b.k("4 * len(ins.reglist)")),
        "%s = sp" % b.name(SP), *b.words(lambda: b.store(4, b.reg("r")))],
    "pop": lambda b: [
        "sp = %s" % b.name(SP),
        "%s = (sp + %s) & M" % (b.name(SP), b.k("4 * len(ins.reglist)")),
        *b.words(lambda: b.load("r", 4))],
    "add_sp": lambda b: ["{0} = ({0} + {1}) & M".format(b.name(SP),
                                                         b.k("ins.imm"))],
    "sub_sp": lambda b: ["{0} = ({0} - {1}) & M".format(b.name(SP),
                                                         b.k("ins.imm"))],
    "addw": lambda b: b.set("ins.rd", "%s + %s" % (b.reg("ins.rn"),
                                                    b.k("ins.imm"))),
    "subw": lambda b: b.set("ins.rd", "%s - %s" % (b.reg("ins.rn"),
                                                    b.k("ins.imm"))),
    "cmp_imm": lambda b: b.flags(b.reg("ins.rn"), b.k("ins.imm")),
    "cmp_reg": lambda b: b.flags(b.reg("ins.rn"), b.reg("ins.rm")),
    "b": lambda b: ["m.pc = %s" % b.k("ins.target")],
    "bcond": lambda b: b.branch("ins.target"),
    "bl": lambda b: ["%s = %s; m.pc = %s" % (b.name(LR), b.reg(PC),
                                             b.k("ins.target"))],
    "bx": lambda b: ["m.pc = %s" % b.reg("ins.rm")],
    "blx": lambda b: ["t = %s; %s = %s; m.pc = t" % (
        b.reg("ins.rm"), b.name(LR), b.reg(PC))],
    "msr": lambda b: [
        "if m.mode == %r or not m.control & 1: m.control = %s & 1"
        % (MODE_HANDLER, b.reg("ins.rn"))],
    "mrs": lambda b: b.set("ins.rd", "m.control"),
    "nop": lambda b: [],
}


class _Stepped:
    """The slots of any instruction, as ``step()`` runs it once it has
    charged the cycles and set pc to the next instruction: operands are
    read from ``ins``, registers through ``m.read_reg`` and written in
    line when they are GPRs, and memory is ``m.load``/``m.store``."""

    def k(self, expr: str) -> str:
        return expr

    def reg(self, r) -> str:
        return "m.pc" if r == PC else "m.read_reg(%s)" % r

    def name(self, r: int) -> str:
        return {SP: "m.sp", LR: "m.lr"}[r]

    def set(self, r: str, value: str) -> list[str]:
        return ["if %s < %d: m.gpr[%s] = (%s) & M" % (r, NUM_GPRS, r, value),
                "else: m.write_reg(%s, %s)" % (r, value)]

    def load(self, r: str, size: int) -> list[str]:
        return self.set(r, "m.load(a, %d)" % size)

    def store(self, size: int, value: str) -> list[str]:
        return ["m.store(a, %d, %s)" % (size, value)]

    def words(self, access) -> list[str]:
        return ["for i, r in enumerate(ins.reglist):",
                " a = (sp + 4 * i) & M", *(" " + line for line in access())]

    def flags(self, a: str, b: str) -> list[str]:
        return _cmp(a, b)

    def branch(self, target: str) -> list[str]:
        *conds, last = COND  # the test ins.cond picks; else the last one
        return ["x = m.xpsr",
                "if %s(%s):" % ("".join("(%s) if ins.cond == %r else "
                                        % (COND[c][0], c) for c in conds),
                                COND[last][0]),
                " m.cycles += 1; t = m.taken",  # taken: one cycle more
                " t[m.cur_pc] = t.get(m.cur_pc, 0) + 1; m.pc = %s" % target]


def executors() -> dict:
    """Each non-TRAP op's executor ``(m, ins)``, for ``machine._EXEC``:
    its SEMANTICS bound by ``_Stepped``, compiled in one ``exec``."""
    ops = [op for op, row in OPS.items() if row.kind != TRAP]
    source = []
    for op in ops:
        source += ["def _x_%s(m, ins):" % op, *(
            " " + line for line in SEMANTICS[op](_Stepped()) or ["pass"])]
    ns = define("\n".join(source), "<step>", {"M": MASK32})
    return {op: ns["_x_" + op] for op in ops}
