"""Two-pass assembler for the mini-ISA.

Pass one parses lines into functions, data words, and directives and
computes encoding widths; pass two assigns addresses and resolves label
references.  The printer emits canonical text that parses back to a
structurally identical program, including cycle-attribution tags, which
travel as ``;@phase:category`` comments.

Grammar (one item per line, ``;`` starts a comment, case-insensitive
mnemonics and registers, labels case-sensitive)::

    .org ADDR             set the location counter (forward only)
    .func NAME [handler|hal]
    .endfunc
    .word VALUE|LABEL     32-bit datum, only outside functions
    .label NAME           bind NAME to the next instruction/word/function
    <instruction>         only inside .func blocks

An instruction is read by its op's printed form in ``isa.OPS``, the one
``format_instr`` prints; the assembler adds only the high registers each
register field admits and each immediate's limit.

Each instruction shape is assembled once per process: a bounded cache
(``LINE_CACHE_SIZE`` entries, least recently used out) maps a line, with
its tag comment, to a finalised ``Instr``, an immutable value that every
program meeting the line shares.  ``parse`` looks up a line's shape, its plain
decimal or ``0x`` immediate written ``#0``, and builds a value of its
own only for a line whose immediate is not 0, with the line's value
and width, if the op's rules admit it; any other line it looks up, or
parses, as it stands.  ``assemble`` looks up one exact line with its
tag comment, for the instrumentation pass.  Errors are never cached: a
bad line is assembled again each time, and its error carries the line
number of the parse that met it.

Where an instruction sits is its program's: ``layout`` places each
function's body from its ``entry`` and keys the code map on addresses,
and a function keeps each instruction's source line and the labels
bound to it beside its body (``AsmFunction.lines`` and ``labels_at``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .isa import (CONDITIONS, LR, MASK32, NUM_GPRS, OPS, PC, REG_PARSE, SP,
                  Instr, finalize, format_instr, with_imm)

DEFAULT_ORIGIN = 0x08000000

# Instruction shapes kept assembled across parses.  The bench corpus at
# seed 0 has 8,135 distinct instruction lines but 144 shapes, so every
# shape stays cached well within this bound.
LINE_CACHE_SIZE = 2048

FUNC_NORMAL = "normal"
FUNC_HANDLER = "handler"
FUNC_HAL = "hal"

# Cycle attribution tags (phase, category), printed as ``;@phase:category``
# comments with the category in lower case.  Categories name what the
# inserted code does:
T_AW = "AW"         # arming/disarming the write watchpoint (FUNCTION0, guard)
T_USS = "USS"       # moving return-address data
T_ASSP = "ASSP"     # shadow stack pointer loads, stores, arithmetic
T_OTHER = "Other"   # scratch spills and base-address materialization
TAG_PHASES = ("pro", "epi")
TAG_PRINT = {cat: cat.lower() for cat in (T_AW, T_USS, T_ASSP, T_OTHER)}
TAG_CATEGORIES = {text: cat for cat, text in TAG_PRINT.items()}


class AsmError(Exception):
    def __init__(self, line: int, message: str) -> None:
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


@dataclass
class OrgNode:
    address: int
    line: int = 0


@dataclass
class WordNode:
    value: int | None = None
    label_ref: str | None = None
    labels: tuple[str, ...] = ()
    addr: int = 0
    line: int = 0

    def structural_key(self):
        return ("word", self.value, self.label_ref, self.labels)


@dataclass
class AsmFunction:
    name: str
    kind: str = FUNC_NORMAL
    body: list[Instr] = field(default_factory=list)
    labels: tuple[str, ...] = ()  # extra labels bound to the entry
    entry: int = 0
    line: int = 0
    # Each body instruction's source line (0 for inserted code), and the
    # labels bound to body[i], by i.
    lines: list[int] = field(default_factory=list)
    labels_at: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return sum(i.width for i in self.body)

    def address(self, i: int) -> int:
        """Where ``body[i]`` sits once laid out."""
        return self.entry + sum(ins.width for ins in self.body[:i])

    def structural_key(self):
        bound = self.labels_at
        return ("func", self.name, self.kind, self.labels,
                tuple((ins.structural_key(), bound.get(i, ()))
                      for i, ins in enumerate(self.body)))


@dataclass
class AsmProgram:
    items: list = field(default_factory=list)
    functions: dict[str, AsmFunction] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)
    code: dict[int, Instr] = field(default_factory=dict)
    data: list[tuple[int, int]] = field(default_factory=list)  # (addr, value)
    code_size: int = 0  # instruction bytes plus data words and padding

    def entry_address(self) -> int:
        if "main" in self.functions:
            return self.functions["main"].entry
        for item in self.items:
            if isinstance(item, AsmFunction) and item.body:
                return item.entry
        raise ValueError("program has no executable code")

    def structural_key(self):
        return tuple(
            ("org", item.address) if isinstance(item, OrgNode)
            else item.structural_key()
            for item in self.items
        )


# -- parsing ----------------------------------------------------------------

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# A plain decimal or 0x hex immediate, and the "]" of its memory operand.
_PLAIN_IMM = re.compile(r"(0|[1-9][0-9]*|0x[0-9a-fA-F]+)(\]?)")
_MEM_RE = re.compile(r"^\[\s*([a-z0-9]+)\s*(?:,\s*(#-?[0-9a-fx]+)\s*)?\]$",
                     re.IGNORECASE)

# Each op's largest immediate; an sp adjustment is also a multiple of 4.
_IMM_LIMIT = dict.fromkeys(("ldr", "str", "ldrb", "strb", "add_sp", "sub_sp",
                            "addw", "subw", "cmp_imm"), 4095)
_IMM_LIMIT.update(movw=0xFFFF, movt=0xFFFF, mov_imm=MASK32, svc=255,
                  bkpt=255, udf=255)
_SP_ADJUST = frozenset(("add_sp", "sub_sp"))
# The high registers that an op's register field admits, by (op, field).
# Every register field admits r0-r12, and one not named here nothing else.
_HIGH_REGS = {
    **dict.fromkeys((("movw", "rd"), ("movt", "rd"), ("mov_imm", "rd"),
                     ("mov_reg", "rd"), ("ldr", "rd"), ("str", "rd"),
                     ("push", "reglist"), ("bx", "rm"), ("blx", "rm")), (LR,)),
    **dict.fromkeys((("mov_reg", "rm"), ("ldr", "mem"), ("str", "mem"),
                     ("ldrb", "mem"), ("strb", "mem")), (SP, LR)),
    ("pop", "reglist"): (LR, PC),
}
# Mnemonics with a narrow and a wide encoding, where ``.w`` picks wide:
# those whose printed form carries the suffix.
_WIDE_OPS = frozenset(row.form.split()[0].replace("{w}", "")
                      for row in OPS.values() if "{w}" in row.form)


def _mnemonic_forms() -> dict[str, list]:
    """Each mnemonic's forms, ``(op, cond, operands)``, read off the
    printed forms of ``OPS``: ``{w}`` dropped, ``{cond}`` spelled out,
    and the operands each a ``{field}`` or a literal such as ``sp``."""
    forms: dict[str, list] = {}
    for op, row in OPS.items():
        head, _, operands = row.form.replace("{w}", "").partition(" ")
        for cond in CONDITIONS if "{cond}" in head else (None,):
            forms.setdefault(head.format(cond=cond), []).append(
                (op, cond, operands.split(", ") if operands else []))
    return forms


_FORMS = _mnemonic_forms()


def _imm_fault(op: str, value: int, what: str = "") -> str:
    """Why ``value`` is no immediate of ``op`` (written after ``what``),
    or "" when the op admits it."""
    if value > _IMM_LIMIT[op]:
        return "%s immediate out of range: %d" % (what, value)
    if value & 3 and op in _SP_ADJUST:
        return "sp adjustment must be a multiple of 4"
    return ""


def _split_operands(text: str) -> list[str]:
    """Split on commas not nested inside {...} or [...].

    Empty operands are kept, except a last one, so blank text gives none;
    the parser rejects an instruction that ends in a comma.
    """
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return parts


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.lineno = 0

    def err(self, msg: str) -> AsmError:
        return AsmError(self.lineno, msg)

    def parse(self) -> AsmProgram:
        prog = AsmProgram()
        current: AsmFunction | None = None
        pending_labels: list[str] = []
        seen_names: set[str] = set()

        for lineno, raw in enumerate(self.text.splitlines(), 1):
            if ";" in raw:
                self.lineno = lineno
                line, tag = self._strip_comment(raw)
            else:
                line, tag = raw.strip(), None
            if not line:
                if tag is not None:
                    raise self.err("tag comment without an instruction")
                continue

            if line[0] == ".":
                self.lineno = lineno
                current = self._directive(line, prog, current,
                                          pending_labels, seen_names)
                continue

            if current is None:
                raise AsmError(lineno, "instruction outside of a .func block")
            head, hashed, num = line.partition("#")
            mo = hashed and _PLAIN_IMM.fullmatch(num)
            if mo:  # the line's shape: its immediate as #0
                key, value = head + "#0" + mo[2], int(mo[1], 0)
            else:
                key, value = line, 0
            if tag is not None:
                key += " ;@%s:%s" % (tag[0], TAG_PRINT[tag[1]])
            try:
                ins = _line_template(key)
            except AsmError:
                ins = None
            if value and ins is not None:
                fault = _imm_fault(ins.op, value)
                ins = None if fault else with_imm(ins, value)
            if ins is None:  # the exact line's parse meets its fault
                self.lineno = lineno
                ins = finalize(self._instruction(line, tag))
            if line[-1] == ",":
                # Checked once the operands parsed, so that a more specific
                # fault of the line is the one reported.
                raise AsmError(lineno, "trailing comma in %r" % line)
            if pending_labels:
                current.labels_at[len(current.body)] = tuple(pending_labels)
                pending_labels.clear()
            current.body.append(ins)
            current.lines.append(lineno)

        if current is not None:
            raise AsmError(current.line, "missing .endfunc for %r" % current.name)
        if pending_labels:
            raise AsmError(lineno, "label %r is not bound to anything"
                           % pending_labels[0])
        return prog

    def _strip_comment(self, raw: str):
        text, _, comment = raw.partition(";")
        comment = comment.strip()
        tag = self._parse_tag(comment[1:]) if comment.startswith("@") else None
        return text.strip(), tag

    def _parse_tag(self, body: str):
        phase, sep, cat = body.partition(":")
        if not sep or phase not in TAG_PHASES or cat not in TAG_CATEGORIES:
            raise self.err("malformed tag comment ;@%s" % body)
        return (phase, TAG_CATEGORIES[cat])

    # -- directives -----------------------------------------------------

    def _directive(self, line, prog, current, pending_labels, seen_names):
        parts = line.split()
        name = parts[0].lower()
        args = parts[1:]

        if name == ".org":
            if current is not None:
                raise self.err(".org inside a function")
            if len(args) != 1:
                raise self.err(".org takes one address")
            prog.items.append(OrgNode(self._number(args[0]), self.lineno))
            return current

        if name == ".func":
            if current is not None:
                raise self.err("nested .func")
            if not args or len(args) > 2:
                raise self.err(".func takes a name and an optional kind")
            fname = args[0]
            if not _LABEL_RE.match(fname):
                raise self.err("bad function name %r" % fname)
            if fname in seen_names:
                raise self.err("duplicate name %r" % fname)
            seen_names.add(fname)
            kind = FUNC_NORMAL
            if len(args) == 2:
                kind = args[1].lower()
                if kind not in (FUNC_HANDLER, FUNC_HAL):
                    raise self.err("unknown function kind %r" % args[1])
            fn = AsmFunction(fname, kind, line=self.lineno)
            if pending_labels:
                fn.labels = tuple(pending_labels)
                pending_labels.clear()
            prog.items.append(fn)
            prog.functions[fname] = fn
            return fn

        if name == ".endfunc":
            if current is None:
                raise self.err(".endfunc without .func")
            if pending_labels:
                raise self.err("label %r at end of function" % pending_labels[0])
            return None

        if name == ".word":
            if current is not None:
                raise self.err(".word inside a function")
            if len(args) != 1:
                raise self.err(".word takes one value or label")
            node = WordNode(line=self.lineno)
            if _LABEL_RE.match(args[0]):
                node.label_ref = args[0]
            else:
                node.value = self._number(args[0])
                if node.value > MASK32:
                    raise self.err(".word value out of range: %s" % args[0])
            if pending_labels:
                node.labels = tuple(pending_labels)
                pending_labels.clear()
            prog.items.append(node)
            return current

        if name == ".label":
            if len(args) != 1 or not _LABEL_RE.match(args[0]):
                raise self.err(".label takes one identifier")
            if args[0] in seen_names:
                raise self.err("duplicate name %r" % args[0])
            seen_names.add(args[0])
            pending_labels.append(args[0])
            return current

        raise self.err("unknown directive %s" % name)

    # -- operand helpers --------------------------------------------------

    def _number(self, text: str) -> int:
        try:
            value = int(text, 0)
        except ValueError:
            raise self.err("bad number %r" % text) from None
        if value < 0:
            raise self.err("negative value %r" % text)
        return value

    def _imm(self, text: str, op: str, what: str) -> int:
        if not text.startswith("#"):
            raise self.err("expected immediate, got %r" % text)
        value = self._number(text[1:])
        fault = _imm_fault(op, value, what)
        if fault:
            raise self.err(fault)
        return value

    def _reg(self, text: str, allow) -> int:
        r = REG_PARSE.get(text.lower())
        if r is None:
            raise self.err("bad register %r" % text)
        if r >= NUM_GPRS and r not in allow:
            raise self.err("register %s not allowed here" % text)
        return r

    def _reglist(self, text: str, allow) -> tuple[int, ...]:
        if not (text.startswith("{") and text.endswith("}")):
            raise self.err("expected register list, got %r" % text)
        names = [t.strip() for t in text[1:-1].split(",")]
        if not any(names):
            raise self.err("empty register list")
        if not all(names):
            raise self.err("empty name in register list %r" % text)
        regs = [self._reg(n, allow) for n in names]
        if any(b <= a for a, b in zip(regs, regs[1:])):
            raise self.err("register list must be strictly ascending")
        return tuple(regs)

    def _memref(self, text: str, op: str, allow) -> tuple[int, int]:
        mo = _MEM_RE.match(text)
        if not mo:
            raise self.err("bad memory operand %r" % text)
        rn = self._reg(mo.group(1), allow)
        offset = mo.group(2)
        return rn, self._imm(offset, op, "offset") if offset else 0

    # -- instructions ------------------------------------------------------

    def _instruction(self, line: str, tag=None) -> Instr:
        mnemonic, *rest = line.split(None, 1)
        mnemonic = mnemonic.lower()
        wide = mnemonic.endswith(".w")
        if wide:
            mnemonic = mnemonic[:-2]
            if mnemonic not in _WIDE_OPS:
                raise self.err("%s has no .w form" % mnemonic)
        forms = _FORMS.get(mnemonic)
        if forms is None:
            raise self.err("unknown mnemonic %r" % mnemonic)
        texts = _split_operands(rest[0] if rest else "")
        count = len(forms[0][2])
        if len(texts) != count:
            raise self.err("%s takes %d operands" % (mnemonic, count))
        # The first form whose immediates are all written with "#"; a
        # mnemonic's last form is the one left when none is.
        for op, cond, operands in forms:
            if all(operand != "{imm}" or text.startswith("#")
                   for operand, text in zip(operands, texts)):
                break
        for operand, text in zip(operands, texts):  # literals are checked first
            if operand == "sp" and REG_PARSE.get(text.lower()) != SP:
                raise self.err("%s supports only the sp form" % mnemonic)
            if operand == "control" and text.lower() != "control":
                raise self.err("%s supports only control" % mnemonic)
        fields = {}
        for operand, text in zip(operands, texts):
            allow = _HIGH_REGS.get((op, operand[1:-1]), ())
            if operand == "{imm}":
                fields["imm"] = self._imm(text, op, mnemonic)
            elif operand == "{mem}":
                fields["rn"], fields["imm"] = self._memref(text, op, allow)
            elif operand == "{reglist}":
                fields["reglist"] = self._reglist(text, allow)
            elif operand == "{label}":
                if not _LABEL_RE.match(text):
                    raise self.err("bad branch target %r" % text)
                fields["label"] = text
            elif operand[0] == "{":  # rd, rn or rm
                fields[operand[1:-1]] = self._reg(text, allow)
        return Instr(op, cond=cond, wide=wide, tag=tag, **fields)


@functools.lru_cache(maxsize=LINE_CACHE_SIZE)
def _line_template(line: str) -> Instr:
    """The finalised instruction of one stripped line, tagged by its tag
    comment if it has one: one value for every caller that meets the
    line.  A bad line raises its ``AsmError`` with line 0, and nothing
    is cached for it.
    """
    parser = _Parser("")
    return finalize(parser._instruction(*parser._strip_comment(line)))


def assemble(line: str) -> Instr:
    """The instruction of one line and its optional tag comment, as
    ``parse`` builds it; a bad line raises its ``AsmError`` with line 0."""
    return _line_template(line)


def parse(text: str) -> AsmProgram:
    """Parse and lay out a program; raises AsmError with a line number."""
    prog = _Parser(text).parse()
    layout(prog)
    return prog


# -- layout -------------------------------------------------------------------

def layout(prog: AsmProgram) -> None:
    """Assign addresses, build the code map, and resolve label references.

    One walk places each body, binds its labels and keys the code map;
    then each label branch is resolved in place, so the map keeps the
    walk's order, and each word's label reference is resolved."""
    labels: dict[str, int] = {}
    code: dict[int, Instr] = {}
    branches = []  # (address, instruction, line) of each label branch
    words = []
    cursor: int | None = None
    size = 0

    def place() -> int:
        nonlocal cursor
        if cursor is None:
            cursor = DEFAULT_ORIGIN
        return cursor

    for item in prog.items:
        if isinstance(item, OrgNode):
            if cursor is not None and item.address < cursor:
                raise AsmError(item.line, ".org moves backwards")
            cursor = item.address
        elif isinstance(item, AsmFunction):
            item.entry = place()
            _addressable(item.entry, item.line)
            _bind(labels, item.name, item.entry, item.line)
            for extra in item.labels:
                _bind(labels, extra, item.entry, item.line)
            bound = item.labels_at
            for i, ins in enumerate(item.body):
                at = cursor
                cursor += ins.width
                if cursor - 1 > MASK32:
                    _addressable(cursor - 1, item.lines[i])
                if i in bound:
                    for lab in bound[i]:
                        _bind(labels, lab, at, item.lines[i])
                code[at] = ins
                if ins.label is not None:
                    branches.append((at, ins, item.lines[i]))
            size += cursor - item.entry
        else:  # WordNode
            place()
            if cursor % 4:
                pad = 4 - cursor % 4
                cursor += pad
                size += pad
            item.addr = cursor
            _addressable(cursor + 3, item.line)
            for lab in item.labels:
                _bind(labels, lab, cursor, item.line)
            cursor += 4
            size += 4
            words.append(item)

    prog.labels = labels
    prog.code_size = size
    # A label branch's value is built anew with its resolved target.
    for at, ins, line in branches:
        code[at] = ins.replace(target=_resolve(labels, ins.label, line))
    prog.code = code
    for item in words:
        if item.label_ref is not None:
            item.value = _resolve(labels, item.label_ref, item.line)
    prog.data = [(item.addr, item.value) for item in words]


def _resolve(labels: dict[str, int], name: str, line: int) -> int:
    if name not in labels:
        raise AsmError(line, "unresolved label %r" % name)
    return labels[name]


def _addressable(last: int, line: int) -> None:
    if last > MASK32:
        raise AsmError(line, "address 0x%x is past 32 bits" % last)


def _bind(labels: dict[str, int], name: str, addr: int, line: int) -> None:
    if name in labels:
        raise AsmError(line, "duplicate label %r" % name)
    labels[name] = addr


# -- printing -----------------------------------------------------------------

def format_tagged(ins: Instr) -> str:
    text = format_instr(ins)
    if ins.tag is not None:
        text += " ;@%s:%s" % (ins.tag[0], TAG_PRINT[ins.tag[1]])
    return text


def print_program(prog: AsmProgram) -> str:
    """Canonical source text; parse(print_program(p)) == p structurally."""
    out: list[str] = []
    for item in prog.items:
        if isinstance(item, OrgNode):
            out.append(".org 0x%08x" % item.address)
        elif isinstance(item, WordNode):
            for lab in item.labels:
                out.append(".label %s" % lab)
            if item.label_ref is not None:
                out.append(".word %s" % item.label_ref)
            else:
                out.append(".word 0x%08x" % item.value)
        else:
            for lab in item.labels:
                out.append(".label %s" % lab)
            head = ".func %s" % item.name
            if item.kind != FUNC_NORMAL:
                head += " %s" % item.kind
            out.append(head)
            bound = item.labels_at
            for i, ins in enumerate(item.body):
                for lab in bound.get(i, ()):
                    out.append("    .label %s" % lab)
                out.append("    " + format_tagged(ins))
            out.append(".endfunc")
    return "\n".join(out) + "\n"


def listing(prog: AsmProgram) -> str:
    """Resolved listing: one line per instruction/word with its address."""
    out: list[str] = []
    for item in prog.items:
        if isinstance(item, AsmFunction):
            out.append("%08x <%s>%s:" % (
                item.entry, item.name,
                "" if item.kind == FUNC_NORMAL else " [%s]" % item.kind))
            addr, bound = item.entry, item.labels_at
            for i, ins in enumerate(item.body):
                for lab in bound.get(i, ()):
                    out.append("%08x %s:" % (addr, lab))
                out.append("%08x  %db %2dc  %s" % (
                    addr, ins.width, ins.cycles, format_tagged(ins)))
                addr += ins.width
        elif isinstance(item, WordNode):
            for lab in item.labels:
                out.append("%08x %s:" % (item.addr, lab))
            out.append("%08x  4b      .word 0x%08x" % (item.addr, item.value))
    return "\n".join(out) + "\n"
