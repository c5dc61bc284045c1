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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .isa import (CONDITIONS, LR, NUM_GPRS, PC, REG_PARSE, SP, Instr,
                  cycle_cost, finalize, format_instr, reg_name)

DEFAULT_ORIGIN = 0x08000000

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

    def size_bytes(self) -> int:
        return sum(i.width for i in self.body)

    def structural_key(self):
        return ("func", self.name, self.kind, self.labels,
                tuple(i.structural_key() for i in self.body))


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
_MEM_RE = re.compile(r"^\[\s*([a-z0-9]+)\s*(?:,\s*(#-?[0-9a-fx]+)\s*)?\]$",
                     re.IGNORECASE)

_BCOND_OPS = {"b" + c: c for c in CONDITIONS}


def _split_operands(text: str) -> list[str]:
    """Split on commas not nested inside {...} or [...].

    Empty operands are kept, except a last one, so blank text gives none;
    the parser rejects an instruction that ends in a comma.
    """
    if "{" not in text and "[" not in text and "}" not in text \
            and "]" not in text:
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()
        return parts
    return _split_nested(text)


def _split_nested(text: str) -> list[str]:
    """``_split_operands`` one character at a time, tracking the depth."""
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

        for raw in self.text.splitlines():
            self.lineno += 1
            line, tag = self._strip_comment(raw)
            if not line:
                if tag is not None:
                    raise self.err("tag comment without an instruction")
                continue

            if line.startswith("."):
                current = self._directive(line, prog, current,
                                          pending_labels, seen_names)
                continue

            if current is None:
                raise self.err("instruction outside of a .func block")
            ins = self._instruction(line)
            if line.endswith(","):
                # Checked once the operands parsed, so that a more specific
                # fault of the line is the one reported.
                raise self.err("trailing comma in %r" % line)
            ins.tag = tag
            ins.line = self.lineno
            if pending_labels:
                ins.labels = tuple(pending_labels)
                pending_labels.clear()
            current.body.append(finalize(ins))

        if current is not None:
            raise AsmError(current.line, "missing .endfunc for %r" % current.name)
        if pending_labels:
            raise self.err("label %r is not bound to anything" % pending_labels[0])
        return prog

    def _strip_comment(self, raw: str):
        tag = None
        idx = raw.find(";")
        if idx >= 0:
            comment = raw[idx + 1:].strip()
            if comment.startswith("@"):
                tag = self._parse_tag(comment[1:])
            raw = raw[:idx]
        return raw.strip(), tag

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
            if _LABEL_RE.match(args[0]) and not args[0][0].isdigit():
                node.label_ref = args[0]
            else:
                node.value = self._number(args[0]) & 0xFFFFFFFF
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

    def _imm(self, text: str, limit: int, what: str) -> int:
        if not text.startswith("#"):
            raise self.err("expected immediate, got %r" % text)
        value = self._number(text[1:])
        if value > limit:
            raise self.err("%s immediate out of range: %d" % (what, value))
        return value

    def _reg(self, text: str, allow=()) -> int:
        r = REG_PARSE.get(text.lower())
        if r is None:
            raise self.err("bad register %r" % text)
        if r >= NUM_GPRS and r not in allow:
            raise self.err("register %s not allowed here" % text)
        return r

    def _reglist(self, text: str, allow=()) -> tuple[int, ...]:
        if not (text.startswith("{") and text.endswith("}")):
            raise self.err("expected register list, got %r" % text)
        names = [t.strip() for t in text[1:-1].split(",")]
        if not any(names):
            raise self.err("empty register list")
        if not all(names):
            raise self.err("empty name in register list %r" % text)
        regs = [self._reg(n, allow=allow) for n in names]
        if any(b <= a for a, b in zip(regs, regs[1:])):
            raise self.err("register list must be strictly ascending")
        return tuple(regs)

    def _memref(self, text: str):
        mo = _MEM_RE.match(text)
        if not mo:
            raise self.err("bad memory operand %r" % text)
        rn = self._reg(mo.group(1), allow=(SP, LR))
        imm = 0
        if mo.group(2):
            imm = self._imm(mo.group(2), 4095, "offset")
        return rn, imm

    # -- instructions ------------------------------------------------------

    def _instruction(self, line: str) -> Instr:
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        wide = False
        if mnemonic.endswith(".w"):
            wide = True
            mnemonic = mnemonic[:-2]
        ops = _split_operands(rest)

        def need(n):
            if len(ops) != n:
                raise self.err("%s takes %d operands" % (mnemonic, n))

        if mnemonic in ("movw", "movt"):
            need(2)
            return Instr(mnemonic, rd=self._reg(ops[0], allow=(LR,)),
                         imm=self._imm(ops[1], 0xFFFF, mnemonic))
        if mnemonic == "mov":
            need(2)
            rd = self._reg(ops[0], allow=(LR,))
            if ops[1].startswith("#"):
                return Instr("mov_imm", rd=rd, wide=wide,
                             imm=self._imm(ops[1], 0xFFFFFFFF, "mov"))
            return Instr("mov_reg", rd=rd, wide=wide,
                         rm=self._reg(ops[1], allow=(SP, LR)))
        if mnemonic in ("ldr", "str", "ldrb", "strb"):
            need(2)
            rd = self._reg(ops[0], allow=(LR,) if mnemonic in ("ldr", "str") else ())
            rn, imm = self._memref(ops[1])
            return Instr(mnemonic, rd=rd, rn=rn, imm=imm, wide=wide)
        if mnemonic in ("push", "pop"):
            need(1)
            allow = (LR,) if mnemonic == "push" else (LR, PC)
            regs = self._reglist(ops[0], allow=allow)
            return Instr(mnemonic, reglist=regs)
        if mnemonic in ("add", "sub"):
            need(2)
            if ops[0].lower() not in ("sp", "r13"):
                raise self.err("%s supports only the sp form" % mnemonic)
            imm = self._imm(ops[1], 4095, mnemonic)
            if imm % 4:
                raise self.err("sp adjustment must be a multiple of 4")
            return Instr("add_sp" if mnemonic == "add" else "sub_sp", imm=imm)
        if mnemonic in ("addw", "subw"):
            need(3)
            return Instr(mnemonic, rd=self._reg(ops[0]), rn=self._reg(ops[1]),
                         imm=self._imm(ops[2], 4095, mnemonic))
        if mnemonic == "cmp":
            need(2)
            rn = self._reg(ops[0])
            if ops[1].startswith("#"):
                return Instr("cmp_imm", rn=rn,
                             imm=self._imm(ops[1], 4095, "cmp"))
            return Instr("cmp_reg", rn=rn, rm=self._reg(ops[1]))
        if mnemonic == "b" or mnemonic in _BCOND_OPS or mnemonic == "bl":
            need(1)
            if not _LABEL_RE.match(ops[0]):
                raise self.err("bad branch target %r" % ops[0])
            if mnemonic == "b":
                return Instr("b", label=ops[0])
            if mnemonic == "bl":
                return Instr("bl", label=ops[0])
            return Instr("bcond", cond=_BCOND_OPS[mnemonic], label=ops[0])
        if mnemonic in ("bx", "blx"):
            need(1)
            return Instr(mnemonic, rm=self._reg(ops[0], allow=(LR,)))
        if mnemonic == "msr":
            need(2)
            if ops[0].lower() != "control":
                raise self.err("msr supports only control")
            return Instr("msr", rn=self._reg(ops[1]))
        if mnemonic == "mrs":
            need(2)
            if ops[1].lower() != "control":
                raise self.err("mrs supports only control")
            return Instr("mrs", rd=self._reg(ops[0]))
        if mnemonic == "nop":
            need(0)
            return Instr("nop")
        if mnemonic in ("svc", "bkpt", "udf"):
            need(1)
            return Instr(mnemonic, imm=self._imm(ops[0], 255, mnemonic))
        raise self.err("unknown mnemonic %r" % mnemonic)


def parse(text: str) -> AsmProgram:
    """Parse and lay out a program; raises AsmError with a line number."""
    prog = _Parser(text).parse()
    layout(prog)
    return prog


# -- layout -------------------------------------------------------------------

def layout(prog: AsmProgram) -> None:
    """Assign addresses, build the code map, and resolve label references."""
    labels: dict[str, int] = {}
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
            _bind(labels, item.name, item.entry, item.line)
            for extra in item.labels:
                _bind(labels, extra, item.entry, item.line)
            for ins in item.body:
                ins.addr = cursor
                for lab in ins.labels:
                    _bind(labels, lab, cursor, ins.line)
                cursor += ins.width
                size += ins.width
        else:  # WordNode
            place()
            if cursor % 4:
                pad = 4 - cursor % 4
                cursor += pad
                size += pad
            item.addr = cursor
            for lab in item.labels:
                _bind(labels, lab, cursor, item.line)
            cursor += 4
            size += 4

    prog.labels = labels
    prog.code_size = size

    code: dict[int, Instr] = {}
    for item in prog.items:
        if not isinstance(item, AsmFunction):
            continue
        for ins in item.body:
            code[ins.addr] = ins
            if ins.label is not None:
                target = labels.get(ins.label)
                if target is None:
                    raise AsmError(ins.line, "unresolved label %r" % ins.label)
                ins.target = target
    prog.code = code

    data = []
    for item in prog.items:
        if isinstance(item, WordNode):
            if item.label_ref is not None:
                value = labels.get(item.label_ref)
                if value is None:
                    raise AsmError(item.line,
                                   "unresolved label %r" % item.label_ref)
                item.value = value
            data.append((item.addr, item.value))
    prog.data = data


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
            for ins in item.body:
                for lab in ins.labels:
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
            for ins in item.body:
                for lab in ins.labels:
                    out.append("%08x %s:" % (ins.addr, lab))
                out.append("%08x  %db %2dc  %s" % (
                    ins.addr, ins.width, cycle_cost(ins),
                    format_tagged(ins)))
        elif isinstance(item, WordNode):
            for lab in item.labels:
                out.append("%08x %s:" % (item.addr, lab))
            out.append("%08x  4b      .word 0x%08x" % (item.addr, item.value))
    return "\n".join(out) + "\n"
