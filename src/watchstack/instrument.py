"""Shadow-stack instrumentation pass.

Rewrites assembly functions so every return address is saved to a
compact shadow stack on entry and restored from it on return.  The
shadow stack pointer lives in the watchpoint unit's COMP1 register;
the prologue must therefore disarm the write watchpoint over the
shadow region (FUNCTION0) around its own shadow store and rearm it
afterwards.  Exception handlers get a different treatment: the four
attacker-reachable words of the stacked exception frame (xPSR, return
address, lr, r12) are copied to the shadow stack on entry and copied
back before return, guarded by a check that protection is initialized.

Two prologue flavors exist.  The optimal sequence reaches both the
FUNCTION0 toggle and the shadow stack pointer through one base register
and immediate offsets; the naive sequence materializes both register
addresses separately, costing one more scratch register and one more
instruction in the bare access pattern (7 instructions, 3 GPRs versus
6 instructions, 2 GPRs).

Every inserted block is written as tagged assembly lines by one of four
makers.  One bounded cache assembles each block once per choice of
registers, sequence and replaced return, and its instructions, which
are immutable values, go into every function that uses it as they are;
a handler block's guard gets a new value naming the function's own skip
label.  A plan's text is the same lines without their tags.  No code
here decides an op name, an encoding width or a cycle cost.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import NamedTuple

from .asm import (FUNC_HAL, FUNC_HANDLER, T_ASSP, T_USS, AsmFunction,
                  AsmProgram, assemble, format_tagged, layout,
                  print_program)
from .dwt import (DWT_COMP1, DWT_COMP_BASE, DWT_FUNCTION_OFF,
                  DWT_GROUP_STRIDE, FN_WRITE, MASK_BITS_MAX)
from .exception_model import (ESF_OFF_LR, ESF_OFF_R12, ESF_OFF_RETURN,
                              ESF_OFF_XPSR)
from .isa import (LR, MASK32, NUM_GPRS, PC, SP, imm_str, mem_str,
                  reg_name, reglist_str)
from .machine import DEMCR_ADDR

SEQ_OPTIMAL = "optimal"
SEQ_NAIVE = "naive"

SSP_REG_OFF = DWT_GROUP_STRIDE                   # offset of COMP1 from COMP0
FUNCTION0_OFF = DWT_FUNCTION_OFF

# Shadow frame layout for exception handlers, ascending from the entry ssp:
# a guard slot left untouched, the FUNCTION0 value found on entry, xPSR,
# return address, lr, r12, then EXC_RETURN.
HANDLER_ESF_OFFSETS = (ESF_OFF_XPSR, ESF_OFF_RETURN, ESF_OFF_LR, ESF_OFF_R12)

# Scratch selection preference: ip-style caller scratch first, then the
# argument registers, then the low callee registers.
_FREE_PREF = (12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
_RESERVE_PREF = (4, 5, 6, 7, 8, 9, 10, 11, 3, 2, 1, 0, 12)
# Registers the exception entry/return sequence saves and restores by
# itself; a handler may clobber these without spilling them.
_HW_RESTORED = frozenset((0, 1, 2, 3, 12))


class InstrumentError(Exception):
    def __init__(self, function: str, message: str) -> None:
        super().__init__("function %r: %s" % (function, message))
        self.function = function
        self.message = message


@dataclass(frozen=True)
class ShadowStackConfig:
    ss_start: int = 0x00E00000
    ss_size_log2: int = 15
    sequence: str = SEQ_OPTIMAL

    def __post_init__(self) -> None:
        if self.sequence not in (SEQ_OPTIMAL, SEQ_NAIVE):
            raise ValueError("unknown instrumentation sequence %r"
                             % (self.sequence,))
        # Comparator 0 traps one naturally aligned power-of-two block.
        if not 2 <= self.ss_size_log2 <= MASK_BITS_MAX:
            raise ValueError("ss_size_log2 must be in 2..%d, got %d"
                             % (MASK_BITS_MAX, self.ss_size_log2))
        if self.ss_start % self.ss_size or not 0 <= self.ss_start <= MASK32:
            raise ValueError("ss_start %#x is not a 32-bit multiple of "
                             "the shadow region size %#x"
                             % (self.ss_start, self.ss_size))

    @property
    def ss_size(self) -> int:
        return 1 << self.ss_size_log2

    @property
    def ss_limit(self) -> int:
        return self.ss_start + self.ss_size

    @property
    def capacity(self) -> int:
        return self.ss_size // 4


@dataclass
class InstrumentationPlan:
    function: str
    kind: str
    sequence: str
    free_gprs: tuple[int, ...] = ()
    scratch_gprs: tuple[int, ...] = ()
    reserved_gprs: tuple[int, ...] = ()
    inserted_prologue: tuple[str, ...] = ()
    inserted_epilogue: tuple[str, ...] = ()
    epilogue_sites: int = 0
    size_delta_bytes: int = 0
    skipped: bool = False
    access_block: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class InstrumentResult:
    program: AsmProgram
    plans: list[InstrumentationPlan]

    @functools.cached_property
    def text(self) -> str:
        """Canonical rewritten source, rendered on first access."""
        return print_program(self.program)

    def plan_for(self, name: str) -> InstrumentationPlan:
        for plan in self.plans:
            if plan.function == name:
                return plan
        raise KeyError(name)


# -- analysis -------------------------------------------------------------

def analyze_free_gprs(func: AsmFunction) -> set[int]:
    """GPRs that appear in no instruction of the function body."""
    mentioned: set = set()
    for ins in func.body:
        mentioned.update((ins.rd, ins.rn, ins.rm))
        mentioned.update(ins.reglist)
    return set(range(NUM_GPRS)) - mentioned


def _select_scratches(free: set[int], count: int, handler: bool
                      ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pick scratch registers; returns (scratches, reserved-subset).

    Free registers are used without spilling.  In handlers only the
    hardware-restored set may be clobbered freely; anything else must be
    pushed and popped even if the body never touches it, because the
    interrupted thread still owns its value.
    """
    unsaved_ok = free & _HW_RESTORED if handler else free
    picked = [r for r in _FREE_PREF if r in unsaved_ok][:count]
    reserved = [r for r in _RESERVE_PREF if r not in picked
                ][:count - len(picked)]
    return tuple(sorted(picked + reserved)), tuple(sorted(reserved))


# -- inserted blocks ----------------------------------------------------------
#
# A block maker takes (scratches, reserved, naive, ret) and returns the
# block's lines in the assembler's canonical form, tags included, and the
# lines of its access block; ``.label NAME`` binds NAME to the next
# instruction.  ``ret`` is None for a prologue; for an epilogue it is the
# return replaced: the registers a ``pop {..., pc}`` pops below pc (None
# for ``bx lr``) and the return's cycles.  A handler block's guard skips
# to ``_SKIP``, which each use of the block renames.

# Assembled blocks kept; 1,000 corpus programs use 80 (optimal) or 287.
TEMPLATE_CACHE_SIZE = 1024
_SKIP = "__ws_skip"


def _untagged(lines) -> tuple[str, ...]:
    """A plan's text: the instruction lines without their tags."""
    return tuple(line.partition(" ;@")[0] for line in lines
                 if not line.startswith("."))


def _load_addr(rd: str, addr: int, tag: str) -> list[str]:
    return ["movw %s, %s %s" % (rd, imm_str(addr & 0xFFFF), tag),
            "movt %s, %s %s" % (rd, imm_str(addr >> 16), tag)]


def _spill(op: str, regs: tuple[int, ...], tag: str) -> list[str]:
    """The push or pop of reserved registers; none if there are none."""
    return ["%s %s %s" % (op, reglist_str(regs), tag)] if regs else []


def _return_site(ret, drop: str, tail: list[str]) -> list[str]:
    """The lines that replace a return: for ``pop {..., pc}``, pop what it
    popped below pc, then ``drop`` the stacked return address; then
    ``tail``, which returns through the shadow copy of lr."""
    rest = ret[0]
    if rest is None:
        return tail
    return (["pop " + reglist_str(rest)] if rest else []) + [drop] + tail


class _Template(NamedTuple):
    instrs: tuple        # the values every function using it shares
    skip_at: int | None  # where the skip label binds: an index of instrs,
                         # or len(instrs) past the block's end
    size: int            # bytes
    text: tuple          # the plan text
    access: tuple        # the access block's plan text


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(make, scratches, reserved, naive: bool, ret) -> _Template:
    """The block ``make`` writes, assembled.  A replaced return's cost
    beyond its untagged pop below pc, or its whole cost, rides as
    ``conv_extra`` on that pop, the drop of a bare ``pop {pc}`` or the
    closing ``bx lr``."""
    lines, access = make(scratches, reserved, naive, ret)
    instrs, skip_at = [], None
    for line in lines:
        if line.startswith(".label "):  # a maker's one label: _SKIP
            skip_at = len(instrs)
        else:
            instrs.append(assemble(line))
    if ret is not None:
        rest, cycles = ret
        at = -1 if rest is None else 0
        instrs[at] = instrs[at].replace(
            conv_extra=cycles - (instrs[at].cycles if rest else 0))
    return _Template(tuple(instrs), skip_at,
                     sum(ins.width for ins in instrs), _untagged(lines),
                     _untagged(access))


def _place(func: AsmFunction, template: _Template, skip: str | None,
           labels: tuple) -> tuple[tuple, tuple]:
    """Append ``template``'s block to ``func`` with ``labels`` bound to its
    first instruction; a guard, if any, becomes a new value that skips to
    ``skip``.  Returns the block's plan text and the labels it leaves for
    the instruction after it."""
    body, start = func.body, len(func.body)
    func.lines += [0] * len(template.instrs)
    if labels:
        func.labels_at[start] = labels
    if skip is None:
        body += template.instrs
        return template.text, ()
    body += (ins.replace(label=skip) if ins.label == _SKIP else ins
             for ins in template.instrs)
    text = tuple(line.replace(_SKIP, skip) for line in template.text)
    at = start + template.skip_at
    if at == len(body):
        return text, (skip,)
    func.labels_at[at] = func.labels_at.get(at, ()) + (skip,)
    return text, ()


# -- normal function blocks ---------------------------------------------------

def _prologue(scratches, reserved, naive: bool, ret):
    """The normal-function prologue, and its access block."""
    work = reg_name(scratches[0])
    fn0 = mem_str(scratches[-1], FUNCTION0_OFF)
    # The shadow stack pointer register: COMP1 through its own address
    # register (naive) or at an offset from the base (optimal).
    if naive:
        ssp_addr = _load_addr(reg_name(scratches[1]), DWT_COMP1, ";@pro:assp")
        ssp = mem_str(scratches[1], 0)
    else:
        ssp_addr, ssp = [], mem_str(scratches[-1], SSP_REG_OFF)
    spill = _spill("push", reserved, ";@pro:other")
    fill = _spill("pop", reserved, ";@pro:other")
    base = _load_addr(reg_name(scratches[-1]), DWT_COMP_BASE, ";@pro:other")
    load_ssp = ["ldr.w %s, %s ;@pro:assp" % (work, ssp)]
    store_ssp = ["str.w %s, %s ;@pro:assp" % (work, ssp)]
    lines = (spill + base + ssp_addr
             + ["mov.w %s, #0 ;@pro:aw" % work,
                "str.w %s, %s ;@pro:aw" % (work, fn0)]
             + load_ssp
             + ["str.w lr, [%s] ;@pro:uss" % work,
                "addw %s, %s, #4 ;@pro:assp" % (work, work)]
             + store_ssp
             + ["mov.w %s, %s ;@pro:aw" % (work, imm_str(FN_WRITE)),
                "str.w %s, %s ;@pro:aw" % (work, fn0)]
             + fill)
    access = (spill + base + ssp_addr + ([] if naive else load_ssp)
              + store_ssp + fill)
    return lines, access


def _epilogue(scratches, reserved, naive: bool, ret):
    """Restore lr from the shadow stack and return through it.

    lr itself doubles as the pointer-register address so only one
    scratch is needed; the ssp writeback therefore happens before the
    return address overwrites lr.
    """
    work = scratches[0]
    saved = (work,) if work in reserved else ()
    w = reg_name(work)
    tail = (_spill("push", saved, ";@epi:other")
            + _load_addr("lr", DWT_COMP1, ";@epi:assp")
            + ["ldr.w %s, [lr] ;@epi:assp" % w,
               "subw %s, %s, #4 ;@epi:assp" % (w, w),
               "str.w %s, [lr] ;@epi:assp" % w,
               "ldr.w lr, [%s] ;@epi:uss" % w]
            + _spill("pop", saved, ";@epi:other")
            + ["bx lr ;@epi:uss"])
    return _return_site(ret, "add sp, #4 ;@epi:other", tail), ()


# -- handler blocks ------------------------------------------------------------

def _guard(val: str, phase: str) -> list[str]:
    # Skip the shadow traffic entirely when protection was never
    # initialized: DEMCR's byte 2, which holds MON_EN, is still zero.
    tag = ";@%s:aw" % phase
    return _load_addr(val, DEMCR_ADDR, tag) + [
        "ldrb.w %s, [%s, #2] %s" % (val, val, tag),
        "cmp %s, #0 %s" % (val, tag),
        "beq %s %s" % (_SKIP, tag),
    ]


def _handler_prologue(scratches, reserved, naive: bool, ret):
    """The handler prologue.

    The handler may interrupt a normal prologue or epilogue inside its
    shadow update, so it keeps the FUNCTION0 value it found and leaves
    one guard slot above COMP1: that slot may be the one the interrupted
    code is about to write or read.  The guard skips to the pop of the
    reserved registers, if any, or else to the first instruction of the
    body.
    """
    val, work, base = (reg_name(scratches[i]) for i in (0, 1, -1))
    k = 4 * len(reserved)
    fn0 = mem_str(scratches[-1], FUNCTION0_OFF)
    ssp = mem_str(scratches[-1], SSP_REG_OFF)
    lines = (_spill("push", reserved, ";@pro:other")
             + _guard(val, "pro")
             + _load_addr(base, DWT_COMP_BASE, ";@pro:other")
             + ["ldr.w %s, %s ;@pro:aw" % (work, fn0),
                "mov.w %s, #0 ;@pro:aw" % val,
                "str.w %s, %s ;@pro:aw" % (val, fn0),
                "ldr.w %s, %s ;@pro:assp" % (val, ssp),
                "addw %s, %s, #4 ;@pro:assp" % (val, val),
                "str.w %s, [%s] ;@pro:uss" % (work, val),
                "addw %s, %s, #4 ;@pro:assp" % (work, val)])
    for esf_off in HANDLER_ESF_OFFSETS:
        lines += ["ldr.w %s, %s ;@pro:uss" % (val, mem_str(SP, k + esf_off)),
                  "str.w %s, [%s] ;@pro:uss" % (val, work),
                  "addw %s, %s, #4 ;@pro:assp" % (work, work)]
    return lines + [
        "str.w lr, [%s] ;@pro:uss" % work,
        "addw %s, %s, #4 ;@pro:assp" % (work, work),
        "str.w %s, %s ;@pro:assp" % (work, ssp),
        "mov.w %s, %s ;@pro:aw" % (val, imm_str(FN_WRITE)),
        "str.w %s, %s ;@pro:aw" % (val, fn0),
        ".label " + _SKIP,
    ] + _spill("pop", reserved, ";@pro:other"), ()


def _handler_epilogue(scratches, reserved, naive: bool, ret):
    """Copy the stacked frame back from the shadow stack, restore COMP1
    and then the FUNCTION0 value the prologue found, and return; a
    ``pop {..., pc}`` first pops the stacked return address into lr."""
    val, work, base = (reg_name(scratches[i]) for i in (0, 1, -1))
    k = 4 * len(reserved)
    fn0 = mem_str(scratches[-1], FUNCTION0_OFF)
    ssp = mem_str(scratches[-1], SSP_REG_OFF)
    lines = (_spill("push", reserved, ";@epi:other")
             + _guard(val, "epi")
             + _load_addr(base, DWT_COMP_BASE, ";@epi:other")
             + ["ldr.w %s, %s ;@epi:assp" % (work, ssp),
                "subw %s, %s, #4 ;@epi:assp" % (work, work),
                "ldr.w lr, [%s] ;@epi:uss" % work])
    for esf_off in HANDLER_ESF_OFFSETS[::-1]:
        lines += ["subw %s, %s, #4 ;@epi:assp" % (work, work),
                  "ldr.w %s, [%s] ;@epi:uss" % (val, work),
                  "str.w %s, %s ;@epi:uss" % (val, mem_str(SP, k + esf_off))]
    tail = lines + [
        "subw %s, %s, #4 ;@epi:assp" % (work, work),
        "ldr.w %s, [%s] ;@epi:uss" % (val, work),
        "subw %s, %s, #4 ;@epi:assp" % (work, work),
        "str.w %s, %s ;@epi:assp" % (work, ssp),
        "str.w %s, %s ;@epi:aw" % (val, fn0),
        ".label " + _SKIP,
    ] + _spill("pop", reserved, ";@epi:other") + ["bx lr ;@epi:uss"]
    return _return_site(ret, "pop {lr} ;@epi:uss", tail), ()


class _LabelSeq:
    """Generator of collision-free internal labels."""

    def __init__(self, taken) -> None:
        self.taken = set(taken)

    def make(self, what: str, func: str) -> str:
        base = "__ws_%s_%s" % (func, what)
        name = base
        n = 0
        while name in self.taken:
            n += 1
            name = "%s_%d" % (base, n)
        self.taken.add(name)
        return name


# -- the pass ------------------------------------------------------------------

def instrument_function(func: AsmFunction, config: ShadowStackConfig,
                        label_seq: _LabelSeq) -> tuple[AsmFunction, InstrumentationPlan]:
    """Rewrite one function.  Raises InstrumentError on unsupported shapes.

    The result is a new function, which shares ``func``'s instruction
    values but none of its lists or placement; a hal function comes back
    with the same body.
    """
    plan = InstrumentationPlan(func.name, func.kind, config.sequence)
    if func.kind == FUNC_HAL:
        plan.skipped = True
        return dataclasses.replace(
            func, body=list(func.body), lines=list(func.lines),
            labels_at=dict(func.labels_at)), plan

    if not func.body:
        # Its prologue would run on into the next function and push a
        # shadow slot that no epilogue of its own pops.
        raise InstrumentError(func.name,
                              "%s function has an empty body" % func.kind)

    handler = func.kind == FUNC_HANDLER
    # A branch may only reach a label bound inside the body: a tail call
    # would leave this function's shadow slot behind, and a branch to
    # its own entry would run the prologue again.
    inside = set().union(*func.labels_at.values())
    for ins in func.body:
        if ins.op == "bx" and ins.rm != LR:
            raise InstrumentError(
                func.name, "computed return through %s is unsupported"
                % ("r%d" % ins.rm))
        if ins.tag is not None:  # the pass's own output: refuse it
            raise InstrumentError(func.name, "already instrumented: %s"
                                  % format_tagged(ins))
        if ins.op in ("b", "bcond") and ins.label not in inside:
            raise InstrumentError(
                func.name, "branch out of the function is unsupported: %s"
                % format_tagged(ins))
    # Past a last instruction that is no jump, return (``pop`` is the one
    # other write of pc) or halt runs whatever code follows.
    last = func.body[-1]
    if not (last.op in ("b", "bx", "bkpt")
            or last.op == "pop" and PC in last.reglist):
        raise InstrumentError(func.name, "falls off its end after %s"
                              % format_tagged(last))

    naive = config.sequence == SEQ_NAIVE
    count = 3 if handler or naive else 2
    free = analyze_free_gprs(func)
    scratches, reserved = _select_scratches(free, count, handler)
    plan.free_gprs = tuple(sorted(free))
    plan.scratch_gprs = scratches
    plan.reserved_gprs = reserved

    pro_make, epi_make = ((_handler_prologue, _handler_epilogue) if handler
                          else (_prologue, _epilogue))
    out = AsmFunction(func.name, func.kind, labels=func.labels,
                      line=func.line)
    pro = _template(pro_make, scratches, reserved, naive, None)
    plan.inserted_prologue, pending = _place(
        out, pro, label_seq.make("pro_skip", func.name) if handler else None,
        ())
    plan.access_block = pro.access
    delta = pro.size

    sites = 0
    for i, ins in enumerate(func.body):
        labels = pending + func.labels_at.get(i, ())
        pending = ()
        # A return site (pop {..., pc}, or bx lr: any other bx was refused
        # above) becomes a return through the shadow copy of lr.
        if ins.op == "pop" and PC in ins.reglist:
            ret = (tuple(r for r in ins.reglist if r != PC), ins.cycles)
        elif ins.op == "bx":
            ret = (None, ins.cycles)
        else:
            if labels:
                out.labels_at[len(out.body)] = labels
            out.body.append(ins)
            out.lines.append(func.lines[i])
            continue
        sites += 1
        epi = _template(epi_make, scratches, reserved, naive, ret)
        text, pending = _place(out, epi, label_seq.make(
            "epi%d_skip" % sites, func.name) if handler else None, labels)
        delta += epi.size - ins.width
        if sites == 1:
            plan.inserted_epilogue = text

    plan.epilogue_sites = sites
    plan.size_delta_bytes = delta
    return out, plan


def instrument_program(prog: AsmProgram,
                       config: ShadowStackConfig) -> InstrumentResult:
    """Rewrite every instrumentable function; atomic on failure.

    The input program is not modified: the result shares its
    instruction values, which are immutable, and none of its functions,
    lists or placement.  The result carries a freshly laid-out program
    and one plan per function; its canonical source text is rendered on
    first access.
    """
    label_seq = _LabelSeq(prog.labels)
    plans: list[InstrumentationPlan] = []
    out = AsmProgram()
    for item in prog.items:
        if isinstance(item, AsmFunction):
            new, plan = instrument_function(item, config, label_seq)
            plans.append(plan)
            out.functions[new.name] = new
        else:
            new = dataclasses.replace(item)
        out.items.append(new)
    layout(out)
    return InstrumentResult(out, plans)
