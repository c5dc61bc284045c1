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
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from .asm import (FUNC_HAL, FUNC_HANDLER, T_ASSP, T_AW, T_OTHER, T_USS,
                  AsmFunction, AsmProgram, format_instr, layout, print_program)
from .dwt import (DWT_COMP1, DWT_COMP_BASE, DWT_FUNCTION_OFF,
                  DWT_GROUP_STRIDE, FN_WRITE, MASK_BITS_MAX)
from .exception_model import (ESF_OFF_LR, ESF_OFF_R12, ESF_OFF_RETURN,
                              ESF_OFF_XPSR)
from .isa import LR, MASK32, NUM_GPRS, PC, Instr, finalize

SEQ_OPTIMAL = "optimal"
SEQ_NAIVE = "naive"

SSP_REG_OFF = DWT_GROUP_STRIDE                   # offset of COMP1 from COMP0
FUNCTION0_OFF = DWT_FUNCTION_OFF
DEMCR_ADDR = 0xE000EDFC

# Shadow frame layout for exception handlers, ascending from the entry ssp:
# xPSR, return address, lr, r12, then EXC_RETURN.
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
    picked: list[int] = []
    for r in _FREE_PREF:
        if len(picked) == count:
            break
        if r in unsaved_ok:
            picked.append(r)
    reserved: list[int] = []
    for r in _RESERVE_PREF:
        if len(picked) + len(reserved) == count:
            break
        if r not in picked:
            reserved.append(r)
    return tuple(sorted(picked + reserved)), tuple(sorted(reserved))


# -- instruction builders ---------------------------------------------------

def _i(op: str, *, tag=None, **kw) -> Instr:
    ins = Instr(op, **kw)
    ins.tag = tag
    return finalize(ins)


def _load_addr(rd: int, addr: int, phase: str, cat: str) -> list[Instr]:
    return [
        _i("movw", rd=rd, imm=addr & 0xFFFF, tag=(phase, cat)),
        _i("movt", rd=rd, imm=(addr >> 16) & 0xFFFF, tag=(phase, cat)),
    ]


# -- normal function blocks ---------------------------------------------------

@functools.cache
def _prologue_template(naive: bool, scratches: tuple[int, ...],
                       reserved: tuple[int, ...]):
    """The normal-function prologue for one choice of scratch registers.

    Returns the template instructions, their canonical text and the text
    of the access block.  Every function gets copies of the templates, so
    no template object ever reaches a program.
    """
    work, base = scratches[0], scratches[-1]
    out: list[Instr] = []
    access: list[Instr] = []  # the access block, in program order

    def emit(*instrs: Instr, in_access: bool = False) -> None:
        out.extend(instrs)
        if in_access:
            access.extend(instrs)

    if reserved:
        emit(_i("push", reglist=reserved, tag=("pro", T_OTHER)),
             in_access=True)
    emit(*_load_addr(base, DWT_COMP_BASE, "pro", T_OTHER), in_access=True)
    # The shadow stack pointer register: COMP1 through its own address
    # register (naive) or at an offset from the base (optimal).
    if naive:
        ssp, ssp_off = scratches[1], 0
        emit(*_load_addr(ssp, DWT_COMP1, "pro", T_ASSP), in_access=True)
    else:
        ssp, ssp_off = base, SSP_REG_OFF
    emit(_i("mov_imm", rd=work, imm=0, wide=True, tag=("pro", T_AW)),
         _i("str", rd=work, rn=base, imm=FUNCTION0_OFF, wide=True,
            tag=("pro", T_AW)))
    emit(_i("ldr", rd=work, rn=ssp, imm=ssp_off, wide=True,
            tag=("pro", T_ASSP)), in_access=not naive)
    emit(_i("str", rd=LR, rn=work, imm=0, wide=True, tag=("pro", T_USS)),
         _i("addw", rd=work, rn=work, imm=4, tag=("pro", T_ASSP)))
    emit(_i("str", rd=work, rn=ssp, imm=ssp_off, wide=True,
            tag=("pro", T_ASSP)), in_access=True)
    emit(_i("mov_imm", rd=work, imm=FN_WRITE, wide=True, tag=("pro", T_AW)),
         _i("str", rd=work, rn=base, imm=FUNCTION0_OFF, wide=True,
            tag=("pro", T_AW)))
    if reserved:
        emit(_i("pop", reglist=reserved, tag=("pro", T_OTHER)),
             in_access=True)
    return (tuple(out), tuple(format_instr(i) for i in out),
            tuple(format_instr(i) for i in access))


@functools.cache
def _epilogue_template(work: int, work_reserved: bool):
    """Restore lr from the shadow stack and return through it.

    lr itself doubles as the pointer-register address so only one
    scratch is needed; the ssp writeback therefore happens before the
    return address overwrites lr.  Returns template instructions and
    their canonical text; every return site gets copies.
    """
    out: list[Instr] = []
    if work_reserved:
        out.append(_i("push", reglist=(work,), tag=("epi", T_OTHER)))
    out += _load_addr(LR, DWT_COMP1, "epi", T_ASSP)
    out += [
        _i("ldr", rd=work, rn=LR, imm=0, wide=True, tag=("epi", T_ASSP)),
        _i("subw", rd=work, rn=work, imm=4, tag=("epi", T_ASSP)),
        _i("str", rd=work, rn=LR, imm=0, wide=True, tag=("epi", T_ASSP)),
        _i("ldr", rd=LR, rn=work, imm=0, wide=True, tag=("epi", T_USS)),
    ]
    if work_reserved:
        out.append(_i("pop", reglist=(work,), tag=("epi", T_OTHER)))
    out.append(_i("bx", rm=LR, tag=("epi", T_USS)))
    return tuple(out), tuple(format_instr(i) for i in out)


# -- handler blocks ------------------------------------------------------------

def _guard(val: int, skip_label: str, phase: str) -> list[Instr]:
    # Skip the shadow traffic entirely when protection was never
    # initialized (DEMCR monitor enable still zero).
    return _load_addr(val, DEMCR_ADDR, phase, T_AW) + [
        _i("ldr", rd=val, rn=val, imm=0, wide=True, tag=(phase, T_AW)),
        _i("cmp_imm", rn=val, imm=0, tag=(phase, T_AW)),
        _i("bcond", cond="eq", label=skip_label, tag=(phase, T_AW)),
    ]


def _handler_prologue(skip: str, scratches, reserved
                      ) -> tuple[list[Instr], str | None]:
    """The handler prologue, and the skip label still to be bound.

    With reserved registers the guard skips to their pop; otherwise the
    label is left for the first instruction of the body.
    """
    val, work, base = scratches[0], scratches[1], scratches[-1]
    k = 4 * len(reserved)
    out: list[Instr] = []
    if reserved:
        out.append(_i("push", reglist=reserved, tag=("pro", T_OTHER)))
    out += _guard(val, skip, "pro")
    out += _load_addr(base, DWT_COMP_BASE, "pro", T_OTHER)
    out += [
        _i("mov_imm", rd=val, imm=0, wide=True, tag=("pro", T_AW)),
        _i("str", rd=val, rn=base, imm=FUNCTION0_OFF, wide=True,
           tag=("pro", T_AW)),
        _i("ldr", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
           tag=("pro", T_ASSP)),
    ]
    for esf_off in HANDLER_ESF_OFFSETS:
        out += [
            _i("ldr", rd=val, rn=13, imm=k + esf_off, wide=True,
               tag=("pro", T_USS)),
            _i("str", rd=val, rn=work, imm=0, wide=True, tag=("pro", T_USS)),
            _i("addw", rd=work, rn=work, imm=4, tag=("pro", T_ASSP)),
        ]
    out += [
        _i("str", rd=LR, rn=work, imm=0, wide=True, tag=("pro", T_USS)),
        _i("addw", rd=work, rn=work, imm=4, tag=("pro", T_ASSP)),
        _i("str", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
           tag=("pro", T_ASSP)),
        _i("mov_imm", rd=val, imm=FN_WRITE, wide=True, tag=("pro", T_AW)),
        _i("str", rd=val, rn=base, imm=FUNCTION0_OFF, wide=True,
           tag=("pro", T_AW)),
    ]
    if not reserved:
        return out, skip
    pop = _i("pop", reglist=reserved, tag=("pro", T_OTHER))
    pop.labels = (skip,)
    out.append(pop)
    return out, None


def _handler_epilogue(skip: str, scratches, reserved) -> list[Instr]:
    val, work, base = scratches[0], scratches[1], scratches[-1]
    k = 4 * len(reserved)
    out: list[Instr] = []
    if reserved:
        out.append(_i("push", reglist=reserved, tag=("epi", T_OTHER)))
    out += _guard(val, skip, "epi")
    out += _load_addr(base, DWT_COMP_BASE, "epi", T_OTHER)
    out += [
        _i("ldr", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
           tag=("epi", T_ASSP)),
        _i("subw", rd=work, rn=work, imm=4, tag=("epi", T_ASSP)),
        _i("ldr", rd=LR, rn=work, imm=0, wide=True, tag=("epi", T_USS)),
    ]
    for esf_off in HANDLER_ESF_OFFSETS[::-1]:
        out += [
            _i("subw", rd=work, rn=work, imm=4, tag=("epi", T_ASSP)),
            _i("ldr", rd=val, rn=work, imm=0, wide=True, tag=("epi", T_USS)),
            _i("str", rd=val, rn=13, imm=k + esf_off, wide=True,
               tag=("epi", T_USS)),
        ]
    out.append(_i("str", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
                  tag=("epi", T_ASSP)))
    tail = _i("pop", reglist=reserved, tag=("epi", T_OTHER)) \
        if reserved else _i("bx", rm=LR, tag=("epi", T_USS))
    tail.labels = (skip,)
    out.append(tail)
    if reserved:
        out.append(_i("bx", rm=LR, tag=("epi", T_USS)))
    return out


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

    The result shares no Instr with ``func``; a hal function comes back
    as a plain copy.
    """
    plan = InstrumentationPlan(func.name, func.kind, config.sequence)
    if func.kind == FUNC_HAL:
        plan.skipped = True
        return dataclasses.replace(
            func, body=[ins.copy() for ins in func.body]), plan

    handler = func.kind == FUNC_HANDLER
    for ins in func.body:
        if ins.op == "bx" and ins.rm != LR:
            raise InstrumentError(
                func.name, "computed return through %s is unsupported"
                % ("r%d" % ins.rm))

    count = 3 if handler or config.sequence == SEQ_NAIVE else 2
    free = analyze_free_gprs(func)
    scratches, reserved = _select_scratches(free, count, handler)
    plan.free_gprs = tuple(sorted(free))
    plan.scratch_gprs = scratches
    plan.reserved_gprs = reserved

    if handler:
        body, pending = _handler_prologue(
            label_seq.make("pro_skip", func.name), scratches, reserved)
        plan.inserted_prologue = tuple(format_instr(i) for i in body)
    else:
        templates, plan.inserted_prologue, plan.access_block = \
            _prologue_template(config.sequence == SEQ_NAIVE, scratches,
                               reserved)
        body = [t.copy() for t in templates]
        pending = None
        work = scratches[0]
        work_reserved = work in reserved

    sites = 0
    for ins in func.body:
        labels = ins.labels
        if pending is not None:
            labels = (pending,) + labels
            pending = None
        pops_pc = ins.op == "pop" and PC in ins.reglist
        if not pops_pc and ins.op != "bx":
            copy = ins.copy()
            copy.labels = labels
            body.append(copy)
            continue

        # A return site (pop {..., pc}, or bx lr: any other bx was refused
        # above) becomes a return through the shadow copy of lr.
        sites += 1
        if handler:
            tail = _handler_epilogue(
                label_seq.make("epi%d_skip" % sites, func.name),
                scratches, reserved)
            tail_text = None  # per-site labels; only site 1 is formatted
        else:
            templates, tail_text = _epilogue_template(work, work_reserved)
            tail = [t.copy() for t in templates]
        if pops_pc:
            # Pop what the original popped below pc, then drop (or, in a
            # handler, pop into lr) the stacked return address.  The
            # first instruction carries what the original cost beyond it.
            rest = tuple(r for r in ins.reglist if r != PC)
            block = [_i("pop", reglist=rest)] if rest else []
            block.append(_i("pop", reglist=(LR,), tag=("epi", T_USS))
                         if handler else
                         _i("add_sp", imm=4, tag=("epi", T_OTHER)))
            block[0].conv_extra = ins.cycles - (block[0].cycles if rest else 0)
            block += tail
        else:
            block = tail
            block[-1].conv_extra = ins.cycles
        block[0].labels = labels + block[0].labels
        body += block
        if sites == 1:
            if tail_text is None:
                tail_text = tuple(format_instr(i) for i in tail)
            plan.inserted_epilogue = tuple(
                format_instr(i) for i in block[:-len(tail)]) + tail_text

    if pending is not None:
        raise InstrumentError(func.name, "handler has an empty body")

    plan.epilogue_sites = sites
    new = AsmFunction(func.name, func.kind, body, labels=func.labels,
                      line=func.line)
    plan.size_delta_bytes = new.size_bytes() - func.size_bytes()
    return new, plan


def instrument_program(prog: AsmProgram,
                       config: ShadowStackConfig) -> InstrumentResult:
    """Rewrite every instrumentable function; atomic on failure.

    The input program is not modified and shares no Instr with the
    result.  The result carries a freshly laid-out program and one plan
    per function; its canonical source text is rendered on first access.
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
