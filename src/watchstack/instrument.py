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
from dataclasses import dataclass, field

from .asm import (FUNC_HAL, FUNC_HANDLER, FUNC_NORMAL, AsmFunction,
                  AsmProgram, format_instr, layout, print_program)
from .dwt import (DWT_COMP1, DWT_COMP_BASE, DWT_FUNCTION_OFF,
                  DWT_GROUP_STRIDE, FN_WRITE)
from .exception_model import (ESF_OFF_LR, ESF_OFF_R12, ESF_OFF_RETURN,
                              ESF_OFF_XPSR)
from .isa import LR, NUM_GPRS, PC, Instr, finalize

SEQ_OPTIMAL = "optimal"
SEQ_NAIVE = "naive"

SSP_REG_OFF = DWT_GROUP_STRIDE                   # offset of COMP1 from COMP0
FUNCTION0_OFF = DWT_FUNCTION_OFF
DEMCR_ADDR = 0xE000EDFC

# Shadow frame layout for exception handlers, ascending from the entry ssp.
HANDLER_SHADOW_WORDS = 5  # xPSR, return address, lr, r12, EXC_RETURN
HANDLER_ESF_OFFSETS = (ESF_OFF_XPSR, ESF_OFF_RETURN, ESF_OFF_LR, ESF_OFF_R12)

# Cycle attribution categories (phase "pro"/"epi"):
T_AW = "AW"         # arming/disarming the watchpoint (FUNCTION0, guard)
T_USS = "USS"       # moving return-address data
T_ASSP = "ASSP"     # shadow stack pointer loads, stores, arithmetic
T_OTHER = "Other"   # scratch spills and base-address materialization

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
    text: str

    def plan_for(self, name: str) -> InstrumentationPlan:
        for plan in self.plans:
            if plan.function == name:
                return plan
        raise KeyError(name)


# -- analysis -------------------------------------------------------------

def instr_gprs(ins: Instr) -> set[int]:
    """General-purpose registers (r0-r12) this instruction mentions."""
    regs = set()
    for r in (ins.rd, ins.rn, ins.rm):
        if r is not None and r < NUM_GPRS:
            regs.add(r)
    for r in ins.reglist:
        if r < NUM_GPRS:
            regs.add(r)
    return regs


def analyze_free_gprs(func: AsmFunction) -> set[int]:
    """GPRs that appear in no instruction of the function body."""
    used: set[int] = set()
    for ins in func.body:
        used |= instr_gprs(ins)
    return set(range(NUM_GPRS)) - used


def _select_scratches(func: AsmFunction, count: int,
                      handler: bool) -> tuple[list[int], list[int]]:
    """Pick scratch registers; returns (scratches, reserved-subset).

    Free registers are used without spilling.  In handlers only the
    hardware-restored set may be clobbered freely; anything else must be
    pushed and popped even if the body never touches it, because the
    interrupted thread still owns its value.
    """
    free = analyze_free_gprs(func)
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
    return sorted(picked + reserved), sorted(reserved)


# -- instruction builders ---------------------------------------------------

def _i(op: str, *, tag=None, role=None, **kw) -> Instr:
    ins = Instr(op, **kw)
    ins.tag = tag
    ins.role = role
    return finalize(ins)


def _load_addr(rd: int, addr: int, phase: str, cat: str, role=None) -> list[Instr]:
    return [
        _i("movw", rd=rd, imm=addr & 0xFFFF, tag=(phase, cat), role=role),
        _i("movt", rd=rd, imm=(addr >> 16) & 0xFFFF, tag=(phase, cat), role=role),
    ]


class _Rewriter:
    def __init__(self, func: AsmFunction, config: ShadowStackConfig,
                 label_seq: "_LabelSeq") -> None:
        self.func = func
        self.config = config
        self.labels = label_seq
        self.comp_base = DWT_COMP_BASE

    # -- normal function blocks -------------------------------------------

    def prologue(self, scratches, reserved) -> list[Instr]:
        work, base = scratches[0], scratches[-1]
        naive = self.config.sequence == SEQ_NAIVE
        out: list[Instr] = []
        if reserved:
            out.append(_i("push", reglist=tuple(reserved),
                          tag=("pro", T_OTHER), role="access"))
        out += _load_addr(base, self.comp_base, "pro", T_OTHER, role="access")
        if naive:
            sspa = scratches[1]
            out += _load_addr(sspa, DWT_COMP1, "pro", T_ASSP, role="access")
        out += [
            _i("mov_imm", rd=work, imm=0, wide=True, tag=("pro", T_AW)),
            _i("str", rd=work, rn=base, imm=FUNCTION0_OFF, wide=True,
               tag=("pro", T_AW)),
        ]
        if naive:
            out.append(_i("ldr", rd=work, rn=sspa, imm=0, wide=True,
                          tag=("pro", T_ASSP)))
        else:
            out.append(_i("ldr", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
                          tag=("pro", T_ASSP), role="access"))
        out += [
            _i("str", rd=LR, rn=work, imm=0, wide=True, tag=("pro", T_USS)),
            _i("addw", rd=work, rn=work, imm=4, tag=("pro", T_ASSP)),
        ]
        if naive:
            out.append(_i("str", rd=work, rn=sspa, imm=0, wide=True,
                          tag=("pro", T_ASSP), role="access"))
        else:
            out.append(_i("str", rd=work, rn=base, imm=SSP_REG_OFF, wide=True,
                          tag=("pro", T_ASSP), role="access"))
        out += [
            _i("mov_imm", rd=work, imm=FN_WRITE, wide=True, tag=("pro", T_AW)),
            _i("str", rd=work, rn=base, imm=FUNCTION0_OFF, wide=True,
               tag=("pro", T_AW)),
        ]
        if reserved:
            out.append(_i("pop", reglist=tuple(reserved),
                          tag=("pro", T_OTHER), role="access"))
        return out

    def epilogue_core(self, work: int, work_reserved: bool) -> list[Instr]:
        """Restore lr from the shadow stack; ends ready for ``bx lr``.

        lr itself doubles as the pointer-register address so only one
        scratch is needed; the ssp writeback therefore happens before the
        return address overwrites lr.
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
        return out

    # -- handler blocks ------------------------------------------------------

    def _guard(self, val: int, skip_label: str, phase: str) -> list[Instr]:
        # Skip the shadow traffic entirely when protection was never
        # initialized (DEMCR monitor enable still zero).
        return _load_addr(val, DEMCR_ADDR, phase, T_AW) + [
            _i("ldr", rd=val, rn=val, imm=0, wide=True, tag=(phase, T_AW)),
            _i("cmp_imm", rn=val, imm=0, tag=(phase, T_AW)),
            _i("bcond", cond="eq", label=skip_label, tag=(phase, T_AW)),
        ]

    def handler_prologue(self, scratches, reserved) -> list[Instr]:
        val, work, base = scratches[0], scratches[1], scratches[-1]
        skip = self.labels.make("pro_skip", self.func.name)
        k = 4 * len(reserved)
        out: list[Instr] = []
        if reserved:
            out.append(_i("push", reglist=tuple(reserved), tag=("pro", T_OTHER)))
        out += self._guard(val, skip, "pro")
        out += _load_addr(base, self.comp_base, "pro", T_OTHER)
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
        self._attach_pending = skip
        if reserved:
            pop = _i("pop", reglist=tuple(reserved), tag=("pro", T_OTHER))
            pop.labels = (skip,)
            out.append(pop)
            self._attach_pending = None
        return out

    def handler_epilogue(self, scratches, reserved, site: int) -> list[Instr]:
        val, work, base = scratches[0], scratches[1], scratches[-1]
        skip = self.labels.make("epi%d_skip" % site, self.func.name)
        k = 4 * len(reserved)
        out: list[Instr] = []
        if reserved:
            out.append(_i("push", reglist=tuple(reserved), tag=("epi", T_OTHER)))
        out += self._guard(val, skip, "epi")
        out += _load_addr(base, self.comp_base, "epi", T_OTHER)
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
        tail = _i("pop", reglist=tuple(reserved), tag=("epi", T_OTHER)) \
            if reserved else _i("bx", rm=LR, tag=("epi", T_USS))
        tail.labels = (skip,)
        out.append(tail)
        if reserved:
            out.append(_i("bx", rm=LR, tag=("epi", T_USS)))
        return out


class _LabelSeq:
    """Generator of collision-free internal labels."""

    def __init__(self, taken: set[str]) -> None:
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
    """Rewrite one function.  Raises InstrumentError on unsupported shapes."""
    plan = InstrumentationPlan(func.name, func.kind, config.sequence)
    if func.kind == FUNC_HAL:
        plan.skipped = True
        return func, plan

    handler = func.kind == FUNC_HANDLER
    for ins in func.body:
        if ins.op == "bx" and ins.rm != LR:
            raise InstrumentError(
                func.name, "computed return through %s is unsupported"
                % ("r%d" % ins.rm))

    if handler:
        count = 3
    else:
        count = 3 if config.sequence == SEQ_NAIVE else 2
    scratches, reserved = _select_scratches(func, count, handler)
    free = analyze_free_gprs(func)
    plan.free_gprs = tuple(sorted(free))
    plan.scratch_gprs = tuple(scratches)
    plan.reserved_gprs = tuple(reserved)

    rw = _Rewriter(func, config, label_seq)
    if handler:
        pro = rw.handler_prologue(scratches, reserved)
    else:
        pro = rw.prologue(scratches, reserved)
        plan.access_block = tuple(
            format_instr(i) for i in pro if i.role == "access")
    plan.inserted_prologue = tuple(format_instr(i) for i in pro)

    body: list[Instr] = list(pro)
    sites = 0
    work = scratches[0] if not handler else None
    work_reserved = (not handler) and scratches[0] in reserved
    pending_attach: str | None = getattr(rw, "_attach_pending", None)

    for ins in func.body:
        copy = ins.copy()
        if pending_attach is not None:
            copy.labels = (pending_attach,) + copy.labels
            pending_attach = None
        if copy.op == "pop" and PC in copy.reglist:
            sites += 1
            rest = tuple(r for r in copy.reglist if r != PC)
            block: list[Instr] = []
            if handler:
                conv = _i("pop", reglist=rest) if rest else None
                poplr = _i("pop", reglist=(LR,), tag=("epi", T_USS))
                if conv is not None:
                    conv.labels = copy.labels
                    conv.conv_extra = copy.cycles - conv.cycles
                    block.append(conv)
                else:
                    poplr.labels = copy.labels
                    poplr.conv_extra = copy.cycles
                block.append(poplr)
                block += rw.handler_epilogue(scratches, reserved, sites)
            else:
                conv = _i("pop", reglist=rest) if rest else None
                disc = _i("add_sp", imm=4, tag=("epi", T_OTHER))
                if conv is not None:
                    conv.labels = copy.labels
                    conv.conv_extra = copy.cycles - conv.cycles
                    block += [conv, disc]
                else:
                    disc.labels = copy.labels
                    disc.conv_extra = copy.cycles
                    block.append(disc)
                block += rw.epilogue_core(work, work_reserved)
                block.append(_i("bx", rm=LR, tag=("epi", T_USS)))
            body += block
            if sites == 1:
                plan.inserted_epilogue = tuple(format_instr(i)
                                               for i in block)
        elif copy.op == "bx" and copy.rm == LR:
            sites += 1
            block = []
            if handler:
                block += rw.handler_epilogue(scratches, reserved, sites)
            else:
                block += rw.epilogue_core(work, work_reserved)
                block.append(_i("bx", rm=LR, tag=("epi", T_USS)))
            block[0].labels = copy.labels + block[0].labels
            block[-1].conv_extra = copy.cycles
            body += block
            if sites == 1:
                plan.inserted_epilogue = tuple(format_instr(i)
                                               for i in block)
        else:
            body.append(copy)

    if pending_attach is not None:
        raise InstrumentError(func.name, "handler has an empty body")

    plan.epilogue_sites = sites
    new = AsmFunction(func.name, func.kind, body, labels=func.labels,
                      line=func.line)
    plan.size_delta_bytes = new.size_bytes() - func.size_bytes()
    return new, plan


def instrument_program(prog: AsmProgram,
                       config: ShadowStackConfig) -> InstrumentResult:
    """Rewrite every instrumentable function; atomic on failure.

    The input program is not modified.  The result carries a freshly
    laid-out program, one plan per function, and the canonical rewritten
    source text.
    """
    label_seq = _LabelSeq(set(prog.labels))
    plans: list[InstrumentationPlan] = []
    replacements: dict[str, AsmFunction] = {}
    for item in prog.items:
        if isinstance(item, AsmFunction):
            new_fn, plan = instrument_function(item, config, label_seq)
            plans.append(plan)
            replacements[item.name] = new_fn

    out = AsmProgram()
    for item in prog.items:
        if isinstance(item, AsmFunction):
            fn = replacements[item.name]
            out.items.append(fn)
            out.functions[fn.name] = fn
        else:
            out.items.append(dataclasses.replace(item))
    layout(out)
    return InstrumentResult(out, plans, print_program(out))
