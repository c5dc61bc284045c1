"""Program execution: build a machine from an assembled program and run it.

Exception handlers are bound by naming convention: a ``handler``-kind
function called ``usagefault_handler`` (case-insensitive, ``_handler``
suffix optional) vectors exception 6, and likewise ``svcall``/``svc``,
``debugmonitor``/``debugmon``, and ``systick``.

Outcome classification for a finished run:

* any recorded violation        -> ``ViolationTrapped``
* halt by fault, shadow stack
  overflow, or the step budget  -> ``Fault``
* halt by ``bkpt`` with nonzero
  immediate (hijack marker)     -> ``HijackSucceeded``
* otherwise                     -> ``SafeReturn``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import AsmProgram, parse
from .exception_model import EXC_BY_NAME, EXC_NAMES
from .instrument import ShadowStackConfig
from .machine import HaltReason, Machine
from .protect import (POLICY_RESET, ViolationLog, attach_debug_system,
                      init_write_protection)

DEFAULT_SP = 0x20040000
DEFAULT_MAX_STEPS = 2_000_000

OUTCOME_SAFE = "SafeReturn"
OUTCOME_HIJACK = "HijackSucceeded"
OUTCOME_TRAPPED = "ViolationTrapped"
OUTCOME_FAULT = "Fault"

# Halts that end a run as a fault; None (no halt) is the step budget.
FAULT_HALTS = frozenset((HaltReason.FAULT, HaltReason.STACK_OVERFLOW, None))


@dataclass
class RunConfig:
    protected: bool = False
    policy: str = POLICY_RESET
    shadow: ShadowStackConfig = field(default_factory=ShadowStackConfig)
    max_steps: int = DEFAULT_MAX_STEPS
    raises: tuple[tuple[int, int], ...] = ()  # (exc_id, step index)
    initial_sp: int = DEFAULT_SP
    track_min_sp: bool = False


@dataclass
class RunResult:
    machine: Machine
    program: AsmProgram
    events: list  # the machine's event log, m.events
    steps: int
    cycles: int
    halt_reason: HaltReason | None
    outcome: str
    # The guard's own log, m.guard.records, not a copy (empty without a
    # guard).  It builds each record on read: `violations[0] is
    # violations[0]` is False.
    violations: ViolationLog
    tagged_cycles: dict[str, int]
    phase_cycles: dict[str, dict[str, int]]
    conv_extra: int

    @property
    def tagged_total(self) -> int:
        return sum(self.tagged_cycles.values())


def bind_handlers(m: Machine, prog: AsmProgram) -> None:
    bound: dict[int, str] = {}
    for fn in prog.functions.values():
        if fn.kind != "handler":
            continue
        key = fn.name.lower()
        if key.endswith("_handler"):
            key = key[:-8]
        exc_id = EXC_BY_NAME.get(key)
        if exc_id is None:
            raise ValueError(
                "handler %r does not name a known exception" % fn.name)
        if exc_id in bound:
            raise ValueError("handlers %r and %r both name exception %d (%s)"
                             % (bound[exc_id], fn.name, exc_id,
                                EXC_NAMES[exc_id]))
        bound[exc_id] = fn.name
        m.vector[exc_id] = fn.entry


def build_machine(prog: AsmProgram, cfg: RunConfig) -> Machine:
    m = Machine()
    m.code = dict(prog.code)
    for addr, value in prog.data:
        m.mem.write_word(addr, value)
    m.sp = cfg.initial_sp
    m.pc = prog.entry_address()
    bind_handlers(m, prog)
    attach_debug_system(m)
    if cfg.protected:
        init_write_protection(m, cfg.shadow, cfg.policy)
    if cfg.track_min_sp:
        m.min_sp = m.sp
    return m


def run_machine(m: Machine, cfg: RunConfig) -> RunResult:
    for exc_id, at in sorted(cfg.raises, key=lambda t: t[1]):
        if at >= cfg.max_steps:
            break
        m.run(at)
        if m.halted:
            break
        m.raise_exception(exc_id)
    m.run(cfg.max_steps)  # a machine that has not halted ran out of steps

    violations = m.guard.records if m.guard is not None else ViolationLog()
    if violations:
        outcome = OUTCOME_TRAPPED
    elif m.halt_reason in FAULT_HALTS:
        outcome = OUTCOME_FAULT
    elif m.halt_reason == HaltReason.REPORT:
        outcome = OUTCOME_HIJACK
    else:
        outcome = OUTCOME_SAFE

    tagged, phases, conv_extra = attribute(m)
    return RunResult(
        machine=m,
        program=None,
        events=m.events,
        steps=m.steps,
        cycles=m.cycles,
        halt_reason=m.halt_reason,
        outcome=outcome,
        violations=violations,
        tagged_cycles=tagged,
        phase_cycles=phases,
        conv_extra=conv_extra,
    )


def attribute(m: Machine) -> tuple[dict, dict, int]:
    """Tag cycles, phase cycles and conversion extra of what m ran.

    Each retirement of a tagged instruction charges its cycles to its
    (phase, category) tag, and each taken tagged conditional branch
    charges its extra cycle there too.  The conversion extra sums, per
    retirement, what a rewritten return cost above its replacement.
    """
    taken = m.taken
    tagged, phases, conv_extra = {}, {}, 0
    for at, runs in m.retired.items():
        ins = m.code[at]
        conv_extra += runs * ins.conv_extra
        if ins.tag is not None:
            phase, cat = ins.tag
            cost = runs * ins.cycles + taken.get(at, 0)
            tagged[cat] = tagged.get(cat, 0) + cost
            per = phases.setdefault(phase, {})
            per[cat] = per.get(cat, 0) + cost
    return tagged, phases, conv_extra


def run_program(prog: AsmProgram, cfg: RunConfig | None = None) -> RunResult:
    cfg = cfg or RunConfig()
    m = build_machine(prog, cfg)
    result = run_machine(m, cfg)
    result.program = prog
    return result


def run_source(text: str, cfg: RunConfig | None = None) -> RunResult:
    return run_program(parse(text), cfg)
