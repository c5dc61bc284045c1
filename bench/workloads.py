"""The three benchmark workloads: inputs, one op each, and the op's checks.

Each workload builds its inputs from the seed alone and hands the
program only generated assembly source.  ``run_op`` is the timed part;
``check`` runs afterwards, untimed, and compares the op's outputs with
references derived by hand (closed forms) or, for the corpus, with the
transparency properties of acceptance 09.

Calls into the package go through module attributes (``asm.parse``,
``runner.build_machine``, ...) so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

from watchstack import asm, harness, instrument, runner
from watchstack.machine import HaltReason
from watchstack.protect import POLICY_REPORT, POLICY_RESET

SHADOW = instrument.ShadowStackConfig()
SYSTICK = 15

# The benign programs keep their results in slots above
# harness.SCRATCH_BASE; the SysTick handler owns COUNTER_ADDR, past them.
COUNTER_ADDR = 0x20011000
INITIAL_SP = runner.DEFAULT_SP


def _halves(addr: int) -> tuple[int, int]:
    return addr & 0xFFFF, (addr >> 16) & 0xFFFF


# -- inputs ----------------------------------------------------------------------
#
# The fixed programs and the benign call trees come from the package's
# harness generators; the closed-form checks below fail if the fixed
# programs change.

def benign_source(rng: random.Random, n_funcs: int) -> str:
    """Acceptance-09 benign call tree plus an instrumented SysTick handler.

    The handler increments the word at COUNTER_ADDR and touches nothing
    else that survives the exception return.
    """
    cnt = _halves(COUNTER_ADDR)
    return harness.make_benign_program(rng, n_funcs) + "\n".join([
        ".func systick_handler handler",
        "    push {r7, lr}",
        "    movw r7, #0x%04x" % cnt[0],
        "    movt r7, #0x%04x" % cnt[1],
        "    ldr r1, [r7]",
        "    addw r1, r1, #1",
        "    str r1, [r7]",
        "    pop {r7, pc}",
        ".endfunc"]) + "\n"


def _regs(m) -> list[int]:
    return [m.read_reg(r) for r in range(13)]


def _comp1(m) -> int:
    return m.dwt.groups[1].comp


class Workload:
    """Defaults for a workload whose ops have no known defect.

    ``op_s`` is the wall time of one op with its check on the machine the
    benchmark was written on; it only sets how many ops a run makes.
    """

    op_s: float

    def known_defect(self, item, out) -> bool:
        return False

    def modelled_metrics(self) -> dict:
        return {}


class FixedProgram(Workload):
    """One op builds a machine for a fixed program and runs it."""

    program: object
    cfg: runner.RunConfig

    def run_op(self, item):
        m = runner.build_machine(self.program, self.cfg)
        return runner.run_machine(m, self.cfg)

    @staticmethod
    def steps(out) -> int:
        return out.steps


# -- recursion-protected -----------------------------------------------------------

class RecursionProtected(FixedProgram):
    """Protected recursion that fills the shadow stack, reset policy.

    The longest protected run the kit has (acceptance 05): about 0.46
    hooked data accesses per step, every one missing every comparator,
    plus 6 watchpoint-register accesses per call.
    """

    name = "recursion-protected"
    op_s = 0.7
    depth = SHADOW.capacity

    def __init__(self, seed: int) -> None:
        # The input is fixed by design; the seed selects nothing here.
        plain = asm.parse(harness.recursion_program(self.depth))
        self.program = instrument.instrument_program(plain, SHADOW).program
        self.cfg = runner.RunConfig(protected=True, policy=POLICY_RESET,
                                    shadow=SHADOW, max_steps=2_000_000)
        self.items = [self.depth]

    def check(self, item, run) -> list[str]:
        d = item
        want_tags = {"Other": 3 * d, "AW": 6 * d, "ASSP": 12 * d,
                     "USS": 6 * d}
        problems = []
        if run.steps != 24 * d + 1:
            problems.append("steps=%d want %d" % (run.steps, 24 * d + 1))
        if run.cycles != 38 * d + 2:
            problems.append("cycles=%d want %d" % (run.cycles, 38 * d + 2))
        if run.tagged_cycles != want_tags:
            problems.append("tagged=%r" % run.tagged_cycles)
        if run.outcome != runner.OUTCOME_SAFE:
            problems.append("outcome=%s" % run.outcome)
        if run.halt_reason != HaltReason.NORMAL:
            problems.append("halt=%s" % run.halt_reason)
        if _comp1(run.machine) != SHADOW.ss_start:
            problems.append("comp1=0x%08x" % _comp1(run.machine))
        if run.violations:
            problems.append("violations=%d" % len(run.violations))
        return problems


# -- sweep-report ------------------------------------------------------------------

class SweepReport(FixedProgram):
    """Byte-store sweep over the shadow region and 1 KiB either side.

    Same run loop as the recursion, but 32,768 of the 34,816 stores hit
    comparator 0, and under the report policy every hit leaves a
    violation record and an event behind.
    """

    name = "sweep-report"
    op_s = 0.4
    margin = 1024

    def __init__(self, seed: int) -> None:
        # The input is fixed by design; the seed selects nothing here.
        self.lo = SHADOW.ss_start - self.margin
        self.hi = SHADOW.ss_limit + self.margin
        self.program = asm.parse(harness.sweep_program(self.lo, self.hi))
        self.cfg = runner.RunConfig(protected=True, policy=POLICY_REPORT,
                                    shadow=SHADOW,
                                    max_steps=6 * (self.hi - self.lo) + 1000)
        self.items = [self.hi - self.lo]

    def check(self, item, run) -> list[str]:
        n = item
        problems = []
        if run.steps != 4 * n + 6:
            problems.append("steps=%d want %d" % (run.steps, 4 * n + 6))
        if run.cycles != 6 * n + 5:
            problems.append("cycles=%d want %d" % (run.cycles, 6 * n + 5))
        if run.halt_reason != HaltReason.NORMAL:
            problems.append("halt=%s" % run.halt_reason)
        hit = [v.data_address for v in run.violations]
        if (len(hit) != SHADOW.ss_size
                or set(hit) != set(range(SHADOW.ss_start, SHADOW.ss_limit))):
            problems.append("violations=%d not the interior" % len(hit))
        mem = run.machine.mem
        margins = (mem.read_region(self.lo, self.margin)
                   + mem.read_region(SHADOW.ss_limit, self.margin))
        if margins != b"\x5a" * (2 * self.margin):
            problems.append("margin bytes not all 0x5a")
        if mem.read_region(SHADOW.ss_start, SHADOW.ss_size) != bytes(SHADOW.ss_size):
            problems.append("shadow interior written")
        return problems


# -- corpus ------------------------------------------------------------------------

@dataclass
class CorpusItem:
    index: int
    source: str
    raise_u: float  # SysTick position as a fraction of the protected run


@dataclass
class CorpusOut:
    program: object
    instrumented: object
    plain: object
    protected: object
    interrupted: object
    raise_step: int


_EXCLUDED_REGIONS = ((SHADOW.ss_start, SHADOW.ss_limit),
                     (0xE0000000, 1 << 32))


class Corpus(Workload):
    """Seeded benign programs through the whole toolchain, one per op.

    An op assembles, instruments, runs plain, runs protected, and runs
    protected again with one SysTick raised at a step drawn uniformly
    over the whole protected run.  The draw is not steered away from
    instrumented prologues and epilogues: an interrupt there hits a
    known defect, and those ops fail their checks.
    """

    name = "corpus"
    op_s = 0.0075
    size = 1000

    def __init__(self, seed: int) -> None:
        draws = random.Random(seed)
        self.items = []
        for i in range(self.size):
            rng = random.Random(seed * self.size + i)
            text = benign_source(rng, n_funcs=rng.randint(4, 12))
            self.items.append(CorpusItem(i, text, draws.random()))
        # index -> (protected / plain cycles, instrumented / plain bytes)
        self.ratios: dict[int, tuple[float, float]] = {}

    def run_op(self, item: CorpusItem) -> CorpusOut:
        prog = asm.parse(item.source)
        inst = instrument.instrument_program(prog, SHADOW)
        plain_cfg = runner.RunConfig(max_steps=400_000, track_min_sp=True)
        plain = runner.run_machine(runner.build_machine(prog, plain_cfg),
                                   plain_cfg)
        prot_cfg = runner.RunConfig(protected=True, shadow=SHADOW,
                                    max_steps=800_000, track_min_sp=True)
        prot = runner.run_machine(
            runner.build_machine(inst.program, prot_cfg), prot_cfg)
        at = int(item.raise_u * prot.steps)
        intr_cfg = runner.RunConfig(protected=True, shadow=SHADOW,
                                    max_steps=800_000,
                                    raises=((SYSTICK, at),))
        intr = runner.run_machine(
            runner.build_machine(inst.program, intr_cfg), intr_cfg)
        return CorpusOut(prog, inst, plain, prot, intr, at)

    @staticmethod
    def steps(out: CorpusOut) -> int:
        return out.plain.steps + out.protected.steps + out.interrupted.steps

    def check(self, item, out: CorpusOut) -> list[str]:
        self.ratios[item.index] = (
            out.protected.cycles / out.plain.cycles,
            out.instrumented.program.code_size / out.program.code_size)
        return (self.check_transparency(out)
                + self.check_interrupted(out))

    def known_defect(self, item, out: CorpusOut) -> bool:
        """The interrupt-window defect: only the interrupted run failed,
        and SysTick was taken inside a shadow push or pop.

        In a prologue the window is the four instructions from the
        shadow-pointer load to its writeback (the ASSP- and USS-tagged
        ``ldr ssp``, ``str lr``, ``addw``, ``str ssp``); in an epilogue it
        is the load of the return address after the shadow pointer was
        written back.  Raising SysTick at every step of 40 corpus
        programs failed the run at every one of these instructions and
        at no other, so a failure anywhere else is a new defect.
        """
        if self.check_transparency(out) or not self.check_interrupted(out):
            return False
        cfg = runner.RunConfig(protected=True, shadow=SHADOW)
        m = runner.build_machine(out.instrumented.program, cfg)
        while m.steps < out.raise_step and not m.halted:
            m.step()
        ins = m.code.get(m.pc)
        if ins is None or ins.tag is None:
            return False
        phase, cat = ins.tag
        if phase == "pro":
            return cat in (instrument.T_ASSP, instrument.T_USS)
        return cat == instrument.T_USS and ins.op == "ldr"

    def modelled_metrics(self) -> dict:
        """Exact overheads of the modelled design over the checked programs."""
        if not self.ratios:
            return {}
        cyc, size = zip(*self.ratios.values())

        def pct(ratios):
            return (math.exp(statistics.fmean(map(math.log, ratios))) - 1) * 100

        return {"sim_runtime_overhead_pct": (pct(cyc), "%"),
                "sim_code_size_overhead_pct": (pct(size), "%")}

    @staticmethod
    def check_transparency(out: CorpusOut) -> list[str]:
        """Acceptance-09 properties of the uninterrupted protected run."""
        plain, prot = out.plain, out.protected
        problems = []
        if plain.halt_reason != HaltReason.NORMAL:
            problems.append("plain halt=%s" % plain.halt_reason)
        if prot.halt_reason != HaltReason.NORMAL:
            problems.append("protected halt=%s" % prot.halt_reason)
        if problems:
            return problems
        if _regs(plain.machine) != _regs(prot.machine):
            problems.append("protected registers differ from plain")
        # The instrumented run spills scratch registers below the final
        # frames, so the dead stack differs by construction.
        residue = (min(plain.machine.min_sp, prot.machine.min_sp), INITIAL_SP)
        for addr in plain.machine.mem.diff(prot.machine.mem):
            if not any(lo <= addr < hi
                       for lo, hi in _EXCLUDED_REGIONS + (residue,)):
                problems.append("memory differs at 0x%08x" % addr)
                break
        if _comp1(prot.machine) != SHADOW.ss_start:
            problems.append("protected comp1=0x%08x" % _comp1(prot.machine))
        if prot.cycles + prot.conv_extra - prot.tagged_total != plain.cycles:
            problems.append("cycle identity")
        return problems

    @staticmethod
    def check_interrupted(out: CorpusOut) -> list[str]:
        """One SysTick must leave no trace but the handler's counter."""
        intr, prot = out.interrupted, out.protected
        problems = []
        if intr.halt_reason != HaltReason.NORMAL:
            problems.append("interrupted halt=%s outcome=%s"
                            % (intr.halt_reason, intr.outcome))
            return problems
        if intr.violations:
            problems.append("interrupted violations=%d" % len(intr.violations))
        counter = intr.machine.mem.read_word(COUNTER_ADDR)
        if counter != 1:
            problems.append("counter=%d" % counter)
        if _regs(intr.machine) != _regs(prot.machine):
            problems.append("interrupted registers differ")
        if _comp1(intr.machine) != _comp1(prot.machine):
            problems.append("interrupted comp1=0x%08x" % _comp1(intr.machine))
        return problems


WORKLOADS = {w.name: w for w in (RecursionProtected, SweepReport, Corpus)}
