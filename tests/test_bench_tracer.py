"""The benchmark's tracer still finds and restores every patch point.

``bench/tracer.py`` wraps package functions and methods by name.  A
rename in the package would otherwise only show when the benchmark
runs; here it fails the test suite.
"""

import types
from pathlib import Path

from programs import run_recursion
from watchstack.asm import parse
from watchstack.harness import sweep_program
from watchstack.instrument import ShadowStackConfig
from watchstack.machine import EV_EXC_ENTERED, EV_EXC_RETURNED
from watchstack.protect import POLICY_REPORT
from watchstack.runner import OUTCOME_SAFE, RunConfig, run_program, run_source

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer_module():
    # Compiled from source, so nothing (not even a bytecode cache) is
    # written under bench/.
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _accesses(run) -> int:
    """Data accesses of a run without exceptions, from what it retired:
    one per load or store, one per register a push or pop lists."""
    assert not [ev for ev in run.events if ev.kind != "halted"]
    code = run.machine.code
    total = 0
    for at, n in run.machine.retired.items():
        ins = code[at]
        if ins.op in ("push", "pop"):
            total += n * len(ins.reglist)
        elif ins.op in ("ldr", "str", "ldrb", "strb"):
            total += n
    return total


def test_tracer_counts_a_protected_run_and_restores_every_patch():
    tracer = _load_tracer_module().Tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracer._patches]
    shadow = ShadowStackConfig()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
        run = run_recursion(4)
        # The guard runs only on comparator hits, and the recursion has
        # none: four byte stores across the shadow region's low edge
        # give it two.
        sweep = run_program(
            parse(sweep_program(shadow.ss_start - 2, shadow.ss_start + 2)),
            RunConfig(protected=True, policy=POLICY_REPORT, shadow=shadow))
    finally:
        tracer.uninstall()
    assert run.outcome == OUTCOME_SAFE
    assert len(sweep.violations) == 2
    for layer in ("machine.access", "protect.guard", "dwt.match_access",
                  "dwt.mmio", "runner.build_machine", "runner.run_machine"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.calls["machine.access"] == _accesses(run) + _accesses(sweep)
    assert tracer.calls["protect.guard"] == len(sweep.violations)
    assert tracer.calls["dwt.match_access"] == len(sweep.violations)
    assert tracer.counts["sim.cycles"] == run.cycles + sweep.cycles
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


UDF_SVC_SYSTICK = """\
.org 0x08000000
.func main hal
    udf #0
    svc #1
    bkpt #0
.endfunc
.func usagefault_handler handler
    bx lr
.endfunc
.func svcall_handler handler
    bx lr
.endfunc
.func systick_handler handler
    bx lr
.endfunc
"""


def test_every_traced_exception_entry_and_return_is_logged():
    """The tracer counts calls of the exception model; the run's event
    log must hold one entry or return for each of them."""
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        run = run_source(UDF_SVC_SYSTICK, RunConfig(raises=((15, 2),)))
    finally:
        tracer.uninstall()
    assert run.outcome == OUTCOME_SAFE
    kinds = [ev.kind for ev in run.events]
    assert tracer.calls["exception_model.enter"] == kinds.count(EV_EXC_ENTERED)
    assert tracer.calls["exception_model.return"] == kinds.count(
        EV_EXC_RETURNED)
    assert [ev.exc_id for ev in run.events if ev.kind == EV_EXC_ENTERED] == [
        6, 15, 11]
