"""Command line front end.

Subcommands: asm (assemble and print), instrument (rewrite prologues
and epilogues), run (execute, optionally protected), bench (overhead
measurements against an uninstrumented baseline).

Exit codes: 0 success, 1 bad usage or assembly/instrumentation error,
2 runtime fault (undefined fetch, invalid access, shadow overflow,
step budget), 3 protection violation halted under the reset policy.

Output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .asm import AsmError, listing, parse, print_program
from .exception_model import EXC_BY_NAME
from .harness import microbenchmark_program
from .instrument import (InstrumentError, SEQ_NAIVE, SEQ_OPTIMAL,
                         ShadowStackConfig, instrument_program)
from .machine import HaltReason
from .protect import POLICY_REPORT, POLICY_RESET
from .runner import RunConfig, RunResult, build_machine, run_machine
from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAULT = 2
EXIT_VIOLATION = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for faults
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_arg(text: str) -> int:
    return int(text, 0)


def _steps_arg(text: str) -> int:
    steps = int(text, 0)
    if steps < 0:
        raise argparse.ArgumentTypeError(
            "expected a step count >= 0, got %r" % text)
    return steps


def _add_shadow_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ss-start", type=_int_arg, default=None,
                   metavar="ADDR", help="shadow stack base address")
    p.add_argument("--ss-size-log2", type=_int_arg, default=None,
                   metavar="N", help="log2 of the shadow region size")
    p.add_argument("--sequence", choices=(SEQ_OPTIMAL, SEQ_NAIVE),
                   default=SEQ_OPTIMAL,
                   help="instrumentation flavor (default optimal)")


def _shadow_config(args) -> ShadowStackConfig:
    kw = {"sequence": args.sequence}
    if args.ss_start is not None:
        kw["ss_start"] = args.ss_start
    if args.ss_size_log2 is not None:
        kw["ss_size_log2"] = args.ss_size_log2
    try:
        return ShadowStackConfig(**kw)
    except ValueError as exc:  # a region the comparator cannot express
        raise CliError(str(exc)) from None


def _run(prog, cfg: RunConfig) -> RunResult:
    try:
        m = build_machine(prog, cfg)
    except ValueError as exc:  # a handler named after no known exception
        raise CliError(str(exc)) from None
    return run_machine(m, cfg)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_raise(spec: str) -> tuple[int, int]:
    # "systick@120" or "15@120"
    try:
        name, at = spec.split("@", 1)
        step = _steps_arg(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected NAME@STEP or NUM@STEP, got %r" % spec)
    key = name.strip().lower()
    if key in EXC_BY_NAME:
        return EXC_BY_NAME[key], step
    try:
        return int(key, 0), step
    except ValueError:
        raise argparse.ArgumentTypeError("unknown exception %r" % name)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="watchstack",
                  description="shadow stack protection sandbox")
    top.add_argument("--version", action="version",
                     version="watchstack %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble and print canonically")
    p_asm.add_argument("input")
    p_asm.add_argument("-o", "--output", default=None)
    p_asm.add_argument("--listing", action="store_true",
                       help="print addresses, encodings widths, cycles")

    p_ins = sub.add_parser("instrument", help="insert shadow stack code")
    p_ins.add_argument("input")
    p_ins.add_argument("-o", "--output", default=None)
    p_ins.add_argument("--plan", default=None, metavar="JSON",
                       help="write per-function plan records")
    _add_shadow_args(p_ins)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("input")
    p_run.add_argument("--instrument", action="store_true",
                       help="instrument before running")
    p_run.add_argument("--protected", action="store_true",
                       help="arm write protection at reset")
    p_run.add_argument("--policy", choices=(POLICY_RESET, POLICY_REPORT),
                       default=POLICY_RESET)
    p_run.add_argument("--max-steps", type=_steps_arg, default=None,
                       metavar="N")
    p_run.add_argument("--raise", dest="raises", action="append",
                       type=_parse_raise, default=[], metavar="EXC@STEP",
                       help="inject an exception at a step count")
    p_run.add_argument("--report", default=None, metavar="JSON")
    _add_shadow_args(p_run)

    p_bench = sub.add_parser(
        "bench", help="overhead report (built-in microbenchmark by default)")
    p_bench.add_argument("input", nargs="?", default=None)
    p_bench.add_argument("--report", default=None, metavar="JSON")
    _add_shadow_args(p_bench)
    return top


def cmd_asm(args) -> int:
    prog = parse(_read_source(args.input))
    _write_out(args.output, listing(prog) if args.listing
               else print_program(prog))
    return EXIT_OK


def cmd_instrument(args) -> int:
    prog = parse(_read_source(args.input))
    result = instrument_program(prog, _shadow_config(args))
    _write_out(args.output, result.text)
    if args.plan:
        plans = [p.to_dict() for p in result.plans]
        with open(args.plan, "w", encoding="utf-8") as fh:
            json.dump(plans, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _halt_name(reason: HaltReason | None) -> str:
    return reason.name.lower() if reason is not None else "step-budget"


def _exit_code(run: RunResult) -> int:
    if run.halt_reason == HaltReason.RESET and run.violations:
        return EXIT_VIOLATION
    if run.halt_reason in (HaltReason.FAULT, HaltReason.STACK_OVERFLOW):
        return EXIT_FAULT
    if run.halt_reason is None:  # step budget exhausted
        return EXIT_FAULT
    return EXIT_OK


def _run_lines(run: RunResult) -> list[str]:
    lines = [
        "outcome=%s" % run.outcome,
        "halt=%s" % _halt_name(run.halt_reason),
        "steps=%d" % run.steps,
        "cycles=%d" % run.cycles,
        "pc=0x%08x" % run.machine.pc,
        "violations=%d" % len(run.violations),
    ]
    for cat in sorted(run.tagged_cycles):
        lines.append("tagged.%s=%d" % (cat, run.tagged_cycles[cat]))
    for v in run.violations[:8]:
        lines.append("violation=pc:0x%08x,addr:0x%08x,step:%d"
                     % (v.pc, v.data_address, v.step_index))
    return lines


def _report_dict(run: RunResult, args, code: int) -> dict:
    m = run.machine
    return {
        "input": args.input,
        "protected": bool(args.protected),
        "policy": args.policy,
        "sequence": args.sequence,
        "outcome": run.outcome,
        "halt_reason": _halt_name(run.halt_reason),
        "exit_code": code,
        "steps": run.steps,
        "cycles": run.cycles,
        "tagged_cycles": dict(run.tagged_cycles),
        "phase_cycles": {ph: dict(cats)
                         for ph, cats in run.phase_cycles.items()},
        "conversion_extra": run.conv_extra,
        "violations": [v.to_dict() for v in run.violations],
        "registers": {("r%d" % i): m.gpr[i] for i in range(13)}
        | {"sp": m.sp, "lr": m.lr, "pc": m.pc, "xpsr": m.xpsr},
    }


def cmd_run(args) -> int:
    shadow = _shadow_config(args)
    prog = parse(_read_source(args.input))
    if args.instrument:
        prog = instrument_program(prog, shadow).program
    cfg = RunConfig(protected=args.protected, policy=args.policy,
                    shadow=shadow, raises=tuple(args.raises))
    if args.max_steps is not None:
        cfg.max_steps = args.max_steps
    run = _run(prog, cfg)
    code = _exit_code(run)
    print("\n".join(_run_lines(run)))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(_report_dict(run, args, code), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return code


def _code_bytes(prog) -> int:
    return sum(f.size_bytes() for f in prog.functions.values())


def _bench_one(text: str, shadow: ShadowStackConfig) -> dict:
    base_prog = parse(text)
    base = _run(base_prog, RunConfig(protected=False, shadow=shadow))
    inst_prog = instrument_program(base_prog, shadow).program
    prot = _run(inst_prog, RunConfig(protected=True, shadow=shadow))
    if base.halt_reason != HaltReason.NORMAL:
        raise CliError("baseline run did not halt normally (%s)"
                       % _halt_name(base.halt_reason))
    if prot.halt_reason != HaltReason.NORMAL:
        raise CliError("protected run did not halt normally (%s)"
                       % _halt_name(prot.halt_reason))
    bb, ib = _code_bytes(base_prog), _code_bytes(inst_prog)
    tagged = prot.tagged_total
    out = {
        "baseline_cycles": base.cycles,
        "protected_cycles": prot.cycles,
        "runtime_overhead_pct": 100.0 * (prot.cycles - base.cycles)
        / base.cycles,
        "baseline_code_bytes": bb,
        "instrumented_code_bytes": ib,
        "size_overhead_pct": 100.0 * (ib - bb) / bb,
        "tagged_cycles": dict(prot.tagged_cycles),
        "phase_cycles": {ph: dict(cats)
                         for ph, cats in prot.phase_cycles.items()},
        "conversion_extra": prot.conv_extra,
        "derived_baseline_cycles": prot.cycles - tagged + prot.conv_extra,
    }
    return out


def cmd_bench(args) -> int:
    text = (_read_source(args.input) if args.input
            else microbenchmark_program())
    report = {}
    shadow = _shadow_config(args)
    for seq in (SEQ_OPTIMAL, SEQ_NAIVE):
        report[seq] = _bench_one(text,
                                 dataclasses.replace(shadow, sequence=seq))
    lines = []
    for seq in (SEQ_OPTIMAL, SEQ_NAIVE):
        r = report[seq]
        lines.append("%s.baseline.cycles=%d" % (seq, r["baseline_cycles"]))
        lines.append("%s.protected.cycles=%d" % (seq, r["protected_cycles"]))
        lines.append("%s.runtime_overhead_pct=%.2f"
                     % (seq, r["runtime_overhead_pct"]))
        lines.append("%s.size_overhead_pct=%.2f"
                     % (seq, r["size_overhead_pct"]))
        for ph in sorted(r["phase_cycles"]):
            cats = r["phase_cycles"][ph]
            total = sum(cats.values())
            lines.append("%s.%s.cycles=%d" % (seq, ph, total))
            for cat in sorted(cats):
                share = 100.0 * cats[cat] / total if total else 0.0
                lines.append("%s.%s.%s=%d (%.2f%%)"
                             % (seq, ph, cat, cats[cat], share))
        lines.append("%s.derived_baseline.cycles=%d"
                     % (seq, r["derived_baseline_cycles"]))
    print("\n".join(lines))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "asm":
            return cmd_asm(args)
        if args.command == "instrument":
            return cmd_instrument(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except (AsmError, InstrumentError, CliError, OSError) as exc:
        print("watchstack: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
