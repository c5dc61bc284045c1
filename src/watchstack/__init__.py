"""watchstack: shadow stack protection built on data watchpoints.

A deterministic little Thumb-style machine with a watchpoint unit, an
assembler for a small instruction subset, an instrumentation pass that
rewrites prologues and epilogues to mirror return addresses into a
write-protected shadow region, and the runtime that arms the
protection.
"""

from .asm import AsmError, AsmProgram, parse, print_program
from .instrument import (InstrumentError, InstrumentResult,
                         SEQ_NAIVE, SEQ_OPTIMAL, ShadowStackConfig,
                         instrument_program)
from .machine import HaltReason, Machine
from .protect import POLICY_REPORT, POLICY_RESET, init_write_protection
from .runner import (OUTCOME_FAULT, OUTCOME_HIJACK, OUTCOME_SAFE,
                     OUTCOME_TRAPPED, RunConfig, RunResult, run_program,
                     run_source)

__version__ = "0.1.0"

__all__ = [
    "AsmError", "AsmProgram", "parse", "print_program",
    "InstrumentError", "InstrumentResult", "SEQ_NAIVE", "SEQ_OPTIMAL",
    "ShadowStackConfig", "instrument_program",
    "HaltReason", "Machine",
    "POLICY_REPORT", "POLICY_RESET", "init_write_protection",
    "OUTCOME_FAULT", "OUTCOME_HIJACK", "OUTCOME_SAFE", "OUTCOME_TRAPPED",
    "RunConfig", "RunResult", "run_program", "run_source",
    "__version__",
]
