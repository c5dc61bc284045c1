"""Frozen cycle table: exact simulated numbers of the reference programs.

Any change to the run loop that moves a step count, a cycle total, a tag
or phase split, or the conversion extra of these programs is a change in
behaviour and fails here.  To print the table of the current tree:

    PYTHONPATH=src python tests/test_cycle_table.py
"""

import json
from pathlib import Path

from watchstack.harness import (run_exception_test, run_microbenchmark,
                                run_recursion, run_scenario_1)
from watchstack.instrument import SEQ_NAIVE, SEQ_OPTIMAL

GOLDEN = Path(__file__).resolve().parent / "golden" / "cycle_table.json"


def _row(run) -> dict:
    return {
        "outcome": run.outcome,
        "steps": run.steps,
        "cycles": run.cycles,
        "tagged": dict(sorted(run.tagged_cycles.items())),
        "phases": {phase: dict(sorted(cats.items()))
                   for phase, cats in sorted(run.phase_cycles.items())},
        "conv_extra": run.conv_extra,
    }


def cycle_table() -> dict:
    return {
        "microbenchmark_optimal": _row(run_microbenchmark(SEQ_OPTIMAL).run),
        "microbenchmark_naive": _row(run_microbenchmark(SEQ_NAIVE).run),
        "scenario1_unprotected": _row(run_scenario_1(protected=False).run),
        "scenario1_protected": _row(run_scenario_1(protected=True).run),
        "exception_round_trip": _row(run_exception_test().result.run),
        "recursion_8192": _row(run_recursion(8192)),
    }


def test_cycle_table_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = cycle_table()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    print(json.dumps(cycle_table(), indent=2))
