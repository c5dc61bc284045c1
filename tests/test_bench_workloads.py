"""The benchmark's workloads still run and pass their checks on this tree.

``bench/workloads.py`` drives the package through its public surface:
``RunConfig(track_min_sp=True)``, ``RunResult.tagged_cycles``,
``tagged_total`` and ``conv_extra``, ``Machine.min_sp`` and
``Memory.diff``.  A change there would otherwise only show when the
benchmark runs; here one op of each fixed workload and the first corpus
items run with their checks, and fail the test suite.
"""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
CORPUS_ITEMS = 20


@pytest.fixture(scope="module")
def workloads():
    # Compiled from source, so nothing (not even a bytecode cache) is
    # written under bench/.  The dataclasses resolve their module through
    # sys.modules while they are built.
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name", ["recursion-protected", "sweep-report"])
def test_fixed_workload_op_passes_its_check(workloads, name):
    w = workloads.WORKLOADS[name](0)
    item = w.items[0]
    out = w.run_op(item)
    assert w.steps(out) > 0
    assert w.check(item, out) == []


def test_corpus_items_pass_or_hit_the_known_defect(workloads):
    """Every item passes: the interrupt-window defect that
    ``Corpus.known_defect`` names no longer occurs, so no failure is
    excused by it."""
    w = workloads.Corpus(0)
    for item in w.items[:CORPUS_ITEMS]:
        out = w.run_op(item)
        assert out.protected.tagged_total > 0
        assert w.check(item, out) == [], item.index
    assert len(w.ratios) == CORPUS_ITEMS
