"""``tests/bytecodes.py``, the per-op bytecode counter, counts the same
twice, whatever hash seed it is started with and at a hot threshold of
1 too, and reports the blocks an op compiles, the entry checks that
miss, and each looping block's bytecodes per pass."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bytecodes.py"
DEPTH = 64


def _count(hash_seed: str, *args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--top", "0", *(args or (
            "--workload", "recursion-protected", "--depth", str(DEPTH)))],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    return json.loads(out.stdout.splitlines()[-1])


def test_two_counts_of_a_small_recursion_agree():
    first = _count("1")
    assert _count("random") == first
    assert (first["python"], first["hash_seed"], first["hot"]) == (
        platform.python_version(), "0", 32)
    op, = first["workloads"]["recursion-protected"]
    assert op["steps"] == 24 * DEPTH + 1 and op["compiles"] > 0
    # The warm-up op compiled every block for the one watch state each is
    # entered in: the counted op makes none, and no entry check misses.
    assert op["made"] == op["misses"] == 0
    assert op["bytecodes"] == sum(op["by_file"].values()) == sum(
        op["by_function"].values())
    assert op["by_file"]["<block>"] > 0 and op["by_file"]["<step>"] > 0
    assert "<block>:make.<locals>.block@0x08000038" in op["by_function"]
    # The descent's and the ascent's loops, not the straight block at
    # 0x0800000a.
    assert sorted(op["per_pass"]) == ["0x08000038", "0x08000040"]
    for pc, row in op["per_pass"].items():
        key = "<block>:make.<locals>.block@" + pc
        assert row["bytecodes"] == op["by_function"][key]
        assert row["passes"] > 0
        assert row["per_pass"] == round(row["bytecodes"] / row["passes"], 2)
    assert op["per_pass"]["0x08000040"]["passes"] > DEPTH // 2


def test_two_counts_of_corpus_at_a_hot_threshold_of_1_agree():
    """``--hot 1`` compiles each of corpus's blocks on first reach, which
    the default threshold leaves stepped, and counts as deterministically."""
    args = ("--workload", "corpus", "--hot", "1")
    first = _count("1", *args)
    assert _count("random", *args) == first
    op, = first["workloads"]["corpus"]
    assert first["hot"] == 1 and op["compiles"] > 0
    assert op["by_file"]["<block>"] > 0
    assert op["per_pass"] and all(row["passes"] > 0
                                  for row in op["per_pass"].values())
