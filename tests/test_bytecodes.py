"""``tests/bytecodes.py``, the per-op bytecode counter, counts the same
twice, whatever hash seed it is started with."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bytecodes.py"
DEPTH = 64


def _count(hash_seed: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "recursion-protected",
         "--depth", str(DEPTH), "--top", "0"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    return json.loads(out.stdout.splitlines()[-1])


def test_two_counts_of_a_small_recursion_agree():
    first = _count("1")
    assert _count("random") == first
    assert (first["python"], first["hash_seed"]) == (
        platform.python_version(), "0")
    op, = first["workloads"]["recursion-protected"]
    assert op["steps"] == 24 * DEPTH + 1 and op["compiles"] > 0
    assert op["bytecodes"] == sum(op["by_file"].values()) == sum(
        op["by_function"].values())
    assert op["by_file"]["<block>"] > 0 and op["by_file"]["<step>"] > 0
    assert "<block>:make.<locals>.block@0x08000038" in op["by_function"]
