#!/usr/bin/env python3
"""Bytecodes executed per benchmark op, by file and by function.

    python3 tests/bytecodes.py                    # each workload, one op
    python3 tests/bytecodes.py --workload corpus --ops 20
    python3 tests/bytecodes.py --workload recursion-protected --depth 64
    python3 tests/bytecodes.py --workload corpus --hot 1
    python3 tests/bytecodes.py --workload sweep-report --top 0

A deterministic cost count to stand beside a wall-time claim.  It builds
the benchmark's workloads (``bench/workloads.py``, imported, not
changed), runs one warm-up op on the first item, as the benchmark's
setup does, and then counts ``--ops`` ops over the items in the
benchmark's order under ``sys.settrace`` with opcode events on: the
bytecodes each code object executes.  Rows are by file and by function;
generated code counts under its own file name (``<block>``, ``<step>``,
``<dwt>``, ``<flags>``, ``<protect>``), one row per code object, a
compiled block's (and its ``make``'s) named by the pc it is entered at.
Each op also reports its simulated steps; its ``blocks.Block.compile``
calls; of those, the ones whose block's entry check missed (a block
compiled for another watch state, compiled again for the one it
found); and the blocks compiled, ``blocks._make``'s cache misses, each
a ``blocks._source`` call.  For each compiled looping block (its code
keeps its entry's step in ``e``) it reports bytecodes per pass: the
bytecodes its code executed over the passes that ``Block.fold`` added
to the machine's counts, every pass its calls made, exits included.
Code in C (``struct``, ``dict``) counts as the one bytecode that calls
it.  ``--hot`` sets ``blocks.HOT_THRESHOLD``
for the warm-up and the counted ops, so that ``--hot 1`` counts code
that the default threshold leaves to the stepped tier, such as the
blocks of ``corpus``, each compiled on first reach.

Counts depend on the Python version, which is recorded, and through set
and dict order on the hash seed, so the script re-executes itself with
PYTHONHASHSEED=0.  The package is imported from this checkout's ``src``.
A table precedes the last line of stdout, one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"

if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from watchstack import blocks  # noqa: E402
from workloads import WORKLOADS, RecursionProtected  # noqa: E402


def count(fn, *args):
    """``fn(*args)``'s result; the bytecodes each code object executed in
    it and its calls; the pc each compiled block's code was entered at;
    the passes ``Block.fold`` folded, by entry pc; and the entry-check
    misses, ``Block.compile`` calls on a block that already has a
    function."""
    counts: dict = {}
    calls: dict = {}
    entries: dict = {}
    passes: dict = {}
    misses = [0]

    def opcode(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return opcode

    def call(frame, event, arg):
        code = frame.f_code
        calls[code] = calls.get(code, 0) + 1
        if code.co_name == "block" and code.co_filename == "<block>":
            entries.setdefault(code, frame.f_locals["m"].pc)
        elif code is blocks.Block.compile.__code__:
            misses[0] += frame.f_locals["self"].fn is not None
        elif code is blocks.Block.fold.__code__:  # before it zeroes them
            blk = frame.f_locals["self"]
            pc = blk.trace[0][0]
            passes[pc] = passes.get(pc, 0) + sum(blk.counts[1:])
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(call)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    return out, counts, calls, entries, passes, misses[0]


def _file(code) -> str:
    path = Path(code.co_filename)
    if path.is_absolute():
        try:
            return str(path.relative_to(ROOT))
        except ValueError:
            return "<python>/" + path.name
    return code.co_filename


def _function(code, entries: dict) -> str:
    """The code object's row: its qualified name, and for block code the
    entry pc of the block it is or makes."""
    name = getattr(code, "co_qualname", code.co_name)
    if code.co_filename != "<block>":
        return name
    seen = [code]
    while seen:  # make's block, or <module>'s make's
        inner = seen.pop()
        if inner in entries:
            return "%s@0x%08x" % (name, entries[inner])
        seen += [c for c in inner.co_consts if isinstance(c, types.CodeType)]
    return name + "@?"


def measure(w, op_id: int) -> dict:
    item = w.items[op_id % len(w.items)]
    out, counts, calls, entries, passes, misses = count(w.run_op, item)
    by_file: dict = {}
    by_function: dict = {}
    loops: dict = {}  # a looping block's bytecodes, by entry pc
    for code, n in counts.items():
        f = _file(code)
        by_file[f] = by_file.get(f, 0) + n
        key = "%s:%s" % (f, _function(code, entries))
        by_function[key] = by_function.get(key, 0) + n
        if code in entries and "e" in code.co_varnames:
            loops[entries[code]] = loops.get(entries[code], 0) + n
    order = lambda d: dict(sorted(d.items(), key=lambda kv: (-kv[1], kv[0])))
    return {"op": op_id, "steps": w.steps(out),
            "compiles": calls.get(blocks.Block.compile.__code__, 0),
            "misses": misses,
            "made": calls.get(blocks._source.__code__, 0),
            "bytecodes": sum(counts.values()),
            "per_pass": {"0x%08x" % pc: {
                "bytecodes": n, "passes": passes[pc],
                "per_pass": round(n / passes[pc], 2)}
                for pc, n in sorted(loops.items())},
            "by_file": order(by_file), "by_function": order(by_function)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=1,
                    help="ops counted after the warm-up op")
    ap.add_argument("--depth", type=int, default=None,
                    help="recursion-protected's depth (default: the "
                         "benchmark's, the shadow stack's capacity)")
    ap.add_argument("--hot", type=int, default=blocks.HOT_THRESHOLD,
                    help="blocks.HOT_THRESHOLD for the run (default: "
                         "%(default)s)")
    ap.add_argument("--top", type=int, default=25,
                    help="function rows shown per op in the table")
    args = ap.parse_args(argv)

    classes = dict(WORKLOADS)
    if args.depth is not None:
        classes[RecursionProtected.name] = type(
            "Recursion", (RecursionProtected,), {"depth": args.depth})
    names = list(classes) if args.workload == "all" else [args.workload]
    result = {"python": platform.python_version(),
              "implementation": platform.python_implementation(),
              "hash_seed": HASH_SEED, "seed": args.seed,
              "depth": args.depth, "hot": args.hot, "workloads": {}}
    blocks.HOT_THRESHOLD = args.hot
    for name in names:
        w = classes[name](args.seed)
        w.run_op(w.items[0])  # warm-up, as the benchmark's setup
        ops = [measure(w, op_id) for op_id in range(args.ops)]
        result["workloads"][name] = ops
        for op in ops:
            print("%s op %d: %d bytecodes, %d steps, %d Block.compile calls"
                  " (%d entry-check misses), %d blocks compiled"
                  % (name, op["op"], op["bytecodes"], op["steps"],
                     op["compiles"], op["misses"], op["made"]))
            for pc, row in op["per_pass"].items():
                print("  loop at %s: %d bytecodes over %d passes, %.2f a"
                      " pass" % (pc, row["bytecodes"], row["passes"],
                                 row["per_pass"]))
            for f, n in op["by_file"].items():
                print("  %12d  %s" % (n, f))
            for key, n in list(op["by_function"].items())[:args.top]:
                print("  %12d    %s" % (n, key))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
