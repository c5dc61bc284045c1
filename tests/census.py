#!/usr/bin/env python3
"""Which functions of ``src/watchstack`` the toolchain calls.

    python3 tests/census.py             # the table, then one JSON line
    python3 tests/census.py --ops 1

Runs the command-line tool on the bundled programs
(``programs/scenario1.ws`` and ``programs/demo.ws``): ``asm``, also
with ``--listing``; ``instrument`` under both sequences, with
``--plan``; ``run`` plain, instrumented, protected under the reset and
the report policy and with a SysTick raise, with ``--report``; and
``bench``.  Then it builds the benchmark's workloads
(``bench/workloads.py``, imported, not changed) and, for each, runs the
warm-up op and ``--ops`` ops with their checks and modelled metrics, as
the benchmark does.  A ``sys.setprofile`` hook, set before the package
is imported, records the code object of every Python call.  The census
is every ``def`` in ``src/watchstack/*.py``, methods and nested
functions included; the script lists the ones never called, by
module.  Code the package
generates and compiles (``<block>``, ``<dwt>``, ...) is not in the
census.  Standard library only; the package is imported from this
checkout's ``src``, and the commands' output is discarded.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "watchstack"
PROGRAMS = [ROOT / "programs" / name for name in ("scenario1.ws", "demo.ws")]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def defined() -> dict:
    """(file, first line, name) -> ``module.qualified.name`` of every
    ``def`` in the package; the first line is the first decorator's, as
    the code object's is."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in
                                                 child.decorator_list])
                    name = prefix + child.name
                    out[(str(path), line, child.name)] = (
                        "%s.%s" % (path.stem, name))
                    name += "."
                elif isinstance(child, ast.ClassDef):
                    name = prefix + child.name + "."
                walk(child, name)
        walk(tree, "")
    return out


def commands(tmp: Path) -> list[list[str]]:
    """The command lines the census runs."""
    out = []
    for prog in map(str, PROGRAMS):
        out += [["asm", prog], ["asm", prog, "--listing"],
                ["instrument", prog, "--plan", str(tmp / "plan.json")],
                ["instrument", prog, "--sequence", "naive",
                 "-o", str(tmp / "out.ws")],
                ["run", prog],
                ["run", prog, "--instrument", "--protected",
                 "--report", str(tmp / "run.json")],
                ["run", prog, "--instrument", "--protected",
                 "--policy", "report"],
                ["run", prog, "--instrument", "--protected",
                 "--raise", "systick@20"]]
    return out + [["bench"], ["bench", "--report", str(tmp / "bench.json")]]


def exercise(ops: int) -> None:
    """Import the package, so that what runs at import counts, run the
    commands, then each workload's warm-up op and ``ops`` ops with their
    checks."""
    from watchstack import cli
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    for cls in WORKLOADS.values():
        w = cls(0)
        w.run_op(w.items[0])
        for i in range(ops):
            item = w.items[i % len(w.items)]
            out = w.run_op(item)
            w.steps(out)
            if w.check(item, out):
                w.known_defect(item, out)
        w.modelled_metrics()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops", type=int, default=3,
                    help="ops of each workload after its warm-up op")
    args = ap.parse_args(argv)

    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        exercise(args.ops)
    finally:
        sys.setprofile(None)
    census = defined()
    called = {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}
    never = sorted(name for key, name in census.items() if key not in called)
    module = None
    for name in never:
        if name.split(".")[0] != module:
            module = name.split(".")[0]
            print("%s.py" % module)
        print("  " + name.split(".", 1)[1])
    print("%d of %d functions called" % (len(census) - len(never),
                                         len(census)))
    print(json.dumps({"ops": args.ops, "defined": len(census),
                      "called": len(census) - len(never), "never": never}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
