"""Rules on the package's source, checked on each module's syntax tree.

Every name imported into a package module is read in that module,
but for the re-exports that other modules import from ``machine`` and
the tag categories that ``bench/workloads.py`` reads from
``instrument``.  ``__init__.py`` binds ``__version__``, which the
command-line tool reads, and nothing else: it imports no module and
re-exports no name.

The package holds what the command-line tool and the benchmark run:
every public name ``harness`` defines at its top level is named in
``cli.py``, in a ``bench/*.py`` file or in README.  Programs and
drivers that only tests run live in ``tests/programs.py``.

The fixed PPB addresses are spelled in ``machine`` alone, as numbers or
inside text; every other module imports them from there.  And the
registers an op reads and writes, ``Op.reads`` and ``Op.writes``, are
read in ``isa`` alone: every other module asks ``isa.regs``.

No module imports another module's ``_``-prefixed name, nor reads one
through a module it imported: what two modules share is public.  And
every ``_``-prefixed name a module binds at its top level is read in it.

Compiled code, written by ``blocks`` and ``binder``, decodes an address
in one place: every string of the two that spells the page table lies
in one function.  And it reaches a device only through the device's
in-line form or ``Machine.load``/``store``: the two name no port and
no ``mmio_read``/``mmio_write``, in their code or in the code they
generate.  Those two are its one slow path to memory too: they name no
guard handler (``on_load``, ``on_store``), no attribute of ``m.guard``
and no ``commit``.

``blocks.py`` and ``binder.py`` each stay under the 4,096 parser tokens
past which CPython 3.11's parser allocates its token array anew, twice
as large.

Every ``functools.cache``/``lru_cache`` decorator names a ``maxsize``
that is not None, so no module-level cache grows without bound over a
long session; ``cached_property`` lives and dies with its object.

All generated code goes through ``semantics.define``, which names its
file (``<step>``, ``<block>``, ...): no other module calls the builtin
``exec`` or ``compile``.  ``binder.Compiled._value``'s ``eval`` of a
slot expression such as ``ins.imm`` falls outside the rule: it reads
one operand while a block's source is written, and defines nothing
that runs later.

The package's imports form no cycle.  ``semantics``, what each op
does, imports nothing from the package but ``isa`` and constants of
``exception_model``.  No module imports ``blocks`` at its top level,
nor any but ``blocks`` ``binder``: ``Machine.run`` imports ``blocks``
inside the function, so importing the machine does not compile the
compiled tier's code generator.

The reference interpreter in ``tests/reference_isa.py`` imports nothing
from the package but ``isa``, so it shares no code with what it checks.
And ``machine`` retires instructions in one function: one function
indexes ``_EXEC``, and ``Machine.run`` never calls ``step()`` and
dispatches in one loop.
"""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "watchstack"
RE_EXPORTS = {"machine.py": {"EV_EXC_ENTERED", "EV_EXC_RETURNED",
                             "MODE_HANDLER"},
              "instrument.py": {"T_ASSP", "T_USS"}}
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    unused = _imported(tree) - _read(tree) - RE_EXPORTS.get(name, set())
    assert not unused, "%s imports %s and never reads them" % (
        name, ", ".join(sorted(unused)))


PPB_ADDRESSES = {0xE0000000, 0xE0001000, 0xE0001060, 0xE000EDFC}


@pytest.mark.parametrize("name", [n for n in MODULES if n != "machine.py"])
def test_only_machine_spells_a_ppb_address(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    spelled = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and node.value in PPB_ADDRESSES:
                spelled.add(node.value)
            elif isinstance(node.value, str):
                spelled.update(a for a in PPB_ADDRESSES
                               if "%x" % a in node.value.lower())
    assert not spelled, "%s spells %s" % (
        name, ", ".join("%#x" % a for a in sorted(spelled)))


@pytest.mark.parametrize("name", [n for n in MODULES if n != "isa.py"])
def test_only_isa_reads_the_register_columns(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    read = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("reads", "writes")})
    assert not read, "%s reads %s: ask isa.regs" % (name, ", ".join(read))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reaches_for_another_modules_private_name(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    # Names bound to a package module: ``from . import x [as y]``.
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for a in node.names}
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            private.update(a.name for a in node.names if _private(a.name))
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            private.add("%s.%s" % (node.value.id, node.attr))
    assert not private, "%s reaches for %s" % (name, ", ".join(sorted(private)))


def _bound_at_top(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_private_top_level_name_is_read(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    unread = {n for n in _bound_at_top(tree) if _private(n)} - _read(tree)
    assert not unread, "%s binds %s and never reads them" % (
        name, ", ".join(sorted(unread)))


def test_the_package_binds_only_its_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = _bound_at_top(tree) | _imported(tree)
    assert bound == {"__version__"}, "__init__.py binds %s" % (
        ", ".join(sorted(bound - {"__version__"})))


# What names the package's generators outside the tests.
CALLERS = [SRC / "cli.py", *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "README.md"]


def test_every_harness_name_is_named_outside_the_tests():
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in CALLERS)
    unnamed = sorted(n for n in _bound_at_top(tree) if not _private(n)
                     and not re.search(r"\b%s\b" % re.escape(n), text))
    assert not unnamed, "harness defines %s, which only tests use; " \
        "they belong in tests/programs.py" % ", ".join(unnamed)


# The page table, as compiled code reads it.
DECODED = ("P.get",)


def _docstrings(tree: ast.Module) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and ast.get_docstring(node, clean=False) is not None}


# The modules that write compiled code.
COMPILER = ("blocks.py", "binder.py")


def test_blocks_decodes_an_address_in_one_function():
    owners = set()
    for name in COMPILER:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for top in tree.body:
            owner = "%s:%s" % (name, top.name if isinstance(
                top, ast.FunctionDef) else "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and id(node) not in docs
                        and any(name in node.value for name in DECODED)):
                    owners.add(owner)
    assert len(owners) == 1, "blocks decodes in %s" % ", ".join(sorted(owners))


# What calls a device's port directly, as a name or inside generated text.
def _blocks_names(names) -> set[str]:
    """The ``names`` that ``blocks.py`` and ``binder.py`` spell: as an
    identifier, as the object of an attribute read (``m.guard.``), or in
    a string that is not a docstring, as the code they generate is."""
    trees = [ast.parse((SRC / name).read_text(encoding="utf-8"))
             for name in COMPILER]
    docs = set().union(*map(_docstrings, trees))
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docs:
                named.update(n for n in names if re.search(r"\b%s%s" % (
                    re.escape(n), r"\b" * n[-1].isidentifier()), node.value))
        else:
            spelled = {getattr(node, field, None)
                       for field in ("id", "attr", "arg", "name")}
            if isinstance(node, ast.Attribute):
                spelled.add(ast.unparse(node.value) + ".")
            named.update(spelled.intersection(names))
    return named


DEVICE_CALLS = ("port", "mmio_read", "mmio_write")


def test_blocks_names_no_device_port():
    named = _blocks_names(DEVICE_CALLS)
    assert not named, "blocks names %s" % ", ".join(sorted(named))


# What compiled code would call beside Machine.load/store: the guard's
# handlers, the guard through the machine, or a write past the guard.
GUARD_CALLS = ("on_load", "on_store", "m.guard.", "commit")


def test_blocks_reaches_memory_only_through_load_and_store():
    named = _blocks_names(GUARD_CALLS)
    assert not named, "blocks names %s" % ", ".join(sorted(named))


PARSER_TOKENS = 4096


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the step is CPython 3.11's parser's")
@pytest.mark.parametrize("name", COMPILER)
def test_blocks_stays_under_the_parser_token_step(name):
    """``blocks.py`` and ``binder.py`` are each under 4,096 parser
    tokens: those ``tokenize`` gives, less comments, NL and the ENCODING
    marker, which the parser does not see.

    CPython 3.11's parser holds a module's tokens in an array of 4,096
    records that it reallocates twice as large when full.  ``blocks`` is
    compiled inside the first ``Machine.run`` that compiles a block, and
    without cached bytecode that compile sets every benchmark workload's
    ``peak_rss_mb``: a tree at 4,099-4,468 tokens compiled with a peak
    about 230 KiB higher (tracemalloc around ``compile()``), and read
    0.26-0.43 MB more ``peak_rss_mb`` on all three workloads.  Below the
    step the peak still grows with the module (a ``blocks.py`` at 4,050
    tokens read 0.1 MB more than at 3,844), which is why ``binder`` is a
    module of its own, compiled after ``blocks``."""
    with open(SRC / name, "rb") as f:
        count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL,
                                     tokenize.ENCODING)
                    for tok in tokenize.tokenize(f.readline))
    assert count < PARSER_TOKENS, "%s has %d parser tokens" % (name, count)


def _calls(tree: ast.Module, names) -> set[str]:
    """The builtins among ``names`` that ``tree`` calls by name."""
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names}


@pytest.mark.parametrize("name", [n for n in MODULES if n != "semantics.py"])
def test_only_semantics_runs_generated_code(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    called = _calls(tree, ("exec", "compile"))
    assert not called, "%s calls %s; generated code goes through " \
        "semantics.define" % (name, ", ".join(sorted(called)))


CACHES = ("cache", "lru_cache")


@pytest.mark.parametrize("name", MODULES)
def test_every_function_cache_is_bounded(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    unbounded = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            if getattr(func, "attr", getattr(func, "id", None)) not in CACHES:
                continue
            sizes = ([kw.value for kw in call.keywords if kw.arg == "maxsize"]
                     + call.args[:1]) if call else []
            if not sizes or (isinstance(sizes[0], ast.Constant)
                             and sizes[0].value is None):
                unbounded.append(node.name)
    assert not unbounded, "%s caches %s without bound" % (
        name, ", ".join(unbounded))


def test_the_reference_interpreter_imports_only_isa():
    tree = ast.parse((Path(__file__).resolve().parent / "reference_isa.py")
                     .read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or ".")
            if node.module == "watchstack":  # from watchstack import x
                modules.update("watchstack." + a.name for a in node.names)
    package = {name for name in modules
               if name == "." or name.split(".")[0] == "watchstack"}
    assert package <= {"watchstack.isa"}, "reference_isa imports %s" % (
        ", ".join(sorted(package - {"watchstack.isa"})))


def test_the_machine_has_one_retire_body():
    tree = ast.parse((SRC / "machine.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    retiring = [f.name for f in functions for node in ast.walk(f)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_EXEC"]
    assert retiring == ["_line"]
    run = next(f for f in functions if f.name == "run")
    assert not any(isinstance(node, ast.Attribute) and node.attr == "step"
                   for node in ast.walk(run))
    assert sum(isinstance(node, ast.While) for node in ast.walk(run)) == 1


def _run_at_import(body):
    """The statements of ``body`` that importing the module runs: none
    under a ``def`` or an ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == \
                "TYPE_CHECKING":
            yield from _run_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(node, field, []))


def _package_modules(nodes) -> set[str]:
    """The package modules that the imports among ``nodes`` name;
    ``from . import name`` of a name that is no module is ``__init__``."""
    modules = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module else (
                a.name if (SRC / (a.name + ".py")).exists() else "__init__"
                for a in node.names))
    return modules


def _import_graph() -> dict[str, set[str]]:
    """Each package module -> the package modules it imports at import."""
    return {path.stem: _package_modules(_run_at_import(
        ast.parse(path.read_text(encoding="utf-8")).body))
            for path in SRC.glob("*.py")}


def test_the_package_imports_form_no_cycle():
    graph = _import_graph()
    while graph:
        leaves = {n for n, deps in graph.items() if not deps & graph.keys()}
        assert leaves, "import cycle among %s" % ", ".join(sorted(graph))
        for name in leaves:
            del graph[name]


def test_semantics_imports_only_isa_and_exception_model_constants():
    tree = ast.parse((SRC / "semantics.py").read_text(encoding="utf-8"))
    assert _package_modules(ast.walk(tree)) <= {"isa", "exception_model"}
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "exception_model" for a in node.names]
    assert all(name.isupper() for name in names), names


def test_no_module_imports_blocks_at_its_top_level():
    graph = _import_graph()
    importers = sorted(name for name, deps in graph.items()
                       if "blocks" in deps)
    assert not importers, "%s import blocks" % ", ".join(importers)
    assert [name for name, deps in graph.items() if "binder" in deps] == [
        "blocks"]
    tree = ast.parse((SRC / "machine.py").read_text(encoding="utf-8"))
    run = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert "blocks" in _package_modules(ast.walk(run))


def test_importing_the_machine_leaves_blocks_unimported():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, watchstack.machine; print("
         "{'watchstack.blocks', 'watchstack.binder'} & set(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "set()"
