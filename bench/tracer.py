"""Layer tracing from outside the package, by wrapping its public entry points.

``Tracer.install()`` replaces module and class attributes of the package
with timing wrappers and ``uninstall()`` puts the originals back, so an
untraced op runs the package's own code with nothing in between.

Two kinds of boundary are recorded:

* coarse calls (parse, instrument, build, run) each leave one span with
  its parent span and op id;
* per-instruction boundaries (step, load/store, guard, ``match_access``,
  watchpoint-register MMIO) are only aggregated into call counts and
  self time, so the trace stays bounded however long a run is.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Wrapper overhead lands in the caller's self time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from watchstack import asm, dwt, exception_model, instrument, machine, protect, runner

# (owner, attribute, layer name).  One layer may own several patch points:
# ``instrument`` imports ``layout`` and ``print_program`` by name, and
# ``runner`` does the same with ``init_write_protection``; ``machine``
# reaches the exception model through the module, so the module
# attribute is the patch point there.
COARSE = (
    (asm, "parse", "asm.parse"),
    (instrument, "instrument_program", "instrument.instrument_program"),
    (runner, "build_machine", "runner.build_machine"),
    (runner, "run_machine", "runner.run_machine"),
)
FINE = (
    (asm, "layout", "asm.layout"),
    (instrument, "layout", "asm.layout"),
    (asm, "print_program", "asm.print_program"),
    (instrument, "print_program", "asm.print_program"),
    (protect, "init_write_protection", "protect.init_write_protection"),
    (runner, "init_write_protection", "protect.init_write_protection"),
    (machine.Machine, "step", "machine.step"),
    (machine.Machine, "load", "machine.access"),
    (machine.Machine, "store", "machine.access"),
    (protect.WatchpointGuard, "on_load", "protect.guard"),
    (protect.WatchpointGuard, "on_store", "protect.guard"),
    (dwt.DwtUnit, "mmio_read", "dwt.mmio"),
    (dwt.DwtUnit, "mmio_write", "dwt.mmio"),
    (exception_model, "enter_exception", "exception_model.enter"),
    (exception_model, "return_from_exception", "exception_model.return"),
    (dwt.DwtUnit, "match_access", "dwt.match_access"),
)
# Fine layers whose non-None results are also counted, by count name.
HIT_COUNTS = {"dwt.match_access": "dwt.match_access.hits"}


class Tracer:
    """Counts, self times and coarse spans, gathered across traced ops."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._children = [0.0]  # time of wrapped callees, per open call
        self._span_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._patches = self._build_patches()

    # -- wrappers -------------------------------------------------------------

    def _fine(self, name: str, fn):
        calls, self_s, children, counts = (self.calls, self.self_s,
                                           self._children, self.counts)
        hits = HIT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                children[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
            if hits is not None and result is not None:
                counts[hits] += 1
            return result
        return wrapper

    def _coarse(self, name: str, fn):
        children, spans, stack = self._children, self.spans, self._span_stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "op": self.op_id,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(len(spans) - 1)
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                inner = children.pop()
                children[-1] += t1 - t0
                stack.pop()
                span["start"], span["end"] = t0, t1
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - inner
                self.incl_s[name] += t1 - t0
            self._observe(name, args, result)
            return result
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Counts read off a coarse call's arguments and result."""
        c = self.counts
        if name == "asm.parse":
            c["asm.parse.lines"] += args[0].count("\n")
        elif name == "instrument.instrument_program":
            for plan in result.plans:
                if not plan.skipped:
                    c["instrument.functions_rewritten"] += 1
                    c["instrument.inserted_bytes"] += plan.size_delta_bytes
        elif name == "runner.run_machine":
            c["runner.events_kept"] += len(result.events)
            c["protect.violations"] += len(result.violations)
            c["sim.cycles"] += result.cycles
            for cat, cyc in result.tagged_cycles.items():
                c["sim.tagged." + cat] += cyc

    def _build_patches(self) -> list[tuple[object, str, object]]:
        made: dict[tuple[str, int], object] = {}
        patches = []

        def add(owner, attr, name, kind):
            fn = getattr(owner, attr)
            key = (name, id(fn))
            if key not in made:
                made[key] = kind(name, fn)
            patches.append((owner, attr, made[key]))

        for owner, attr, name in COARSE:
            add(owner, attr, name, self._coarse)
        for owner, attr, name in FINE:
            add(owner, attr, name, self._fine)
        return patches

    # -- control -----------------------------------------------------------------

    def install(self) -> None:
        self._saved = [(owner, attr, owner.__dict__[attr])
                       for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans.append({"name": "op", "op": op_id, "parent": None,
                           "start": perf_counter()})
        self._span_stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._span_stack.pop()]["end"] = perf_counter()
        self.op_id = None

    # -- results -------------------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every layer metric as (value per traced op, unit)."""
        c = self.counts
        m = {}
        for layer in ("machine.step", "machine.access", "runner.run_machine",
                      "runner.build_machine", "dwt.match_access", "dwt.mmio",
                      "protect.guard", "protect.init_write_protection",
                      "asm.parse", "asm.layout", "asm.print_program",
                      "instrument.instrument_program"):
            m[layer + ".calls"] = (self.calls[layer] / ops, "count")
            m[layer + ".self_s"] = (self.self_s[layer] / ops, "s")
        match_calls = self.calls["dwt.match_access"]
        m["dwt.match_access.hit_ratio"] = (
            c["dwt.match_access.hits"] / match_calls if match_calls else 0.0,
            "ratio")
        parse_s = self.incl_s["asm.parse"]
        m["asm.parse.lines_per_s"] = (
            c["asm.parse.lines"] / parse_s if parse_s else 0.0, "lines/s")
        m["exception_model.entries"] = (self.calls["exception_model.enter"] / ops,
                                        "count")
        m["exception_model.returns"] = (self.calls["exception_model.return"] / ops,
                                        "count")
        m["exception_model.self_s"] = (
            (self.self_s["exception_model.enter"]
             + self.self_s["exception_model.return"]) / ops, "s")
        for name, unit in (("dwt.match_access.hits", "count"),
                           ("protect.violations", "count"),
                           ("runner.events_kept", "count"),
                           ("instrument.functions_rewritten", "count"),
                           ("instrument.inserted_bytes", "bytes"),
                           ("sim.cycles", "cycles"),
                           ("sim.tagged.AW", "cycles"),
                           ("sim.tagged.USS", "cycles"),
                           ("sim.tagged.ASSP", "cycles"),
                           ("sim.tagged.Other", "cycles")):
            m[name] = (c[name] / ops, unit)
        return m
