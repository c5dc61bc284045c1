#!/usr/bin/env python3
"""Host-time benchmark of the watchstack toolchain, end to end and per layer.

One workload per process, one client in a closed loop: the next op
starts only when the previous one has finished and been checked.

    python3 bench/run.py --workload recursion-protected --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones.  ``--workload all`` runs every workload both ways, each in a fresh
process, plus the corpus on a held-out seed.  The last line of stdout is
one JSON object; a human-readable table of every metric precedes it.
Full results, and the spans of a traced run, go to ``bench/results/``.

Exit status: 0 after a complete run; 2 when the package cannot be
imported from this checkout's ``src``; 3 when an output check could not
run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_REPEATS = 7
STARTUPS_PER_REPEAT = 3
SETUP_SLICES = 8  # reference slices before and after each build
HELD_OUT_OFFSET = 1  # the held-out corpus seed is --seed plus this
REF_ITERATIONS = 6_000
STARTUP_CODE = ("import sys; sys.path.insert(0, %r); "
                "import watchstack.harness, watchstack.runner")
REF_EVERY_S = 0.05  # op time between two reference slices
# A traced run makes untraced-and-traced pairs; a traced op takes up to
# twice an untraced one, so a pair counts as this many nominal ops.
TRACED_PAIR_OPS = 3
# Nominal seconds per reference slice, for stating setup_s in seconds: a
# slice took about this long on the machine the benchmark was written on.
REF_SLICE_S = 0.004


def import_package():
    """Import watchstack from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import watchstack
    except ImportError as exc:
        print("bench: cannot import watchstack from %s: %s" % (SRC, exc),
              file=sys.stderr)
        sys.exit(2)
    if Path(watchstack.__file__).resolve().parent.parent != SRC:
        print("bench: watchstack imported from %s, not %s"
              % (watchstack.__file__, SRC), file=sys.stderr)
        sys.exit(2)


# -- environment -----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


# -- host-speed reference -----------------------------------------------------------

class _RefObj:
    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_slice() -> float:
    """Host seconds of one fixed slice of pure-Python work.

    The slice allocates small objects, writes and reads a dict and reads
    attributes, the kinds of work the emulator does per step, and calls
    nothing in the package.  Timed between ops, it tracks how fast the
    host runs Python during the run; a rate counted per slice instead of
    per second keeps the program's own speed and cancels most of the
    host's drift, which on a shared machine moves every timing by tens
    of percent within seconds.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        table[i & 0x3FF] = _RefObj(i, i & 0xFF)
        other = table.get((i * 7) & 0x3FF)
        if other is not None:
            acc = (acc + other.value) & 0xFFFFFFFF
    return time.perf_counter() - t0


# -- one workload ------------------------------------------------------------------

class Ledger:
    """Per-op outcomes: host times, simulated steps and check results."""

    def __init__(self) -> None:
        self.times: list[float] = []      # host seconds per op
        self.op_steps: list[int] = []     # simulated steps per op
        # Points where reference slices ran, as (number of ops before the
        # point, mean seconds of the slices run there).
        self.refs: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0  # failures outside the documented defect
        self.failures: list[dict] = []
        self.check_errors: list[str] = []

    def record(self, w, item, out, error, dt) -> None:
        self.attempted += 1
        self.times.append(dt)
        self.op_steps.append(0 if error is not None else w.steps(out))
        if error is not None:
            problems, known = [error], False
        else:
            try:
                problems = w.check(item, out)
                known = bool(problems) and w.known_defect(item, out)
            except Exception as exc:  # a check that cannot run voids the run
                self.check_errors.append("%s: %r" % (_item_id(item), exc))
                return
        if problems:
            self.failed += 1
            self.unexplained += not known
            if len(self.failures) < 100:
                self.failures.append({"item": _item_id(item), "known_defect": known,
                                      "problems": problems})


def _item_id(item):
    return getattr(item, "index", item)


def _op(w, item):
    t0 = time.perf_counter()
    try:
        out, error = w.run_op(item), None
    except Exception as exc:  # the program failed the op; the run goes on
        out, error = None, "op raised %r" % exc
    return out, error, time.perf_counter() - t0


def startup() -> float:
    """Host seconds for a fresh interpreter to start and import the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE % str(SRC)], check=True)
    return time.perf_counter() - t0


def setup(cls, seed: int) -> tuple[object, dict]:
    """Time start-up and the workload's build, SETUP_REPEATS times each.

    Start-up is a fresh interpreter importing the package, timed
    STARTUPS_PER_REPEAT times in a row per repeat because it varies
    most.  A build is input generation, assembling and instrumenting the
    fixed programs, and one warm-up op.  ``setup_s`` is the median
    start-up plus the median build.  Start-up counts in plain seconds:
    it is mostly process creation and file reads, which do not follow
    the host's Python speed.  A build counts in reference slices, divided
    by the median of the SETUP_SLICES slices run before and after it,
    converted back to seconds at REF_SLICE_S per slice, so that the
    host's drift cancels as it does in the rates.
    """
    def slices():
        return [reference_slice() for _ in range(SETUP_SLICES)]

    starts, builds, refs = [], [], []
    for _ in range(SETUP_REPEATS):
        starts += [startup() for _ in range(STARTUPS_PER_REPEAT)]
        refs.append(slices())
        t0 = time.perf_counter()
        w = cls(seed)
        w.run_op(w.items[0])
        builds.append(time.perf_counter() - t0)
        refs.append(slices())
    in_refs = [t / statistics.median(refs[2 * i] + refs[2 * i + 1])
               for i, t in enumerate(builds)]
    start_s = statistics.median(starts)
    return w, {"startup_s": starts, "builds_s": builds, "refs_s": refs,
               "setup_wall_s": start_s + statistics.median(builds),
               "setup_s": start_s + statistics.median(in_refs) * REF_SLICE_S}


def op_count(w, seconds: float, traced: bool) -> int:
    """Ops a run makes: as many as fill `seconds` at the workload's nominal
    op time, or, traced, as many untraced-and-traced pairs as fill them at
    TRACED_PAIR_OPS nominal op times each.

    The count depends on `seconds` and the workload alone, never on how
    fast the host runs, so two runs on one seed attempt the same ops and
    fail the same ones.
    """
    cost = w.op_s * (TRACED_PAIR_OPS if traced else 1)
    return max(1, round(seconds / cost))


def measure(w, seconds: float, tracer) -> tuple[Ledger, Ledger, int]:
    """Cycle over the workload's items for `op_count` ops.

    Untraced ops go to the first ledger.  With a tracer, every item is
    run twice in a row, untraced and then traced, and the traced op goes
    to the second ledger.  Reference slices run before the first op,
    after the last op, and in between one for every REF_EVERY_S of
    untraced op time, so that a long op is followed by several.
    """
    plain, traced = Ledger(), Ledger()
    plain.refs.append((0, reference_slice()))
    n = op_count(w, seconds, tracer is not None)
    since_ref = 0.0
    for op_id in range(n):
        item = w.items[op_id % len(w.items)]
        out, error, dt = _op(w, item)
        plain.record(w, item, out, error, dt)
        since_ref += dt
        if since_ref >= REF_EVERY_S:
            k = int(since_ref / REF_EVERY_S)
            ref = sum(reference_slice() for _ in range(k)) / k
            plain.refs.append((len(plain.times), ref))
            since_ref -= k * REF_EVERY_S
        if tracer is not None:
            tracer.install()
            tracer.begin_op(op_id)
            try:
                out, error, dt = _op(w, item)
            finally:
                tracer.end_op()
                tracer.uninstall()
            traced.record(w, item, out, error, dt)
    if plain.refs[-1][0] != len(plain.times):
        plain.refs.append((len(plain.times), reference_slice()))
    return plain, traced, n


def percentile_ms(times: list[float], q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1000


def blocks(led: Ledger) -> list[tuple[int, int, float, float]]:
    """The ops between two points where reference slices ran, as (ops,
    steps, host seconds, mean slice time at the two points) per block."""
    out = []
    for (i, r0), (j, r1) in zip(led.refs, led.refs[1:]):
        out.append((j - i, sum(led.op_steps[i:j]), sum(led.times[i:j]),
                    (r0 + r1) / 2))
    return out


def end_to_end(w, led: Ledger, setup: dict) -> tuple[dict, dict]:
    """Rates are totals over the timed ops divided by their host time.

    The ``_per_ref`` rates count host time in reference slices: the time
    of each block of ops is divided by the mean slice time at its ends.
    """
    bl = blocks(led)
    busy = sum(led.times)
    busy_refs = sum(t / r for _, _, t, r in bl)
    steps = sum(led.op_steps)
    m = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_ref": (led.attempted / busy_refs, "ops/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    extra = {"sim_steps_per_ref": (steps / busy_refs, "steps/ref"),
             "sim_steps_per_s": (steps / busy, "steps/s"),
             "ops_per_s": (led.attempted / busy, "ops/s"),
             "op_ms_p50": (statistics.median(led.times) * 1000, "ms"),
             "ref_slice_ms": (statistics.median(r for _, r in led.refs) * 1000,
                              "ms"),
             "setup_wall_s": (setup["setup_wall_s"], "s"),
             "failed_ops_ratio": (led.failed / led.attempted, "ratio")}
    # A p90 needs at least ten samples above it.
    if len(led.times) >= 100:
        extra["op_ms_p90"] = (percentile_ms(led.times, 90), "ms")
    extra.update(w.modelled_metrics())
    return m, extra


def run_one(args, manifest: dict) -> int:
    import_package()
    from workloads import WORKLOADS
    from tracer import Tracer

    cls = WORKLOADS[args.workload]
    w, setup_times = setup(cls, args.seed)
    tracer = Tracer() if args.trace else None
    wall0 = time.perf_counter()
    plain, traced, n_ops = measure(w, args.seconds, tracer)
    wall = time.perf_counter() - wall0

    ledgers = (plain, traced) if tracer else (plain,)
    errors = [e for led in ledgers for e in led.check_errors]
    if errors:
        for e in errors[:20]:
            print("bench: check could not run:", e, file=sys.stderr)
        return 3
    attempted = sum(led.attempted for led in ledgers)
    failed = sum(led.failed for led in ledgers)
    correct = not any(led.unexplained for led in ledgers)

    e2e, extra = end_to_end(w, plain, setup_times)
    if tracer:
        layers = tracer.per_op(traced.attempted)
        layers["trace.overhead_ratio"] = (sum(traced.times) / sum(plain.times),
                                          "ratio")
        wanted = [m["name"] for m in manifest["per_layer"]]
        shown = {"per-layer (per traced op, %d ops)" % traced.attempted: layers}
        reported = layers
    else:
        wanted = [m["name"] for m in manifest["end_to_end"]]
        shown = {"end-to-end (%d ops)" % plain.attempted: e2e,
                 "also reported": extra}
        reported = e2e

    env = environment()
    print("workload=%s seed=%d seconds=%g trace=%d wall=%.2fs ops=%d"
          % (args.workload, args.seed, args.seconds, args.trace, wall, n_ops))
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    for title, metrics in shown.items():
        print("-- " + title)
        for name, (value, unit) in metrics.items():
            print("  %-40s %16.6g %s" % (name, value, unit))
    print("-- checks: attempted=%d failed=%d correct=%s" % (attempted, failed, correct))
    for f in (plain.failures + traced.failures)[:5]:
        print("  failed item %s%s: %s" % (f["item"],
              " (known interrupt-window defect)" if f["known_defect"] else "",
              "; ".join(f["problems"])))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup": setup_times,
        "metrics": {k: {"value": v, "unit": u}
                    for part in shown.values() for k, (v, u) in part.items()},
        "op_times_s": plain.times,
        "op_steps": plain.op_steps,
        "refs": plain.refs,
        "failures": plain.failures + traced.failures,
    }
    if tracer:
        record["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": reported[name][0], "unit": reported[name][1]}
                    for name in wanted},
    }))
    return 0


def run_all(args, manifest: dict) -> int:
    """Every workload both ways, each in a fresh process."""
    runs = [(w["name"], args.seed) for w in manifest["workloads"]]
    runs.append(("corpus", args.seed + HELD_OUT_OFFSET))
    status = 0
    for name, seed in runs:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print("==", " ".join(cmd[1:]), flush=True)
            code = subprocess.run(cmd).returncode
            if code != 0:
                print("== exit status %d" % code)
                status = status or code
    return status


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args, manifest)
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
