"""Acceptance gate: end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import re
import time
from pathlib import Path

import numpy as np

from programs import (SAFE_FLAG, make_demcr_fuzz_program, run_exception_test,
                      run_microbenchmark, run_recursion, run_scenario_1,
                      run_write_sweep)
from watchstack.asm import parse
from watchstack.cli import main as cli_main
from watchstack.dwt import (DWT_COMP0, DWT_FUNCTION0, DWT_MASK0, FN_READ,
                            FN_READWRITE, FN_WRITE, DwtUnit)
from watchstack.harness import make_benign_program, microbenchmark_program
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL, ShadowStackConfig,
                                   analyze_free_gprs, instrument_program)
from watchstack.machine import (ACCESS_READ, ACCESS_WRITE, DEMCR_ADDR,
                                HaltReason, Machine)
from watchstack.protect import (POLICY_REPORT, attach_debug_system,
                                init_write_protection)
from watchstack.runner import (OUTCOME_HIJACK, OUTCOME_SAFE, RunConfig,
                               run_program)

GOLDEN = Path(__file__).resolve().parent / "golden"
SHADOW = ShadowStackConfig()


def verdict(num: int, tag: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPT %02d %-26s %s" % (num, tag, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_01_return_address_hijack_is_prevented():
    t0 = time.perf_counter()
    unprot = run_scenario_1(protected=False)
    prot = run_scenario_1(protected=True)
    dt = time.perf_counter() - t0
    ok = (unprot.outcome == OUTCOME_HIJACK
          and prot.outcome == OUTCOME_SAFE
          and prot.machine.mem.read_word(SAFE_FLAG) == 1
          and prot.violations == []
          and dt < 1.0)
    verdict(1, "hijack-prevention", ok,
            "unprotected=%s protected=%s %.2fs"
            % (unprot.outcome, prot.outcome, dt))


def test_02_exhaustive_shadow_write_sweep():
    t0 = time.perf_counter()
    margin = 1024
    run = run_write_sweep(margin=margin, shadow=SHADOW)
    dt = time.perf_counter() - t0
    hit = {v.data_address for v in run.violations}
    interior = set(range(SHADOW.ss_start, SHADOW.ss_limit))
    false_neg = len(interior - hit)
    false_pos = len(hit - interior)
    mem = run.machine.mem
    margins_committed = all(
        mem.read_byte(a) == 0x5A
        for a in list(range(SHADOW.ss_start - margin, SHADOW.ss_start))
        + list(range(SHADOW.ss_limit, SHADOW.ss_limit + margin)))
    interior_clean = (mem.read_region(SHADOW.ss_start, SHADOW.ss_size)
                      == bytes(SHADOW.ss_size))
    fn0_live = run.machine.dwt.groups[0].function == FN_WRITE
    ok = (false_neg == 0 and false_pos == 0 and margins_committed
          and interior_clean and fn0_live and dt < 30.0)
    verdict(2, "shadow-write-sweep", ok,
            "probes=%d fn=%d fp=%d %.1fs"
            % (SHADOW.ss_size + 2 * margin, false_neg, false_pos, dt))


def test_03_debug_lock_survives_fuzzing():
    # direct post-init write to the lock register must trap
    m = Machine()
    m.sp = 0x20040000
    attach_debug_system(m)
    init_write_protection(m, SHADOW)
    m.store(DEMCR_ADDR, 4, 0)
    direct_ok = (m.halted and m.halt_reason == HaltReason.RESET
                 and m.demcr.mon_en and len(m.guard.records) == 1)

    cleared = 0
    for seed in range(1000):
        prog = parse(make_demcr_fuzz_program(random.Random(seed)))
        run = run_program(prog, RunConfig(protected=True,
                                          policy=POLICY_REPORT,
                                          max_steps=100_000))
        if not run.machine.demcr.mon_en:
            cleared += 1
    ok = direct_ok and cleared == 0
    verdict(3, "lock-register-fuzz", ok,
            "direct-trap=%s cleared=%d/1000" % (direct_ok, cleared))


def test_04_exception_frame_integrity():
    bad = []
    for tamper in (None, "xpsr", "ret", "lr", "r12"):
        t = run_exception_test(tamper, protected=True)
        if not (t.resumed and t.z_preserved
                and t.r12_value == 0x78563412
                and t.lr_value == 0x08000004):
            bad.append(tamper or "clean")
    verdict(4, "exception-frame", not bad,
            "variants=5 failed=%s" % (",".join(bad) or "none"))


def test_05_shadow_stack_capacity():
    full = run_recursion(SHADOW.capacity)
    over = run_recursion(SHADOW.capacity + 1)
    ok = (full.outcome == OUTCOME_SAFE
          and full.halt_reason == HaltReason.NORMAL
          and over.halt_reason == HaltReason.STACK_OVERFLOW)
    verdict(5, "capacity-8192", ok,
            "depth=%d %s, depth=%d %s"
            % (SHADOW.capacity, full.halt_reason.name,
               SHADOW.capacity + 1, over.halt_reason.name))


def test_06_microbenchmark_cycle_envelope():
    r = run_microbenchmark(SEQ_OPTIMAL)
    pro = r.phase_cycles["pro"]
    epi = r.phase_cycles["epi"]
    pro_total = sum(pro.values())
    epi_total = sum(epi.values())
    aw_share = 100.0 * pro.get("AW", 0) / pro_total
    epi_top = max(epi, key=epi.get)
    ok = (abs(pro_total - 21) <= 5
          and abs(aw_share - 28.57) <= 10.0
          and abs(epi_total - 16) <= 4
          and epi_top == "ASSP")
    verdict(6, "microbenchmark", ok,
            "pro=%d aw=%.2f%% epi=%d top=%s"
            % (pro_total, aw_share, epi_total, epi_top))


def test_07_pointer_access_block_shapes():
    src = microbenchmark_program()
    opt = instrument_program(parse(src), ShadowStackConfig()).plan_for("bench")
    nai = instrument_program(
        parse(src), ShadowStackConfig(sequence=SEQ_NAIVE)).plan_for("bench")
    want_opt = (GOLDEN / "access_block_optimal.txt").read_text().splitlines()
    want_nai = (GOLDEN / "access_block_naive.txt").read_text().splitlines()
    ok = (len(opt.access_block) == 6 and len(opt.scratch_gprs) == 2
          and len(nai.access_block) == 7 and len(nai.scratch_gprs) == 3
          and list(opt.access_block) == want_opt
          and list(nai.access_block) == want_nai)
    verdict(7, "access-block-shape", ok,
            "optimal=%d/%d naive=%d/%d"
            % (len(opt.access_block), len(opt.scratch_gprs),
               len(nai.access_block), len(nai.scratch_gprs)))


def test_08_comparator_matching_oracle():
    rng = np.random.default_rng(0x5EED)
    window = 1 << 20
    probes_per_cfg = 1000
    disagreements = 0
    for _ in range(1000):
        base = int(rng.integers(0, 0xE0000000 - window)) & ~0xFFF
        comp = base + int(rng.integers(0, window))
        mask = int(rng.integers(0, 22))
        fn = int(rng.integers(0, 16))
        d = DwtUnit()
        d.mmio_write(None, DWT_COMP0, comp)
        d.mmio_write(None, DWT_MASK0, mask)
        d.mmio_write(None, DWT_FUNCTION0, fn)

        addrs = base + rng.integers(0, window, size=probes_per_cfg)
        sizes = rng.choice([1, 4], size=probes_per_cfg)
        accs = rng.choice([ACCESS_READ, ACCESS_WRITE], size=probes_per_cfg)

        # brute-force oracle: a probe matches when any byte it covers
        # shares the comparator's 2^mask block
        cblock = comp >> mask
        lane_hit = np.zeros(probes_per_cfg, dtype=bool)
        for k in range(4):
            lane_hit |= (((addrs + k) >> mask) == cblock) & (k < sizes)
        allows = np.where(
            fn == FN_READWRITE, True,
            np.where(fn == FN_WRITE, accs == ACCESS_WRITE,
                     (fn == FN_READ) & (accs == ACCESS_READ)))
        want = lane_hit & allows

        for i in range(probes_per_cfg):
            got = d.match_access(int(addrs[i]), int(sizes[i]),
                                 int(accs[i])) == 0
            if got != bool(want[i]):
                disagreements += 1
    verdict(8, "matching-oracle", disagreements == 0,
            "configs=1000 probes=%d disagreements=%d"
            % (1000 * probes_per_cfg, disagreements))


def _transparent(seed: int) -> list[str]:
    rng = random.Random(seed)
    text = make_benign_program(rng, n_funcs=rng.randint(4, 12))
    prog = parse(text)
    plain = run_program(prog, RunConfig(max_steps=400_000,
                                        track_min_sp=True))
    inst = instrument_program(prog, SHADOW).program
    prot = run_program(inst, RunConfig(protected=True, shadow=SHADOW,
                                       max_steps=800_000, track_min_sp=True))
    problems = []
    if plain.halt_reason != HaltReason.NORMAL:
        problems.append("baseline-halt=%s" % plain.halt_reason)
    if prot.halt_reason != HaltReason.NORMAL:
        problems.append("protected-halt=%s" % prot.halt_reason)
    if problems:
        return problems
    for r in range(13):
        if plain.machine.read_reg(r) != prot.machine.read_reg(r):
            problems.append("r%d" % r)
    # dead stack below the final frames differs by construction: the
    # instrumented run spills its scratch registers there
    residue_lo = min(plain.machine.min_sp, prot.machine.min_sp)
    residue_hi = RunConfig().initial_sp
    for addr in plain.machine.mem.diff(prot.machine.mem):
        if SHADOW.ss_start <= addr < SHADOW.ss_limit:
            continue
        if 0xE0000000 <= addr:
            continue
        if residue_lo <= addr < residue_hi:
            continue
        problems.append("mem@0x%08x" % addr)
    ssp = prot.machine.dwt.groups[1].comp
    if ssp != SHADOW.ss_start:
        problems.append("ssp=0x%08x" % ssp)
    if prot.cycles + prot.conv_extra - prot.tagged_total != plain.cycles:
        problems.append("cycle-identity")
    return problems


def test_09_semantic_transparency():
    failures = {}
    for seed in range(200):
        problems = _transparent(seed)
        if problems:
            failures[seed] = problems
    verdict(9, "transparency-200", not failures,
            "programs=200 failures=%d%s"
            % (len(failures),
               " first=%s" % list(failures.items())[:1] if failures else ""))


_CALL_SITE_TEMPLATE = """\
.org 0x08000000
.func main hal
%s    bkpt #0
.endfunc
.func leaf
    push {r7, lr}
    mov r0, #1
    pop {r7, pc}
.endfunc
"""


def _overhead_cycles(n_sites: int) -> int:
    text = _CALL_SITE_TEMPLATE % ("    bl leaf\n" * n_sites)
    prog = parse(text)
    base = run_program(prog, RunConfig())
    inst = instrument_program(prog, SHADOW).program
    prot = run_program(inst, RunConfig(protected=True, shadow=SHADOW))
    assert base.halt_reason == HaltReason.NORMAL
    assert prot.halt_reason == HaltReason.NORMAL
    return prot.cycles - base.cycles


def test_10_desk_scale_substitutes(tmp_path, capsys):
    # published multi-suite averages need real silicon and a C compiler;
    # what is checkable here: the bench report's exact cycle accounting,
    # overhead monotonicity in call sites, and the register analyzer
    report = tmp_path / "bench.json"
    code = cli_main(["bench", "--report", str(report)])
    capsys.readouterr()
    data = json.loads(report.read_text())
    additive = code == 0 and all(
        data[seq]["derived_baseline_cycles"] == data[seq]["baseline_cycles"]
        for seq in (SEQ_OPTIMAL, SEQ_NAIVE))

    costs = [_overhead_cycles(n) for n in (1, 2, 4, 8, 16)]
    monotone = all(a <= b for a, b in zip(costs, costs[1:]))

    rng = random.Random(0xF00D)
    pool = ["mov r%d, #9", "addw r%d, r%d, #2", "cmp r%d, #0",
            "ldr r%d, [sp]", "push {r%d}", "pop {r%d}", "mov.w r%d, #1",
            "movw r%d, #44", "strb r%d, [sp, #1]", "movt r%d, #3"]
    mismatches = 0
    for _ in range(500):
        lines = []
        for _ in range(rng.randint(1, 12)):
            tpl = rng.choice(pool)
            lines.append("    " + tpl.replace("%d", str(rng.randrange(13))))
        lines.append("    bx lr")
        src = (".org 0x08000000\n.func main hal\n    bl f\n    bkpt #0\n"
               ".endfunc\n.func f\n%s\n.endfunc\n" % "\n".join(lines))
        func = parse(src).functions["f"]
        used = set()
        for line in "\n".join(lines).splitlines():
            for n in range(13):
                if re.search(r"\br%d\b" % n, line):
                    used.add(n)
        if analyze_free_gprs(func) != set(range(13)) - used:
            mismatches += 1
    analyzer_ok = mismatches == 0
    ok = additive and monotone and analyzer_ok
    verdict(10, "desk-scale-substitutes", ok,
            "additive=%s monotone=%s analyzer-mismatches=%d"
            % (additive, monotone, mismatches))
