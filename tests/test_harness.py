"""Scenario, microbenchmark, and generator coverage."""

import random
from pathlib import Path

import pytest

from watchstack.asm import parse
from watchstack.harness import (BENIGN_INPUT_WORD, EXC_FLAGS,
                                HIJACK_FILLER_WORDS, SAFE_FLAG,
                                VIOLATION_FLAG, attack_program,
                                make_benign_program, make_demcr_fuzz_program,
                                microbenchmark_program, run_exception_test,
                                run_microbenchmark, run_preinit_exception,
                                run_recursion, run_scenario_1, run_scenario_2,
                                run_write_sweep)
from watchstack.instrument import (SEQ_NAIVE, SEQ_OPTIMAL, ShadowStackConfig,
                                   instrument_program)
from watchstack.machine import EV_HALTED, HaltReason
from watchstack.protect import POLICY_REPORT
from watchstack.runner import (OUTCOME_FAULT, OUTCOME_HIJACK, OUTCOME_SAFE,
                               OUTCOME_TRAPPED, RunConfig, run_program)

TINY = ShadowStackConfig(ss_size_log2=8)  # 64 entries, keeps loops short


# -- scenario 1: return address overwrite -------------------------------------

def test_unprotected_overflow_reaches_the_gadget():
    r = run_scenario_1(protected=False)
    assert r.outcome == OUTCOME_HIJACK
    assert r.machine.mem.read_word(VIOLATION_FLAG) == 1
    assert r.machine.mem.read_word(SAFE_FLAG) == 0


def test_protected_overflow_returns_safely():
    r = run_scenario_1(protected=True)
    assert r.outcome == OUTCOME_SAFE
    assert r.halt_reason == HaltReason.NORMAL
    assert r.violations == []
    assert r.machine.mem.read_word(SAFE_FLAG) == 1
    assert r.machine.mem.read_word(VIOLATION_FLAG) == 0


def test_bundled_scenario1_is_the_hijack_program():
    """The README's quick start runs programs/scenario1.ws as scenario 1."""
    bundled = Path(__file__).parent.parent / "programs" / "scenario1.ws"
    assert bundled.read_text() == attack_program(
        filler_words=HIJACK_FILLER_WORDS, benign=False)


@pytest.mark.parametrize("protected", [False, True])
def test_benign_input_is_harmless(protected):
    r = run_scenario_1(protected=protected, benign=True)
    assert r.outcome == OUTCOME_SAFE
    assert r.machine.mem.read_word(SAFE_FLAG) == 1


@pytest.mark.parametrize("filler", range(HIJACK_FILLER_WORDS + 1))
def test_filler_differential(filler):
    # only the exact frame offset lands on the stacked return address
    unprot = run_scenario_1(protected=False, filler_words=filler)
    if filler == HIJACK_FILLER_WORDS:
        assert unprot.outcome == OUTCOME_HIJACK
    else:
        assert unprot.outcome != OUTCOME_HIJACK
    prot = run_scenario_1(protected=True, filler_words=filler)
    assert prot.outcome != OUTCOME_HIJACK


def test_attack_program_payload_variants():
    assert ".word baz" in attack_program(benign=False)
    assert attack_program(benign=False, filler_words=3).count("0x01010101") == 3
    assert "0x%08x" % BENIGN_INPUT_WORD in attack_program(benign=True)


# -- scenario 2: direct shadow writes ------------------------------------------

@pytest.mark.parametrize("target", ["live", "unused"])
def test_direct_shadow_write_traps(target):
    r = run_scenario_2(target=target)
    assert r.outcome == OUTCOME_TRAPPED
    assert r.halt_reason == HaltReason.RESET
    assert len(r.violations) == 1
    shadow = ShadowStackConfig()
    assert shadow.ss_start <= r.violations[0].data_address < shadow.ss_limit


def test_write_outside_the_region_passes():
    r = run_scenario_2(target="outside")
    assert r.outcome == OUTCOME_SAFE
    assert r.violations == []


def test_report_policy_traps_without_reset():
    r = run_scenario_2(policy=POLICY_REPORT, target="live")
    assert r.outcome == OUTCOME_TRAPPED
    assert r.halt_reason == HaltReason.NORMAL  # ran to completion
    assert len(r.violations) == 1


# -- microbenchmark -------------------------------------------------------------

def baseline_cycles(text: str) -> int:
    return run_program(parse(text), RunConfig()).cycles


def test_optimal_prologue_and_epilogue_cycle_split():
    r = run_microbenchmark(SEQ_OPTIMAL)
    pro, epi = r.phase_cycles["pro"], r.phase_cycles["epi"]
    assert sum(pro.values()) == 21
    assert pro == {"AW": 6, "ASSP": 5, "USS": 2, "Other": 8}
    assert sum(epi.values()) == 16
    assert epi == {"ASSP": 7, "USS": 4, "Other": 5}


def test_phase_breakdown_sums_to_cycle_breakdown():
    r = run_microbenchmark(SEQ_OPTIMAL)
    for cat, total in r.tagged_cycles.items():
        assert sum(ph.get(cat, 0) for ph in r.phase_cycles.values()) == total


def test_naive_sequence_costs_more():
    opt = run_microbenchmark(SEQ_OPTIMAL)
    nai = run_microbenchmark(SEQ_NAIVE)
    assert sum(nai.phase_cycles["pro"].values()) > 21
    assert nai.cycles > opt.cycles


@pytest.mark.parametrize("seq", [SEQ_OPTIMAL, SEQ_NAIVE])
def test_microbenchmark_additivity(seq):
    base = baseline_cycles(microbenchmark_program())
    r = run_microbenchmark(seq)
    assert r.cycles + r.conv_extra - sum(r.tagged_cycles.values()) \
        == base


# -- exception frame protection --------------------------------------------------

TAMPERS = [None, "r12", "lr", "ret", "xpsr"]


@pytest.mark.parametrize("tamper", TAMPERS)
def test_protected_handler_survives_frame_tampering(tamper):
    t = run_exception_test(tamper, protected=True)
    assert t.resumed
    assert t.z_preserved
    assert t.r12_value == 0x78563412
    assert t.lr_value == 0x08000004
    assert t.run.outcome == OUTCOME_SAFE


def test_unprotected_controls_show_the_tampering():
    assert not run_exception_test("xpsr", protected=False).z_preserved
    assert run_exception_test("r12", protected=False).r12_value == 0xDEADBEEF
    assert run_exception_test("lr", protected=False).lr_value == 0xDEADBEEF
    ret = run_exception_test("ret", protected=False)
    assert not ret.resumed
    assert ret.run.outcome == OUTCOME_FAULT


def test_handler_before_init_is_inert():
    out = run_preinit_exception()
    assert out["resumed"]
    assert out["handler_ran_once"]
    assert out["shadow_untouched"]
    assert out["ssp_unchanged"]
    assert out["violations"] == []


# -- capacity -------------------------------------------------------------------

def test_recursion_within_capacity():
    for depth in (1, 10, TINY.capacity):
        run = run_recursion(depth, shadow=TINY)
        assert run.outcome == OUTCOME_SAFE, depth
        assert run.halt_reason == HaltReason.NORMAL


def test_recursion_beyond_capacity_halts():
    run = run_recursion(TINY.capacity + 1, shadow=TINY)
    assert run.halt_reason == HaltReason.STACK_OVERFLOW
    assert run.outcome == OUTCOME_FAULT


# -- sweep ------------------------------------------------------------------------

def test_sweep_traps_exactly_the_interior():
    margin = 32
    run = run_write_sweep(margin=margin, shadow=TINY)
    hit = {v.data_address for v in run.violations}
    assert hit == set(range(TINY.ss_start, TINY.ss_limit))
    assert len(run.violations) == TINY.ss_size
    mem = run.machine.mem
    for a in range(TINY.ss_start - margin, TINY.ss_start):
        assert mem.read_byte(a) == 0x5A
    for a in range(TINY.ss_limit, TINY.ss_limit + margin):
        assert mem.read_byte(a) == 0x5A
    assert mem.read_region(TINY.ss_start, TINY.ss_size) == bytes(TINY.ss_size)


def test_report_sweep_records_each_hit_once():
    """A suppressed store lives only in the guard's violation records:
    the full sweep keeps all 32,768 and its only event is the halt."""
    run = run_write_sweep(margin=16)
    assert len(run.violations) == ShadowStackConfig().ss_size == 32768
    assert [(ev.kind, ev.reason) for ev in run.events] == [
        (EV_HALTED, HaltReason.NORMAL)]


# -- generators --------------------------------------------------------------------

def test_benign_generator_is_deterministic():
    a = make_benign_program(random.Random(7))
    b = make_benign_program(random.Random(7))
    assert a == b
    assert a != make_benign_program(random.Random(8))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_benign_programs_run_clean_both_ways(seed):
    text = make_benign_program(random.Random(seed))
    prog = parse(text)
    plain = run_program(prog, RunConfig(max_steps=200_000))
    assert plain.outcome == OUTCOME_SAFE
    shadow = ShadowStackConfig()
    inst = instrument_program(prog, shadow).program
    prot = run_program(inst, RunConfig(protected=True, shadow=shadow,
                                       max_steps=400_000))
    assert prot.outcome == OUTCOME_SAFE
    assert prot.violations == []
    for r in range(13):
        assert prot.machine.read_reg(r) == plain.machine.read_reg(r), r


def test_fuzz_generator_programs_parse_and_vary():
    texts = {make_demcr_fuzz_program(random.Random(s)) for s in range(10)}
    assert len(texts) == 10
    for t in texts:
        parse(t)
