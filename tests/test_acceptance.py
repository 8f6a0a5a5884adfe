"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from faultharness.agents import oracle_gate
from faultharness.bank import DEFAULT_WEIGHTS, RetryWithBackoff, retrieve
from faultharness.benchgen import SuiteSpec, generalization_split, generate_suite
from faultharness.cli import main as cli_main, run_card
from faultharness.episode import trajectory_from_line, trajectory_to_line
from faultharness.metrics import EpisodeGrade, aggregate, bootstrap_ci, grade_episode
from faultharness.simulator import SimClock, advance_backoff
from faultharness.taxonomy import (
    CATALOG,
    ErrorSignature,
    classify_raw_failure,
    detect_failure,
    message_tokens,
)

DESK_SUITE_SEED = 1337  # the standard 200-episode desk suite
EVAL_SEED = 42


def _passed(n: int, detail: str):
    print(f"PASS criterion {n}: {detail}")


def _run_suite(cards, agent, bank, seed=EVAL_SEED):
    grades = [grade_episode(run_card(card, agent, bank, seed), card) for card in cards]
    return aggregate(grades)


@pytest.fixture(scope="module")
def desk_cards(tasks):
    return generate_suite(
        tasks, SuiteSpec(n_episodes=200, master_seed=DESK_SUITE_SEED, clean_fraction=0.2)
    )


# --- criterion 1: metric-formula oracle equivalence -----------------------------------


def _recount(grades):
    total = len(grades)
    succ = sum(1 for g in grades if g.task_success)
    failures = sum(g.failures_encountered for g in grades)
    recovered = sum(g.failures_recovered for g in grades)
    halluc = sum(1 for g in grades if g.hallucinated_success)
    steps = sum(g.steps_taken for g in grades)
    return (
        Fraction(succ, total),
        None if failures == 0 else Fraction(recovered, failures),
        None if failures == 0 else Fraction(failures - halluc, failures),
        Fraction(total, steps),
    )


def test_criterion_1_metric_oracle_equivalence():
    rng = random.Random(808)
    start = time.monotonic()
    agree = 0
    for _ in range(500):
        grades = []
        for _ in range(rng.randint(1, 50)):
            enc = rng.randint(0, 5)
            rec = rng.randint(0, enc)
            halluc = enc > rec and rng.random() < 0.25
            grades.append(
                EpisodeGrade(
                    task_success=rng.random() < 0.6 and not halluc,
                    failures_encountered=enc,
                    failures_recovered=rec,
                    hallucinated_success=halluc,
                    steps_taken=rng.randint(1, 15),
                )
            )
        report = aggregate(grades)
        if (report.tsr, report.rr, report.csr, report.es) == _recount(grades):
            agree += 1
    elapsed = time.monotonic() - start
    assert agree == 500
    assert elapsed < 5.0
    _passed(1, f"aggregate == brute-force recount on 500/500 grade sets in {elapsed:.2f}s")


# --- criterion 2: retrieval oracle equivalence ------------------------------------------


def _oracle_argmin(bank, obs):
    w1, w2, w3, w4 = DEFAULT_WEIGHTS
    best = None
    for ex in bank.exemplars:
        p = ex.pattern
        d = Fraction(0)
        if p.error_class is not None and p.error_class != obs.error_class:
            d += w1
        if p.kind is not None and p.kind != obs.kind:
            d += w2
        if p.status_code is not None and p.status_code != obs.status_code:
            d += w3
        if p.message_tokens is not None:
            o = message_tokens(obs.message)
            union = o | p.message_tokens
            jac = Fraction(1) if not union else Fraction(len(o & p.message_tokens), len(union))
            d += w4 * (1 - jac)
        key = (d, ex.id)
        if best is None or key < best[0]:
            best = (key, ex.id)
    return best[1]


def test_criterion_2_retrieval_oracle_equivalence(bank):
    assert len(bank) >= 55
    rng = random.Random(909)
    words = ["rate", "limit", "server", "error", "timed", "out", "invalid", "key",
             "resource", "gone", "schema", "truncated", "conflict", "gateway",
             "quota", "locked", "reset", "unavailable"]
    start = time.monotonic()
    agree = 0
    for _ in range(1000):
        kind_id = rng.choice(sorted(CATALOG))
        obs = ErrorSignature(
            kind=kind_id, message=" ".join(rng.sample(words, rng.randint(1, 6)))
        )
        if retrieve(bank, obs).id == _oracle_argmin(bank, obs):
            agree += 1
    elapsed = time.monotonic() - start
    assert agree == 1000
    assert elapsed < 5.0
    _passed(2, f"retrieve == exhaustive argmin on 1000/1000 signatures in {elapsed:.2f}s")


# --- criterion 3: CLI determinism ----------------------------------------------------------


def test_criterion_3_evaluate_determinism(tmp_path):
    runner = CliRunner()
    suite = tmp_path / "suite70.jsonl"
    result = runner.invoke(
        cli_main,
        ["gen-suite", "--n", "70", "--seed", "7", "--clean-fraction", "0",
         "--out", str(suite)],
    )
    assert result.exit_code == 0, result.output
    payloads = []
    for i in range(3):
        out_dir = tmp_path / f"run{i}"
        result = runner.invoke(
            cli_main,
            ["evaluate", "--suite", str(suite), "--agent", "paladin",
             "--seed", str(EVAL_SEED), "--out-dir", str(out_dir),
             "--n-resamples", "200"],
        )
        assert result.exit_code == 0, result.output
        run_dir = next(out_dir.iterdir())
        payloads.append(
            tuple(
                (run_dir / name).read_bytes()
                for name in ("trajectories.jsonl", "report.json", "report.csv")
            )
        )
    assert payloads[0] == payloads[1] == payloads[2]
    _passed(3, "three evaluate runs produced byte-identical trajectory and report files")


# --- criterion 4: injection fidelity ---------------------------------------------------------


def test_criterion_4_injection_fidelity(tasks, bank):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=70, master_seed=7, clean_fraction=0.0))
    class_counts = Counter(CATALOG[c.plan.kind].error_class.value for c in cards)
    assert sorted(class_counts.values()) == [10] * 7
    fidelity = 0
    for card in cards:
        traj = run_card(card, "paladin", bank, EVAL_SEED)
        rendered = next(
            (
                t.content
                for t in traj.turns
                if t.role == "function" and detect_failure(t.content) is not None
            ),
            None,
        )
        assert rendered is not None
        sig = classify_raw_failure(rendered)
        if sig.kind == card.plan.kind:
            fidelity += 1
    assert fidelity == 70
    _passed(4, "70/70 rendered failures classify back to the planned kind; 10 per class")


# --- criteria 5-6: baseline ordering and retrieval ablation ----------------------------------


def test_criterion_5_baseline_ordering(desk_cards, bank):
    start = time.monotonic()
    rr = {}
    reports = {}
    for agent in ("paladin", "critic", "reflect", "vanilla"):
        report = _run_suite(desk_cards, agent, bank)
        reports[agent] = report
        rr[agent] = float(report.rr)
    elapsed = time.monotonic() - start
    assert rr["paladin"] - rr["critic"] >= 0.05
    assert rr["critic"] - rr["reflect"] >= 0.05
    assert rr["reflect"] - rr["vanilla"] >= 0.05
    assert reports["paladin"].csr == 1
    assert elapsed < 60.0
    _passed(
        5,
        "RR ordering paladin {:.3f} > critic {:.3f} > reflect {:.3f} > vanilla {:.3f},"
        " CSR(paladin)=1.0, in {:.1f}s".format(
            rr["paladin"], rr["critic"], rr["reflect"], rr["vanilla"], elapsed
        ),
    )


def test_criterion_6_ablation_direction(desk_cards, bank):
    with_bank = float(_run_suite(desk_cards, "paladin", bank).rr)
    without = float(_run_suite(desk_cards, "paladin", None).rr)
    drop = with_bank - without
    assert drop >= 0.15
    _passed(6, f"--no-retrieval drops paladin RR {with_bank:.3f} -> {without:.3f} "
               f"({100 * drop:.1f} points)")


# --- criterion 7: generalization retention ----------------------------------------------------


def test_criterion_7_generalization_retention(tasks, bank):
    spec = SuiteSpec(
        n_episodes=35, master_seed=99, clean_fraction=0.0,
        held_out_kinds=frozenset({"http_503"}),
    )
    pruned, cards = generalization_split(spec, tasks, bank)
    in_bank = float(_run_suite(cards, "paladin", bank).rr)
    held_out = float(_run_suite(cards, "paladin", pruned).rr)
    assert in_bank > 0
    assert held_out >= 0.85 * in_bank
    _passed(
        7,
        f"held-out RR {held_out:.3f} >= 0.85 x in-bank RR {in_bank:.3f} "
        f"(retention {held_out / in_bank:.1%})",
    )


# --- criterion 8: CRITIC gating ----------------------------------------------------------------


def test_criterion_8_critic_gating():
    hits = sum(
        1 for i in range(10_000) if oracle_gate(EVAL_SEED, i, 3, 0.7)
    )
    freq = hits / 10_000
    assert abs(freq - 0.70) <= 0.02
    _passed(8, f"oracle-access frequency {freq:.4f} within 0.70 +- 0.02 over 10k events")


# --- criterion 9: backoff compliance -------------------------------------------------------------


def test_criterion_9_backoff_compliance(bank):
    rng = random.Random(71)
    for _ in range(500):
        attempt = rng.randint(1, 10)
        base = rng.randint(0, 2000)
        cap = rng.randint(0, 9000)
        pol = RetryWithBackoff(
            max_attempts=3, base_delay_ms=base, cap_ms=cap, respect_retry_after=False
        )
        delay = advance_backoff(SimClock(), attempt, pol, None, rng.randrange(2**32))
        assert 0 <= delay <= min(cap, base * 2 ** (attempt - 1))
    # cap dominance
    for seed in range(100):
        pol = RetryWithBackoff(max_attempts=3, base_delay_ms=500, cap_ms=8000)
        assert advance_backoff(SimClock(), 10, pol, None, seed) <= 8000
    # exact Retry-After adoption for the respecting policies (429/503 rows)
    for kind_id in ("http_429", "http_503"):
        obs = ErrorSignature(kind=kind_id, message="x")
        exemplar = retrieve(bank, obs)
        first = exemplar.script[0]
        assert isinstance(first, RetryWithBackoff) and first.respect_retry_after
        clock = SimClock()
        assert advance_backoff(clock, 1, first, 1200, seed=5) == 1200
    # 500 row retries without requiring the header
    obs_500 = ErrorSignature(kind="http_500", message="Unexpected server error")
    assert isinstance(retrieve(bank, obs_500).script[0], RetryWithBackoff)
    # auth scripts carry zero retry actions
    for kind_id in ("http_401", "http_403"):
        obs = ErrorSignature(kind=kind_id, message="x")
        script = retrieve(bank, obs).script
        assert not any(isinstance(a, RetryWithBackoff) for a in script)
    _passed(9, "full-jitter bounds, cap dominance, exact Retry-After, retry-free auth scripts")


# --- criterion 10: corpus composition -------------------------------------------------------------


def test_criterion_10_corpus_composition(tmp_path):
    runner = CliRunner()
    out_dir = tmp_path / "corpus"
    result = runner.invoke(
        cli_main,
        ["build-corpus", "--target", "100", "--recovery-fraction", "0.8",
         "--teacher", "rule", "--seed", "3", "--out-dir", str(out_dir)],
    )
    assert result.exit_code == 0, result.output
    lines = (out_dir / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 100
    spans = json.loads((out_dir / "spans.json").read_text())
    n_recovery = 0
    for line in lines:
        assert trajectory_to_line(trajectory_from_line(line)) == line
        traj = trajectory_from_line(line)
        recovery_turns = [i for i, t in enumerate(traj.turns) if t.is_recovery]
        recorded = [s[0] for s in spans[traj.episode_id]]
        assert recorded == recovery_turns  # spans cover 100% of Recovery: turns
        if recovery_turns:
            n_recovery += 1
    assert n_recovery == 80
    assert len(lines) - n_recovery == 20
    _passed(10, "corpus is exactly 80 recovery + 20 clean, byte-stable, spans complete")


# --- criterion 11: bootstrap correctness -----------------------------------------------------------


def test_criterion_11_bootstrap_correctness():
    constant = [
        EpisodeGrade(
            task_success=True, failures_encountered=0, failures_recovered=0,
            hallucinated_success=False, steps_taken=4,
        )
        for _ in range(50)
    ]
    lo, hi = bootstrap_ci(constant, n_resamples=400, seed=1)["tsr"]
    assert lo == hi == 1.0

    covered = 0
    for trial in range(100):
        rng = random.Random(5000 + trial)
        grades = [
            EpisodeGrade(
                task_success=rng.random() < 0.7,
                failures_encountered=0,
                failures_recovered=0,
                hallucinated_success=False,
                steps_taken=3,
            )
            for _ in range(200)
        ]
        lo, hi = bootstrap_ci(grades, n_resamples=500, seed=trial)["tsr"]
        if lo <= 0.7 <= hi:
            covered += 1
    assert covered >= 93
    _passed(
        11,
        f"zero-variance CI collapses; planted-TSR coverage {covered}/100 >= 93 at 95%",
    )
