from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_simple
from faultharness.errors import FaultHarnessError
from faultharness.metrics import (
    EpisodeGrade,
    _percentile,
    _randrange_chunks,
    aggregate,
    bootstrap_ci,
    correlations,
    grade_episode,
    pearson_r,
    report_csv_rows,
)


def grade(
    success=True, enc=0, rec=0, halluc=False, steps=3, label="clean"
) -> EpisodeGrade:
    return EpisodeGrade(
        task_success=success,
        failures_encountered=enc,
        failures_recovered=rec,
        hallucinated_success=halluc,
        steps_taken=steps,
        class_label=label,
    )


# --- grade_episode -----------------------------------------------------------------


class _FakeCard:
    def __init__(self, card):
        self._card = card


def _card_for(traj, registry, steps):
    from faultharness.benchgen import EpisodeCard

    return EpisodeCard(
        episode_id=traj.episode_id,
        prompt="Look up x and report the answer.",
        tools=registry,
        steps=steps,
        plan=traj.plan,
    )


def test_grade_clean_success():
    traj, registry, steps = run_simple("vanilla", kind=None)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert g.task_success
    assert g.failures_encountered == 0
    assert not g.hallucinated_success
    assert g.steps_taken == len(traj.assistant_turns)


def test_grade_retry_recovery(bank):
    traj, registry, steps = run_simple("paladin", kind="http_500", plan_seed=3, bank=bank)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert g.task_success
    assert (g.failures_encountered, g.failures_recovered) == (1, 1)
    assert g.class_label == "ReentrantFailure"


def test_grade_hallucinated_success():
    # frozen fixture: vanilla hallucinates on plan seed 1
    traj, registry, steps = run_simple("vanilla", kind="http_401", plan_seed=1)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert g.hallucinated_success
    assert not g.task_success
    assert g.failures_recovered == 0


def test_grade_honest_giveup_is_not_hallucination():
    traj, registry, steps = run_simple("toolbench", kind="http_401", plan_seed=1)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert not g.hallucinated_success
    assert not g.task_success


def test_grade_switch_recovery_counts(bank):
    traj, registry, steps = run_simple("paladin", kind="http_404", plan_seed=1, bank=bank)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert g.failures_recovered == 1  # backup tool served the same capability


def test_grade_persisting_fault_is_one_event(bank):
    # seed 0: http_503 persists for two retries; still one failure event
    traj, registry, steps = run_simple("paladin", kind="http_503", plan_seed=0, bank=bank)
    g = grade_episode(traj, _card_for(traj, registry, steps))
    assert g.failures_encountered == 1
    assert g.failures_recovered == 1


def test_grade_episode_mismatch():
    traj, registry, steps = run_simple("vanilla", kind=None)
    card = _card_for(traj, registry, steps)
    traj.episode_id = "someone-else"
    with pytest.raises(FaultHarnessError, match="does not belong to card"):
        grade_episode(traj, card)


def test_grade_invariants_enforced():
    with pytest.raises(ValueError):
        grade(enc=1, rec=2)
    with pytest.raises(ValueError):
        grade(halluc=True, enc=1, rec=1)
    with pytest.raises(ValueError):
        grade(steps=0)


# --- aggregate -----------------------------------------------------------------------


def test_aggregate_formula_examples():
    grades = [grade(success=i < 7) for i in range(10)]
    assert aggregate(grades).tsr == Fraction(7, 10)

    grades = [grade(success=False, enc=2, rec=1), grade(success=False, enc=2, rec=2)]
    assert aggregate(grades).rr == Fraction(3, 4)

    grades = [grade(success=False, enc=5, rec=0, halluc=False)]
    grades.append(grade(success=True, enc=0))
    report = aggregate(grades)
    assert report.csr == 1

    grades = [
        grade(success=True, enc=5, rec=4, halluc=True),
    ]
    assert aggregate(grades).csr == 1 - Fraction(1, 5)

    grades = [grade(steps=3), grade(steps=4), grade(steps=3), grade(steps=3)]
    # mean steps 3.25 -> ES = 1/3.25 = 4/13
    assert aggregate(grades).es == Fraction(4, 13)


def test_aggregate_not_applicable_on_zero_failures():
    report = aggregate([grade(), grade()])
    assert report.rr is None
    assert report.csr is None
    assert report.composite is None


def test_aggregate_composite():
    grades = [grade(success=True, enc=1, rec=1), grade(success=False, enc=1, rec=0)]
    report = aggregate(grades, alpha=0.5)
    assert report.composite == report.tsr - Fraction(1, 2) * (1 - report.csr)


def test_aggregate_rejects_empty():
    with pytest.raises(FaultHarnessError, match="no grades to aggregate"):
        aggregate([])


def _oracle_recount(grades):
    """Naive per-definition recount, separate code path from aggregate()."""
    total = len(grades)
    succ = len([g for g in grades if g.task_success])
    failures = 0
    recovered = 0
    halluc = 0
    steps = 0
    for g in grades:
        failures += g.failures_encountered
        recovered += g.failures_recovered
        halluc += 1 if g.hallucinated_success else 0
        steps += g.steps_taken
    tsr = Fraction(succ, total)
    rr = None if failures == 0 else Fraction(recovered, failures)
    csr = None if failures == 0 else Fraction(failures - halluc, failures)
    es = Fraction(1) / (Fraction(steps, total))
    return tsr, rr, csr, es


def _random_grades(rng: random.Random, n=None):
    grades = []
    for _ in range(n or rng.randint(1, 40)):
        enc = rng.randint(0, 4)
        rec = rng.randint(0, enc)
        halluc = rng.random() < 0.3 and rec < enc
        grades.append(
            grade(
                success=rng.random() < 0.6 and not halluc,
                enc=enc,
                rec=rec,
                halluc=halluc,
                steps=rng.randint(1, 12),
                label=rng.choice(["clean", "ReentrantFailure", "ToolHallucination"]),
            )
        )
    return grades


def test_aggregate_matches_bruteforce_recount_on_random_grades():
    rng = random.Random(2024)
    for _ in range(300):
        grades = _random_grades(rng)
        report = aggregate(grades)
        tsr, rr, csr, es = _oracle_recount(grades)
        assert (report.tsr, report.rr, report.csr, report.es) == (tsr, rr, csr, es)


def test_rr_monotone_in_recovered_episodes():
    base = _random_grades(random.Random(5), n=20)
    before = aggregate(base).rr or Fraction(0)
    base.append(grade(success=True, enc=1, rec=1))
    after = aggregate(base).rr
    assert after >= before


def test_csr_monotone_in_hallucinated_episodes():
    base = [grade(success=False, enc=1, rec=0) for _ in range(5)]
    before = aggregate(base).csr
    base.append(grade(success=True, enc=1, rec=0, halluc=True))
    after = aggregate(base).csr
    assert after <= before


def test_per_class_breakdown():
    grades = [
        grade(success=True, label="clean"),
        grade(success=False, enc=1, rec=0, label="ReentrantFailure"),
        grade(success=True, enc=1, rec=1, label="ReentrantFailure"),
    ]
    report = aggregate(grades)
    assert report.per_class["clean"]["tsr"] == 1.0
    assert report.per_class["ReentrantFailure"]["rr"] == 0.5


# --- bootstrap -----------------------------------------------------------------------


def test_bootstrap_zero_variance_collapses_to_point():
    grades = [grade(success=True, steps=3) for _ in range(30)]
    lo, hi = bootstrap_ci(grades, n_resamples=500, seed=7)["tsr"]
    assert lo == hi == 1.0


def test_bootstrap_single_resample_is_degenerate():
    grades = [grade(success=i % 2 == 0) for i in range(10)]
    lo, hi = bootstrap_ci(grades, n_resamples=1, seed=3)["tsr"]
    assert lo == hi


def _oracle_bootstrap(grades, seed, n_resamples=1000, confidence=0.95):
    """Independent implementation: same seed protocol, numpy percentiles."""
    import numpy as np  # imported here so the other tests collect where numpy cannot load

    rng = random.Random(seed)
    n = len(grades)
    stats = []
    for _ in range(n_resamples):
        sample = [grades[rng.randrange(n)] for _ in range(n)]
        stats.append(len([g for g in sample if g.task_success]) / n)
    tail = 100 * (1 - confidence) / 2
    return (
        float(np.percentile(stats, tail)),
        float(np.percentile(stats, 100 - tail)),
    )


def test_bootstrap_matches_independent_oracle():
    rng = random.Random(11)
    grades = [grade(success=rng.random() < 0.7) for _ in range(200)]
    lo, hi = bootstrap_ci(grades, n_resamples=1000, seed=55)["tsr"]
    olo, ohi = _oracle_bootstrap(grades, seed=55)
    assert abs(lo - olo) <= 0.005
    assert abs(hi - ohi) <= 0.005
    assert lo <= 0.7 <= hi


def test_bootstrap_skips_undefined_resamples():
    grades = [grade(enc=0)] * 5 + [grade(success=False, enc=1, rec=1)]
    lo, hi = bootstrap_ci(grades, n_resamples=200, seed=1)["rr"]
    assert 0.0 <= lo <= hi <= 1.0


def test_bootstrap_rejects_empty():
    with pytest.raises(FaultHarnessError, match="no grades to bootstrap"):
        bootstrap_ci([])


# The bootstrap as it was written before per-episode counts: one randrange per
# drawn episode and a selector over grade objects. Kept verbatim as the oracle
# that the counts-and-batched-draws version must equal exactly.


def _legacy_tsr(grades):
    return sum(1 for g in grades if g.task_success) / len(grades)


def _legacy_rr(grades):
    enc = sum(g.failures_encountered for g in grades)
    if enc == 0:
        return None
    return sum(g.failures_recovered for g in grades) / enc


def _legacy_csr(grades):
    enc = sum(g.failures_encountered for g in grades)
    if enc == 0:
        return None
    return 1 - sum(1 for g in grades if g.hallucinated_success) / enc


def _legacy_es(grades):
    return len(grades) / sum(g.steps_taken for g in grades)


_LEGACY_SELECTORS = {"tsr": _legacy_tsr, "rr": _legacy_rr, "csr": _legacy_csr, "es": _legacy_es}


def _legacy_bootstrap_ci(grades, metric, n_resamples=1000, confidence=0.95, seed=0):
    if not grades:
        raise FaultHarnessError("no grades to bootstrap")
    selector = _LEGACY_SELECTORS[metric]
    rng = random.Random(seed)
    n = len(grades)
    stats = []
    for _ in range(max(1, n_resamples)):
        resample = [grades[rng.randrange(n)] for _ in range(n)]
        value = selector(resample)
        if value is not None:
            stats.append(value)
    if not stats:
        raise FaultHarnessError("metric undefined on every bootstrap resample")
    stats.sort()
    tail = (1 - confidence) / 2
    return (_percentile(stats, tail), _percentile(stats, 1 - tail))


@st.composite
def _episode_grades(draw):
    # up to 20 failures: resample failure sums pass any single episode's count;
    # up to 300 steps: counts do not fit in one byte
    enc = draw(st.one_of(st.integers(0, 3), st.integers(0, 20)))
    rec = draw(st.integers(0, enc))
    return grade(
        success=draw(st.booleans()),
        enc=enc,
        rec=rec,
        halluc=rec < enc and draw(st.booleans()),
        steps=draw(st.one_of(st.integers(1, 12), st.integers(1, 300))),
    )


# n = 1, powers of two and their neighbours (no rejection at 2**k - 1, the most at 2**k);
# 255 is the largest n drawn from top bytes, 256 and 257 take the list path
_EDGE_SIZES = st.sampled_from(
    [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 257]
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(_EDGE_SIZES, st.integers(1, 300)),
    n_resamples=st.integers(1, 50),
    seed=st.integers(0, 2**64),
    failure_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_bootstrap_equals_randrange_oracle(data, n, n_resamples, seed, failure_share):
    # failure_share 0 leaves rr/csr undefined on every resample, 0.05 on some;
    # a metric undefined on every resample has no CI
    rng = random.Random(seed)
    grades = [
        data.draw(_episode_grades()) if rng.random() < failure_share
        else grade(success=rng.random() < 0.6, steps=rng.randint(1, 12))
        for _ in range(n)
    ]
    cis = bootstrap_ci(grades, n_resamples, seed=seed)
    for metric in ("tsr", "rr", "csr", "es"):
        try:
            expected = _legacy_bootstrap_ci(grades, metric, n_resamples, seed=seed)
        except FaultHarnessError:
            assert metric not in cis
            continue
        assert cis[metric] == expected


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(_EDGE_SIZES, st.integers(1, 300)),
    n_resamples=st.integers(1, 50),
    seed=st.integers(0, 2**64),
    failure_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_bootstrap_all_metrics_equal_randrange_oracle(data, n, n_resamples, seed, failure_share):
    # one stream scores every metric: each CI equals its own single-metric oracle;
    # failure_share 0 leaves rr/csr undefined on every resample, 0.05 on some
    rng = random.Random(seed)
    grades = [
        data.draw(_episode_grades()) if rng.random() < failure_share
        else grade(success=rng.random() < 0.6, steps=rng.randint(1, 12))
        for _ in range(n)
    ]
    expected = {}
    for metric in ("tsr", "rr", "csr", "es"):
        try:
            expected[metric] = _legacy_bootstrap_ci(grades, metric, n_resamples, seed=seed)
        except FaultHarnessError:
            pass
    assert bootstrap_ci(grades, n_resamples, seed=seed) == expected


def _first_indices(n, seed, count=5000):
    return list(islice(chain.from_iterable(_randrange_chunks(random.Random(seed), n)), count))


def test_randrange_chunks_reproduce_randrange_stream():
    # a CPython whose randrange draws differently fails here, before any CI moves
    for n in range(1, 1001):
        seed = 7919 * n
        oracle = random.Random(seed)
        assert _first_indices(n, seed) == [oracle.randrange(n) for _ in range(5000)], n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 1000), seed=st.integers(0, 2**64))
def test_randrange_chunks_reproduce_randrange_stream_any_seed(n, seed):
    oracle = random.Random(seed)
    assert _first_indices(n, seed) == [oracle.randrange(n) for _ in range(5000)]


# --- correlations ---------------------------------------------------------------------


def test_pearson_self_correlation_is_one():
    xs = [1.0, 2.0, 5.0, 3.0, 8.0]
    assert pearson_r(xs, xs) == pytest.approx(1.0)


def test_pearson_negation_is_minus_one():
    xs = [1.0, 2.0, 5.0, 3.0, 8.0]
    assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_matches_closed_form_oracle():
    import numpy as np

    rng = random.Random(31)
    xs = [rng.gauss(0, 1) for _ in range(50)]
    ys = [0.8 * x + 0.2 * rng.gauss(0, 1) for x in xs]
    ours = pearson_r(xs, ys)
    oracle = float(np.corrcoef(xs, ys)[0, 1])
    assert abs(ours - oracle) <= 1e-9


def _float_pearson(xs, ys, add):
    """The textbook float formula, every sum taken by `add`."""
    n = len(xs)
    mean_x, mean_y = add(xs) / n, add(ys) / n
    cov = add([(x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)])
    var_x = add([(x - mean_x) ** 2 for x in xs])
    var_y = add([(y - mean_y) ** 2 for y in ys])
    return cov / math.sqrt(var_x * var_y)


def test_pearson_is_exact_where_float_sum_and_fsum_disagree():
    # a grade-like series: recovery r/e against efficiency 1/steps. The builtin
    # `sum` of CPython 3.11 and earlier adds floats left to right; from 3.12 it
    # compensates, which `math.fsum` stands in for here
    xs = [1.0, 0.5, 1 / 3, 1.0]
    ys = [1 / 8, 1 / 3, 1 / 9, 1 / 9]
    left_to_right = partial(reduce, operator.add)
    assert left_to_right(xs) != math.fsum(xs)
    by_left_to_right = _float_pearson(xs, ys, left_to_right)
    by_fsum = _float_pearson(xs, ys, math.fsum)
    assert by_left_to_right != by_fsum

    # the exact value, rounded to a float once (as r squared) before one sqrt
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mean_x, mean_y = sum(fx) / len(fx), sum(fy) / len(fy)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(fx, fy))
    r2 = cov * cov / (sum((x - mean_x) ** 2 for x in fx) * sum((y - mean_y) ** 2 for y in fy))
    exact = -math.sqrt(r2)
    assert cov < 0
    assert pearson_r(xs, ys) == exact == -0.3760239895292997
    assert exact not in (by_left_to_right, by_fsum)
    # nor does the order of the pairs matter
    assert pearson_r(xs[::-1], ys[::-1]) == exact


def test_pearson_zero_variance_is_none():
    assert pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_correlations_pairs():
    series = {"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0, 6.0], "c": [3.0, 2.0, 1.0]}
    out = correlations(series)
    assert out["a:b"] == pytest.approx(1.0)
    assert out["a:c"] == pytest.approx(-1.0)
    assert set(out) == {"a:b", "a:c", "b:c"}


def test_csv_rows_shape():
    report = aggregate([grade(success=True, enc=1, rec=1)])
    rows = report_csv_rows(report, "suite.jsonl", "paladin")
    assert rows[0] == "suite,agent,metric,point,ci_lo,ci_hi"
    assert len(rows) == 6
    assert rows[1].startswith("suite.jsonl,paladin,tsr,")
