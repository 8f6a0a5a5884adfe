"""Trajectory grading and suite-level robustness metrics.

Four metrics over graded episodes:

* task success rate: successful tasks / total tasks
* recovery rate: failures recovered / failures encountered
* catastrophe success rate: 1 - hallucinated successes / total failures
* efficiency score: 1 / mean steps to complete a task

Aggregation is exact (rationals). Bootstrap confidence intervals use
episode-level percentile resampling with one resample stream per call: every
metric is scored on the same resamples, so the CIs are paired across metrics,
and across runs that bootstrap equally many episodes with the same seed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat

from .episode import Finished, Trajectory
from .errors import ConfigError, FaultHarnessError
from .taxonomy import kind_class
from .trace import trace_view

_FAILURE_ACKNOWLEDGEMENTS = (
    "could not",
    "couldn't",
    "unable",
    "failed",
    "failure",
    "error",
    "give up",
    "giving up",
)


@dataclass(frozen=True)
class EpisodeGrade:
    task_success: bool
    failures_encountered: int
    failures_recovered: int
    hallucinated_success: bool
    steps_taken: int
    class_label: str = "clean"

    def __post_init__(self):
        if self.failures_recovered > self.failures_encountered:
            raise ValueError("cannot recover more failures than encountered")
        if self.hallucinated_success and self.failures_recovered >= self.failures_encountered:
            raise ValueError("hallucinated success requires an unrecovered failure")
        if self.steps_taken < 1:
            raise ValueError("graded episodes take at least one step")

    def to_json(self) -> dict:
        return {
            "task_success": self.task_success,
            "failures_encountered": self.failures_encountered,
            "failures_recovered": self.failures_recovered,
            "hallucinated_success": self.hallucinated_success,
            "steps_taken": self.steps_taken,
            "class_label": self.class_label,
        }


# --- grading ------------------------------------------------------------------------


def _answer_asserts_failure_data(answer: str) -> bool:
    lowered = answer.lower()
    return not any(ack in lowered for ack in _FAILURE_ACKNOWLEDGEMENTS)


def grade_episode(traj: Trajectory, card) -> EpisodeGrade:
    """Rule-based grade of one trajectory against its episode card."""
    if traj.episode_id != card.episode_id:
        raise FaultHarnessError(
            f"trajectory {traj.episode_id} does not belong to card {card.episode_id}"
        )

    def capability_of(tool_name: str) -> str:
        tool = card.tools.get(tool_name)
        return tool.capability_tag() if tool else tool_name

    events = trace_view(traj).failure_events(capability_of)
    encountered = len(events)
    recovered = sum(1 for e in events if e.recovered)

    task_success = False
    hallucinated = False
    if isinstance(traj.terminal, Finished):
        expected = card.final_step_payload()
        answer = traj.terminal.answer
        task_success = bool(expected) and all(
            str(v) in answer for v in expected.values() if not isinstance(v, (dict, list))
        )
        if recovered < encountered and _answer_asserts_failure_data(answer):
            hallucinated = True
            task_success = False

    steps = max(1, len(traj.assistant_turns))
    label = "clean" if traj.plan.kind is None else kind_class(traj.plan.kind).value
    return EpisodeGrade(
        task_success=task_success,
        failures_encountered=encountered,
        failures_recovered=recovered,
        hallucinated_success=hallucinated,
        steps_taken=steps,
        class_label=label,
    )


# --- aggregation ----------------------------------------------------------------------


@dataclass
class MetricsReport:
    tsr: Fraction
    rr: Fraction | None
    csr: Fraction | None
    es: Fraction
    alpha: Fraction
    composite: Fraction | None
    n_episodes: int
    per_class: dict[str, dict] = field(default_factory=dict)
    bootstrap: dict[str, tuple[float, float]] = field(default_factory=dict)
    n_resamples: int = 0
    correlations: dict[str, float | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        def as_float(v):
            return None if v is None else float(v)

        return {
            "n_episodes": self.n_episodes,
            "tsr": as_float(self.tsr),
            "rr": as_float(self.rr),
            "csr": as_float(self.csr),
            "es": as_float(self.es),
            "alpha": as_float(self.alpha),
            "composite": as_float(self.composite),
            "per_class": self.per_class,
            "bootstrap": {
                k: {"lo": lo, "hi": hi} for k, (lo, hi) in self.bootstrap.items()
            },
            "n_resamples": self.n_resamples,
            "correlations": self.correlations,
        }


def _rates(grades: list[EpisodeGrade], alpha: Fraction):
    total = len(grades)
    successes = sum(1 for g in grades if g.task_success)
    enc = sum(g.failures_encountered for g in grades)
    rec = sum(g.failures_recovered for g in grades)
    halluc = sum(1 for g in grades if g.hallucinated_success)
    steps = sum(g.steps_taken for g in grades)

    tsr = Fraction(successes, total)
    rr = Fraction(rec, enc) if enc else None
    csr = (1 - Fraction(halluc, enc)) if enc else None
    es = Fraction(total, steps)
    composite = None if csr is None else tsr - alpha * (1 - csr)
    return tsr, rr, csr, es, composite


def aggregate(grades: list[EpisodeGrade], alpha: float | Fraction = 1) -> MetricsReport:
    """Exact metric aggregation; RR/CSR are not-applicable on failure-free suites."""
    if not grades:
        raise FaultHarnessError("no grades to aggregate")
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise ConfigError("alpha must be finite")
    alpha_f = Fraction(alpha).limit_denominator(10**9)
    tsr, rr, csr, es, composite = _rates(grades, alpha_f)

    per_class: dict[str, dict] = {}
    for label in sorted({g.class_label for g in grades}):
        subset = [g for g in grades if g.class_label == label]
        c_tsr, c_rr, c_csr, c_es, _ = _rates(subset, alpha_f)
        per_class[label] = {
            "n": len(subset),
            "tsr": float(c_tsr),
            "rr": None if c_rr is None else float(c_rr),
            "csr": None if c_csr is None else float(c_csr),
            "es": float(c_es),
        }

    return MetricsReport(
        tsr=tsr,
        rr=rr,
        csr=csr,
        es=es,
        alpha=alpha_f,
        composite=composite,
        n_episodes=len(grades),
        per_class=per_class,
    )


# --- bootstrap -------------------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (matches numpy's default)."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _randrange_chunks(rng: random.Random, n: int):
    """Yield chunks of n indices, the same stream as repeated `rng.randrange(n)`.

    `randrange(n)` draws `getrandbits(k)`, k = n.bit_length(), and rejects values
    >= n; `getrandbits(k <= 32)` is the top k bits of the next 32-bit word. For
    k <= 8 one `getrandbits(32 * m)` holds m words, and its little-endian byte
    4i + 3 is the top byte of word i: one `translate` shifts and rejects the
    whole batch, and the chunks are `bytes`. Larger n draws lists of
    `getrandbits(k)` and filters them. Accepted values beyond the current
    chunk carry over to the next one.
    """
    k = n.bit_length()
    if k <= 8:
        words = 64 * n
        table = bytes(b >> (8 - k) for b in range(256))
        rejected = bytes(b for b in range(256) if table[b] >= n)
        pool, pos = b"", 0
        while True:
            while len(pool) - pos < n:
                top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
                pool, pos = pool[pos:] + top.translate(table, rejected), 0
            yield pool[pos:pos + n]
            pos += n
    pool: list[int] = []
    while True:
        while len(pool) < n:
            pool += [r for r in map(rng.getrandbits, repeat(k, n)) if r < n]
        yield pool[:n]
        del pool[:n]


BOOTSTRAP_METRICS = ("tsr", "rr", "csr", "es")
BOOTSTRAP_CONFIDENCE = 0.95


def bootstrap_ci(
    grades: list[EpisodeGrade], n_resamples: int = 1000, seed: int = 0
) -> dict[str, tuple[float, float]]:
    """Percentile bootstrap CIs, at `BOOTSTRAP_CONFIDENCE`, over episode-level
    resampling with replacement: `{metric: (lo, hi)}` for each of
    `BOOTSTRAP_METRICS` that some resample defines.

    One resample stream per call scores every metric, pairing the CIs across
    metrics and across runs with the same seed and episode count.
    """
    if not grades:
        raise FaultHarnessError("no grades to bootstrap")
    stats = {name: [] for name in BOOTSTRAP_METRICS}
    n = len(grades)
    col, bases = [0] * n, []
    # mixed radix: each base exceeds any resample's sum of its field, so no sum carries
    for name in ("task_success", "failures_recovered", "hallucinated_success",
                 "failures_encountered", "steps_taken"):
        values = [int(getattr(g, name)) for g in grades]
        bases.append(n * max(values) + 1)
        col = [c * bases[-1] + v for c, v in zip(col, values)]
    _, rec_base, halluc_base, enc_base, steps_base = bases
    tsr, rr, csr, es = stats.values()
    for chunk in islice(_randrange_chunks(random.Random(seed), n), max(1, n_resamples)):
        a, steps = divmod(sum(map(col.__getitem__, chunk)), steps_base)
        a, e = divmod(a, enc_base)
        a, h = divmod(a, halluc_base)
        s, r = divmod(a, rec_base)
        tsr.append(s / n)
        es.append(n / steps)
        if e:  # rr and csr are undefined on a resample without failures
            rr.append(r / e)
            csr.append(1 - h / e)
    tail = (1 - BOOTSTRAP_CONFIDENCE) / 2
    return {name: (_percentile(v, tail), _percentile(v, 1 - tail))
            for name, v in zip(stats, map(sorted, stats.values())) if v}


# --- correlations ------------------------------------------------------------------------


def _as_integers(values) -> dict:
    """Each distinct value as an exact integer, all scaled by one common factor."""
    ratios = {v: v.as_integer_ratio() for v in set(values)}
    scale = math.lcm(*(d for _, d in ratios.values()))
    return {v: n * (scale // d) for v, (n, d) in ratios.items()}


def pearson_r(xs: list[float], ys: list[float]) -> float | None:
    """Pearson correlation; None when either series has zero variance.

    The sums are exact: each float is taken as the rational it stores, scaled
    to an integer, and each distinct (x, y) pair is added once, times its
    count. r squared is rounded to a float once and takes one `math.sqrt`, so
    r does not depend on how the interpreter's `sum` adds floats.
    """
    if len(xs) != len(ys):
        raise ValueError("paired series must have equal length")
    n = len(xs)
    if n < 2:
        return None
    x_int, y_int = _as_integers(xs), _as_integers(ys)
    sx = sy = sxx = syy = sxy = 0
    for (x, y), count in Counter(zip(xs, ys)).items():
        xi, yi = x_int[x], y_int[y]
        sx += count * xi
        sy += count * yi
        sxx += count * xi * xi
        syy += count * yi * yi
        sxy += count * xi * yi
    # n times the sums of deviation products, in scaled units: both factors cancel in r
    cov = n * sxy - sx * sy
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    if var_x == 0 or var_y == 0:
        return None
    return math.copysign(math.sqrt(cov * cov / (var_x * var_y)), cov)


def correlations(series: dict[str, list[float]]) -> dict[str, float | None]:
    """Pearson r for every unordered pair of series, keyed "a:b" with a < b."""
    names = sorted(series)
    return {
        f"{a}:{b}": pearson_r(series[a], series[b])
        for i, a in enumerate(names)
        for b in names[i + 1:]
    }


def grade_series(grades: list[EpisodeGrade]) -> dict[str, list[float]]:
    """Per-episode series (failure episodes only) for correlation reports."""
    failure_grades = [g for g in grades if g.failures_encountered > 0]
    return {
        "recovery": [g.failures_recovered / g.failures_encountered for g in failure_grades],
        "success": [1.0 if g.task_success else 0.0 for g in failure_grades],
        "safety": [0.0 if g.hallucinated_success else 1.0 for g in failure_grades],
        "efficiency": [1.0 / g.steps_taken for g in failure_grades],
    }


# --- report output ------------------------------------------------------------------------


def report_csv_rows(report: MetricsReport, suite: str, agent: str) -> list[str]:
    """Flat CSV rows: suite, agent, metric, point, ci_lo, ci_hi."""
    rows = ["suite,agent,metric,point,ci_lo,ci_hi"]
    doc = report.to_json()
    for name in ("tsr", "rr", "csr", "es", "composite"):
        point = doc[name]
        lo, hi = report.bootstrap.get(name, (None, None))
        rows.append(
            ",".join(
                [
                    suite,
                    agent,
                    name,
                    "" if point is None else repr(point),
                    "" if lo is None else repr(lo),
                    "" if hi is None else repr(hi),
                ]
            )
        )
    return rows


def report_to_json_text(report: MetricsReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
