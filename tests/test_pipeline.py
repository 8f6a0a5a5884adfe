from __future__ import annotations

import pytest

from click.testing import CliRunner

from conftest import assert_facts_match_texts, run_simple, view_state
from faultharness.episode import (
    Finished,
    GracefulFailure,
    InjectionPlan,
    Trajectory,
    Turn,
    trajectory_to_line,
)
from faultharness.errors import ConfigError, FaultHarnessError
from faultharness.pipeline import (
    CorpusSpec,
    CorpusTrace,
    RepairRequest,
    RuleBasedTeacher,
    compose_corpus,
    detect_first_failure,
    extract_recovery_spans,
    finalize,
    repair,
    truncate_at_failure,
)
from faultharness.taxonomy import CATALOG
from faultharness.trace import TraceView, trace_view


def failing_trace(kind="http_429", plan_seed=5):
    traj, registry, steps = run_simple("toolbench", kind=kind, plan_seed=plan_seed)
    return traj, registry


def test_detect_first_failure_none_on_clean():
    traj, _, _ = run_simple("vanilla", kind=None)
    assert detect_first_failure(traj) is None


def test_detect_first_failure_finds_injected_turn():
    traj, _ = failing_trace("http_500")
    found = detect_first_failure(traj)
    assert found is not None
    turn_index, sig = found
    assert traj.turns[turn_index].role == "function"
    assert sig.kind == "http_500"
    assert sig.status_code == 500


def test_detect_first_failure_prefers_earliest():
    turns = [
        Turn(role="system", content="s"),
        Turn(role="user", content="u"),
        Turn(role="assistant", content='Thought: a\nAction: t\nAction Input: {}'),
        Turn(role="function", content='{"error": "Unexpected server error", "status": 500}'),
        Turn(role="assistant", content='Thought: b\nAction: t\nAction Input: {}'),
        Turn(role="function", content='{"error": "Rate limit exceeded", "status": 429}'),
    ]
    traj = Trajectory(episode_id="x", plan=InjectionPlan(seed=1), turns=turns)
    turn_index, sig = detect_first_failure(traj)
    assert turn_index == 3
    assert sig.kind == "http_500"


def test_detect_rejects_malformed_role_order():
    traj = Trajectory(
        episode_id="x",
        plan=InjectionPlan(seed=1),
        turns=[Turn(role="user", content="u"), Turn(role="system", content="s")],
    )
    with pytest.raises(FaultHarnessError):
        detect_first_failure(traj)


def _repair_setup(kind: str, bank, plan_seed=5):
    traj, registry = failing_trace(kind, plan_seed=plan_seed)
    turn_index, sig = detect_first_failure(traj)
    truncated = truncate_at_failure(traj, turn_index)
    request = RepairRequest(
        toolset=registry,
        truncated_trace=truncated,
        error=sig,
    )
    return request, RuleBasedTeacher(bank)


def test_repair_429_appends_recovery_then_success(bank):
    request, teacher = _repair_setup("http_429", bank)
    repaired = repair(request, teacher)
    appended = repaired.turns[len(request.truncated_trace.turns):]
    assert appended[0].role == "assistant"
    assert appended[0].is_recovery
    assert isinstance(repaired.terminal, Finished)
    # rate-limit template mentions the wait-and-retry strategy
    assert "retry" in appended[0].content.lower()


def test_repair_401_ends_in_graceful_failure(bank):
    request, teacher = _repair_setup("http_401", bank)
    repaired = repair(request, teacher)
    assert isinstance(repaired.terminal, GracefulFailure)
    assert repaired.turns[-1].is_recovery


def test_repair_is_deterministic(bank):
    request, teacher = _repair_setup("http_500", bank)
    a = repair(request, teacher)
    b = repair(request, teacher)
    assert trajectory_to_line(a) == trajectory_to_line(b)


def test_repair_preserves_prefix_bytes(bank):
    request, teacher = _repair_setup("timeout", bank)
    prefix_lines = [
        (t.role, t.content, t.simulated_time_ms) for t in request.truncated_trace.turns
    ]
    repaired = repair(request, teacher)
    for before, after in zip(prefix_lines, repaired.turns):
        assert before == (after.role, after.content, after.simulated_time_ms)


def test_repair_output_is_grammar_valid(bank):
    from faultharness.protocol import parse_action

    for kind in ("http_400", "http_404", "schema_violation", "partial_output"):
        request, teacher = _repair_setup(kind, bank)
        repaired = repair(request, teacher)
        for turn in repaired.turns:
            if turn.role == "assistant":
                parse_action(turn.content)  # must not raise


def test_repair_empty_bank_is_teacher_failure(bank):
    from faultharness.bank import ExemplarBank

    with pytest.raises(FaultHarnessError, match="needs a non-empty bank"):
        RuleBasedTeacher(ExemplarBank(exemplars=()))


# --- finalize ---------------------------------------------------------------------


def test_finalize_idempotent_on_complete_trace():
    traj, _, _ = run_simple("vanilla", kind=None)
    out = finalize(traj)
    assert trajectory_to_line(out) == trajectory_to_line(traj)


def test_finalize_appends_missing_finish():
    traj, _, _ = run_simple("vanilla", kind=None)
    headless = Trajectory(
        episode_id=traj.episode_id, plan=traj.plan, turns=traj.turns[:-1]
    )
    out = finalize(headless)
    assert isinstance(out.terminal, Finished)
    assert out.turns[-1].role == "assistant"
    assert "answer=7" in out.terminal.answer


def test_finalize_rejects_failure_traces():
    traj, _ = failing_trace("http_500")
    with pytest.raises(FaultHarnessError, match="route it to repair"):
        finalize(traj)


# --- recovery spans -----------------------------------------------------------------


def test_spans_empty_without_recovery_turns():
    traj, _, _ = run_simple("vanilla", kind=None)
    assert extract_recovery_spans(traj) == []


def test_spans_cover_content_after_prefix(bank):
    traj, _, _ = run_simple("paladin", kind="http_429", plan_seed=1, bank=bank)
    spans = extract_recovery_spans(traj)
    assert len(spans) == len(traj.recovery_turns) == 1
    turn_index, start, end = spans[0]
    content = traj.turns[turn_index].content
    assert content.startswith("Recovery:")
    assert start == len("Recovery:")
    assert end == len(content)
    assert content[start:end].lstrip().startswith("Thought:")


def test_spans_roundtrip_oracle(bank):
    # writing the span text back behind a fresh prefix reproduces the spans
    traj, _, _ = run_simple("paladin", kind="http_503", plan_seed=1, bank=bank)
    spans = extract_recovery_spans(traj)
    rebuilt_turns = list(traj.turns)
    for turn_index, start, end in spans:
        original = traj.turns[turn_index]
        rebuilt_turns[turn_index] = Turn(
            role=original.role,
            content="Recovery:" + original.content[start:end],
            simulated_time_ms=original.simulated_time_ms,
        )
    rebuilt = Trajectory(
        episode_id=traj.episode_id, plan=traj.plan, turns=rebuilt_turns,
        terminal=traj.terminal,
    )
    assert extract_recovery_spans(rebuilt) == spans


# --- corpus composition ----------------------------------------------------------------


def _pools(bank, n_rec=12, n_clean=5):
    repaired = []
    kinds = sorted(CATALOG)
    for i in range(n_rec):
        kind = kinds[i % len(kinds)]
        request, teacher = _repair_setup(kind, bank, plan_seed=100 + i)
        fixed = repair(request, teacher)
        # distinct task hash per trace: vary the user turn
        fixed.turns[1] = Turn(
            role="user", content=f"task variant {i}", simulated_time_ms=0
        )
        fixed = Trajectory(
            episode_id=f"rec-{i:03d}", plan=fixed.plan, turns=fixed.turns,
            terminal=fixed.terminal,
        )
        repaired.append(CorpusTrace(trace=fixed, signature=request.error))
    clean = []
    for j in range(n_clean):
        traj, _, _ = run_simple("vanilla", kind=None, plan_seed=200 + j)
        traj.turns[1] = Turn(role="user", content=f"clean task {j}", simulated_time_ms=0)
        traj = Trajectory(
            episode_id=f"cln-{j:03d}", plan=traj.plan, turns=traj.turns,
            terminal=traj.terminal,
        )
        clean.append(CorpusTrace(trace=finalize(traj), signature=None))
    return repaired, clean


def test_compose_corpus_hits_fraction_exactly(bank):
    repaired, clean = _pools(bank)
    corpus = compose_corpus(repaired, clean, CorpusSpec(target_size=10, seed=3))
    recovery = [t for t in corpus.traces if extract_recovery_spans(t)]
    assert len(corpus.traces) == 10
    assert len(recovery) == 8
    assert corpus.manifest["counts"] == {"recovery": 8, "clean": 2, "total": 10}


def test_compose_corpus_dedups_duplicate_signatures(bank):
    repaired, clean = _pools(bank, n_rec=9)
    duplicate = repaired[0]
    with pytest.raises(ConfigError, match="recovery traces, have 1 after dedup"):
        compose_corpus([duplicate] * 9, clean, CorpusSpec(target_size=10, seed=3))


def test_compose_corpus_deterministic(bank):
    repaired, clean = _pools(bank)
    a = compose_corpus(repaired, clean, CorpusSpec(target_size=10, seed=9))
    b = compose_corpus(repaired, clean, CorpusSpec(target_size=10, seed=9))
    assert a.lines() == b.lines()


def test_corpus_traces_roundtrip_byte_stable(bank):
    from faultharness.episode import trajectory_from_line

    repaired, clean = _pools(bank)
    corpus = compose_corpus(repaired, clean, CorpusSpec(target_size=10, seed=1))
    for line in corpus.lines():
        assert trajectory_to_line(trajectory_from_line(line)) == line


def test_corpus_spans_cover_every_recovery_turn(bank):
    repaired, clean = _pools(bank)
    corpus = compose_corpus(repaired, clean, CorpusSpec(target_size=10, seed=1))
    for traj in corpus.traces:
        expected = [
            i for i, t in enumerate(traj.turns) if t.is_recovery
        ]
        recorded = [s[0] for s in corpus.spans[traj.episode_id]]
        assert recorded == expected


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(target_size=10, recovery_fraction=0.0)
    with pytest.raises(ValueError):
        CorpusSpec(target_size=1)


# --- facts the corpus path reuses -------------------------------------------------------


def test_corpus_traces_hold_only_true_facts(tmp_path, monkeypatch):
    import faultharness.cli as cli
    import faultharness.pipeline as pipeline

    composed = []

    def capture(repaired, clean, spec, dictionary_version="0"):
        composed.extend(item.trace for item in repaired + clean)
        return compose_corpus(repaired, clean, spec, dictionary_version)

    monkeypatch.setattr(pipeline, "compose_corpus", capture)
    result = CliRunner().invoke(
        cli.main,
        ["build-corpus", "--target", "150", "--seed", "0", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert len(composed) >= 150
    for trace in composed:
        view = trace_view(trace)
        assert_facts_match_texts(view)
        assert view_state(view) == view_state(TraceView(list(trace.turns)).update())


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _refuse(*args):
    raise AssertionError("the turn was classified again")


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_repair_classifies_nothing_and_parses_each_teacher_turn_once(kind, bank, monkeypatch):
    import faultharness.pipeline as pipeline

    traj, registry = failing_trace(kind)
    turn_index, sig = detect_first_failure(traj)
    monkeypatch.setattr("faultharness.taxonomy.detect_failure", _refuse)
    parses = _Counter(pipeline.parse_action)
    monkeypatch.setattr(pipeline, "parse_action", parses)
    monkeypatch.setattr("faultharness.protocol.parse_action", _refuse)
    request = RepairRequest(
        toolset=registry,
        truncated_trace=truncate_at_failure(traj, turn_index),
        error=sig,
    )
    repaired = repair(request, RuleBasedTeacher(bank))
    appended = repaired.turns[turn_index + 1:]
    assert parses.calls == sum(1 for turn in appended if turn.role == "assistant")
    trace_view(repaired)  # the teacher told the view every appended turn's facts


def test_finalize_parses_only_the_final_turn_of_a_simulated_trace(monkeypatch):
    import faultharness.pipeline as pipeline

    traj, _, _ = run_simple("vanilla", kind=None)
    monkeypatch.setattr("faultharness.taxonomy.detect_failure", _refuse)
    parses = _Counter(pipeline.parse_action)
    monkeypatch.setattr(pipeline, "parse_action", parses)
    assert finalize(traj) is traj
    assert parses.calls == 1
