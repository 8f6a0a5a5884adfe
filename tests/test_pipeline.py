from __future__ import annotations

import dataclasses

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
from faultharness.agents import answer_quoting, make_policy
from faultharness.bank import (
    ReformatArguments,
    SwitchTool,
    ValidateAndReissue,
    retrieve,
)
from faultharness.encoders import dumps_ascii
from faultharness.errors import ConfigError, FaultHarnessError
from faultharness.pipeline import (
    REMOTE_TEACHER_MAX_TURNS,
    CorpusSpec,
    CorpusTrace,
    RemoteTeacher,
    RepairRequest,
    RuleBasedTeacher,
    compose_corpus,
    detect_first_failure,
    _extend,
    extract_recovery_spans,
    finalize,
    repair,
    truncate_at_failure,
)
from faultharness.protocol import Finish, RecoveryStep, ToolCall, parse_action, render_action
from faultharness.remote import EndpointConfig
from faultharness.simulator import ToolRegistry, ToolSpec, canonical_call_key, run_episode
from faultharness.tasks import TaskStep, builtin_task_pool
from faultharness.taxonomy import CATALOG, ErrorSignature
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
    # the step states the rate-limit script's first action, a backoff retry
    assert "retry" in appended[0].content.lower()


def test_repair_fills_template_slots_once(bank):
    # the terminate report's slots are filled once: a slot name inside the
    # error message is quoted verbatim, not filled in turn
    request, teacher = _repair_setup("http_401", bank)
    error = ErrorSignature("http_401", "Bad key {args} for {tool}")
    repaired = repair(dataclasses.replace(request, error=error), teacher)
    step = parse_action(repaired.turns[len(request.truncated_trace.turns)].content)
    assert step.report == retrieve(bank, error).script[0].report_for("lookup", error)
    assert "(Bad key {args} for {tool})" in step.report
    assert repaired.terminal == GracefulFailure(report=step.report)


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
    for kind in ("http_400", "http_404", "schema_violation", "partial_output"):
        request, teacher = _repair_setup(kind, bank)
        repaired = repair(request, teacher)
        for turn in repaired.turns:
            if turn.role == "assistant":
                parse_action(turn.content)  # must not raise


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_rule_teacher_teaches_the_recovery_the_bank_states(kind, bank):
    # a corpus trace's first recovery turn states the retrieved exemplar's first
    # script action, terminate report included, and makes the call or gives the
    # report that paladin's first recovery turn does on the same plan
    request, teacher = _repair_setup(kind, bank)
    repaired = repair(request, teacher)
    step = parse_action(repaired.recovery_turns[0].content)
    assert isinstance(step, RecoveryStep)
    assert step.action == retrieve(bank, request.error).script[0]
    paladin, _, _ = run_simple("paladin", kind=kind, plan_seed=5, bank=bank)
    expected = parse_action(paladin.recovery_turns[0].content)
    assert (step.report, step.call) == (expected.report, expected.call)


def _weather_lookup_answering(body):
    """weather_paris whose weather_lookup is scripted to answer `body`, and that
    task's toolbench trace."""
    task = next(t for t in builtin_task_pool() if t.slug == "weather_paris")
    step = task.steps[0]
    scripted = dataclasses.replace(
        task.tools.get(step.tool),
        scripted_responses={canonical_call_key(step.tool, step.arguments): dumps_ascii(body)},
    )
    tools = ToolRegistry(tuple(scripted if t.name == step.tool else t for t in task.tools.tools))
    traj = run_episode(
        task.prompt, tools, make_policy("toolbench", steps=task.steps), InjectionPlan(seed=1)
    )
    return tools, traj


def _permanently_missing_tool():
    """weather_paris whose weather_lookup always answers that the tool does not
    exist, and that task's toolbench trace."""
    return _weather_lookup_answering({"error": "Tool weather_lookup does not exist"})


@pytest.mark.parametrize("with_alternative", [True, False])
def test_rule_teacher_switches_to_the_alternative_tool(bank, with_alternative):
    tools, traj = _permanently_missing_tool()
    if not with_alternative:
        tools = ToolRegistry(tuple(t for t in tools.tools if not t.name.endswith("_backup")))
    turn_index, sig = detect_first_failure(traj)
    assert sig.kind == "tool_not_found"
    exemplar = retrieve(bank, sig)
    assert exemplar.id == "tool_missing__tool_not_found"
    assert isinstance(exemplar.script[0], SwitchTool)
    request = RepairRequest(
        toolset=tools, truncated_trace=truncate_at_failure(traj, turn_index), error=sig
    )
    repaired = repair(request, RuleBasedTeacher(bank))
    step = parse_action(repaired.recovery_turns[0].content)
    if with_alternative:
        # the switch calls the backup, whose scripted data answers the task
        assert step.action == SwitchTool()
        assert step.call.name == "weather_lookup_backup"
        assert isinstance(repaired.terminal, Finished)
        assert "temp_c=18" in repaired.terminal.answer
    else:
        # no alternative: the script's next action, a graceful stop
        assert step.action == exemplar.script[1]
        assert isinstance(repaired.terminal, GracefulFailure)


def _assert_answers_as_the_extended_trace(request, bank):
    """The rule teacher's Finish answer is the one the truncated trace extended by
    its corrective step and served response gives; returns that answer, or None
    for a graceful stop."""
    turns = RuleBasedTeacher(bank).continuation(request)
    finish = turns[-1].parsed
    if not isinstance(finish, Finish):
        assert len(turns) == 1  # a graceful stop makes no call and gives no answer
        return None
    assert len(turns) == 3
    extended = trace_view(_extend(request.truncated_trace, turns[:2]))
    assert finish.answer == answer_quoting(extended.last_success_payload())
    return finish.answer


@pytest.mark.parametrize("with_backup", [True, False])
@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_rule_teacher_answers_from_the_response_it_served(kind, with_backup, bank):
    answers = set()
    for plan_seed in (5, 6, 7):
        traj, registry, _ = run_simple(
            "toolbench", kind=kind, plan_seed=plan_seed, with_backup=with_backup
        )
        turn_index, sig = detect_first_failure(traj)
        request = RepairRequest(
            toolset=registry, truncated_trace=truncate_at_failure(traj, turn_index), error=sig
        )
        answers.add(_assert_answers_as_the_extended_trace(request, bank))
    assert answers <= {None, "Task complete. Final result: answer=7; unit=days."}


def test_rule_teacher_quotes_the_prefix_when_the_served_payload_is_no_object(bank):
    # the second step's data is a JSON array: the answer falls back to the
    # prefix's last successful payload, the first step's
    steps = (TaskStep("lookup", {"q": "x"}), TaskStep("fetch", {"id": 1}))
    registry = ToolRegistry(tuple(
        ToolSpec(name=step.tool, description="", parameters={}, scripted_responses={
            canonical_call_key(step.tool, step.arguments): payload,
        })
        for step, payload in zip(steps, ('{"answer":7,"unit":"days"}', "[1, 2]"))
    ))
    plan = InjectionPlan(seed=3, kind="http_500", turn_index=2)
    traj = run_episode("task", registry, make_policy("toolbench", steps=steps), plan)
    turn_index, sig = detect_first_failure(traj)
    request = RepairRequest(
        toolset=registry, truncated_trace=truncate_at_failure(traj, turn_index), error=sig
    )
    answer = _assert_answers_as_the_extended_trace(request, bank)
    assert answer == "Task complete. Final result: answer=7; unit=days."


@pytest.mark.parametrize("teacher", ["rule", "remote"])
def test_a_repair_whose_corrective_call_fails_is_refused(bank, teacher):
    # the reissued call's own script is a failure body: it is served as it is,
    # not wrapped as a success, so the repair is refused and quarantined
    tools, traj = _weather_lookup_answering({"error": "Rate limit exceeded", "status": 429})
    turn_index, sig = detect_first_failure(traj)
    assert sig.kind == "http_429"
    request = RepairRequest(
        toolset=tools, truncated_trace=truncate_at_failure(traj, turn_index), error=sig
    )
    if teacher == "rule":
        teacher = RuleBasedTeacher(bank)
    else:
        step = RecoveryStep(
            action=ValidateAndReissue(), thought="again",
            call=ToolCall("weather_lookup", {"city": "Paris"}),
        )
        teacher = _remote_teacher(
            _StubClient(render_action(step), render_action(Finish(answer="done", thought="ok")))
        )
    with pytest.raises(FaultHarnessError) as excinfo:
        repair(request, teacher)
    assert str(excinfo.value) == (
        "the corrective call to weather_lookup fails too (http_429: Rate limit exceeded)"
    )


class _StubClient:
    """A chat endpoint that answers with its texts in turn, the last one forever."""

    def __init__(self, *texts):
        self.texts = texts
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return self.texts[min(self.calls, len(self.texts)) - 1]


def _remote_teacher(client):
    teacher = RemoteTeacher(EndpointConfig(base_url="http://127.0.0.1:1"))
    teacher._client = client
    return teacher


def test_remote_teacher_keeps_a_repair_in_the_stated_form(bank):
    request, _ = _repair_setup("http_400", bank)
    view = trace_view(request.truncated_trace)
    call = view.call_at(view.last_assistant)
    step = RecoveryStep(
        action=ReformatArguments(), thought="fixing", call=ToolCall(call.name, call.arguments)
    )
    client = _StubClient(render_action(step), render_action(Finish(answer="done", thought="ok")))
    repaired = repair(request, _remote_teacher(client))
    appended = repaired.turns[len(request.truncated_trace.turns):]
    assert [t.role for t in appended] == ["assistant", "function", "assistant"]
    assert appended[0].content == render_action(step)
    assert repaired.terminal == Finished(answer="done")
    assert client.calls == 2


def test_remote_teacher_quarantines_a_bare_recovery_turn(bank):
    request, _ = _repair_setup("http_400", bank)
    bare = 'Recovery: Thought: fixing\nAction: lookup\nAction Input: {"q": "x"}'
    with pytest.raises(FaultHarnessError, match="remote teacher failed: .*no valid action line"):
        repair(request, _remote_teacher(_StubClient(bare)))


def test_remote_teacher_quarantines_a_repair_that_never_terminates(bank):
    request, _ = _repair_setup("http_400", bank)
    step = RecoveryStep(
        action=ValidateAndReissue(), thought="again", call=ToolCall("lookup", {"q": "x"})
    )
    client = _StubClient(render_action(step))
    with pytest.raises(FaultHarnessError, match="did not terminate"):
        repair(request, _remote_teacher(client))
    assert client.calls == REMOTE_TEACHER_MAX_TURNS


@pytest.mark.parametrize("call, refusal", [
    (ToolCall("lookup", {"q": "not-scripted"}), "http_400: No scripted response for this request"),
    (ToolCall("no_such_tool", {"q": "x"}), "tool_not_found: Tool 'no_such_tool' not found in registry"),
], ids=["no_script", "no_such_tool"])
def test_a_remote_call_the_simulator_would_refuse_is_refused(call, refusal, bank):
    # a call with no script, or to a tool not in the registry, is served what the
    # simulator serves it, a failure, not a bare success
    request, _ = _repair_setup("http_400", bank)
    step = RecoveryStep(action=ValidateAndReissue(), thought="again", call=call)
    client = _StubClient(render_action(step), render_action(Finish(answer="done", thought="ok")))
    with pytest.raises(FaultHarnessError) as excinfo:
        repair(request, _remote_teacher(client))
    assert str(excinfo.value) == f"the corrective call to {call.name} fails too ({refusal})"
    assert client.calls == 1


def test_repair_empty_bank_is_teacher_failure(bank):
    from faultharness.bank import ExemplarBank

    with pytest.raises(FaultHarnessError, match="needs a non-empty bank"):
        RuleBasedTeacher(ExemplarBank(exemplars=()))


# --- finalize ---------------------------------------------------------------------


def test_finalize_idempotent_on_complete_trace():
    traj, _, _ = run_simple("vanilla", kind=None)
    out = finalize(traj)
    assert trajectory_to_line(out) == trajectory_to_line(traj)


def test_finalize_refuses_a_trace_that_does_not_end_in_finish():
    traj, _, _ = run_simple("vanilla", kind=None)
    headless = Trajectory(
        episode_id=traj.episode_id, plan=traj.plan, turns=traj.turns[:-1]
    )
    with pytest.raises(FaultHarnessError, match="must end in Finish"):
        finalize(headless)
    gave_up = Trajectory(
        episode_id=traj.episode_id, plan=traj.plan, turns=traj.turns,
        terminal=GracefulFailure(report="stopped"),
    )
    with pytest.raises(FaultHarnessError, match="must end in Finish"):
        finalize(gave_up)


def test_finalize_refuses_a_recovery_tagged_turn():
    # a clean trace whose first call is stated as a recovery step
    traj, _, steps = run_simple("vanilla", kind=None)
    step = RecoveryStep(
        action=ReformatArguments(), thought="t", call=ToolCall(steps[0].tool, steps[0].arguments)
    )
    turns = list(traj.turns)
    turns[2] = Turn("assistant", render_action(step), turns[2].simulated_time_ms)
    tagged = Trajectory(
        episode_id=traj.episode_id, plan=traj.plan, turns=turns, terminal=traj.terminal
    )
    assert detect_first_failure(tagged) is None and isinstance(tagged.terminal, Finished)
    with pytest.raises(FaultHarnessError, match="recovery tags"):
        finalize(tagged)


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
    # the span opens with the step's action line, then its Thought/Action/Action Input
    action_line, turn = content[start:end].lstrip().split("\n", 1)
    assert action_line.startswith('{"action":')
    assert turn.startswith("Thought:")


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
    # the rule teacher carries each action it renders, so a repair parses no
    # turn at all: zero parses for every kind
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
    assert parses.calls == 0
    trace_view(repaired)  # the teacher told the view every appended turn's facts


def test_finalize_parses_no_turn_of_a_simulated_trace(monkeypatch):
    import faultharness.pipeline as pipeline

    traj, _, _ = run_simple("vanilla", kind=None)
    monkeypatch.setattr("faultharness.taxonomy.detect_failure", _refuse)
    parses = _Counter(pipeline.parse_action)
    monkeypatch.setattr(pipeline, "parse_action", parses)
    assert finalize(traj) is traj
    assert parses.calls == 0


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_a_repair_forks_its_truncated_trace_once(kind, bank, monkeypatch):
    import faultharness.pipeline as pipeline

    request, teacher = _repair_setup(kind, bank)
    forks = _Counter(pipeline.trace_prefix)
    monkeypatch.setattr(pipeline, "trace_prefix", forks)
    repaired = repair(request, teacher)
    assert forks.calls == 1
    assert repaired.turns[: len(request.truncated_trace.turns)] == request.truncated_trace.turns
