from __future__ import annotations

import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_facts_match_texts,
    make_registry,
    run_simple,
    view_state,
)
from faultharness import agents, simulator, trace
from faultharness.bank import RetryWithBackoff
from faultharness.benchgen import SuiteSpec, generate_suite
from faultharness.cli import run_card
from faultharness.episode import (
    ROLE_ASSISTANT,
    ROLE_FUNCTION,
    Abandoned,
    Finished,
    GracefulFailure,
    InjectionPlan,
    StepBudgetExhausted,
    Trajectory,
    Turn,
    trajectory_from_line,
    trajectory_to_line,
)
from faultharness.errors import ConfigError
from faultharness.pipeline import CorpusSpec, RuleBasedTeacher, build_corpus
from faultharness.protocol import Finish, ProtocolViolation, RecoveryStep, ToolCall, render_action
from faultharness.seeds import derive_seed, rng_for
from faultharness.tasks import TaskStep
from faultharness.simulator import (
    TURN_COST_MS,
    SimClock,
    SimConfig,
    ToolRegistry,
    ToolSpec,
    advance_backoff,
    canonical_call_key,
    fault_life,
    render_failure,
    run_episode,
    wrap_response,
)
from faultharness.taxonomy import CATALOG, Manifestation, classify_raw_failure, detect_failure
from faultharness.trace import TraceView, trace_prefix, trace_view


def tool_for_render(payload='{"a":1,"b":2,"c":3,"d":4}'):
    return ToolSpec(
        name="lookup", description="", parameters={},
        scripted_responses={"lookup({})": payload},
    )


# --- render_failure -------------------------------------------------------------


def test_render_429_error_payload_exact_body():
    text, _ = render_failure(CATALOG["http_429"], tool_for_render(), seed=1)
    assert text == '{"error": "Rate limit exceeded", "status": 429}'


def test_render_timeout_contains_exception_marker():
    text, _ = render_failure(CATALOG["timeout"], tool_for_render(), seed=1)
    assert "Timeout" in text


def test_render_malformed_output_rejected_by_parser():
    tool = tool_for_render('{"a":1}')
    for seed in range(20):
        text, _ = render_failure(CATALOG["malformed_json"], tool, seed=seed)
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)


def test_render_partial_output_keeps_half_the_fields():
    tool = tool_for_render('{"a":1,"b":2,"c":3,"d":4}')
    text, _ = render_failure(CATALOG["partial_output"], tool, seed=3)
    body = json.loads(text)
    inner = json.loads(body["response"])
    assert list(inner) == ["a", "b"]
    assert "Partial" in body["error"]


def test_render_partial_output_of_a_payload_nested_too_deep_keeps_no_fields():
    tool = tool_for_render("[" * 100_000)
    text, _ = render_failure(CATALOG["partial_output"], tool, seed=3)
    assert json.loads(json.loads(text)["response"]) == {}


def test_a_tools_partial_output_text_is_classified_once_however_many_faults(bank, monkeypatch):
    # the text depends on the tool's first scripted response alone, so the tool
    # works it out and classifies it once, at its first PartialOutput fault
    other, _ = make_registry()  # an equal tool, so `registry`'s classifies its own text
    text, _ = render_failure(CATALOG["partial_output"], other.tools[0], seed=0)
    registry, steps = make_registry()
    classified = []
    monkeypatch.setattr(
        simulator, "detect_failure", lambda t: classified.append(t) or detect_failure(t)
    )
    for seed in (1, 2, 3):
        plan = InjectionPlan(seed=seed, kind="partial_output", turn_index=1)
        policy = agents.make_policy("paladin", steps=steps, seed=42)
        traj = run_episode("Look up x.", registry, policy, plan, bank=bank)
        assert text in [turn.content for turn in traj.turns]
    assert classified.count(text) == 1


def test_render_deterministic_per_seed():
    tool = tool_for_render()
    a = render_failure(CATALOG["malformed_json"], tool, 7)
    b = render_failure(CATALOG["malformed_json"], tool, 7)
    c = render_failure(CATALOG["malformed_json"], tool, 8)
    assert a == b
    assert a != c


# --- advance_backoff -------------------------------------------------------------


def policy(respect=False, base=500, cap=8000):
    return RetryWithBackoff(
        max_attempts=3, base_delay_ms=base, cap_ms=cap, respect_retry_after=respect
    )


def test_a_fault_derives_a_seed_only_for_the_manifestation_that_reads_one(monkeypatch):
    # one fault of each manifestation: only a MalformedOutput render reads its
    # seed, so only its fault derives one, and every text is the one the
    # derived seed renders
    derived = []

    def counting(*parts):
        derived.append(parts)
        return derive_seed(*parts)

    monkeypatch.setattr(simulator, "derive_seed", counting)
    tool = tool_for_render()
    for manifestation in Manifestation:
        kind = next(k for k in CATALOG.values() if k.manifestation is manifestation)
        plan = InjectionPlan(seed=5, kind=kind.identifier, turn_index=2)
        derived.clear()
        fault = simulator._make_fault(plan, "lookup({})", tool)
        malformed = manifestation is Manifestation.MALFORMED_OUTPUT
        assert derived == ([(5, 2)] if malformed else []), manifestation
        assert (fault.rendered, fault.signature) == render_failure(kind, tool, derive_seed(5, 2))


def test_backoff_first_attempt_within_base():
    clock = SimClock()
    t = advance_backoff(clock, 1, policy(), retry_after_ms=None, seed=11)
    assert 0 <= t <= 500


def test_backoff_same_seed_identical():
    a = advance_backoff(SimClock(), 2, policy(), None, seed=99)
    b = advance_backoff(SimClock(), 2, policy(), None, seed=99)
    assert a == b


def test_backoff_retry_after_adopted_exactly():
    clock = SimClock(start_ms=50)
    t = advance_backoff(clock, 1, policy(respect=True), retry_after_ms=1200, seed=4)
    assert t == 1250


def test_backoff_retry_after_ignored_when_not_respected():
    t = advance_backoff(SimClock(), 1, policy(respect=False), retry_after_ms=99999, seed=4)
    assert t <= 500


def test_backoff_cap_dominates_late_attempts():
    for seed in range(50):
        t = advance_backoff(SimClock(), 10, policy(), None, seed=seed)
        assert t <= 8000


@settings(max_examples=200)
@given(
    attempt=st.integers(min_value=1, max_value=12),
    base=st.integers(min_value=0, max_value=2000),
    cap=st.integers(min_value=0, max_value=10000),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_backoff_full_jitter_bounds(attempt, base, cap, seed):
    pol = RetryWithBackoff(
        max_attempts=3, base_delay_ms=base, cap_ms=cap, respect_retry_after=False
    )
    delay = advance_backoff(SimClock(), attempt, pol, None, seed)
    assert 0 <= delay <= min(cap, base * 2 ** (attempt - 1))


def test_backoff_draws_from_the_attempts_generator():
    for seed in range(20):
        for attempt in (1, 2, 5):
            bound = min(8000, 500 * 2 ** (attempt - 1))
            expected = rng_for(seed, attempt).randint(0, bound)
            assert advance_backoff(SimClock(), attempt, policy(), None, seed) == expected


def _refuse_to_seed(*path):
    raise AssertionError(f"a generator was seeded at {path}")


def test_a_wait_bounded_by_zero_seeds_no_generator(monkeypatch):
    # reflect's backoff has base and cap 0, and an http_400 fault draws no life
    monkeypatch.setattr(simulator, "rng_for", _refuse_to_seed)
    assert advance_backoff(SimClock(50), 3, policy(base=0, cap=0), None, seed=1) == 50
    traj, _, _ = run_simple("reflect", "http_400")
    assert isinstance(traj.terminal, Finished)
    assert traj.recovery_turns


def test_backoff_rejects_zero_attempt():
    with pytest.raises(ValueError):
        advance_backoff(SimClock(), 0, policy(), None, seed=1)


def test_clock_never_goes_backwards():
    clock = SimClock()
    clock.advance(10)
    with pytest.raises(ValueError):
        clock.advance(-1)


# --- run_episode -------------------------------------------------------------------


def test_clean_episode_has_no_recovery_turns():
    traj, _, _ = run_simple("vanilla", kind=None)
    assert isinstance(traj.terminal, Finished)
    assert traj.recovery_turns == []
    assert traj.turns[0].role == "system"
    assert traj.turns[1].role == "user"


def test_transient_injection_recovers_with_retry(bank):
    # seed 1 gives http_429 persistence 0: one backoff retry succeeds
    traj, _, _ = run_simple("paladin", kind="http_429", plan_seed=1, bank=bank)
    assert isinstance(traj.terminal, Finished)
    assert len(traj.recovery_turns) == 1
    failures = [
        t for t in traj.turns
        if t.role == "function" and "Rate limit exceeded" in t.content
    ]
    assert len(failures) == 1


def test_auth_injection_terminates_without_retry(bank):
    traj, _, _ = run_simple("paladin", kind="http_401", plan_seed=5, bank=bank)
    assert isinstance(traj.terminal, GracefulFailure)
    function_turns = [t for t in traj.turns if t.role == "function"]
    assert len(function_turns) == 1  # the failure; never retried


def test_injected_failure_classifies_back_to_plan_kind(bank):
    for kind_id in CATALOG:
        traj, _, _ = run_simple("paladin", kind=kind_id, plan_seed=3, bank=bank)
        failure_turn = next(
            t for t in traj.turns if t.role == "function"
        )
        sig = classify_raw_failure(failure_turn.content)
        assert sig.kind == kind_id


def test_byte_identical_replay(bank):
    a, _, _ = run_simple("critic", kind="http_500", plan_seed=9, bank=bank)
    b, _, _ = run_simple("critic", kind="http_500", plan_seed=9, bank=bank)
    assert trajectory_to_line(a) == trajectory_to_line(b)


def test_trajectory_serialization_roundtrip(bank):
    traj, _, _ = run_simple("paladin", kind="http_404", plan_seed=2, bank=bank)
    line = trajectory_to_line(traj)
    assert trajectory_to_line(trajectory_from_line(line)) == line


def test_simulated_time_is_monotone_and_cost_accounted(bank):
    traj, _, _ = run_simple("paladin", kind="http_503", plan_seed=1, bank=bank)
    times = [t.simulated_time_ms for t in traj.turns]
    assert times == sorted(times)
    active_turns = [t for t in traj.turns if t.role in ("assistant", "function")]
    backoff_total = traj.turns[-1].simulated_time_ms - 100 * len(active_turns)
    assert backoff_total >= 0


class StubbornRetrier:
    """Ignores budgets: retries the same failing call forever."""

    name = "stubborn"

    def __init__(self, steps):
        self._steps = steps

    def decide(self, context, tools, bank):
        step = self._steps[0]
        return ToolCall(name=step.tool, arguments=step.arguments, thought="again")


def test_retry_budget_enforced_on_stubborn_agent():
    registry, steps = make_registry()
    plan = InjectionPlan(seed=4, kind="http_401", turn_index=1)
    traj = run_episode("task", registry, StubbornRetrier(steps), plan, SimConfig())
    assert isinstance(traj.terminal, Abandoned)
    assert "retry budget" in traj.terminal.reason
    # original call + exactly budget retries
    failing = [t for t in traj.turns if t.role == "function"]
    assert len(failing) == 1 + 3


class MalformedAgent:
    name = "malformed"

    def decide(self, context, tools, bank):
        return ProtocolViolation(text="let me think about this...")


def test_malformed_agent_tolerated_once_then_abandoned():
    registry, _ = make_registry()
    traj = run_episode(
        "task", registry, MalformedAgent(), InjectionPlan(seed=1), SimConfig()
    )
    assert isinstance(traj.terminal, Abandoned)
    protocol_errors = [
        t for t in traj.turns
        if t.role == "function" and "Invalid action format" in t.content
    ]
    assert len(protocol_errors) == 1  # first violation recorded, second aborts
    sig = classify_raw_failure(protocol_errors[0].content)
    assert sig.error_class.value == "InvalidIntermediateReasoning"


def test_step_budget_exhaustion():
    registry, steps = make_registry()

    class Ditherer:
        name = "ditherer"

        def decide(self, context, tools, bank):
            return ToolCall(name="lookup", arguments={"q": "x"}, thought="again")

    traj = run_episode(
        "task", registry, Ditherer(), InjectionPlan(seed=2), SimConfig(max_steps=4)
    )
    assert isinstance(traj.terminal, StepBudgetExhausted)
    assert len(traj.assistant_turns) == 4


def test_plan_validation():
    registry, _ = make_registry()
    with pytest.raises(ConfigError):
        run_episode(
            "task",
            registry,
            MalformedAgent(),
            InjectionPlan(seed=1, kind="http_500", turn_index=50),
            SimConfig(max_steps=20),
        )
    with pytest.raises(ValueError):
        InjectionPlan(seed=1, kind="http_500", turn_index=0)


def test_unknown_tool_yields_not_found_failure():
    registry, _ = make_registry()

    class WrongTool:
        name = "wrong"

        def decide(self, context, tools, bank):
            if trace_view(context).last_error is not None:
                from faultharness.protocol import GiveUp
                return GiveUp(report="could not find tool", thought="stop")
            return ToolCall(name="ghost_tool", arguments={}, thought="call ghost")

    traj = run_episode("task", registry, WrongTool(), InjectionPlan(seed=3), SimConfig())
    failure = next(t for t in traj.turns if t.role == "function")
    sig = classify_raw_failure(failure.content)
    assert sig.error_class.value == "ToolHallucination"


def test_canonical_call_key_ignores_field_order():
    assert canonical_call_key("t", {"b": 1, "a": 2}) == canonical_call_key(
        "t", {"a": 2, "b": 1}
    )


# --- trace view ------------------------------------------------------------------------


def _facts(view):
    recoveries = [i for i, turn in enumerate(view.turns) if turn.is_recovery]
    return (view.responses, recoveries, view.failure_run, view.completed_steps,
            view.first_failure, view.last_error)


def test_trace_view_built_during_the_episode_matches_a_fresh_one(bank):
    traj, _, _ = run_simple("reflect", kind="http_401", plan_seed=3, bank=bank)
    assert traj.view is not None  # the simulator's own view, kept up to date
    fresh = trajectory_from_line(trajectory_to_line(traj))
    assert fresh.view is None
    assert _facts(trace_view(traj)) == _facts(trace_view(fresh))
    assert len(trace_view(fresh).failure_events(lambda tool: tool)) == 1


def test_fresh_trace_view_classifies_and_parses_through_the_modules(bank, monkeypatch):
    # the benchmark counts calls by wrapping these two functions on their own
    # modules; a view that reached them by another name would go uncounted
    import faultharness.protocol as protocol
    import faultharness.taxonomy as taxonomy

    traj, _, _ = run_simple("reflect", kind="http_401", plan_seed=3, bank=bank)
    fresh = trajectory_from_line(trajectory_to_line(traj))
    counts = {"detect_failure": 0, "parse_action": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(taxonomy, "detect_failure")
    count(protocol, "parse_action")
    view = TraceView(fresh.turns).update()
    function_turns = sum(1 for turn in fresh.turns if turn.role == ROLE_FUNCTION)
    assert len(view.responses) == function_turns > 1
    assert counts == {"detect_failure": len(view.responses), "parse_action": len(view.calls)}


def test_last_success_payload_skips_a_response_it_cannot_read_as_an_object():
    readable = '{"error":"","response":"{\\"a\\":1}"}'
    unreadable = [
        '{"error":"","response":{"a":1}}',  # a response that is not text
        '{"error":"","response":"' + "[" * 100_000 + '"}',  # nested too deep to parse
        '{"error":"","response":"[1]"}',  # not an object
    ]
    turns = [Turn(ROLE_FUNCTION, text) for text in [readable, *unreadable]]
    view = TraceView(turns).update()
    assert [sig for _, _, sig in view.responses] == [None] * 4  # each is a success
    assert view.last_success_payload() == {"a": 1}


def test_a_run_reads_each_success_payload_as_its_line_read_back_decodes_it(
    monkeypatch, tasks, bank
):
    # the simulator records the tool's parsed payload for each success turn, and
    # a fork carries the records; a trace read back from its line has none and
    # decodes them. Both give the same payload at every prefix, for every task,
    # and the run's view decodes nothing.
    decodes = []
    json_object = trace.json_object
    monkeypatch.setattr(trace, "json_object", lambda text: decodes.append(text) or json_object(text))
    kinds = sorted(CATALOG)
    for index, task in enumerate(tasks):
        plans = {
            "vanilla": InjectionPlan(seed=index),
            "paladin": InjectionPlan(
                seed=index, kind=kinds[index % len(kinds)], turn_index=1 + index % len(task.steps)
            ),
        }
        for agent, plan in plans.items():
            policy = agents.make_policy(agent, task.steps)
            traj = run_episode(task.prompt, task.tools, policy, plan, bank=bank)
            view = trace_view(traj)
            successes = [i for i, _, sig in view.responses if sig is None]
            assert sorted(view.payloads) == successes
            assert successes or agent == "paladin"  # a clean run succeeds
            read_back = trace_view(trajectory_from_line(trajectory_to_line(traj)))
            assert not read_back.payloads
            for n in range(2, len(traj.turns) + 1):
                fork = view.fork(n)
                assert fork.payloads == {i: p for i, p in view.payloads.items() if i < n}
                recorded = fork.last_success_payload()
                assert not decodes
                assert recorded == read_back.fork(n).last_success_payload()
                decodes.clear()


def test_a_payload_that_is_not_a_json_object_falls_through_to_an_earlier_success():
    first, second = {"q": "1"}, {"q": "2"}
    tools = ToolRegistry((
        ToolSpec("a", "", {}, {canonical_call_key("a", first): '{"answer":7}'}),
        ToolSpec("b", "", {}, {canonical_call_key("b", second): "[1, 2]"}),
    ))
    steps = (TaskStep("a", first), TaskStep("b", second))
    traj = run_episode("p", tools, agents.make_policy("vanilla", steps), InjectionPlan(seed=1))
    view = trace_view(traj)
    assert list(view.payloads.values()) == [{"answer": 7}, None]
    assert traj.terminal == Finished("Task complete. Final result: answer=7.")
    read_back = trace_view(trajectory_from_line(trajectory_to_line(traj)))
    assert view.last_success_payload() == read_back.last_success_payload() == {"answer": 7}


def test_trace_view_reads_only_appended_turns():
    traj, _, _ = run_simple("vanilla", kind=None)
    grown = Trajectory(episode_id=traj.episode_id, plan=traj.plan, turns=traj.turns[:2])
    view = trace_view(grown)
    for turn in traj.turns[2:]:
        grown.turns.append(turn)
        assert trace_view(grown) is view
    assert _facts(view) == _facts(trace_view(traj))
    # a replaced turn list starts a new view
    grown.turns = list(grown.turns)
    assert trace_view(grown) is not view


def test_trace_view_names_the_nearest_assistant_call():
    # a function turn that does not directly follow an assistant turn belongs
    # to the nearest assistant call before it
    call = render_action(ToolCall(name="lookup", arguments={"q": "x"}))
    turns = [
        Turn(role="system", content="s"),
        Turn(role="user", content="u"),
        Turn(role=ROLE_ASSISTANT, content=call),
        Turn(role=ROLE_FUNCTION, content='{"error": "", "response": "{}"}'),
        Turn(role=ROLE_FUNCTION, content='{"error": "Service unavailable", "status": 503}'),
    ]
    view = trace_view(Trajectory(episode_id="e", plan=InjectionPlan(seed=1), turns=turns))
    assert [tool for _, tool, _ in view.responses] == ["lookup", "lookup"]
    assert view.first_failure[0] == 4
    assert view.failure_run == (4, 1)
    assert view.last_assistant == 2
    assert view.call_at(view.last_assistant) == ToolCall(name="lookup", arguments={"q": "x"})


# --- writer-recorded facts, forks and the lazy decision generator ---------------------

DESK_RUNS = (
    ("vanilla", True), ("toolbench", True), ("reflect", True), ("critic", True),
    ("paladin", True), ("paladin", False),  # the last one: --no-retrieval
)


@pytest.fixture(scope="module")
def desk_trajectories(tasks, bank):
    """Every trajectory of the five agents and the no-retrieval ablation on the
    200-card desk suite (master seed 1337, eval seed 42)."""
    cards = generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=1337))
    trajectories = []
    for agent, with_bank in DESK_RUNS:
        for card in cards:
            trajectories.append(run_card(card, agent, bank if with_bank else None, 42))
    return trajectories


def test_desk_writer_recorded_facts_are_the_texts(desk_trajectories):
    for traj in desk_trajectories:
        assert_facts_match_texts(trace_view(traj))


def test_desk_forks_equal_fresh_views_of_every_prefix(desk_trajectories):
    for traj in desk_trajectories:
        view = trace_view(traj)
        for n in range(len(traj.turns) + 1):
            forked = view.fork(n)
            assert forked.turns is not traj.turns
            assert view_state(forked) == view_state(TraceView(traj.turns[:n]).update())


def test_desk_failing_reissues_of_a_fault_serve_its_one_signature(desk_trajectories):
    # a signature describes the text alone, so every failing serve of an
    # injected fault carries the one signature the fault was made with
    def key_of_call_before(view, index):
        assert view.turns[index - 1].role == ROLE_ASSISTANT  # a response follows its call
        call = view.call_at(index - 1)
        return call and canonical_call_key(call.name, call.arguments)

    runs = len(desk_trajectories) // len(DESK_RUNS)
    start = DESK_RUNS.index(("paladin", True)) * runs
    retried = 0
    for traj in desk_trajectories[start:start + runs]:
        view = trace_view(traj)
        if view.first_failure is None:
            continue
        first, signature = view.first_failure
        assert signature.kind == traj.plan.kind  # the first failure is the injected fault
        text, key = view.turns[first].content, key_of_call_before(view, first)
        serves = [
            sig for i, _, sig in view.responses
            if sig is not None
            and view.turns[i].content == text
            and key_of_call_before(view, i) == key
        ]
        if len(serves) > 1:
            retried += 1
            assert all(sig is signature for sig in serves), traj.episode_id
    assert retried > 0


def test_trace_prefix_keeps_no_reference_to_its_parent_view(bank):
    traj, _, _ = run_simple("paladin", kind="http_503", bank=bank)
    parent = weakref.ref(trace_view(traj))
    prefix = trace_prefix(traj, 4)
    del traj
    gc.collect()
    assert parent() is None
    assert trace_view(prefix) is prefix.view
    assert prefix.terminal is None and len(prefix.turns) == 4


@given(payload=st.text())
def test_wrapped_payload_never_classifies_as_failure(payload):
    assert detect_failure(wrap_response(payload)) is None


# --- seeding and the fault's life ---------------------------------------------------------


def test_only_vanilla_seeds_a_generator_and_once_per_failure_episode(tasks, bank, monkeypatch):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=40, master_seed=3))
    paths = []

    def counting_rng_for(*path):
        paths.append(path)
        return rng_for(*path)

    monkeypatch.setattr(agents, "rng_for", counting_rng_for)
    for agent in ("toolbench", "reflect", "paladin"):
        for card in cards:
            run_card(card, agent, bank, 42)
        assert paths == [], agent
    failure_episodes = 0
    for card in cards:
        traj = run_card(card, "vanilla", bank, 42)
        if trace_view(traj).first_failure is None:
            assert paths == []
            continue
        failure_episodes += 1
        # one draw, for the decision that wrote the last assistant turn: the stream
        # rng_for(episode seed, assistant turns before it) the simulator once served
        (path,) = paths
        k = len(traj.assistant_turns) - 1
        assert derive_seed(*path) == derive_seed(derive_seed(card.plan.seed, 42), k)
        paths.clear()
    assert 0 < failure_episodes < len(cards)


class _RngSpy:
    """Passes each decision on to `policy`, keeping how many decision-stream
    generators (`agents.rng_for` calls other than CRITIC's per-event oracle gate)
    it seeded."""

    def __init__(self, policy, paths):
        self.policy = policy
        self.paths = paths  # every path agents.rng_for was called with
        self.decisions = []  # (whether the decision followed an error, its seeded paths)

    def decide(self, context, tools, bank):
        before = len(self.paths)
        action = self.policy.decide(context, tools, bank)
        seeded = [p for p in self.paths[before:] if p[1:2] != (0xC41C,)]
        self.decisions.append((trace_view(context).last_error is not None, seeded))
        return action


def _spied_episode(agent, kind, bank, monkeypatch, eval_seed=42):
    paths = []

    def counting_rng_for(*path):
        paths.append(path)
        return rng_for(*path)

    monkeypatch.setattr(agents, "rng_for", counting_rng_for)
    registry, steps = make_registry()
    spy = _RngSpy(agents.make_policy(agent, steps=steps, seed=eval_seed), paths)
    plan = InjectionPlan(seed=3, kind=kind, turn_index=1)
    traj = run_episode("Look up x.", registry, spy, plan, bank=bank)
    return spy.decisions, traj


@pytest.mark.parametrize("agent", ["toolbench", "reflect", "critic", "paladin"])
def test_policies_that_never_draw_never_seed(agent, bank, monkeypatch):
    decisions, _ = _spied_episode(agent, "http_500", bank, monkeypatch)
    assert any(after_error for after_error, _ in decisions)
    assert not any(seeded for _, seeded in decisions)


def test_vanilla_seeds_only_the_decisions_it_draws_for(bank, monkeypatch):
    decisions, traj = _spied_episode("vanilla", "http_500", bank, monkeypatch)
    assert [len(seeded) for _, seeded in decisions] == [int(after) for after, _ in decisions]
    assert any(after for after, _ in decisions)
    # the one draw is on rng_for(plan seed, eval seed, assistant turns before it)
    (path,) = [p for _, seeded in decisions for p in seeded]
    assert path == (3, 42, len(traj.assistant_turns) - 1)


class _SameCallRetrier:
    """Reissues a failed call unchanged under a backoff that waits out a
    Retry-After and adds no delay of its own; finishes once the step succeeds."""

    RETRY = RetryWithBackoff(max_attempts=1, base_delay_ms=0, cap_ms=0, respect_retry_after=True)

    def __init__(self, steps):
        self._call = ToolCall(name=steps[0].tool, arguments=steps[0].arguments)

    def decide(self, context, tools, bank):
        view = trace_view(context)
        if view.last_error is not None:
            return RecoveryStep(action=self.RETRY, thought="retrying", call=self._call)
        if view.completed_steps:
            return Finish(answer="done")
        return self._call


@pytest.mark.parametrize(
    "kind", sorted(k for k, f in CATALOG.items() if f.persistence is not None or f.retry_after)
)
def test_fault_life_is_what_an_episode_does(kind):
    registry, steps = make_registry()
    for plan_seed in range(8):
        plan = InjectionPlan(seed=plan_seed, kind=kind, turn_index=1)
        persist, retry_after = fault_life(plan)
        assert (retry_after is not None) == CATALOG[kind].retry_after
        traj = run_episode("task", registry, _SameCallRetrier(steps), plan, SimConfig())
        assert isinstance(traj.terminal, Finished)
        view = trace_view(traj)
        failing = [i for i, _, sig in view.responses if sig is not None]
        assert len(failing) - 1 == persist  # the injected failure, then the failing reissues
        recoveries = [i for i, turn in enumerate(traj.turns) if turn.is_recovery]
        assert len(recoveries) == persist + 1
        for i in recoveries:  # each reissue's response is the turn after it
            waited = traj.turns[i + 1].simulated_time_ms - traj.turns[i].simulated_time_ms
            assert waited == TURN_COST_MS + (retry_after or 0)


def _counted_fault_lives(monkeypatch) -> list:
    """The plans `simulator.fault_life` is called with from here on."""
    plans = []

    def counting_fault_life(plan):
        plans.append(plan)
        return fault_life(plan)

    monkeypatch.setattr(simulator, "fault_life", counting_fault_life)
    return plans


@pytest.mark.parametrize("agent", ["vanilla", "toolbench"])
def test_a_fault_no_call_reissues_draws_no_life(agent, monkeypatch):
    plans = _counted_fault_lives(monkeypatch)
    for kind in sorted(CATALOG):
        for plan_seed in range(4):
            traj, _, _ = run_simple(agent, kind, plan_seed=plan_seed)
            assert trace_view(traj).first_failure is not None  # the fault was injected
    assert plans == []


def test_a_corpus_draws_no_fault_life(bank, monkeypatch):
    plans = _counted_fault_lives(monkeypatch)
    corpus, _ = build_corpus(CorpusSpec(target_size=20), RuleBasedTeacher(bank), "0")
    assert len(corpus.traces) == 20
    assert plans == []


@pytest.mark.parametrize("kind", sorted(k for k, f in CATALOG.items() if f.persistence is not None))
def test_a_reissued_fault_draws_its_life_once(kind, monkeypatch):
    plans = _counted_fault_lives(monkeypatch)
    registry, steps = make_registry()
    for plan_seed in range(8):
        plan = InjectionPlan(seed=plan_seed, kind=kind, turn_index=1)
        traj = run_episode("task", registry, _SameCallRetrier(steps), plan, SimConfig())
        assert isinstance(traj.terminal, Finished)
        assert plans == [plan]
        plans.clear()
