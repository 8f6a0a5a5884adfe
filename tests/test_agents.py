from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import make_registry, run_simple
from faultharness import agents, protocol, simulator
from faultharness.agents import RemoteChatPolicy, make_policy, oracle_gate
from faultharness.bank import ExemplarBank, RecoveryExemplar, SignaturePattern, ValidateAndReissue
from faultharness.benchgen import (
    SuiteSpec,
    generalization_split,
    generate_suite,
    suite_from_lines,
    suite_to_lines,
)
from faultharness.cli import run_card
from faultharness.episode import (
    Abandoned,
    Finished,
    GracefulFailure,
    InjectionPlan,
)
from faultharness.errors import ConfigError
from faultharness.protocol import ProtocolViolation, RecoveryStep, ToolCall, call_of, parse_action
from faultharness.remote import EndpointConfig
from faultharness.simulator import SimConfig, run_episode
from faultharness.tasks import builtin_task_pool
from faultharness.taxonomy import CATALOG
from faultharness.trace import trace_view


# --- vanilla ---------------------------------------------------------------------


def test_vanilla_clean_episode_is_calls_then_finish():
    traj, _, _ = run_simple("vanilla", kind=None)
    assert isinstance(traj.terminal, Finished)
    roles = [t.role for t in traj.turns]
    assert roles == ["system", "user", "assistant", "function", "assistant"]


def test_vanilla_hallucinates_on_seed_1():
    # frozen fixture: plan seed 1 puts the error-time draw below 0.5
    traj, _, _ = run_simple("vanilla", kind="http_500", plan_seed=1)
    assert isinstance(traj.terminal, Finished)
    assert "returned the requested data" in traj.terminal.answer


def test_vanilla_gives_up_on_seed_0():
    # frozen fixture: plan seed 0 puts the error-time draw at/above 0.5
    traj, _, _ = run_simple("vanilla", kind="http_500", plan_seed=0)
    assert isinstance(traj.terminal, GracefulFailure)
    assert "Could not complete" in traj.terminal.report


def test_vanilla_never_emits_recovery_steps():
    for seed in range(8):
        traj, _, _ = run_simple("vanilla", kind="http_429", plan_seed=seed)
        assert traj.recovery_turns == []


def test_toolbench_always_gives_up_on_error():
    for seed in range(8):
        traj, _, _ = run_simple("toolbench", kind="http_500", plan_seed=seed)
        assert isinstance(traj.terminal, GracefulFailure)


# --- reflect -----------------------------------------------------------------------


def test_reflect_recovers_transient_with_one_retry():
    # seed 1: http_429 persistence 0, first blind retry succeeds
    traj, _, _ = run_simple("reflect", kind="http_429", plan_seed=1)
    assert isinstance(traj.terminal, Finished)
    assert len(traj.recovery_turns) == 1


def test_reflect_exhausts_three_retries_on_permanent_failure():
    # auth failures never clear; reflect is error-agnostic and retries anyway
    traj, _, _ = run_simple("reflect", kind="http_401", plan_seed=5)
    assert isinstance(traj.terminal, GracefulFailure)
    assert len(traj.recovery_turns) == 3
    failures = [t for t in traj.turns if t.role == "function"]
    assert len(failures) == 4  # original + 3 retries


def test_reflect_third_attempt_reformats():
    traj, _, _ = run_simple("reflect", kind="http_401", plan_seed=5)
    last_recovery = traj.recovery_turns[-1]
    assert "re-checking the argument formatting" in last_recovery.content.lower()


def test_reflect_never_switches_tools():
    traj, _, _ = run_simple("reflect", kind="http_404", plan_seed=5)
    for turn in traj.assistant_turns:
        call = call_of(parse_action(turn.content))
        if call is not None:
            assert call.name == "lookup"


def test_reflect_recovers_argument_errors_via_reformat():
    traj, _, _ = run_simple("reflect", kind="http_400", plan_seed=5)
    assert isinstance(traj.terminal, Finished)


# --- critic -------------------------------------------------------------------------


def test_critic_oracle_frequency_is_p():
    hits = sum(
        1 for i in range(10_000) if oracle_gate(42, i, 3, 0.7)
    )
    assert abs(hits / 10_000 - 0.7) <= 0.02


def test_critic_oracle_path_uses_bank_script(bank):
    # find a seed whose gate draw grants oracle access
    registry, steps = make_registry()
    for seed in range(40):
        plan = InjectionPlan(seed=seed, kind="http_429", turn_index=1)
        policy = make_policy("critic", steps=steps, seed=0)
        traj = run_episode("task", registry, policy, plan, SimConfig(), bank=bank)
        if traj.recovery_turns and "transient" in traj.recovery_turns[0].content:
            # oracle path: the 429 exemplar script starts with backoff retry
            assert isinstance(traj.terminal, Finished)
            return
    pytest.fail("no oracle-path episode found in 40 seeds")


def test_critic_complement_path_behaves_like_reflect(bank):
    registry, steps = make_registry()
    for seed in range(60):
        plan = InjectionPlan(seed=seed, kind="http_404", turn_index=1)
        policy = make_policy("critic", steps=steps, seed=0)
        traj = run_episode("task", registry, policy, plan, SimConfig(), bank=bank)
        if isinstance(traj.terminal, GracefulFailure) and len(traj.recovery_turns) == 3:
            return  # blind-retry path: 404 never recovers without a switch
    pytest.fail("no reflect-path episode found in 60 seeds")


def test_critic_without_bank_falls_back_to_reflect():
    traj, _, _ = run_simple("critic", kind="http_404", plan_seed=7, bank=None)
    assert isinstance(traj.terminal, GracefulFailure)


# --- paladin -----------------------------------------------------------------------


def test_paladin_recovers_503_after_two_retries(bank):
    # seed 1: http_503 persists for one failing retry, then clears
    traj, _, _ = run_simple("paladin", kind="http_503", plan_seed=1, bank=bank)
    assert isinstance(traj.terminal, Finished)
    assert len(traj.recovery_turns) == 2


def test_paladin_404_validates_then_switches(bank):
    traj, _, _ = run_simple("paladin", kind="http_404", plan_seed=2, bank=bank)
    assert isinstance(traj.terminal, Finished)
    calls = []
    for turn in traj.assistant_turns:
        action = parse_action(turn.content)
        if call_of(action) is not None:
            calls.append((isinstance(action, RecoveryStep), call_of(action).name))
    assert calls == [(False, "lookup"), (True, "lookup"), (True, "lookup_backup")]


def test_paladin_403_terminates_immediately(bank):
    traj, _, _ = run_simple("paladin", kind="http_403", plan_seed=2, bank=bank)
    assert isinstance(traj.terminal, GracefulFailure)
    assert len(traj.recovery_turns) == 1  # the graceful termination itself
    assert len([t for t in traj.turns if t.role == "function"]) == 1


def test_paladin_404_without_alternative_terminates(bank):
    traj, _, _ = run_simple(
        "paladin", kind="http_404", plan_seed=2, bank=bank, with_backup=False
    )
    assert isinstance(traj.terminal, GracefulFailure)


def _reissue_only_bank():
    """One exemplar for http_404 whose script ends without terminating."""
    exemplar = RecoveryExemplar(
        id="reissue_only",
        pattern=SignaturePattern(kind="http_404"),
        script=(ValidateAndReissue(),),
    )
    return ExemplarBank(exemplars=(exemplar,))


def test_paladin_script_without_terminate_escalates_to_switch():
    traj, _, _ = run_simple("paladin", kind="http_404", plan_seed=2, bank=_reissue_only_bank())
    assert isinstance(traj.terminal, Finished)
    calls = [
        (isinstance(action, RecoveryStep), call_of(action).name)
        for turn in traj.assistant_turns
        if call_of(action := parse_action(turn.content)) is not None
    ]
    assert calls == [(False, "lookup"), (True, "lookup"), (True, "lookup_backup")]


def test_paladin_script_without_terminate_ends_with_default_report():
    traj, _, _ = run_simple(
        "paladin", kind="http_404", plan_seed=2, bank=_reissue_only_bank(), with_backup=False
    )
    assert isinstance(traj.terminal, GracefulFailure)
    message = trace_view(traj).first_failure[1].message
    assert traj.terminal.report == f"Could not complete the step using lookup: {message}"


def test_paladin_never_finishes_after_unresolved_error(bank):
    for kind_id in CATALOG:
        for seed in range(4):
            traj, _, _ = run_simple("paladin", kind=kind_id, plan_seed=seed, bank=bank)
            if isinstance(traj.terminal, Finished):
                # Finished implies the failure was actually recovered
                failures = [
                    t for t in traj.turns if t.role == "function"
                ]
                assert any('"error":""' in t.content for t in failures)


def test_paladin_determinism_per_seed(bank):
    from faultharness.episode import trajectory_to_line

    a, _, _ = run_simple("paladin", kind="timeout", plan_seed=6, bank=bank)
    b, _, _ = run_simple("paladin", kind="timeout", plan_seed=6, bank=bank)
    assert trajectory_to_line(a) == trajectory_to_line(b)


def test_paladin_position_counts_the_recovery_turns_of_the_failure_run(monkeypatch, tasks, bank):
    # at every planned-script decision of paladin and critic, on the desk suite
    # and the held-out suites of the transient kinds, the position is the number
    # of corrective steps since the failure run began, and a planned step exists
    context = [None]  # the trajectory of the decision being made
    on_error, execute = agents.PaladinPolicy.on_error, agents._execute_planned
    positions = []

    def recording_on_error(self, trajectory, *args):
        context[0] = trajectory
        return on_error(self, trajectory, *args)

    def checking_execute(planned, position, *args):
        view = trace_view(context[0])
        start, _ = view.failure_run
        assert position < len(planned)
        assert position == sum(1 for turn in view.turns[start:] if turn.is_recovery)
        positions.append(position)
        return execute(planned, position, *args)

    monkeypatch.setattr(agents.PaladinPolicy, "on_error", recording_on_error)
    monkeypatch.setattr(agents, "_execute_planned", checking_execute)
    suites = [(bank, generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=1337)))]
    for kind in sorted(k for k, f in CATALOG.items() if f.persistence is not None):
        spec = SuiteSpec(n_episodes=60, master_seed=1337, held_out_kinds=frozenset({kind}))
        suites.append(generalization_split(spec, tasks, bank))
    for suite_bank, cards in suites:
        for agent in ("paladin", "critic"):
            for card in cards:
                run_card(card, agent, suite_bank, 42)
    assert max(positions) >= 2


def test_paladin_and_critic_plan_once_per_failure_event(monkeypatch, tasks, bank):
    # on the desk suite, the script is flattened once per failure event (its
    # run's start and its signature), not once per corrective step
    flatten, on_error = agents._flatten_script, agents.PaladinPolicy.on_error
    flattened, decisions, events = [], [], set()

    def counting_flatten(*args, **kwargs):
        flattened.append(args)
        return flatten(*args, **kwargs)

    def recording_on_error(self, context, error, *args):
        start, _ = trace_view(context).failure_run
        decisions.append(start)
        events.add((agent, context.episode_id, start, error.kind, error.message))
        return on_error(self, context, error, *args)

    monkeypatch.setattr(agents, "_flatten_script", counting_flatten)
    monkeypatch.setattr(agents.PaladinPolicy, "on_error", recording_on_error)
    cards = generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=1337))
    for agent in ("paladin", "critic"):
        for card in cards:
            run_card(card, agent, bank, 47)
    assert len(flattened) == len(events) < len(decisions)
    # no failure run of the desk suite changes its signature
    assert len({event[:3] for event in events}) == len(events)


SCRIPTED_AGENTS = ("vanilla", "toolbench", "reflect", "critic", "paladin")


def test_a_scripted_decision_reads_the_trace_view_once(monkeypatch, tasks, bank):
    # decide reads its trajectory's view and hands it to on_error, the current
    # step and the answer it synthesizes; none of them reads it again
    reads, most = [0], {}
    view_of, decide = agents.trace_view, agents.ScriptedPolicy.decide

    def counting_view(traj):
        reads[0] += 1
        return view_of(traj)

    def counting_decide(self, *args):
        before = reads[0]
        action = decide(self, *args)
        most[agent] = max(most.get(agent, 0), reads[0] - before)
        return action

    monkeypatch.setattr(agents, "trace_view", counting_view)
    monkeypatch.setattr(agents.ScriptedPolicy, "decide", counting_decide)
    cards = generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=1337))
    for agent in SCRIPTED_AGENTS:
        for card in cards:
            run_card(card, agent, bank, 42)
    assert most == dict.fromkeys(SCRIPTED_AGENTS, 1)


def test_a_run_dumps_a_task_steps_call_texts_once_per_step(monkeypatch, bank):
    # over one desk evaluate (its suite read back, so its steps are new), the
    # Action Input and the call key of a task step's arguments are each dumped
    # at most once per step; only a tool switch, a call made for one decision,
    # dumps them again
    lines = suite_to_lines(
        generate_suite(builtin_task_pool(), SuiteSpec(n_episodes=200, master_seed=1337))
    )
    dumped = Counter()

    def counting(form, dumps):
        def wrapper(obj):
            dumped[form, id(obj)] += 1
            return dumps(obj)
        return wrapper

    monkeypatch.setattr(
        protocol, "dumps_action_input", counting("input", protocol.dumps_action_input)
    )
    for module in (protocol, simulator):  # every call key goes through one of them
        monkeypatch.setattr(module, "dumps_canonical", counting("key", module.dumps_canonical))
    for agent in SCRIPTED_AGENTS:
        cards = suite_from_lines(lines)
        steps = {id(step.arguments): step for card in cards for step in card.steps}
        dumped.clear()
        switches = Counter()
        for card in cards:
            view = trace_view(run_card(card, agent, bank, 42))
            for call in view.calls.values():
                step = steps.get(id(call.arguments)) if call else None
                if step is not None and call.name != step.tool:
                    switches[id(call.arguments)] += 1
        for form in ("input", "key"):
            extra = {
                (step.tool, form): n
                for args, step in steps.items()
                if (n := dumped[form, args] - switches[args]) > 1
            }
            assert not extra, (agent, extra)
        assert sum(dumped[key] for key in dumped if key[1] in steps) > 0


def test_make_policy_rejects_unknown_agent():
    _, steps = make_registry()
    with pytest.raises(ConfigError):
        make_policy("gpt-9000", steps=steps)


def test_synthesize_answer_quotes_payload_fields():
    traj, _, _ = run_simple("vanilla", kind=None)
    assert "answer=7" in traj.terminal.answer
    assert "unit=days" in traj.terminal.answer


# --- remote adapter ---------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    responses: list[str] = []
    calls: int = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        text = self.responses[min(type(self).calls, len(self.responses) - 1)]
        type(self).calls += 1
        body = json.dumps(
            {"choices": [{"message": {"content": text}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.calls = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_remote_policy_parses_fixed_action(stub_server):
    _StubHandler.responses = [
        'Thought: look it up\nAction: lookup\nAction Input: {"q": "x"}',
        'Thought: done\nAction: Finish\nAction Input: '
        '{"return_type": "give_answer", "final_answer": "answer=7 unit=days"}',
    ]
    registry, _ = make_registry()
    policy = RemoteChatPolicy(EndpointConfig(base_url=stub_server))
    traj = run_episode("task", registry, policy, InjectionPlan(seed=1), SimConfig())
    assert isinstance(traj.terminal, Finished)
    # the model's thoughts survive into the trajectory, and so into its next prompt
    assert traj.turns[2].content.startswith("Thought: look it up\nAction: lookup")
    assert trace_view(traj).call_at(2).thought == "look it up"
    assert traj.turns[4].content.startswith("Thought: done\n")


def test_remote_policy_prose_is_protocol_violation(stub_server):
    _StubHandler.responses = ["I will now ponder the meaning of tools."]
    registry, _ = make_registry()
    policy = RemoteChatPolicy(EndpointConfig(base_url=stub_server))
    traj = run_episode("task", registry, policy, InjectionPlan(seed=1), SimConfig())
    assert isinstance(traj.terminal, Abandoned)
    assert any(
        t.role == "function" and "Invalid action format" in t.content
        for t in traj.turns
    )


def test_remote_policy_recovery_tagged_turn(stub_server):
    # the turn states its action; a bare Recovery: turn states none and is refused
    stated = (
        'Recovery: {"action":"validate_and_reissue"}\nThought: the call failed, '
        'checking it\nAction: lookup\nAction Input: {"q": "x"}'
    )
    bare = 'Recovery: Thought: the call failed, retrying\nAction: lookup\nAction Input: {"q": "x"}'
    _StubHandler.responses = [stated, bare]
    registry, _ = make_registry()
    policy = RemoteChatPolicy(EndpointConfig(base_url=stub_server))
    action = policy.decide(_context_with_failure(registry), registry, None)
    assert action == RecoveryStep(
        action=ValidateAndReissue(),
        thought="the call failed, checking it",
        call=ToolCall(name="lookup", arguments={"q": "x"}),
    )
    action = policy.decide(_context_with_failure(registry), registry, None)
    assert action == ProtocolViolation(text=bare)


def _context_with_failure(registry):
    from faultharness.episode import ROLE_ASSISTANT, ROLE_FUNCTION, Trajectory, Turn

    return Trajectory(
        episode_id="ctx",
        plan=InjectionPlan(seed=1),
        turns=[
            Turn(role="system", content="s"),
            Turn(role="user", content="u"),
            Turn(
                role=ROLE_ASSISTANT,
                content='Thought: t\nAction: lookup\nAction Input: {"q": "x"}',
            ),
            Turn(
                role=ROLE_FUNCTION,
                content='{"error": "Unexpected server error", "status": 500}',
            ),
        ],
    )


def test_remote_transport_failure_abandons_episode():
    registry, _ = make_registry()
    policy = RemoteChatPolicy(
        EndpointConfig(base_url="http://127.0.0.1:1", timeout_ms=200, max_retries=0)
    )
    traj = run_episode("task", registry, policy, InjectionPlan(seed=1), SimConfig())
    assert isinstance(traj.terminal, Abandoned)
    assert "transport" in traj.terminal.reason
