from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import make_registry, run_simple
from faultharness.agents import RemoteChatPolicy, make_policy, oracle_gate
from faultharness.bank import ExemplarBank, RecoveryExemplar, SignaturePattern, ValidateAndReissue
from faultharness.episode import (
    Abandoned,
    Finished,
    GracefulFailure,
    InjectionPlan,
)
from faultharness.errors import ConfigError
from faultharness.protocol import RecoveryStep, parse_action
from faultharness.remote import EndpointConfig
from faultharness.simulator import SimConfig, run_episode
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
        parsed = parse_action(turn.content)
        if parsed.call is not None:
            assert parsed.call.name == "lookup"


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
        plan = InjectionPlan(
            seed=seed, kind="http_429",
            manifestation=CATALOG["http_429"].default_manifestation, turn_index=1,
        )
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
        plan = InjectionPlan(
            seed=seed, kind="http_404",
            manifestation=CATALOG["http_404"].default_manifestation, turn_index=1,
        )
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
        parsed = parse_action(turn.content)
        if parsed.call is not None:
            calls.append((parsed.is_recovery, parsed.call.name))
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
        (parsed.is_recovery, parsed.call.name)
        for turn in traj.assistant_turns
        if (parsed := parse_action(turn.content)).call is not None
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
    _StubHandler.responses = [
        'Recovery: Thought: the call failed, retrying\n'
        'Action: lookup\nAction Input: {"q": "x"}',
    ]
    registry, _ = make_registry()
    policy = RemoteChatPolicy(EndpointConfig(base_url=stub_server))
    action = policy.decide(_context_with_failure(registry), registry, None)
    assert isinstance(action, RecoveryStep)
    assert action.call.name == "lookup"


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
