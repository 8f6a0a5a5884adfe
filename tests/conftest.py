from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from faultharness.bank import load_shipped_bank
from faultharness.agents import make_policy
from faultharness.episode import ROLE_ASSISTANT, InjectionPlan
from faultharness.errors import AgentProtocolError
from faultharness.protocol import call_of, parse_action
from faultharness.simulator import (
    SimConfig,
    ToolRegistry,
    ToolSpec,
    canonical_call_key,
    run_episode,
)
from faultharness.tasks import TaskStep, builtin_task_pool
from faultharness.taxonomy import detect_failure


@pytest.fixture(scope="session")
def bank():
    return load_shipped_bank()


@pytest.fixture(scope="session")
def tasks():
    return builtin_task_pool()


@contextmanager
def digit_limit(limit: int):
    """Run the block under CPython's limit on integer digits set to `limit`
    (0: no limit); skip the test on an interpreter that has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def make_registry(payload: str = '{"answer":7,"unit":"days"}', with_backup: bool = True):
    """Single-step echo-style tool registry for constructed scenarios."""
    args = {"q": "x"}
    tools = [
        ToolSpec(
            name="lookup",
            description="Primary lookup source.",
            parameters={"q": {"type": "string", "required": True}},
            scripted_responses={canonical_call_key("lookup", args): payload},
            capability="lookup",
        )
    ]
    if with_backup:
        tools.append(
            ToolSpec(
                name="lookup_backup",
                description="Backup lookup source.",
                parameters={"q": {"type": "string", "required": True}},
                scripted_responses={canonical_call_key("lookup_backup", args): payload},
                capability="lookup",
            )
        )
    return ToolRegistry(tools=tuple(tools)), (TaskStep(tool="lookup", arguments=args),)


def run_simple(
    agent_name: str,
    kind: str | None,
    plan_seed: int = 1,
    bank=None,
    with_backup: bool = True,
    config: SimConfig | None = None,
    payload: str = '{"answer":7,"unit":"days"}',
):
    """One constructed single-step episode with an optional injected kind."""
    registry, steps = make_registry(payload=payload, with_backup=with_backup)
    if kind is None:
        plan = InjectionPlan(seed=plan_seed)
    else:
        plan = InjectionPlan(seed=plan_seed, kind=kind, turn_index=1)
    policy = make_policy(agent_name, steps=steps)
    traj = run_episode(
        prompt="Look up x and report the answer.",
        tools=registry,
        agent=policy,
        plan=plan,
        config=config or SimConfig(),
        bank=bank,
    )
    return traj, registry, steps


# --- trace view oracles ------------------------------------------------------------


def view_state(view):
    """Every field of an up-to-date view, with the call of every assistant turn."""
    return (
        list(view.turns), view.seen, view.last_assistant, view.completed_steps,
        view.failure_run, view.last_error, view.first_failure, list(view.responses),
        dict(view.signatures),
        [view.call_at(i) for i, turn in enumerate(view.turns) if turn.role == ROLE_ASSISTANT],
    )


def assert_facts_match_texts(view):
    """Each call and signature the view holds, whoever recorded it, is what
    `parse_action` and `detect_failure` make of the turn's text."""
    for i, call in view.calls.items():
        try:
            parsed = call_of(parse_action(view.turns[i].content))
        except AgentProtocolError:
            parsed = None
        assert call == parsed, i
    for i, _, sig in view.responses:
        assert sig == detect_failure(view.turns[i].content), i
