from __future__ import annotations

import pytest

from conftest import digit_limit
from faultharness.bank import RetryWithBackoff, TerminateGracefully
from faultharness.errors import AgentProtocolError
from faultharness.protocol import (
    Finish,
    GiveUp,
    RecoveryStep,
    ToolCall,
    parse_action,
    render_action,
)


def test_tool_call_roundtrip():
    call = ToolCall(name="lookup", arguments={"q": "x", "n": 3}, thought="try it")
    parsed = parse_action(render_action(call))
    assert not parsed.is_recovery
    assert parsed.call.name == "lookup"
    assert parsed.call.arguments == {"q": "x", "n": 3}


def test_finish_roundtrip():
    parsed = parse_action(render_action(Finish(answer="42", thought="done")))
    assert parsed.finish is not None
    assert parsed.finish.answer == "42"
    assert parsed.is_terminal


def test_give_up_roundtrip():
    parsed = parse_action(render_action(GiveUp(report="could not", thought="stop")))
    assert parsed.give_up is not None
    assert parsed.give_up.report == "could not"


def test_recovery_step_carries_prefix():
    step = RecoveryStep(
        action=RetryWithBackoff(max_attempts=1),
        thought="retrying",
        call=ToolCall(name="lookup", arguments={"q": "x"}),
    )
    text = render_action(step)
    assert text.startswith("Recovery: Thought:")
    parsed = parse_action(text)
    assert parsed.is_recovery
    assert parsed.call.name == "lookup"


def test_terminate_step_renders_as_recovery_give_up():
    step = RecoveryStep(
        action=TerminateGracefully(),
        thought="stopping",
        report="auth failed",
    )
    parsed = parse_action(render_action(step))
    assert parsed.is_recovery
    assert parsed.give_up.report == "auth failed"


def test_non_terminal_recovery_step_requires_call():
    with pytest.raises(ValueError):
        RecoveryStep(action=RetryWithBackoff(), thought="t", call=None)


def test_parse_rejects_prose():
    with pytest.raises(AgentProtocolError):
        parse_action("I think I should call the weather API now.")


def test_parse_rejects_bad_json_input():
    with pytest.raises(AgentProtocolError):
        parse_action("Thought: x\nAction: lookup\nAction Input: {not json}")
    # nested too deep to parse: refused the same way, not a RecursionError
    with pytest.raises(AgentProtocolError, match="Action Input is not valid JSON"):
        parse_action("Thought: x\nAction: lookup\nAction Input: " + "[" * 100_000)


@pytest.mark.parametrize("limit", [0, 640, 4300])
@pytest.mark.parametrize("length", [641, 5000])
def test_parse_reads_an_integer_past_the_digit_limit_as_its_digits(length, limit):
    # Action Input is read as every JSON text is: the digits, whatever the limit
    digits = "9" * length
    with digit_limit(limit):
        parsed = parse_action('Thought: x\nAction: lookup\nAction Input: {"q": %s}' % digits)
    assert parsed.call == ToolCall(name="lookup", arguments={"q": digits}, thought="x")


def test_parse_rejects_unknown_finish_return_type():
    with pytest.raises(AgentProtocolError):
        parse_action(
            'Thought: x\nAction: Finish\nAction Input: {"return_type": "sideways"}'
        )


def test_parse_paper_shaped_listing_turn():
    text = (
        "Recovery: Thought: The API call failed, switching to the media endpoint.\n"
        "Action: user_medias_for_instagram_cheapest\n"
        'Action Input: {"user_id": "113294420064920"}'
    )
    parsed = parse_action(text)
    assert parsed.is_recovery
    assert parsed.call.name == "user_medias_for_instagram_cheapest"
    assert parsed.call.arguments == {"user_id": "113294420064920"}
