from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import digit_limit
from faultharness.bank import (
    LenientParse,
    ReformatArguments,
    RefreshCredentials,
    RetryWithBackoff,
    SwitchTool,
    TerminateGracefully,
    ValidateAndReissue,
    WaitUntilHealthy,
    action_to_json,
    load_shipped_bank,
)
from faultharness.encoders import INT_TEXT_MAX, dumps_action_input, dumps_canonical
from faultharness.errors import AgentProtocolError
from faultharness.protocol import (
    Finish,
    GiveUp,
    RecoveryStep,
    ToolCall,
    canonical_call_key,
    parse_action,
    render_action,
)


def test_tool_call_roundtrip():
    call = ToolCall(name="lookup", arguments={"q": "x", "n": 3}, thought="try it")
    assert parse_action(render_action(call)) == call


def test_finish_roundtrip():
    finish = Finish(answer="42", thought="done")
    assert parse_action(render_action(finish)) == finish


def test_give_up_roundtrip():
    give_up = GiveUp(report="could not", thought="stop")
    assert parse_action(render_action(give_up)) == give_up


def test_recovery_step_carries_prefix():
    # the prefix line states the action, as the compact JSON of action_to_json
    step = RecoveryStep(
        action=RetryWithBackoff(max_attempts=1),
        thought="retrying",
        call=ToolCall(name="lookup", arguments={"q": "x"}),
    )
    text = render_action(step)
    assert text == (
        'Recovery: {"action":"retry_with_backoff","base_delay_ms":500,"cap_ms":8000,'
        '"max_attempts":1,"respect_retry_after":false}\n'
        'Thought: retrying\nAction: lookup\nAction Input: {"q": "x"}'
    )
    assert parse_action(text) == step


def test_terminate_step_renders_as_recovery_give_up():
    step = RecoveryStep(
        action=TerminateGracefully(),
        thought="stopping",
        report="auth failed",
    )
    text = render_action(step)
    assert text.startswith('Recovery: {"action":"terminate_gracefully","report":')
    assert text.endswith(
        'Action: Finish\nAction Input: {"report": "auth failed", "return_type": "give_up_and_report"}'
    )
    assert parse_action(text) == step


_lines = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))
_thoughts = _lines.map(str.strip)
_names = st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True)
_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**9, 10**9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_arguments = st.dictionaries(st.text(), _values, max_size=4)
_calls = st.builds(ToolCall, name=_names, arguments=_arguments)
_reissues = st.one_of(
    st.builds(
        RetryWithBackoff,
        max_attempts=st.integers(1, 4),
        base_delay_ms=st.integers(0, 10**6),
        cap_ms=st.integers(0, 10**6),
        respect_retry_after=st.booleans(),
    ),
    st.builds(WaitUntilHealthy, poll_interval_ms=st.integers(1, 10**6)),
    *(
        st.just(cls())
        for cls in (
            ReformatArguments, SwitchTool, RefreshCredentials, ValidateAndReissue, LenientParse
        )
    ),
)
_reports = st.sampled_from(["", "Could not finish {tool}: {error}", "Stopped at {tool}."])
_actions = st.one_of(
    st.builds(ToolCall, name=_names, arguments=_arguments, thought=_thoughts),
    st.builds(Finish, answer=st.text(), thought=_thoughts),
    st.builds(GiveUp, report=st.text(), thought=_thoughts),
    st.builds(RecoveryStep, action=_reissues, thought=_thoughts, call=_calls),
    st.builds(
        RecoveryStep,
        action=st.builds(TerminateGracefully, report=_reports),
        thought=_thoughts,
        report=st.text(),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_actions)
def test_parse_inverts_render(action):
    # one form: the text of an action is all there is to know of it
    assert parse_action(render_action(action)) == action


def test_recovery_step_call_carries_no_thought():
    # the step's thought is the one rendered, so a call may not bring another
    with pytest.raises(ValueError, match="carries no thought"):
        RecoveryStep(
            action=ReformatArguments(),
            thought="fixing",
            call=ToolCall(name="lookup", arguments={}, thought="looking up"),
        )


_TURN = 'Thought: t\nAction: lookup\nAction Input: {"q": "x"}'


@pytest.mark.parametrize(
    "head",
    [
        "Recovery: ",  # the bare form: Recovery: Thought: ...
        "Recovery:\n",
        'Recovery: {"action": "reformat_arguments"\n',
        'Recovery: ["reformat_arguments"]\n',
        'Recovery: {"action": "pray"}\n',
        'Recovery: {"action": "reformat_arguments", "strength": 3}\n',
        'Recovery: {"action": "retry_with_backoff", "max_attempts": 9}\n',
        'Recovery: {"action": "retry_with_backoff", "max_attempts": "2"}\n',
        'Recovery: {"action": "reformat_arguments", "hint": "x"}\n',  # an old bank field
    ],
    ids=["bare", "empty", "not-json", "not-object", "unknown-tag", "unknown-field",
         "out-of-range", "mistyped", "bank-only-field"],
)
def test_parse_refuses_a_recovery_turn_without_a_valid_action_line(head):
    with pytest.raises(AgentProtocolError, match="no valid action line"):
        parse_action(head + _TURN)


@pytest.mark.parametrize(
    "action, turn, fragment",
    [
        ('{"action":"terminate_gracefully"}', _TURN, "must finish with"),
        ('{"action":"terminate_gracefully"}',
         'Thought: t\nAction: Finish\nAction Input: {"return_type": "give_answer"}',
         "must finish with"),
        ('{"action":"reformat_arguments"}',
         'Thought: t\nAction: Finish\nAction Input: {"return_type": "give_answer"}',
         "must call a tool"),
        ('{"action":"switch_tool"}',
         'Thought: t\nAction: Finish\nAction Input: {"return_type": "give_up_and_report"}',
         "must call a tool"),
    ],
    ids=["terminate-calls", "terminate-answers", "reformat-answers", "switch-gives-up"],
)
def test_parse_refuses_a_step_its_turn_contradicts(action, turn, fragment):
    with pytest.raises(AgentProtocolError, match=fragment):
        parse_action(f"Recovery: {action}\n{turn}")


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
    assert parsed == ToolCall(name="lookup", arguments={"q": digits}, thought="x")
    # so is the action line: its max_attempts is the digit string, which no
    # int field takes, and the turn is refused with one message under every limit
    line = '{"action":"retry_with_backoff","max_attempts":%s}' % digits
    with digit_limit(limit), pytest.raises(AgentProtocolError) as refused:
        parse_action(f"Recovery: {line}\n" + 'Thought: x\nAction: lookup\nAction Input: {}')
    assert str(refused.value) == (
        "Recovery: turn has no valid action line "
        f"(RetryWithBackoff.max_attempts must be int, not '{digits}')"
    )


def test_parse_rejects_unknown_finish_return_type():
    with pytest.raises(AgentProtocolError):
        parse_action(
            'Thought: x\nAction: Finish\nAction Input: {"return_type": "sideways"}'
        )


def test_parse_paper_shaped_listing_turn():
    # the paper's listing states no action, so it is refused; with its action
    # stated on the prefix line, the same turn is a tool switch
    turn = (
        "Thought: The API call failed, switching to the media endpoint.\n"
        "Action: user_medias_for_instagram_cheapest\n"
        'Action Input: {"user_id": "113294420064920"}'
    )
    with pytest.raises(AgentProtocolError, match="no valid action line"):
        parse_action("Recovery: " + turn)
    assert parse_action('Recovery: {"action":"switch_tool"}\n' + turn) == RecoveryStep(
        action=SwitchTool(),
        thought="The API call failed, switching to the media endpoint.",
        call=ToolCall(
            name="user_medias_for_instagram_cheapest", arguments={"user_id": "113294420064920"}
        ),
    )


# JSON values as arguments hold them: non-ASCII text, nested objects and lists,
# and integers of more digits than `INT_TEXT_MAX`
_LONG_INTS = st.integers(min_value=10**INT_TEXT_MAX, max_value=10 ** (INT_TEXT_MAX + 60))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _LONG_INTS
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    name=st.text(),
    arguments=st.dictionaries(st.text(), _JSON_VALUES, max_size=4),
    thought=st.text(),
)
def test_a_prepared_call_carries_the_texts_its_arguments_dump_to(name, arguments, thought):
    # a prepared call's key and Action Input text are the ones a fresh call's
    # are dumped to, and a call prepared from it keeps them; neither is a field
    fresh = ToolCall(name, arguments, thought)
    assert fresh.key is None and fresh.input_text is None
    bare = ToolCall(name, arguments).prepared()
    started = bare.prepared(thought)
    for call in (bare, started):
        assert call.key == canonical_call_key(name, arguments)
        assert call.input_text == dumps_action_input(arguments)
        assert call == ToolCall(name, arguments, call.thought)
        assert repr(call) == repr(ToolCall(name, arguments, call.thought))
    assert started.key is bare.key and started.input_text is bare.input_text
    assert render_action(started) == render_action(fresh)
    step = RecoveryStep(action=ReformatArguments(), thought=thought, call=bare)
    assert render_action(step) == render_action(
        RecoveryStep(action=ReformatArguments(), thought=thought, call=ToolCall(name, arguments))
    )


def test_a_recovery_action_states_its_line_from_the_text_it_keeps():
    # every action of the shipped bank's scripts states the compact JSON of
    # action_to_json, worked out once for the object and then read back
    for exemplar in load_shipped_bank().exemplars:
        for action in exemplar.script:
            assert action.text == dumps_canonical(action_to_json(action))
            assert action.text is action.text
            if isinstance(action, TerminateGracefully):
                step = RecoveryStep(action=action, thought="stop", report="r")
            else:
                step = RecoveryStep(action=action, thought="t", call=ToolCall("x", {}))
            assert render_action(step).startswith(f"Recovery: {action.text}\n")
            assert parse_action(render_action(step)) == step
