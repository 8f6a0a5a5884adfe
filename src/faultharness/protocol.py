"""Agent action surface grammar.

Assistant turns follow the ToolBench shape::

    Thought: <free text>
    Action: <tool name or Finish>
    Action Input: <json object>

Finish doubles as the terminal action: return_type "give_answer" completes
the task, "give_up_and_report" fails it gracefully. A recovery step puts the
literal "Recovery:" prefix before its turn and states its action on that
line, as the compact JSON of `bank.action_to_json`::

    Recovery: {"action":"reformat_arguments"}
    Thought: ...

The tag is one of the bank's eight, which `GRAMMAR` names for a model. A
`terminate_gracefully` step gives up through Finish; every other step calls
a tool. There is one form of a recovery turn: a bare `Recovery: Thought: ...`
turn, an action line outside the vocabulary, and a step whose turn
contradicts its action are refused as malformed. `parse_action` inverts
`render_action` for every action whose thought and tool name hold no line
break and no surrounding whitespace.

A task step's call is made on many decisions of a run, so it is built once
per step (`tasks.TaskStep`), `prepared` with its call key and Action Input
text, and `render_action` writes a prepared call's text as it is. A recovery
action keeps the JSON text of its line from its first rendering (the bank
actions' `text`); a bank's scripts and the policies' constant actions are
shared, so each is dumped once per run. A call or action made for one
decision (a parsed turn, a remote model's, a tool switch) pays nothing for
this: its texts are dumped where they are used, by the same functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bank import _ACTION_TAGS, RecoveryAction, TerminateGracefully, action_from_json
from .encoders import dumps_action_input, dumps_canonical, loads
from .episode import RECOVERY_PREFIX
from .errors import AgentProtocolError

FINISH_ACTION = "Finish"
GIVE_ANSWER = "give_answer"
GIVE_UP = "give_up_and_report"

# The grammar as a model is told it: the system prompt and the remote teacher's prompt.
GRAMMAR = (
    "Respond in the Thought/Action/Action Input format; finish with the Finish "
    "action. Begin a corrective step after a tool failure with \"Recovery:\" "
    "and, on the same line, its recovery action as a JSON object "
    "{\"action\": <tag>}, the tag one of " + ", ".join(_ACTION_TAGS) + ". A "
    "terminate_gracefully step finishes with return_type " + GIVE_UP + "; "
    "every other step calls a tool."
)


def canonical_call_key(name: str, arguments: dict) -> str:
    """Tool name + sorted, whitespace-normalized argument JSON."""
    return f"{name}({dumps_canonical(arguments)})"


@dataclass(frozen=True)
class ToolCall:
    """One tool call. A `prepared` call keeps its call key and Action Input
    text; any other call reads None for both from the class."""

    name: str
    arguments: dict
    thought: str = ""

    # not dataclass fields: equality, repr and the constructor ignore them
    key = None  # `canonical_call_key(name, arguments)` of a prepared call
    input_text = None  # `dumps_action_input(arguments)` of a prepared call

    def prepared(self, thought: str = "") -> ToolCall:
        """This call with `thought`, carrying its call key and Action Input
        text: this call's own when it is prepared, else worked out here."""
        call = ToolCall(self.name, self.arguments, thought)
        key, text = self.key, self.input_text
        if key is None:
            key = canonical_call_key(self.name, self.arguments)
            text = dumps_action_input(self.arguments)
        object.__setattr__(call, "key", key)
        object.__setattr__(call, "input_text", text)
        return call


@dataclass(frozen=True)
class Finish:
    answer: str
    thought: str = ""


@dataclass(frozen=True)
class GiveUp:
    report: str
    thought: str = ""


@dataclass(frozen=True)
class ProtocolViolation:
    """Raw agent output that failed to parse under the grammar."""

    text: str


@dataclass(frozen=True)
class RecoveryStep:
    """One corrective step; serialized with the Recovery: prefix and its action line.

    `call` is the reissued/alternative tool call, when the action implies one;
    the step's thought is the turn's, so the call carries none of its own.
    A TerminateGracefully step carries no call and ends the episode.
    """

    action: RecoveryAction
    thought: str
    call: ToolCall | None = None
    report: str = ""

    def __post_init__(self):
        if isinstance(self.action, TerminateGracefully):
            if self.call is not None:
                raise ValueError("terminate steps must not carry a call")
        elif self.call is None:
            raise ValueError("non-terminal recovery steps must reissue a call")
        elif self.call.thought:
            raise ValueError("a recovery step's call carries no thought; the step's is rendered")


AgentAction = ToolCall | Finish | GiveUp | RecoveryStep | ProtocolViolation


def call_of(action: AgentAction) -> ToolCall | None:
    """The tool call `action` makes; None for a terminal action or a violation."""
    if isinstance(action, ToolCall):
        return action
    if isinstance(action, RecoveryStep):
        return action.call
    return None


def _render_turn(thought: str, name: str, input_text: str) -> str:
    return f"Thought: {thought}\nAction: {name}\nAction Input: {input_text}"


def _render_call(thought: str, call: ToolCall) -> str:
    text = call.input_text
    if text is None:  # a call that was not prepared
        text = dumps_action_input(call.arguments)
    return _render_turn(thought, call.name, text)


def render_action(action: ToolCall | Finish | GiveUp | RecoveryStep) -> str:
    """Serialize an agent action to assistant-turn text."""
    if isinstance(action, ToolCall):
        return _render_call(action.thought, action)
    if isinstance(action, Finish):
        payload = {"return_type": GIVE_ANSWER, "final_answer": action.answer}
        return _render_turn(action.thought, FINISH_ACTION, dumps_action_input(payload))
    if isinstance(action, GiveUp):
        payload = {"return_type": GIVE_UP, "report": action.report}
        return _render_turn(action.thought, FINISH_ACTION, dumps_action_input(payload))
    if isinstance(action, RecoveryStep):
        if action.call is not None:
            inner = _render_call(action.thought, action.call)
        else:
            inner = render_action(GiveUp(report=action.report, thought=action.thought))
        return f"{RECOVERY_PREFIX} {action.action.text}\n{inner}"
    raise TypeError(f"unknown action {action!r}")


_GRAMMAR = re.compile(
    r"^(?:Thought:(?P<thought>.*?))?\s*"
    r"^Action:\s*(?P<action>[^\n]+?)\s*$\s*"
    r"^Action Input:\s*(?P<input>.+)\s*$",
    re.MULTILINE | re.DOTALL,
)


def parse_action(text: str) -> ToolCall | Finish | GiveUp | RecoveryStep:
    """The action an assistant turn states; raises AgentProtocolError when malformed."""
    if not text.startswith(RECOVERY_PREFIX):
        return _parse_turn(text)
    line, _, body = text[len(RECOVERY_PREFIX):].partition("\n")
    try:
        doc = loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"{doc!r} is not a JSON object")
        action = action_from_json(doc)
    except (ValueError, TypeError) as exc:
        raise AgentProtocolError(f"Recovery: turn has no valid action line ({exc})") from exc
    inner = _parse_turn(body)
    terminate = isinstance(action, TerminateGracefully)
    if isinstance(inner, ToolCall) and not terminate:
        return RecoveryStep(
            action=action, thought=inner.thought, call=ToolCall(inner.name, inner.arguments)
        )
    if isinstance(inner, GiveUp) and terminate:
        return RecoveryStep(action=action, thought=inner.thought, report=inner.report)
    must = f"finish with return_type {GIVE_UP}" if terminate else "call a tool, not finish"
    raise AgentProtocolError(f"a {doc['action']} step must {must}")


def _parse_turn(text: str) -> ToolCall | Finish | GiveUp:
    match = _GRAMMAR.search(text)
    if match is None:
        raise AgentProtocolError("expected Thought/Action/Action Input structure")
    name = match.group("action").strip()
    thought = (match.group("thought") or "").strip()
    raw_input = match.group("input").strip()
    try:
        arguments = loads(raw_input)
    except ValueError as exc:
        raise AgentProtocolError(f"Action Input is not valid JSON: {exc}") from exc
    if not isinstance(arguments, dict):
        raise AgentProtocolError("Action Input must be a JSON object")
    if name != FINISH_ACTION:
        return ToolCall(name=name, arguments=arguments, thought=thought)
    return_type = arguments.get("return_type")
    if return_type == GIVE_ANSWER:
        return Finish(answer=str(arguments.get("final_answer", "")), thought=thought)
    if return_type in (GIVE_UP, "give_up_and_restart"):
        return GiveUp(report=str(arguments.get("report", "")), thought=thought)
    raise AgentProtocolError(f"unknown Finish return_type {return_type!r}")
