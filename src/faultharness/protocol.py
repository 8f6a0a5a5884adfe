"""Agent action surface grammar.

Assistant turns follow the ToolBench shape::

    Thought: <free text>
    Action: <tool name or Finish>
    Action Input: <json object>

Recovery steps carry the literal "Recovery:" prefix before "Thought:".
Finish doubles as the terminal action: return_type "give_answer" completes
the task, "give_up_and_report" fails it gracefully.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bank import RecoveryAction, TerminateGracefully
from .encoders import dumps_action_input, loads
from .episode import RECOVERY_PREFIX
from .errors import AgentProtocolError

FINISH_ACTION = "Finish"
GIVE_ANSWER = "give_answer"
GIVE_UP = "give_up_and_report"


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict
    thought: str = ""


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
    """One scripted corrective step; serialized with the Recovery: prefix.

    `call` is the reissued/alternative tool call, when the action implies one.
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


AgentAction = ToolCall | Finish | GiveUp | RecoveryStep | ProtocolViolation


def _render_turn(thought: str, name: str, arguments: dict) -> str:
    return f"Thought: {thought}\nAction: {name}\nAction Input: {dumps_action_input(arguments)}"


def render_action(action: AgentAction) -> str:
    """Serialize an agent action to assistant-turn text."""
    if isinstance(action, ToolCall):
        return _render_turn(action.thought, action.name, action.arguments)
    if isinstance(action, Finish):
        payload = {"return_type": GIVE_ANSWER, "final_answer": action.answer}
        return _render_turn(action.thought, FINISH_ACTION, payload)
    if isinstance(action, GiveUp):
        payload = {"return_type": GIVE_UP, "report": action.report}
        return _render_turn(action.thought, FINISH_ACTION, payload)
    if isinstance(action, RecoveryStep):
        if action.call is not None:
            inner = render_action(
                ToolCall(
                    name=action.call.name,
                    arguments=action.call.arguments,
                    thought=action.thought,
                )
            )
        else:
            inner = render_action(GiveUp(report=action.report, thought=action.thought))
        return f"{RECOVERY_PREFIX} {inner}"
    if isinstance(action, ProtocolViolation):
        return action.text
    raise TypeError(f"unknown action {action!r}")


@dataclass(frozen=True)
class ParsedAction:
    """Grammar-level view of one assistant turn."""

    is_recovery: bool
    call: ToolCall | None = None
    finish: Finish | None = None
    give_up: GiveUp | None = None

    @property
    def is_terminal(self) -> bool:
        return self.finish is not None or self.give_up is not None


_GRAMMAR = re.compile(
    r"^(?:Thought:(?P<thought>.*?))?\s*"
    r"^Action:\s*(?P<action>[^\n]+?)\s*$\s*"
    r"^Action Input:\s*(?P<input>.+)\s*$",
    re.MULTILINE | re.DOTALL,
)


def parse_action(text: str) -> ParsedAction:
    """Parse assistant-turn text; raises AgentProtocolError when malformed."""
    body = text
    is_recovery = body.startswith(RECOVERY_PREFIX)
    if is_recovery:
        body = body[len(RECOVERY_PREFIX):].lstrip()
    match = _GRAMMAR.search(body)
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
    if name == FINISH_ACTION:
        return_type = arguments.get("return_type")
        if return_type == GIVE_ANSWER:
            return ParsedAction(
                is_recovery=is_recovery,
                finish=Finish(answer=str(arguments.get("final_answer", "")), thought=thought),
            )
        if return_type in (GIVE_UP, "give_up_and_restart"):
            return ParsedAction(
                is_recovery=is_recovery,
                give_up=GiveUp(report=str(arguments.get("report", "")), thought=thought),
            )
        raise AgentProtocolError(f"unknown Finish return_type {return_type!r}")
    return ParsedAction(
        is_recovery=is_recovery,
        call=ToolCall(name=name, arguments=arguments, thought=thought),
    )
