"""One view of what happened on each turn of a trajectory.

A signature describes a tool response's text and nothing else; the view
records where each response was seen: its turn index, and the tool of the
nearest assistant call before it.

Each turn's facts are worked out once, by the code that writes the turn. The
simulator hands the episode's `TraceView` the call of every assistant turn it
renders and the signature of every tool response it serves: a scripted
payload is classified once when served, an injected fault once when it is
made (every failing reissue of it serves that one signature), and a wrapped
success is known to be one. The view classifies only what no writer told it.
`TraceView.fork` starts a derived trajectory (a truncated prefix, or a prefix
with turns appended) from those facts instead of a fresh pass over the trace.

Agents, the grader and the corpus pipeline read turn facts only from here.
`taxonomy.detect_failure` and `protocol.parse_action` are called through their
modules, so that wrappers installed on those modules see the view's calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import protocol, taxonomy
from .episode import ROLE_ASSISTANT, ROLE_FUNCTION, Trajectory, Turn
from .errors import AgentProtocolError
from .protocol import ToolCall
from .taxonomy import ErrorSignature, json_object


@dataclass(frozen=True)
class FailureEvent:
    """Consecutive failing responses: one persisting fault retried n times."""

    start: int  # turn index of the first failing response
    capability: str
    recovered: bool  # a later successful response served the same capability


_UNCLASSIFIED = object()  # a function turn no writer recorded a signature for


class TraceView:
    """What happened on each turn of one trajectory, worked out once.

    Each function turn's text is classified once, into a signature that
    describes the text alone. The view records where it was seen:
    `responses` holds each function turn's index, the tool of the nearest
    assistant call before it, and its signature. Each assistant turn is
    parsed at most once, when a call is asked of it. Where the code that
    wrote a turn already knows its facts, it records them before `update`
    reaches the turn: `calls[i]` for an assistant turn's call,
    `signatures[i]` for a function turn's signature (None for a success).
    The view then neither parses nor classifies that turn. `update` resumes where the last update stopped, so
    turns must only ever be appended.

    `fork(n)` is the view of a copy of the first n turns, for a trajectory
    derived from this one. It takes those turns' calls and signatures from
    this view and rebuilds the rest of its state from them, without parsing
    or classifying anything again, and keeps no reference to this view.
    """

    def __init__(self, turns: list[Turn]):
        self.turns = turns
        self.seen = 0
        self.last_assistant = -1
        self.completed_steps = 0  # successful tool responses = task steps done
        self.failure_run = (-1, 0)  # (first turn index, length) of the trailing failure run
        self.last_error: ErrorSignature | None = None  # of the latest function turn
        self.first_failure: tuple[int, ErrorSignature] | None = None
        # (turn index, tool name, signature or None) per function turn
        self.responses: list[tuple[int, str, ErrorSignature | None]] = []
        self.recoveries: list[int] = []  # turn indices of recovery-tagged turns
        self.calls: dict[int, ToolCall | None] = {}  # assistant turn index -> its call
        # function turn index -> its writer-recorded signature, until `update` reads it
        self.signatures: dict[int, ErrorSignature | None] = {}

    def update(self) -> "TraceView":
        turns = self.turns
        for i in range(self.seen, len(turns)):
            turn = turns[i]
            if turn.role == ROLE_ASSISTANT:
                self.last_assistant = i
                if turn.is_recovery:
                    self.recoveries.append(i)
            elif turn.role == ROLE_FUNCTION:
                call = self.call_at(self.last_assistant)
                tool = call.name if call else ""
                sig = self.signatures.pop(i, _UNCLASSIFIED)
                if sig is _UNCLASSIFIED:
                    sig = taxonomy.detect_failure(turn.content)
                self.responses.append((i, tool, sig))
                self.last_error = sig
                if sig is None:
                    self.completed_steps += 1
                    self.failure_run = (-1, 0)
                else:
                    start, length = self.failure_run
                    self.failure_run = (i if length == 0 else start, length + 1)
                    if self.first_failure is None:
                        self.first_failure = (i, sig)
        self.seen = len(turns)
        return self

    def fork(self, n: int) -> "TraceView":
        """The view of a new list holding the first n turns, from this view's facts."""
        self.update()
        view = TraceView(self.turns[:n])
        view.calls = {i: call for i, call in self.calls.items() if i < n}
        view.signatures = {i: sig for i, _, sig in self.responses if i < n}
        return view.update()

    def call_at(self, index: int) -> ToolCall | None:
        """The call of the assistant turn at `index`; None if it makes none."""
        if index < 0:
            return None
        if index not in self.calls:
            try:
                call = protocol.parse_action(self.turns[index].content).call
            except AgentProtocolError:
                call = None
            self.calls[index] = call
        return self.calls[index]

    def call_before(self, index: int) -> ToolCall | None:
        """The call of the nearest assistant turn before turn `index`."""
        for i in range(index - 1, -1, -1):
            if self.turns[i].role == ROLE_ASSISTANT:
                return self.call_at(i)
        return None

    def last_failed_call(self) -> ToolCall | None:
        """The call whose failure started the trailing failure run, if any."""
        start, length = self.failure_run
        return self.call_before(start) if length else None

    def recovery_steps_since(self, index: int) -> int:
        return sum(1 for i in self.recoveries if i > index)

    def last_success_payload(self) -> dict:
        """Payload of the most recent successful response holding a JSON object."""
        for i, _, sig in reversed(self.responses):
            if sig is not None:
                continue
            wrapper = json_object(self.turns[i].content)
            response = None if wrapper is None else wrapper.get("response", "{}")
            payload = json_object(response) if isinstance(response, str) else None
            if payload is not None:
                return payload
        return {}

    def failure_events(self, capability_of: Callable[[str], str]) -> list[FailureEvent]:
        """Failure events in turn order; `capability_of` maps a tool name to its tag."""
        starts: list[tuple[int, str]] = []
        successes: list[tuple[int, str]] = []
        in_event = False
        for i, tool, sig in self.responses:
            capability = capability_of(tool) if tool else ""
            if sig is None:
                successes.append((i, capability))
                in_event = False
            elif not in_event:
                starts.append((i, capability))
                in_event = True
        return [
            FailureEvent(
                start=start,
                capability=capability,
                recovered=bool(capability)
                and any(i > start and cap == capability for i, cap in successes),
            )
            for start, capability in starts
        ]


def trace_view(traj: Trajectory) -> TraceView:
    """The trajectory's view, brought up to date with its turns."""
    view = traj.view
    if view is None or view.turns is not traj.turns or len(traj.turns) < view.seen:
        view = traj.view = TraceView(traj.turns)
    return view.update()


def trace_prefix(traj: Trajectory, n: int) -> Trajectory:
    """A new trajectory of `traj`'s first n turns, with no terminal state.

    Its view is forked from `traj`'s, so turns may be appended to it (their
    facts recorded in its view first) without reworking the prefix.
    """
    view = trace_view(traj).fork(n)
    prefix = Trajectory(episode_id=traj.episode_id, plan=traj.plan, turns=view.turns)
    prefix.view = view
    return prefix
