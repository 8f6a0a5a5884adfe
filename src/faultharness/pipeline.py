"""Dataset construction: truncate failure traces, repair them into
recovery-annotated trajectories via a pluggable teacher, finalize clean
traces, extract recovery-token spans, and compose seeded corpora.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from . import simulator  # run_episode via the module: a wrapper installed there sees every call
from .agents import make_policy, synthesize_answer
from .bank import (
    ExemplarBank,
    RecoveryExemplar,
    TerminateGracefully,
    retrieve,
)
from .episode import (
    Finished,
    GracefulFailure,
    InjectionPlan,
    RECOVERY_PREFIX,
    ROLE_ASSISTANT,
    ROLE_FUNCTION,
    Trajectory,
    Turn,
)
from .encoders import dumps_action_input, dumps_canonical, dumps_giveup_input
from .errors import AgentProtocolError, ConfigError, FaultHarnessError
from .protocol import (
    Finish,
    ParsedAction,
    RecoveryStep,
    ToolCall,
    parse_action,
    render_action,
)
from .seeds import derive_seed
from .simulator import TURN_COST_MS, ToolRegistry, canonical_call_key, wrap_response
from .tasks import builtin_task_pool
from .taxonomy import CATALOG, ErrorSignature, canonical_key
from .trace import trace_prefix, trace_view

if TYPE_CHECKING:
    from .remote import EndpointConfig


def detect_first_failure(trace: Trajectory) -> tuple[int, ErrorSignature] | None:
    """Earliest function turn classifiable as a failure; None when clean."""
    try:
        trace.validate_roles()
    except ValueError as exc:
        raise FaultHarnessError(str(exc)) from exc
    return trace_view(trace).first_failure


def truncate_at_failure(trace: Trajectory, turn_index: int) -> Trajectory:
    """Prefix ending at (and including) the failing turn."""
    return trace_prefix(trace, turn_index + 1)


# --- repair -----------------------------------------------------------------------------


class TeacherTurn(NamedTuple):
    """One turn a teacher writes, with what the teacher knows of it."""

    role: str
    content: str
    parsed: ParsedAction | None = None  # an assistant turn's one parse
    success: bool = False  # a function turn holding a response the teacher wrapped


def _teacher_says(content: str) -> TeacherTurn:
    """An assistant turn, parsed once; the parse serves every later check."""
    try:
        parsed = parse_action(content)
    except AgentProtocolError as exc:
        raise FaultHarnessError(f"teacher turn violates the grammar: {exc}") from exc
    return TeacherTurn(ROLE_ASSISTANT, content, parsed)


def _extend(trace: Trajectory, appended: list[TeacherTurn]) -> Trajectory:
    """`trace` plus the appended turns, `TURN_COST_MS` apart, with no terminal state.

    The new trajectory's view starts from `trace`'s and is told each
    appended turn's known call or signature, so it reworks nothing.
    """
    extended = trace_prefix(trace, len(trace.turns))
    view = extended.view
    clock = extended.turns[-1].simulated_time_ms
    for role, content, parsed, success in appended:
        clock += TURN_COST_MS
        if parsed is not None:
            view.calls[len(extended.turns)] = parsed.call
        elif success:
            view.signatures[len(extended.turns)] = None
        extended.turns.append(Turn(role=role, content=content, simulated_time_ms=clock))
    return extended


def _scripted_payload(toolset: ToolRegistry, call: ToolCall) -> str:
    """The toolset's scripted payload for `call`; a bare success when it has none."""
    tool = toolset.get(call.name)
    if tool is not None:
        payload = tool.scripted_responses.get(canonical_call_key(call.name, call.arguments))
        if payload is not None:
            return payload
    return '{"status":"ok"}'


@dataclass(frozen=True)
class RepairRequest:
    toolset: ToolRegistry
    truncated_trace: Trajectory
    error: ErrorSignature

    def __post_init__(self):
        last = self.truncated_trace.turns[-1]
        if last.role != ROLE_FUNCTION:
            raise FaultHarnessError("truncated trace must end at the failing turn")


# a `{name}` slot of a dialogue template; a name the slot table lacks is left as written
_SLOT = re.compile(r"\{(\w+)\}")


class RuleBasedTeacher:
    """Deterministic repair from the exemplar bank.

    Renders the exemplar's dialogue template when one exists (slot
    substitution only), otherwise synthesizes grammar-valid recovery turns
    from the exemplar's script.
    """

    def __init__(self, bank: ExemplarBank):
        if not len(bank):
            raise FaultHarnessError("rule-based teacher needs a non-empty bank")
        self._bank = bank

    def continuation(self, request: RepairRequest) -> list[TeacherTurn]:
        exemplar = retrieve(self._bank, request.error)
        trace = request.truncated_trace
        failed_call = trace_view(trace).call_before(len(trace.turns) - 1)
        if failed_call is None:
            raise FaultHarnessError("cannot locate the failing call in the trace")
        if exemplar.dialogue_template:
            return self._render_template(exemplar, request, failed_call)
        return self._render_script(exemplar, request, failed_call)

    def _render_template(
        self,
        exemplar: RecoveryExemplar,
        request: RepairRequest,
        failed_call: ToolCall,
    ) -> list[TeacherTurn]:
        alt = request.toolset.alternative_for(failed_call.name)
        giveup_payload = dumps_giveup_input(
            {
                "return_type": "give_up_and_report",
                "report": TerminateGracefully().report_for(failed_call.name, request.error),
            }
        )
        slots = {
            "tool": failed_call.name,
            "alt_tool": alt.name if alt else failed_call.name,
            "error": request.error.detail,
            "args": dumps_action_input(failed_call.arguments),
            "success_response": wrap_response(
                _scripted_payload(request.toolset, failed_call)
            ),
            "giveup_input": giveup_payload,
        }
        turns: list[TeacherTurn] = []
        for template_turn in exemplar.dialogue_template:
            # one pass: a slot name inside a filled value is not filled again
            content = _SLOT.sub(lambda m: slots.get(m[1], m[0]), template_turn["value"])
            if template_turn["from"].lower() == "assistant":
                turns.append(_teacher_says(content))
            else:
                turns.append(TeacherTurn(
                    ROLE_FUNCTION, content, success=content == slots["success_response"]
                ))
        # template dialogues that recover successfully still need the Finish
        if turns and not self._ends_terminal(turns):
            turns.append(self._finish(request, turns))
        return turns

    @staticmethod
    def _ends_terminal(turns: list[TeacherTurn]) -> bool:
        for turn in reversed(turns):
            if turn.parsed is not None:
                return turn.parsed.is_terminal
        return False

    def _finish(self, request: RepairRequest, appended: list[TeacherTurn]) -> TeacherTurn:
        probe = _extend(request.truncated_trace, appended)
        return _teacher_says(
            render_action(
                Finish(
                    answer=synthesize_answer(probe),
                    thought="The recovered data answers the task.",
                )
            )
        )

    def _render_script(
        self,
        exemplar: RecoveryExemplar,
        request: RepairRequest,
        failed_call: ToolCall,
    ) -> list[TeacherTurn]:
        """The script's first action as one corrective step: a graceful stop, or
        a re-issued call that succeeds, then Finish."""
        action = exemplar.script[0]
        if isinstance(action, TerminateGracefully):
            step = RecoveryStep(
                action=action,
                thought=f"The failure on {failed_call.name} is not recoverable; "
                "stopping with an honest report.",
                report=action.report_for(failed_call.name, request.error),
            )
            return [_teacher_says(render_action(step))]
        step = RecoveryStep(
            action=action,
            thought=f"{exemplar.rationale} Re-issuing the call to {failed_call.name}.",
            call=failed_call,
        )
        turns = [
            _teacher_says(render_action(step)),
            TeacherTurn(
                ROLE_FUNCTION,
                wrap_response(_scripted_payload(request.toolset, failed_call)),
                success=True,
            ),
        ]
        turns.append(self._finish(request, turns))
        return turns


# model turns a remote repair may take before it counts as failed
REMOTE_TEACHER_MAX_TURNS = 8


class RemoteTeacher:
    """Chat-endpoint repair: the model proposes grammar-valid turns, the
    harness simulates tool responses from the toolset scripts."""

    def __init__(self, endpoint: EndpointConfig):
        from .remote import ChatEndpoint  # only remote runs need the transport

        self._client = ChatEndpoint(endpoint)

    def continuation(self, request: RepairRequest) -> list[TeacherTurn]:
        turns: list[TeacherTurn] = []
        messages = [
            {"role": t.role, "content": t.content}
            for t in request.truncated_trace.turns
        ]
        messages.insert(
            0,
            {
                "role": "system",
                "content": "Repair this failed tool-use trace. Continue with "
                "corrective steps prefixed 'Recovery:' in Thought/Action/Action "
                "Input format, then finish.",
            },
        )
        for _ in range(REMOTE_TEACHER_MAX_TURNS):
            try:
                text = self._client.complete(messages)
                parsed = parse_action(text)
            except Exception as exc:  # transport, protocol, or grammar failure
                raise FaultHarnessError(f"remote teacher failed: {exc}") from exc
            turns.append(TeacherTurn(ROLE_ASSISTANT, text, parsed))
            messages.append({"role": "assistant", "content": text})
            if parsed.is_terminal:
                return turns
            response = wrap_response(_scripted_payload(request.toolset, parsed.call))
            turns.append(TeacherTurn(ROLE_FUNCTION, response, success=True))
            messages.append({"role": "function", "content": response})
        raise FaultHarnessError("remote teacher did not terminate the trace")


def repair(request: RepairRequest, teacher) -> Trajectory:
    """Extend the truncated trace with recovery turns; prefix is preserved
    byte-for-byte and the first appended assistant turn carries the tag."""
    appended = teacher.continuation(request)
    if not appended:
        raise FaultHarnessError("teacher produced no continuation")
    first_assistant = next((t for t in appended if t.role == ROLE_ASSISTANT), None)
    if first_assistant is None or not first_assistant.content.startswith(RECOVERY_PREFIX):
        raise FaultHarnessError("first appended assistant turn must be recovery-tagged")

    terminal = None
    for turn in appended:
        if turn.parsed is None:
            continue
        if turn.parsed.finish is not None:
            terminal = Finished(answer=turn.parsed.finish.answer)
        elif turn.parsed.give_up is not None:
            terminal = GracefulFailure(report=turn.parsed.give_up.report)
    if terminal is None:
        raise FaultHarnessError("repaired trace must end in Finish or graceful failure")
    repaired = _extend(request.truncated_trace, appended)
    repaired.terminal = terminal
    return repaired


# --- finalize ----------------------------------------------------------------------------


def finalize(trace: Trajectory) -> Trajectory:
    """Audit a clean trace: grammar-valid, zero recovery tags, ends with
    Finish (appended from the last successful output when missing)."""
    failure = detect_first_failure(trace)
    if failure is not None:
        raise FaultHarnessError(
            f"trace has a failure at turn {failure[0]}; route it to repair"
        )
    calls = trace_view(trace).calls
    parsed = None  # of the last assistant turn, when it makes no known call
    for i, turn in enumerate(trace.turns):
        if turn.role != ROLE_ASSISTANT:
            continue
        if turn.is_recovery:
            raise FaultHarnessError("clean traces must not carry recovery tags")
        parsed = None
        if calls.get(i) is not None:
            continue  # a known call: the turn parses
        try:
            parsed = parse_action(turn.content)
        except AgentProtocolError as exc:
            raise FaultHarnessError(f"assistant turn violates the grammar: {exc}") from exc

    if (
        trace.turns[-1].role == ROLE_ASSISTANT
        and parsed is not None
        and parsed.finish is not None
        and isinstance(trace.terminal, Finished)
    ):
        return trace

    finish = Finish(
        answer=synthesize_answer(trace),
        thought="All steps succeeded; reporting the retrieved data.",
    )
    finished = _extend(trace, [TeacherTurn(ROLE_ASSISTANT, render_action(finish))])
    finished.terminal = Finished(answer=finish.answer)
    return finished


# --- recovery spans ------------------------------------------------------------------------


def extract_recovery_spans(trace: Trajectory) -> list[tuple[int, int, int]]:
    """(turn index, char start, char end) for every recovery-tagged turn;
    the span covers everything after the prefix."""
    spans = []
    for i, turn in enumerate(trace.turns):
        if turn.is_recovery:
            spans.append((i, len(RECOVERY_PREFIX), len(turn.content)))
    return spans


# --- corpus composition ---------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    target_size: int
    recovery_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.recovery_fraction < 1:
            raise ValueError("recovery_fraction must be in (0, 1)")
        if self.target_size < 2:
            raise ValueError("target_size must be at least 2")

    @property
    def n_recovery(self) -> int:
        return round(self.target_size * self.recovery_fraction)

    @property
    def n_clean(self) -> int:
        return self.target_size - self.n_recovery


@dataclass(frozen=True)
class CorpusTrace:
    trace: Trajectory
    signature: ErrorSignature | None  # injected signature for repaired traces

    @cached_property
    def dedup_key(self) -> str:
        task_hash = hashlib.sha256(
            self.trace.turns[1].content.encode("utf-8")
        ).hexdigest()[:16]
        if self.signature is None:
            return f"clean|{task_hash}"
        return f"{canonical_key(self.signature)}|{task_hash}"


@dataclass
class Corpus:
    traces: list[Trajectory]
    spans: dict[str, list[list[int]]]
    manifest: dict

    def lines(self) -> list[str]:
        return [dumps_canonical(t.to_json()) for t in self.traces]


def compose_corpus(
    repaired: list[CorpusTrace],
    clean: list[CorpusTrace],
    spec: CorpusSpec,
    dictionary_version: str = "0",
) -> Corpus:
    """Seeded 80/20-style composition with signature+task dedup."""
    n_recovery, n_clean = spec.n_recovery, spec.n_clean

    def dedup(pool: list[CorpusTrace]) -> list[CorpusTrace]:
        seen: set[str] = set()
        out = []
        for item in pool:
            key = item.dedup_key
            if key in seen:
                continue
            seen.add(key)
            out.append(item)
        return out

    rec_pool = dedup(sorted(repaired, key=lambda t: t.trace.episode_id))
    clean_pool = dedup(sorted(clean, key=lambda t: t.trace.episode_id))
    if len(rec_pool) < n_recovery:
        raise ConfigError(
            f"need {n_recovery} recovery traces, have {len(rec_pool)} after dedup"
        )
    if len(clean_pool) < n_clean:
        raise ConfigError(
            f"need {n_clean} clean traces, have {len(clean_pool)} after dedup"
        )

    rng = random.Random(spec.seed)
    chosen = rng.sample(rec_pool, n_recovery) + rng.sample(clean_pool, n_clean)
    traces = [c.trace for c in chosen]

    spans = {
        t.episode_id: [list(span) for span in extract_recovery_spans(t)] for t in traces
    }
    manifest = {
        "counts": {"recovery": n_recovery, "clean": n_clean, "total": spec.target_size},
        "fractions": {"recovery": spec.recovery_fraction},
        "seed": spec.seed,
        "dictionary_version": dictionary_version,
    }
    return Corpus(traces=traces, spans=spans, manifest=manifest)


def build_corpus(
    spec: CorpusSpec, teacher, dictionary_version: str
) -> tuple[Corpus, list[str]]:
    """The composed corpus and one JSON line per quarantined (teacher-refused) repair.

    Attempt `i` injects catalog kind `i` into built-in task `i` (both modulo
    their pool) until the repairs hold `spec.n_recovery` distinct dedup keys,
    or for at most four times that many attempts.
    """
    tasks = builtin_task_pool()
    kinds = sorted(CATALOG)
    repaired: list[CorpusTrace] = []
    distinct: set[str] = set()
    quarantine: list[str] = []
    for i in range(spec.n_recovery * 4):
        if len(distinct) >= spec.n_recovery:
            break
        task = tasks[i % len(tasks)]
        kind = CATALOG[kinds[i % len(kinds)]]
        plan = InjectionPlan(
            seed=derive_seed(spec.seed, 0xC0, i),
            kind=kind.identifier,
            manifestation=kind.default_manifestation,
            turn_index=1,
        )
        policy = make_policy("toolbench", steps=task.steps)
        traj = simulator.run_episode(task.prompt, task.tools, policy, plan)
        found = detect_first_failure(traj)
        if found is None:
            continue
        turn_index, signature = found
        truncated = truncate_at_failure(traj, turn_index)
        request = RepairRequest(toolset=task.tools, truncated_trace=truncated, error=signature)
        try:
            fixed = repair(request, teacher)
        except FaultHarnessError as exc:
            quarantine.append(
                dumps_canonical({"episode_id": traj.episode_id, "reason": str(exc)})
            )
            continue
        item = CorpusTrace(trace=fixed, signature=signature)
        repaired.append(item)
        distinct.add(item.dedup_key)

    clean: list[CorpusTrace] = []
    for j in range(spec.n_clean):
        task = tasks[j % len(tasks)]
        policy = make_policy("vanilla", steps=task.steps)
        plan = InjectionPlan(seed=derive_seed(spec.seed, 0xC1, j))
        traj = simulator.run_episode(task.prompt, task.tools, policy, plan)
        clean.append(CorpusTrace(trace=finalize(traj), signature=None))

    return compose_corpus(repaired, clean, spec, dictionary_version), quarantine
