"""Dataset construction: truncate failure traces, repair them into
recovery-annotated trajectories via a pluggable teacher, finalize clean
traces, extract recovery-token spans, and compose seeded corpora.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from . import simulator  # run_episode via the module: a wrapper installed there sees every call
from .agents import _flatten_script, answer_quoting, make_policy
from .bank import ExemplarBank, SwitchTool, TerminateGracefully, retrieve
from .episode import (
    Finished,
    GracefulFailure,
    InjectionPlan,
    RECOVERY_PREFIX,
    ROLE_ASSISTANT,
    ROLE_FUNCTION,
    Trajectory,
    Turn,
    trajectory_to_line,
)
from .encoders import dumps_canonical
from .errors import ConfigError, FaultHarnessError
from .protocol import (
    GRAMMAR,
    AgentAction,
    Finish,
    RecoveryStep,
    ToolCall,
    call_of,
    parse_action,
    render_action,
)
from .seeds import derive_seed
from .simulator import TURN_COST_MS, ToolRegistry, canonical_call_key, serve
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
    """One turn a teacher writes: an assistant turn with the action it states,
    or a function turn holding a response the teacher wrapped as a success."""

    role: str
    content: str
    parsed: AgentAction | None = None  # the action an assistant turn states


def _extend(trace: Trajectory, appended: list[TeacherTurn]) -> Trajectory:
    """`trace` plus the appended turns, `TURN_COST_MS` apart, with no terminal state.

    The new trajectory's view starts from `trace`'s and is told each
    appended turn's call, or that a function turn is a success, so it
    reworks nothing.
    """
    extended = trace_prefix(trace, len(trace.turns))
    view = extended.view
    clock = extended.turns[-1].simulated_time_ms
    for role, content, parsed in appended:
        clock += TURN_COST_MS
        if parsed is not None:
            view.calls[len(extended.turns)] = call_of(parsed)
        else:
            view.signatures[len(extended.turns)] = None
        extended.turns.append(Turn(role=role, content=content, simulated_time_ms=clock))
    return extended


def _served(toolset: ToolRegistry, call: ToolCall) -> tuple[str, dict | None]:
    """(text, payload): the toolset's response to a teacher's `call`, served as
    the simulator serves it (`simulator.serve`), and the JSON object of the
    scripted payload it wraps (None when that is not an object), parsed once
    per tool.

    A failure refuses the repair: a scripted failure body, a call with no script
    or a tool not in the registry. A corrective call that fails recovers nothing,
    and wrapping its response would teach a false success.
    """
    tool = toolset.get(call.name)
    key = canonical_call_key(call.name, call.arguments)
    text, signature, payload = serve(tool, call.name, key)
    if signature is not None:
        raise FaultHarnessError(
            f"the corrective call to {call.name} fails too ({signature.kind}: {signature.detail})"
        )
    return text, payload


@dataclass(frozen=True)
class RepairRequest:
    toolset: ToolRegistry
    truncated_trace: Trajectory
    error: ErrorSignature

    def __post_init__(self):
        last = self.truncated_trace.turns[-1]
        if last.role != ROLE_FUNCTION:
            raise FaultHarnessError("truncated trace must end at the failing turn")


class RuleBasedTeacher:
    """Deterministic repair from the exemplar bank: one path, the retrieved
    exemplar's script, planned as paladin plans it. Each turn it renders
    carries its action, so it parses nothing."""

    def __init__(self, bank: ExemplarBank):
        if not len(bank):
            raise FaultHarnessError("rule-based teacher needs a non-empty bank")
        self._bank = bank

    def continuation(self, request: RepairRequest) -> list[TeacherTurn]:
        """The script's first planned action as one corrective step: a graceful
        stop, or a call that succeeds, then Finish. A tool switch calls the
        failed tool's alternative; without one, the script's next action is taken.

        Finish quotes the payload the corrective call was served; when that is
        not a JSON object, the last successful payload of the truncated trace.
        """
        exemplar = retrieve(self._bank, request.error)
        view = trace_view(request.truncated_trace)  # it ends at the failing call's response
        failed_call = view.call_at(view.last_assistant)
        if failed_call is None:
            raise FaultHarnessError("cannot locate the failing call in the trace")
        alternative = request.toolset.alternative_for(failed_call.name)
        # the first planned action is the same for every retry budget
        action = _flatten_script(
            exemplar.script, budget=1, has_alternative=alternative is not None
        )[0]
        if isinstance(action, TerminateGracefully):
            step = RecoveryStep(
                action=action,
                thought=f"The failure on {failed_call.name} is not recoverable; "
                "stopping with an honest report.",
                report=action.report_for(failed_call.name, request.error),
            )
            return [TeacherTurn(ROLE_ASSISTANT, render_action(step), step)]
        if isinstance(action, SwitchTool):
            call = ToolCall(alternative.name, failed_call.arguments)
            thought = f"Switching from {failed_call.name} to {alternative.name}."
        else:
            call = ToolCall(failed_call.name, failed_call.arguments)
            thought = f"Re-issuing the call to {failed_call.name}."
        step = RecoveryStep(action=action, thought=f"{exemplar.rationale} {thought}", call=call)
        response, found = _served(request.toolset, call)
        if found is None:  # not an object: quote the prefix, as the extended trace would
            found = view.last_success_payload()
        finish = Finish(answer=answer_quoting(found), thought="The recovered data answers the task.")
        return [
            TeacherTurn(ROLE_ASSISTANT, render_action(step), step),
            TeacherTurn(ROLE_FUNCTION, response),
            TeacherTurn(ROLE_ASSISTANT, render_action(finish), finish),
        ]


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
                "content": "Repair this failed tool-use trace. " + GRAMMAR
                + " Continue with corrective steps, then finish.",
            },
        )
        for _ in range(REMOTE_TEACHER_MAX_TURNS):
            try:
                text = self._client.complete(messages)
                parsed = parse_action(text)
            except FaultHarnessError as exc:  # transport, wire or grammar failure
                raise FaultHarnessError(f"remote teacher failed: {exc}") from exc
            turns.append(TeacherTurn(ROLE_ASSISTANT, text, parsed))
            messages.append({"role": "assistant", "content": text})
            call = call_of(parsed)
            if call is None:
                return turns
            response, _ = _served(request.toolset, call)
            turns.append(TeacherTurn(ROLE_FUNCTION, response))
            messages.append({"role": "function", "content": response})
        raise FaultHarnessError("remote teacher did not terminate the trace")


def repair(request: RepairRequest, teacher) -> Trajectory:
    """Extend the truncated trace with recovery turns; prefix is preserved
    byte-for-byte and the first appended assistant turn carries the tag."""
    appended = teacher.continuation(request)
    if not appended:
        raise FaultHarnessError("teacher produced no continuation")
    first_assistant = next((t for t in appended if t.role == ROLE_ASSISTANT), None)
    if first_assistant is None or not isinstance(first_assistant.parsed, RecoveryStep):
        raise FaultHarnessError("first appended assistant turn must be recovery-tagged")

    terminal = None
    for turn in appended:
        action = turn.parsed
        if isinstance(action, Finish):
            terminal = Finished(answer=action.answer)
        elif action is not None and call_of(action) is None:  # a give-up or terminate step
            terminal = GracefulFailure(report=action.report)
    if terminal is None:
        raise FaultHarnessError("repaired trace must end in Finish or graceful failure")
    repaired = _extend(request.truncated_trace, appended)
    repaired.terminal = terminal
    return repaired


# --- finalize ----------------------------------------------------------------------------


def finalize(trace: Trajectory) -> Trajectory:
    """Return a clean trace unchanged after checking its recorded facts: no
    failure, no recovery-tagged turn, a `Finished` terminal. It parses nothing."""
    failure = detect_first_failure(trace)
    if failure is not None:
        raise FaultHarnessError(
            f"trace has a failure at turn {failure[0]}; route it to repair"
        )
    if trace.recovery_turns:
        raise FaultHarnessError("clean traces must not carry recovery tags")
    if not isinstance(trace.terminal, Finished):
        raise FaultHarnessError("clean traces must end in Finish")
    return trace


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
        texts: dict[str, str] = {}  # each distinct turn text escaped once per corpus
        return [trajectory_to_line(t, texts) for t in self.traces]


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
        plan = InjectionPlan(seed=derive_seed(spec.seed, 0xC0, i), kind=kinds[i % len(kinds)])
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
