"""Episode execution: scripted tools, deterministic fault injection, simulated
time, retry budgets, and trajectory logging.

A plan injects at most one fault, on the tool call its `turn_index` counts
to; every identical reissue of that call meets the same fault until it clears.
World model for injected faults, read from each kind's catalog row
(`data/catalog.json`, on `taxonomy.FailureKind`):

* a kind with `persistence: [min, max]` is transient: it clears after a
  seeded number of failed identical retries drawn from that range;
  `retry_after: true` gives its failures a seeded Retry-After;
* a kind with `fixes` is structural: it clears only once the agent reissues
  the call under a recovery action whose tag is listed there;
* a kind with neither never clears on the same call; the correct moves are
  graceful termination and tool switching.

The clock is simulated and integer-valued; nothing ever sleeps.

The simulator records each turn's call or signature in the episode's
`trace.TraceView` as it writes the turn; agents read every turn fact there.

Every compact JSON text (call keys, wrappers, error bodies) comes from a form
of `encoders`, each one C encoder built once at import, not from a
`json.dumps` call or a new encoder per text.

A fault's persistence and Retry-After are drawn in one place, `fault_life(plan)`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bank import (
    ExemplarBank,
    RetryWithBackoff,
    WaitUntilHealthy,
    _TAG_BY_TYPE,
)
from .episode import (
    Abandoned,
    Finished,
    GracefulFailure,
    InjectionPlan,
    ROLE_ASSISTANT,
    ROLE_FUNCTION,
    ROLE_SYSTEM,
    ROLE_USER,
    StepBudgetExhausted,
    Trajectory,
    Turn,
)
from .encoders import dumps_ascii, dumps_canonical
from .errors import ConfigError, TransportError
from .protocol import (
    Finish,
    GiveUp,
    ProtocolViolation,
    RecoveryStep,
    ToolCall,
    render_action,
)
from .seeds import derive_seed, rng_for
from .taxonomy import (
    CATALOG,
    ErrorSignature,
    FailureKind,
    Manifestation,
    detect_failure,
    json_object,
)
from .trace import trace_view

SYSTEM_PROMPT = (
    "You are a tool-using assistant. Use the provided tools to complete the "
    "task. Respond in the Thought/Action/Action Input format; finish with the "
    "Finish action. Prefix corrective steps after tool failures with "
    "\"Recovery:\" and never claim success for data you did not obtain."
)

PROTOCOL_ERROR_BODY = (
    '{"error": "Invalid action format: expected Thought/Action/Action Input structure"}'
)


# --- tools ---------------------------------------------------------------------


def canonical_call_key(name: str, arguments: dict) -> str:
    """Tool name + sorted, whitespace-normalized argument JSON."""
    return f"{name}({dumps_canonical(arguments)})"


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    parameters: dict
    scripted_responses: dict[str, str]
    capability: str = ""

    def __post_init__(self):
        # each field has its JSON type, so a tool read from a suite file is refused
        # when the card is read rather than when its episode runs
        for name, value, kind in (
            ("name", self.name, str), ("description", self.description, str),
            ("capability", self.capability, str), ("parameters", self.parameters, dict),
            ("scripted_responses", self.scripted_responses, dict),
        ):
            if type(value) is not kind:
                noun = "a string" if kind is str else "an object"
                raise ConfigError(f"tool {name} must be {noun}, not {value!r}")
        for text in self.scripted_responses.values():
            if type(text) is not str:
                raise ConfigError(
                    f"tool {self.name!r}: a scripted response is not a string: {text!r}"
                )

    def capability_tag(self) -> str:
        return self.capability or self.name

    def first_response(self) -> str:
        """The tool's representative normal payload (first scripted response)."""
        for payload in self.scripted_responses.values():
            return payload
        return "{}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": self.parameters,
            "scripted_responses": self.scripted_responses,
            "capability": self.capability,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ToolSpec":
        return cls(
            name=doc["name"],
            description=doc.get("description", ""),
            parameters=doc.get("parameters", {}),
            scripted_responses=doc.get("scripted_responses", {}),
            capability=doc.get("capability", ""),
        )


@dataclass(frozen=True)
class ToolRegistry:
    tools: tuple[ToolSpec, ...]

    def __post_init__(self):
        names = [t.name for t in self.tools]
        if len(names) != len(set(names)):
            raise ConfigError("tool names must be unique within a registry")

    def __len__(self) -> int:
        return len(self.tools)

    def get(self, name: str) -> ToolSpec | None:
        for tool in self.tools:
            if tool.name == name:
                return tool
        return None

    def alternative_for(self, name: str) -> ToolSpec | None:
        """Another registered tool sharing the capability tag, if any."""
        primary = self.get(name)
        if primary is None:
            return None
        for tool in self.tools:
            if tool.name != name and tool.capability_tag() == primary.capability_tag():
                return tool
        return None

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.tools]

    @classmethod
    def from_json(cls, docs: list[dict]) -> "ToolRegistry":
        return cls(tools=tuple(ToolSpec.from_json(d) for d in docs))


def wrap_response(payload: str) -> str:
    """Standard function-turn wrapper for successful tool output."""
    return dumps_canonical({"error": "", "response": payload})


# --- configuration ---------------------------------------------------------------


# simulated milliseconds each turn adds to the episode clock
TURN_COST_MS = 100


@dataclass(frozen=True)
class SimConfig:
    max_steps: int = 20
    retry_budget_per_error: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        # the type is checked first: bools and floats are refused too
        budget = self.retry_budget_per_error
        if type(self.max_steps) is not int or self.max_steps < 3:
            raise ConfigError(f"max_steps must be an int >= 3, not {self.max_steps!r}")
        if type(budget) is not int or not 1 <= budget <= 4:
            raise ConfigError(f"retry_budget_per_error must be an int within [1, 4], not {budget!r}")


class SimClock:
    """Simulated millisecond clock; only ever moves forward."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    @property
    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: int) -> int:
        if delta_ms < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += delta_ms
        return self._now


# --- failure rendering --------------------------------------------------------------


def render_failure(
    kind: FailureKind, manifestation: Manifestation, tool: ToolSpec, seed: int
) -> str:
    """Deterministic failure text for (kind, manifestation, tool, seed)."""
    if manifestation is Manifestation.SILENT_FAILURE:
        return ""
    if manifestation is Manifestation.ERROR_PAYLOAD:
        return kind.example_output
    if manifestation is Manifestation.MALFORMED_OUTPUT:
        base = wrap_response(tool.first_response())
        cut = rng_for(seed, 11).randint(1, len(base) - 1)
        return base[:cut]
    # PartialOutput: first half of the normal payload's top-level fields,
    # delivered under a wrapper that marks the truncation.
    payload = json_object(tool.first_response()) or {}
    partial = {k: payload[k] for k in list(payload)[: len(payload) // 2]}
    return dumps_canonical(
        {
            "error": "Partial response: transfer interrupted before completion",
            "response": dumps_ascii(partial),
        }
    )


# --- backoff -----------------------------------------------------------------------


def advance_backoff(
    clock: SimClock,
    attempt_number: int,
    policy: RetryWithBackoff,
    retry_after_ms: int | None,
    seed: int,
) -> int:
    """Advance the clock for one retry wait; returns the new simulated time.

    Honors Retry-After exactly when the policy says to; otherwise draws a
    full-jitter delay uniform over [0, min(cap, base * 2^(attempt-1))].
    """
    if attempt_number < 1:
        raise ValueError("attempt_number must be >= 1")
    if retry_after_ms is not None and policy.respect_retry_after:
        delay = retry_after_ms
    else:
        delay = policy.jitter_ms(attempt_number, rng_for(seed, attempt_number))
    return clock.advance(delay)


# --- fault world ----------------------------------------------------------------------

@dataclass
class _ActiveFault:
    kind: FailureKind
    call_key: str
    rendered: str
    persist_retries: int
    retry_after_ms: int | None
    signature: ErrorSignature | None  # `rendered` classified once, when made
    retries: int = 0
    cleared: bool = False

    def on_reissue(self, action_tag: str | None) -> bool:
        """Register one reissue of the uncleared faulted call; True if it now succeeds."""
        self.retries += 1
        if self.kind.persistence is not None:
            if self.retries > self.persist_retries:
                self.cleared = True
        elif action_tag in self.kind.fixes:
            self.cleared = True
        return self.cleared


def fault_life(plan: InjectionPlan) -> tuple[int, int | None]:
    """(persist_retries, retry_after_ms) of the fault `plan` injects.

    A transient kind's fault fails `persist_retries` identical reissues, then
    clears; other kinds draw 0. `retry_after_ms` is the Retry-After each of its
    failures carries, None when its kind gives none.
    """
    kind = CATALOG[plan.kind]
    persist = 0
    if kind.persistence is not None:
        persist = rng_for(plan.seed, plan.turn_index, 3).randint(*kind.persistence)
    retry_after = None
    if kind.retry_after:
        retry_after = rng_for(plan.seed, plan.turn_index, 7).randrange(400, 2001)
    return persist, retry_after


def _make_fault(plan: InjectionPlan, call_key: str, tool: ToolSpec) -> _ActiveFault:
    """The fault `plan` injects on the call its `turn_index` counts to."""
    kind = CATALOG[plan.kind]
    seed = derive_seed(plan.seed, plan.turn_index)
    rendered = render_failure(kind, plan.manifestation, tool, seed)
    persist, retry_after = fault_life(plan)
    return _ActiveFault(
        kind=kind,
        call_key=call_key,
        rendered=rendered,
        persist_retries=persist,
        retry_after_ms=retry_after,
        signature=detect_failure(rendered),
    )


# --- episode execution -------------------------------------------------------------


def run_episode(
    prompt: str,
    tools: ToolRegistry,
    agent,
    plan: InjectionPlan,
    config: SimConfig = SimConfig(),
    bank: ExemplarBank | None = None,
    episode_id: str | None = None,
) -> Trajectory:
    """Drive one episode to a terminal state and return the full trajectory."""
    if len(tools) == 0:
        raise ConfigError("tool registry must not be empty")
    if not plan.is_clean and plan.turn_index > config.max_steps:
        raise ConfigError("plan.turn_index exceeds the step budget")

    traj = Trajectory(
        episode_id=f"ep-{plan.seed:016x}" if episode_id is None else episode_id,
        plan=plan,
        turns=[
            Turn(role=ROLE_SYSTEM, content=SYSTEM_PROMPT, simulated_time_ms=0),
            Turn(role=ROLE_USER, content=prompt, simulated_time_ms=0),
        ],
    )
    view = trace_view(traj)
    clock = SimClock()
    episode_seed = derive_seed(plan.seed, config.rng_seed)

    call_ordinal = 0
    fault: _ActiveFault | None = None  # the plan's one fault, once injected
    last_failed_key: str | None = None
    consecutive_retries = 0
    malformed_turns = 0
    n_decisions = 0

    def append(role: str, content: str) -> None:
        clock.advance(TURN_COST_MS)
        traj.turns.append(Turn(role=role, content=content, simulated_time_ms=clock.now))

    def execute_call(
        call: ToolCall, key: str, action_tag: str | None
    ) -> tuple[str, ErrorSignature | None]:
        """The response to `call` and its signature."""
        nonlocal call_ordinal, fault
        tool = tools.get(call.name)
        if tool is None:
            text = dumps_ascii({"error": f"Tool '{call.name}' not found in registry"})
            return text, detect_failure(text)
        call_ordinal += 1

        if fault is not None and fault.call_key == key and not fault.cleared:
            if fault.on_reissue(action_tag):
                return _scripted(tool, key)
            return fault.rendered, fault.signature

        if plan.is_clean or call_ordinal != plan.turn_index:
            return _scripted(tool, key)
        fault = _make_fault(plan, key, tool)
        return fault.rendered, fault.signature

    def _scripted(tool: ToolSpec, key: str) -> tuple[str, ErrorSignature | None]:
        payload = tool.scripted_responses.get(key)
        if payload is None:
            text = dumps_ascii(
                {"error": "No scripted response for this request", "status": 400}
            )
            return text, detect_failure(text)
        # a payload that is itself a failure body models a permanently
        # failing tool; serve it raw so it stays classifiable
        signature = detect_failure(payload)
        if signature is not None:
            return payload, signature
        return wrap_response(payload), None  # a wrapped payload is always a success

    while True:
        # every decision that does not end the episode writes one assistant
        # turn, so this counts the assistant turns so far
        if n_decisions >= config.max_steps:
            traj.terminal = StepBudgetExhausted()
            break

        n_decisions += 1
        try:
            action = agent.decide(traj, tools, bank)
        except TransportError as exc:
            traj.terminal = Abandoned(reason=f"transport failure: {exc}")
            break

        if isinstance(action, ProtocolViolation):
            malformed_turns += 1
            append(ROLE_ASSISTANT, action.text)
            if malformed_turns > 1:
                traj.terminal = Abandoned(reason="repeated agent protocol violations")
                break
            append(ROLE_FUNCTION, PROTOCOL_ERROR_BODY)
            continue

        if isinstance(action, Finish):
            append(ROLE_ASSISTANT, render_action(action))
            traj.terminal = Finished(answer=action.answer)
            break
        if isinstance(action, GiveUp) or (
            isinstance(action, RecoveryStep) and action.call is None  # terminate step
        ):
            append(ROLE_ASSISTANT, render_action(action))
            traj.terminal = GracefulFailure(report=action.report)
            break

        if isinstance(action, RecoveryStep):
            # the step's thought is rendered on its call's turn
            call = replace(action.call, thought=action.thought)
            action_tag = _TAG_BY_TYPE[type(action.action)]
        elif isinstance(action, ToolCall):
            call = action
            action_tag = None
        else:
            traj.terminal = Abandoned(reason=f"unsupported agent action {type(action).__name__}")
            break

        key = canonical_call_key(call.name, call.arguments)
        if key == last_failed_key and consecutive_retries >= config.retry_budget_per_error:
            traj.terminal = Abandoned(
                reason=f"retry budget exhausted for call {key}"
            )
            break

        append(ROLE_ASSISTANT, render_action(action))
        view.calls[len(traj.turns) - 1] = call  # known here; the view need not parse it

        # waits happen between the recovery declaration and the reissued call
        if isinstance(action, RecoveryStep):
            retry_after = None
            if fault is not None and fault.call_key == key and not fault.cleared:
                retry_after = fault.retry_after_ms
            if isinstance(action.action, RetryWithBackoff):
                advance_backoff(
                    clock,
                    attempt_number=consecutive_retries + 1,
                    policy=action.action,
                    retry_after_ms=retry_after,
                    seed=derive_seed(episode_seed, 0xB0FF, n_decisions),
                )
            elif isinstance(action.action, WaitUntilHealthy):
                clock.advance(action.action.poll_interval_ms)

        response, signature = execute_call(call, key, action_tag)
        view.signatures[len(traj.turns)] = signature
        append(ROLE_FUNCTION, response)

        # the signature sets only the retry budget; agents read it from the view
        if signature is not None:
            if key == last_failed_key:
                consecutive_retries += 1
            else:
                last_failed_key = key
                consecutive_retries = 0
        else:
            last_failed_key = None
            consecutive_retries = 0

    traj.validate_roles()
    return traj
