"""Agent policies: four scripted baselines, the retrieval-guided policy, and
an adapter for external chat-completion models.

Scripted policies are surrogates: they follow the task's intended call
sequence and differ only in how they react to failures. All are pure
functions of (trajectory so far, seed), so episodes replay byte-identically.
Every fact about past turns, the latest error included, comes from the
trajectory's `trace.TraceView`.

Each scripted policy is built with the evaluation seed, and only two draw from
it. Vanilla's coin, on a decision after a failure, comes from
`rng_for(plan seed, evaluation seed, assistant turns so far)`; CRITIC's oracle
gate is `oracle_gate(evaluation seed, plan seed, failure event turn)`, drawn
once per failure event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bank import (
    ExemplarBank,
    LenientParse,
    RecoveryAction,
    ReformatArguments,
    RefreshCredentials,
    RetryWithBackoff,
    SwitchTool,
    TerminateGracefully,
    ValidateAndReissue,
    WaitUntilHealthy,
    retrieve_top_k,
)
from .episode import Trajectory
from .errors import AgentProtocolError, ConfigError, ProtocolError
from .protocol import (
    AgentAction,
    Finish,
    GiveUp,
    ProtocolViolation,
    RecoveryStep,
    ToolCall,
    parse_action,
)
from .seeds import rng_for
from .simulator import ToolRegistry, ToolSpec, canonical_call_key
from .tasks import TaskStep
from .taxonomy import ErrorSignature
from .trace import trace_view

if TYPE_CHECKING:
    from .remote import EndpointConfig


# --- answers ---------------------------------------------------------------------


def synthesize_answer(traj: Trajectory) -> str:
    """Final answer quoting the last successful tool output's fields."""
    payload = trace_view(traj).last_success_payload()
    if not payload:
        return "Task complete."
    parts = [f"{k}={payload[k]}" for k in payload]
    return "Task complete. Final result: " + "; ".join(parts) + "."


# --- base scripted policy -----------------------------------------------------------


class ScriptedPolicy:
    """Follows the task's call plan; subclasses define failure behavior."""

    def __init__(self, steps: tuple[TaskStep, ...], retry_budget: int = 3, seed: int = 0):
        if not steps:
            raise ConfigError("scripted policies need at least one task step")
        self._steps = steps
        self._budget = retry_budget
        self._seed = seed  # the evaluation seed

    # -- plan following

    def _next_step_call(self, n_done: int) -> ToolCall:
        step = self._steps[n_done]
        return ToolCall(
            name=step.tool,
            arguments=step.arguments,
            thought=f"Proceeding with step {n_done + 1} of {len(self._steps)}: "
            f"call {step.tool}.",
        )

    def _current_step(self, traj: Trajectory) -> TaskStep:
        n_done = trace_view(traj).completed_steps
        return self._steps[min(n_done, len(self._steps) - 1)]

    def decide(
        self, context: Trajectory, tools: ToolRegistry, bank: ExemplarBank | None
    ) -> AgentAction:
        view = trace_view(context)
        if view.last_error is not None:
            return self.on_error(context, view.last_error, tools, bank)
        n_done = view.completed_steps
        if n_done >= len(self._steps):
            return Finish(
                answer=synthesize_answer(context),
                thought="All steps succeeded; reporting the retrieved data.",
            )
        return self._next_step_call(n_done)

    def on_error(self, context, error, tools, bank) -> AgentAction:
        raise NotImplementedError


# --- baselines ------------------------------------------------------------------------


class VanillaPolicy(ScriptedPolicy):
    """No recovery behavior at all: hallucinate success or give up."""

    hallucination_probability = 0.5

    def on_error(self, context, error, tools, bank) -> AgentAction:
        step = self._current_step(context)
        # with probability 0 there is nothing to draw, and nothing is seeded
        p = self.hallucination_probability
        if p > 0 and rng_for(
            context.plan.seed, self._seed, len(context.assistant_turns)
        ).random() < p:
            return Finish(
                answer=(
                    f"Task complete. {step.tool} returned the requested data: "
                    "value=42; status=ok."
                ),
                thought="The tool responded; summarizing the result.",
            )
        return GiveUp(
            report=(
                f"Could not complete the task: {step.tool} failed "
                f"({error.detail})."
            ),
            thought="The tool call failed; stopping.",
        )


class ToolBenchPolicy(VanillaPolicy):
    """Competent on clean traces, gives up on any error (no hallucination)."""

    hallucination_probability = 0.0


class ReflectPolicy(ScriptedPolicy):
    """Blind call-level self-correction: retry up to the budget, reformat on
    the final attempt, never switch tools, then give up."""

    def on_error(self, context, error, tools, bank) -> AgentAction:
        step = self._current_step(context)
        _, run_length = trace_view(context).failure_run
        retries_done = run_length - 1
        if retries_done >= self._budget:
            return GiveUp(
                report=(
                    f"Could not complete the task: {step.tool} still failing "
                    f"after {retries_done} retries ({error.detail})."
                ),
                thought="Retries exhausted; giving up.",
            )
        call = ToolCall(name=step.tool, arguments=step.arguments)
        if retries_done + 1 == self._budget:
            return RecoveryStep(
                action=ReformatArguments(),
                thought=(
                    f"The call to {step.tool} keeps failing; re-checking the "
                    "argument formatting and re-issuing the corrected call."
                ),
                call=call,
            )
        return RecoveryStep(
            action=RetryWithBackoff(
                max_attempts=1, base_delay_ms=0, cap_ms=0, respect_retry_after=False
            ),
            thought=f"The call to {step.tool} failed; retrying the same call.",
            call=call,
        )


# --- script executor (shared by the retrieval-guided policies) -------------------------


def _flatten_script(
    script: tuple[RecoveryAction, ...],
    budget: int,
    has_alternative: bool,
) -> list[RecoveryAction]:
    """Bound a script into the sequence of actions to execute.

    Same-call reissues are capped at the retry budget; scripts that run out
    without success escalate to a tool switch (when possible) then graceful
    termination.
    """
    planned: list[RecoveryAction] = []
    reissues = 0
    switched = False
    for action in script:
        if isinstance(action, TerminateGracefully):
            planned.append(action)
            return planned
        if isinstance(action, SwitchTool):
            if has_alternative:
                planned.append(action)
                switched = True
            continue
        # every other action reissues the failed call, a backoff up to its attempts
        repeats = action.max_attempts if isinstance(action, RetryWithBackoff) else 1
        for _ in range(min(repeats, budget - reissues)):
            planned.append(action)
            reissues += 1
    if has_alternative and not switched:
        planned.append(SwitchTool())
    planned.append(TerminateGracefully())
    return planned


_ACTION_THOUGHTS = {
    RetryWithBackoff: "The failure looks transient; backing off before retrying "
    "the identical call.",
    ReformatArguments: "The request itself was rejected; fixing the argument "
    "formatting and re-issuing.",
    ValidateAndReissue: "Validating the request against the failure details and "
    "re-issuing it.",
    LenientParse: "The response was unusable; re-requesting and parsing it "
    "leniently.",
    RefreshCredentials: "Refreshing credentials before re-issuing the call.",
    WaitUntilHealthy: "Waiting for the upstream service to report healthy before "
    "retrying.",
    SwitchTool: "The tool cannot serve this request; switching to an alternative "
    "tool with the same capability.",
}


def _execute_planned(
    planned: list[RecoveryAction],
    position: int,
    failed_call: ToolCall,
    error: ErrorSignature,
    alternative: ToolSpec | None,
) -> AgentAction:
    if position >= len(planned):
        # defensive: scripts always end in terminate
        return GiveUp(
            report=TerminateGracefully().report_for(failed_call.name, error),
            thought="Recovery options exhausted.",
        )
    action = planned[position]
    if isinstance(action, TerminateGracefully):
        return RecoveryStep(
            action=action,
            thought=(
                f"The failure on {failed_call.name} is not recoverable here; "
                "stopping with an honest report."
            ),
            report=action.report_for(failed_call.name, error),
        )
    if isinstance(action, SwitchTool):  # planned only when there is an alternative
        return RecoveryStep(
            action=action,
            thought=_ACTION_THOUGHTS[SwitchTool]
            + f" ({failed_call.name} -> {alternative.name})",
            call=ToolCall(name=alternative.name, arguments=failed_call.arguments),
        )
    return RecoveryStep(
        action=action,
        thought=f"{_ACTION_THOUGHTS[type(action)]} (failed call: {failed_call.name}, "
        f"error: {error.kind})",
        call=failed_call,
    )


class PaladinPolicy(ScriptedPolicy):
    """Retrieval-guided recovery: nearest exemplar's script, executed in
    order, with escalation to tool switch then graceful termination. Never
    claims success after an unresolved failure."""

    def on_error(self, context, error, tools, bank) -> AgentAction:
        step = self._current_step(context)
        failed_call = ToolCall(name=step.tool, arguments=step.arguments)
        script = self._script_for(error, bank)
        view = trace_view(context)
        event_start, _ = view.failure_run
        position = view.recovery_steps_since(event_start)
        alternative = tools.alternative_for(step.tool)
        planned = _flatten_script(
            script, budget=self._budget, has_alternative=alternative is not None
        )
        return _execute_planned(planned, position, failed_call, error, alternative)

    def _script_for(
        self, error: ErrorSignature, bank: ExemplarBank | None
    ) -> tuple[RecoveryAction, ...]:
        if bank is not None and len(bank):
            exemplar = retrieve_top_k(bank, error, k=1)[0]
            return exemplar.script
        # retrieval disabled: no exemplar knowledge, blind retry then stop
        return (
            RetryWithBackoff(max_attempts=3, base_delay_ms=500, cap_ms=8000),
            TerminateGracefully(),
        )


def oracle_gate(eval_seed: int, plan_seed: int, event_turn: int, p: float = 0.7) -> bool:
    """Stable per-error-event draw deciding oracle access."""
    return rng_for(eval_seed, 0xC41C, plan_seed, event_turn).random() < p


class CriticPolicy(ScriptedPolicy):
    """Oracle-assisted critic loop: with probability p (`oracle_gate`'s default,
    0.7) the recovery oracle (PALADIN's nearest-exemplar script) is consulted;
    otherwise behaves like the reflect baseline. At most `retry_budget`
    recovery attempts per error."""

    def __init__(self, steps: tuple[TaskStep, ...], retry_budget: int = 3, seed: int = 0):
        super().__init__(steps, retry_budget, seed)
        self._reflect = ReflectPolicy(steps, retry_budget)
        self._paladin = PaladinPolicy(steps, retry_budget)
        # ((plan seed, event turn), gate) of the latest failure event: every
        # decision of one event reads the same gate
        self._last_gate: tuple[tuple[int, int] | None, bool] = (None, False)

    def on_error(self, context, error, tools, bank) -> AgentAction:
        event_turn, _ = trace_view(context).failure_run
        if bank is not None and self._gate(context.plan.seed, event_turn):
            return self._paladin.on_error(context, error, tools, bank)
        return self._reflect.on_error(context, error, tools, None)

    def _gate(self, plan_seed: int, event_turn: int) -> bool:
        """Oracle access for one failure event, drawn once per event."""
        event, gate = self._last_gate
        if event != (plan_seed, event_turn):
            gate = oracle_gate(self._seed, plan_seed, event_turn)
            self._last_gate = ((plan_seed, event_turn), gate)
        return gate


# --- remote adapter ---------------------------------------------------------------------


class RemoteChatPolicy:
    """Drives an external chat-completion model through the action grammar."""

    def __init__(self, endpoint: EndpointConfig):
        from .remote import ChatEndpoint  # only remote runs need the transport

        self._client = ChatEndpoint(endpoint)

    def decide(
        self, context: Trajectory, tools: ToolRegistry, bank: ExemplarBank | None
    ) -> AgentAction:
        messages = [{"role": t.role, "content": t.content} for t in context.turns]
        try:
            text = self._client.complete(messages)
        except ProtocolError as exc:
            return ProtocolViolation(text=f"<malformed completion payload: {exc}>")
        try:
            parsed = parse_action(text)
        except AgentProtocolError:
            return ProtocolViolation(text=text)
        if parsed.finish is not None:
            return parsed.finish
        if parsed.give_up is not None:
            if parsed.is_recovery:
                return RecoveryStep(
                    action=TerminateGracefully(),
                    thought=parsed.give_up.thought,
                    report=parsed.give_up.report,
                )
            return parsed.give_up
        call = parsed.call
        if not parsed.is_recovery:
            return call
        return RecoveryStep(
            action=self._infer_action(context, call),
            thought=call.thought,
            call=call,
        )

    @staticmethod
    def _infer_action(context: Trajectory, call: ToolCall) -> RecoveryAction:
        """Map a recovery-tagged model call onto the action vocabulary."""
        failed = trace_view(context).last_failed_call()
        if failed is None:
            return ValidateAndReissue()
        if failed.name != call.name:
            return SwitchTool()
        if canonical_call_key(failed.name, failed.arguments) == canonical_call_key(
            call.name, call.arguments
        ):
            return RetryWithBackoff(
                max_attempts=1, base_delay_ms=0, cap_ms=0, respect_retry_after=False
            )
        return ReformatArguments()


# --- factory ---------------------------------------------------------------------------


def make_policy(
    name: str,
    steps: tuple[TaskStep, ...],
    retry_budget: int = 3,
    seed: int = 0,
    endpoint: EndpointConfig | None = None,
):
    """The named policy; a scripted one draws from the evaluation seed `seed`."""
    if name == "vanilla":
        return VanillaPolicy(steps, retry_budget, seed)
    if name == "toolbench":
        return ToolBenchPolicy(steps, retry_budget, seed)
    if name == "reflect":
        return ReflectPolicy(steps, retry_budget, seed)
    if name == "critic":
        return CriticPolicy(steps, retry_budget, seed)
    if name == "paladin":
        return PaladinPolicy(steps, retry_budget, seed)
    if name == "remote":
        if endpoint is None:
            raise ConfigError("remote agent requires an endpoint config")
        return RemoteChatPolicy(endpoint)
    raise ConfigError(f"unknown agent {name!r}")
