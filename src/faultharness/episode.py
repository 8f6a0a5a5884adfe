"""Trajectory model: turns, terminal states, injection plans, serialization.

One episode serializes to a single JSONL line holding the plain
{role, content} message array plus a sidecar with harness metadata
(episode id, plan, terminal state, simulated timings). Wall-clock never
appears in serialized output, keeping files byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoders import dumps_canonical, escape_string, loads
from .taxonomy import CATALOG

RECOVERY_PREFIX = "Recovery:"

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"
ROLE_FUNCTION = "function"
_ROLES = (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT, ROLE_FUNCTION)


@dataclass(frozen=True)
class Turn:
    role: str
    content: str
    simulated_time_ms: int = 0

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.simulated_time_ms < 0:
            raise ValueError("simulated_time_ms must be non-negative")

    @property
    def is_recovery(self) -> bool:
        return self.role == ROLE_ASSISTANT and self.content.startswith(RECOVERY_PREFIX)


# --- terminal states ----------------------------------------------------------


@dataclass(frozen=True)
class Finished:
    answer: str


@dataclass(frozen=True)
class GracefulFailure:
    report: str


@dataclass(frozen=True)
class Abandoned:
    reason: str = ""


@dataclass(frozen=True)
class StepBudgetExhausted:
    pass


Terminal = Finished | GracefulFailure | Abandoned | StepBudgetExhausted


def terminal_to_json(terminal: Terminal) -> dict:
    if isinstance(terminal, Finished):
        return {"state": "finished", "answer": terminal.answer}
    if isinstance(terminal, GracefulFailure):
        return {"state": "graceful_failure", "report": terminal.report}
    if isinstance(terminal, Abandoned):
        return {"state": "abandoned", "reason": terminal.reason}
    return {"state": "step_budget_exhausted"}


def terminal_from_json(doc: dict) -> Terminal:
    state = doc.get("state")
    if state == "finished":
        return Finished(answer=doc["answer"])
    if state == "graceful_failure":
        return GracefulFailure(report=doc["report"])
    if state == "abandoned":
        return Abandoned(reason=doc.get("reason", ""))
    if state == "step_budget_exhausted":
        return StepBudgetExhausted()
    raise ValueError(f"unknown terminal state {state!r}")


# --- injection plans ------------------------------------------------------------


_PLAN_KEYS = ("seed", "kind", "turn_index")


@dataclass(frozen=True)
class InjectionPlan:
    """Deterministic injection recipe: at most one fault, of `kind`, on tool
    call `turn_index`; kind=None means a clean episode. How the fault's text
    looks is its kind's catalog row's `manifestation`, not the plan's."""

    seed: int
    kind: str | None = None
    turn_index: int = 1

    def __post_init__(self):
        # the type is checked first: bools and floats are refused too
        if type(self.seed) is not int:
            raise ValueError(f"plan seed must be an int, not {self.seed!r}")
        if type(self.turn_index) is not int or self.turn_index < 1:
            raise ValueError(f"plan turn_index must be an int >= 1, not {self.turn_index!r}")
        if self.kind is not None and self.kind not in CATALOG:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    @property
    def is_clean(self) -> bool:
        return self.kind is None

    def to_json(self) -> dict:
        doc: dict = {"seed": self.seed, "turn_index": self.turn_index}
        if self.kind is not None:
            doc["kind"] = self.kind
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "InjectionPlan":
        for key in doc:
            if key not in _PLAN_KEYS:
                # refused rather than ignored: a `cascade` card would run as a
                # one-fault card, and a `manifestation` is its kind's, not the plan's
                raise ValueError(
                    f"plan field {key!r} is not read; a plan is {{seed, kind, turn_index}}"
                )
        return cls(seed=doc["seed"], kind=doc.get("kind"), turn_index=doc.get("turn_index", 1))


# --- trajectories ----------------------------------------------------------------


@dataclass
class Trajectory:
    episode_id: str
    plan: InjectionPlan
    turns: list[Turn] = field(default_factory=list)
    terminal: Terminal | None = None
    # cache for trace.trace_view; not part of the trajectory's value
    view: object = field(default=None, init=False, repr=False, compare=False)

    def validate_roles(self) -> None:
        """First turn system, second user; only known roles; monotone clock."""
        if len(self.turns) < 2:
            raise ValueError("trajectory needs at least system and user turns")
        if self.turns[0].role != ROLE_SYSTEM or self.turns[1].role != ROLE_USER:
            raise ValueError("trajectory must open with system then user turns")
        last = 0
        for turn in self.turns:
            if turn.simulated_time_ms < last:
                raise ValueError("simulated time must be non-decreasing")
            last = turn.simulated_time_ms

    @property
    def assistant_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.role == ROLE_ASSISTANT]

    @property
    def recovery_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.is_recovery]

    def sidecar_json(self) -> dict:
        """The harness metadata of the serialized form: everything but the trace."""
        sidecar: dict = {
            "episode_id": self.episode_id,
            "plan": self.plan.to_json(),
            "timings": {"turn_times_ms": [t.simulated_time_ms for t in self.turns]},
        }
        if self.terminal is not None:
            sidecar["terminal"] = terminal_to_json(self.terminal)
        return sidecar

    def to_json(self) -> dict:
        return {
            "trace": [{"role": t.role, "content": t.content} for t in self.turns],
            "sidecar": self.sidecar_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Trajectory":
        sidecar = doc["sidecar"]
        times = sidecar.get("timings", {}).get("turn_times_ms", [])
        turns = []
        for i, message in enumerate(doc["trace"]):
            turns.append(
                Turn(
                    role=message["role"],
                    content=message["content"],
                    simulated_time_ms=times[i] if i < len(times) else 0,
                )
            )
        terminal = None
        if "terminal" in sidecar:
            terminal = terminal_from_json(sidecar["terminal"])
        return cls(
            episode_id=sidecar["episode_id"],
            plan=InjectionPlan.from_json(sidecar["plan"]),
            turns=turns,
            terminal=terminal,
        )


# what follows a turn's content in its trace entry, per role: `,"role":"user"}`
_ROLE_CLOSE = {role: f',"role":{escape_string(role)}}}' for role in _ROLES}


def trajectory_to_line(traj: Trajectory, texts: dict[str, str] | None = None) -> str:
    """`dumps_canonical(traj.to_json())`, joined from each turn text's JSON string.

    `texts` maps a turn text to its JSON string (`escape_string`). The caller
    owns it and passes one dict for a whole run, so that each distinct text (the
    system prompt, a task's prompt, a scripted response) is escaped once per
    run, not once per line. Worker threads may share the dict: an entry is a
    pure function of its text, so two threads that miss on one text store equal
    strings. Without a dict, each text is escaped for this line alone.
    """
    if texts is None:
        texts = {}
    entries = []
    for turn in traj.turns:
        text = texts.get(turn.content)
        if text is None:
            text = texts[turn.content] = escape_string(turn.content)
        entries.append('{"content":' + text + _ROLE_CLOSE[turn.role])
    sidecar = dumps_canonical(traj.sidecar_json())
    return '{"sidecar":' + sidecar + ',"trace":[' + ",".join(entries) + "]}"


def trajectory_from_line(line: str) -> Trajectory:
    return Trajectory.from_json(loads(line))
