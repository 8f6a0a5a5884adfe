"""Deterministic evaluation-suite generation.

Suites pin everything: per-class failure coverage, kinds cycled within each
class, seeded task/turn assignment, per-episode seeds split from the master
seed, and dedup over (task, kind, turn). Held-out suites inject kinds that
are stripped from the bank the agents see, leaving injection untouched.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .bank import ExemplarBank, load_shipped_bank
from .episode import InjectionPlan, dumps_canonical
from .errors import ConfigError
from .seeds import SEED_MIXER, derive_seed
from .simulator import SimConfig, ToolRegistry, canonical_call_key
from .tasks import TaskStep, TaskTemplate, builtin_task_pool
from .taxonomy import CATALOG, CATALOG_VERSION, ErrorClass

@dataclass(frozen=True)
class SuiteSpec:
    n_episodes: int
    master_seed: int = 0
    clean_fraction: float = 0.2
    held_out_kinds: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.n_episodes < 1:
            raise ConfigError("n_episodes must be positive")
        if not 0 <= self.clean_fraction < 1:
            raise ConfigError("clean_fraction must be within [0, 1)")
        for kind in self.held_out_kinds:
            if kind not in CATALOG:
                raise ConfigError(f"held-out kind {kind!r} is not in the catalog")

    def to_json(self) -> dict:
        return {
            "n_episodes": self.n_episodes,
            "master_seed": self.master_seed,
            "clean_fraction": self.clean_fraction,
            "held_out_kinds": sorted(self.held_out_kinds),
        }


@dataclass(frozen=True)
class EpisodeCard:
    """Fully self-contained episode: task, tools, plan, budgets."""

    episode_id: str
    prompt: str
    tools: ToolRegistry
    steps: tuple[TaskStep, ...]
    plan: InjectionPlan
    retry_budget: int = 3
    max_steps: int = 20
    task_slug: str = ""

    def __post_init__(self):
        # A card's rules are checked when it is built, so a malformed card in a
        # suite file is refused while the file is read, with its line number. A
        # tool's and a step's own field types are checked where each is built.
        for name, value in (
            ("episode_id", self.episode_id), ("prompt", self.prompt),
            ("task_slug", self.task_slug),
        ):
            if type(value) is not str:
                raise ConfigError(f"{name} must be a string, not {value!r}")
        if not self.episode_id:  # grading matches a trajectory to its card by this id
            raise ConfigError("episode_id must not be empty")
        # the budgets must be ones an episode can run under
        SimConfig(max_steps=self.max_steps, retry_budget_per_error=self.retry_budget)
        if not self.tools:
            raise ConfigError("a card needs at least one tool")
        if not self.steps:
            raise ConfigError("a card needs at least one task step")
        for step in self.steps:
            if self.tools.get(step.tool) is None:
                raise ConfigError(f"step tool {step.tool!r} is not among the card's tools")
        if not self.plan.is_clean and self.plan.turn_index > self.max_steps:
            raise ConfigError(
                f"plan turn_index {self.plan.turn_index} exceeds max_steps {self.max_steps}"
            )

    def final_step_payload(self) -> dict:
        step = self.steps[-1]
        tool = self.tools.get(step.tool)
        if tool is None:
            return {}
        text = tool.scripted_responses.get(canonical_call_key(step.tool, step.arguments))
        if text is None:
            return {}
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return {}
        return payload if isinstance(payload, dict) else {}

    def to_json(self) -> dict:
        return {
            "episode_id": self.episode_id,
            "prompt": self.prompt,
            "tools": self.tools.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "plan": self.plan.to_json(),
            "retry_budget": self.retry_budget,
            "max_steps": self.max_steps,
            "task_slug": self.task_slug,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EpisodeCard":
        return cls(
            episode_id=doc["episode_id"],
            prompt=doc["prompt"],
            tools=ToolRegistry.from_json(doc["tools"]),
            steps=tuple(TaskStep.from_json(s) for s in doc["steps"]),
            plan=InjectionPlan.from_json(doc["plan"]),
            retry_budget=doc.get("retry_budget", 3),
            max_steps=doc.get("max_steps", 20),
            task_slug=doc.get("task_slug", ""),
        )


def _kind_pool(held_out: frozenset[str]) -> dict[ErrorClass, list[str]]:
    """Injectable kinds per class; held-out suites inject only held-out kinds."""
    pool: dict[ErrorClass, list[str]] = {}
    for kind_id, kind in CATALOG.items():
        if held_out and kind_id not in held_out:
            continue
        pool.setdefault(kind.error_class, []).append(kind_id)
    for kinds in pool.values():
        kinds.sort()
    return pool


def generate_suite(
    tasks: tuple[TaskTemplate, ...],
    spec: SuiteSpec,
) -> list[EpisodeCard]:
    """Deterministic suite covering each injectable class equally, within +-1."""
    if not tasks:
        raise ConfigError("empty task pool")
    pool = _kind_pool(spec.held_out_kinds)

    n_clean = round(spec.n_episodes * spec.clean_fraction)
    n_fail = spec.n_episodes - n_clean
    if n_clean > len(tasks):
        raise ConfigError(
            f"{n_clean} clean episodes requested but only {len(tasks)} tasks exist"
        )

    # every class gets an equal share; the first classes by name take the remainder
    per_class, extra = divmod(n_fail, len(pool))
    slots: list[str | None] = []
    for rank, error_class in enumerate(sorted(pool, key=lambda c: c.value)):
        kinds = pool[error_class]
        for j in range(per_class + (rank < extra)):
            slots.append(kinds[j % len(kinds)])
    slots.extend([None] * n_clean)

    rng = random.Random(derive_seed(spec.master_seed, 0x5EED))
    rng.shuffle(slots)
    task_order = list(tasks)
    rng.shuffle(task_order)

    seen: set[tuple[str, str | None, int | None]] = set()
    cards: list[EpisodeCard] = []
    for idx, kind_id in enumerate(slots):
        episode_seed = derive_seed(spec.master_seed, idx)
        placed = False
        for offset in range(len(task_order) * 4):
            task = task_order[(idx + offset) % len(task_order)]
            if kind_id is None:
                turn: int | None = None
            elif len(task.steps) == 1:
                turn = 1  # randrange(1) is 0 whatever the generator draws
            else:
                turn = 1 + random.Random(
                    derive_seed(episode_seed, offset)
                ).randrange(len(task.steps))
            dedup_key = (task.slug, kind_id, turn)
            if dedup_key in seen:
                continue
            seen.add(dedup_key)
            if kind_id is None:
                plan = InjectionPlan(seed=episode_seed)
            else:
                plan = InjectionPlan(
                    seed=episode_seed,
                    kind=kind_id,
                    manifestation=CATALOG[kind_id].default_manifestation,
                    turn_index=turn,
                )
            cards.append(
                EpisodeCard(
                    episode_id=f"{idx:04d}-{episode_seed:016x}",
                    prompt=task.prompt,
                    tools=task.tools,
                    steps=task.steps,
                    plan=plan,
                    task_slug=task.slug,
                )
            )
            placed = True
            break
        if not placed:
            raise ConfigError(
                "task pool exhausted after dedup; reduce n_episodes or widen the pool"
            )
    return cards


def generalization_split(
    spec: SuiteSpec,
    tasks: tuple[TaskTemplate, ...] | None = None,
    bank: ExemplarBank | None = None,
) -> tuple[ExemplarBank, list[EpisodeCard]]:
    """(train-visible bank, eval suite injecting the held-out kinds).

    Retrieval against the pruned bank falls back to nearest same-class
    exemplars at distance > 0.
    """
    tasks = tasks or builtin_task_pool()
    bank = bank or load_shipped_bank()
    if not spec.held_out_kinds:
        return bank, generate_suite(tasks, spec)
    pruned = bank.without_kinds(set(spec.held_out_kinds))
    return pruned, generate_suite(tasks, spec)


# --- suite files -------------------------------------------------------------------------


def suite_to_lines(cards: list[EpisodeCard]) -> list[str]:
    return [dumps_canonical(c.to_json()) for c in cards]


def suite_from_lines(lines) -> list[EpisodeCard]:
    cards = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            cards.append(EpisodeCard.from_json(json.loads(line)))
        except (
            ValueError, RecursionError, LookupError, TypeError, AttributeError, ConfigError
        ) as exc:  # RecursionError: JSON nested too deep to parse
            raise ConfigError(f"suite line {number}: not an episode card ({exc!r})") from exc
    return cards


def write_suite(path, cards: list[EpisodeCard]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in suite_to_lines(cards):
            fh.write(line + "\n")


def _text_lines(text: str):
    """The lines of `text`, lazily; each ends in one \\n where it ended in \\n, \\r\\n
    or \\r, as text-mode reading translates them.

    No other character ends a line: `dumps_canonical` writes U+2028 and U+0085
    raw inside strings. Each search for a character starts where the last one
    for it stopped, so the work is linear in the length of the text.
    """
    start, size = 0, len(text)
    newline = text.find("\n")
    while start < size:
        if newline != -1 and newline < start:
            newline = text.find("\n", start)
        cr = text.find("\r", start, size if newline == -1 else newline)
        if cr != -1:
            yield text[start:cr] + "\n"
            start = cr + 2 if cr + 1 == newline else cr + 1
        elif newline != -1:
            yield text[start:newline + 1]
            start = newline + 1
        else:
            yield text[start:]
            return


def read_suite(path, data: bytes | None = None) -> list[EpisodeCard]:
    """The cards of suite file `path`; `data`, when given, is its bytes, already read.

    Lines end at \\n, \\r\\n or \\r and are numbered from 1, blank ones
    included. The decoded text is split lazily, one line at a time, with no
    second copy of the whole text.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"suite file {path} is not UTF-8: {exc}") from None
    return suite_from_lines(_text_lines(text))


def suite_manifest(spec: SuiteSpec, cards: list[EpisodeCard], bank_version: str) -> dict:
    return {
        "spec": spec.to_json(),
        "n_cards": len(cards),
        "catalog_version": CATALOG_VERSION,
        "bank_version": bank_version,
        "seed_mixer": SEED_MIXER,
    }
