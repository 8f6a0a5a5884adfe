"""Deterministic evaluation-suite generation.

Suites pin everything: per-class failure coverage, kinds cycled within each
class, seeded task/turn assignment, per-episode seeds split from the master
seed, and dedup over (task, kind, turn). Held-out suites inject kinds that
are stripped from the bank the agents see, leaving injection untouched.

A suite file states each task once. Its first line is the task table,
`{"tasks": {slug: {"prompt", "tools", "steps"}}}`, and every later line is a
card, `{"episode_id", "task_slug", "plan", "retry_budget", "max_steps"}`,
whose plan is `{"seed", "kind", "turn_index"}` (a clean card's has no kind).
A plan names its fault's kind only: how the fault looks is that kind's
catalog row's `manifestation`, and a plan stating any other key, such as
`manifestation` or `cascade`, is refused.
`read_suite` builds one `TaskTemplate` per slug and every card of that slug
holds it, so the cards of one task share one `ToolRegistry`. A hand-written
suite may state tools of its own, in its table. There is one reader: a file
in the older form, whose every card held its own tools, has no table and is
refused.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path

from .bank import ExemplarBank, load_shipped_bank
from .encoders import dumps_canonical, loads
from .episode import InjectionPlan
from .errors import ConfigError
from .seeds import SEED_MIXER, derive_seed
from .simulator import SimConfig, ToolRegistry
from .tasks import TaskStep, TaskTemplate, builtin_task_pool
from .taxonomy import CATALOG, CATALOG_VERSION, ErrorClass

# the one key of a suite's first line, the task table
TABLE_KEY = "tasks"

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
    """One episode: its task, its injection plan and its budgets.

    Cards of one task hold its one `TaskTemplate`, and so share its tools.
    """

    episode_id: str
    task: TaskTemplate
    plan: InjectionPlan
    retry_budget: int = 3
    max_steps: int = 20

    def __post_init__(self):
        # a card's rules are checked when it is built, so a malformed card in a
        # suite file is refused while the file is read, with its line number;
        # its task was checked when the task was built
        if type(self.episode_id) is not str:
            raise ConfigError(f"episode_id must be a string, not {self.episode_id!r}")
        if not self.episode_id:  # grading matches a trajectory to its card by this id
            raise ConfigError("episode_id must not be empty")
        # the budgets must be ones an episode can run under
        SimConfig(max_steps=self.max_steps, retry_budget_per_error=self.retry_budget)
        if not self.plan.is_clean and self.plan.turn_index > self.max_steps:
            raise ConfigError(
                f"plan turn_index {self.plan.turn_index} exceeds max_steps {self.max_steps}"
            )

    @property
    def task_slug(self) -> str:
        return self.task.slug

    @property
    def prompt(self) -> str:
        return self.task.prompt

    @property
    def tools(self) -> ToolRegistry:
        return self.task.tools

    @property
    def steps(self) -> tuple[TaskStep, ...]:
        return self.task.steps

    def to_json(self) -> dict:
        return {
            "episode_id": self.episode_id,
            "task_slug": self.task.slug,
            "plan": self.plan.to_json(),
            "retry_budget": self.retry_budget,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_json(cls, doc: dict, tasks: dict[str, TaskTemplate]) -> "EpisodeCard":
        """The card `doc` states; its `task_slug` names one of `tasks`."""
        episode_id = doc["episode_id"]
        slug = doc["task_slug"]
        if type(slug) is not str:
            raise ConfigError(f"task_slug must be a string, not {slug!r}")
        if slug not in tasks:
            raise ConfigError(f"task_slug {slug!r} names no task in the suite's table")
        return cls(
            episode_id=episode_id,
            task=tasks[slug],
            plan=InjectionPlan.from_json(doc["plan"]),
            retry_budget=doc.get("retry_budget", 3),
            max_steps=doc.get("max_steps", 20),
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
                plan = InjectionPlan(seed=episode_seed, kind=kind_id, turn_index=turn)
            cards.append(
                EpisodeCard(episode_id=f"{idx:04d}-{episode_seed:016x}", task=task, plan=plan)
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
    """The task table, then one line per card."""
    tasks: dict[str, TaskTemplate] = {}
    for card in cards:
        known = tasks.setdefault(card.task.slug, card.task)
        if known is not card.task and known != card.task:
            raise ConfigError(f"two different tasks are named {card.task.slug!r}")
    table = {TABLE_KEY: {slug: task.to_json() for slug, task in tasks.items()}}
    return [dumps_canonical(table)] + [dumps_canonical(c.to_json()) for c in cards]


def _task_table(number: int, line: str) -> dict[str, TaskTemplate]:
    """The tasks of the table on suite line `number`, each checked in full."""
    try:
        doc = loads(line)
    except ValueError as exc:
        raise ConfigError(f"suite line {number}: not a task table ({exc!r})") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get(TABLE_KEY), dict)):
        raise ConfigError(
            f"suite line {number}: the file has no task table; a suite's first line is "
            f'{{"{TABLE_KEY}": {{slug: task}}}} (a suite whose every card holds its own '
            "tools is no longer read: write it again with gen-suite)"
        )
    tasks = {}
    for slug, task in doc[TABLE_KEY].items():
        try:
            tasks[slug] = TaskTemplate.from_json(slug, task)
        except (ValueError, LookupError, TypeError, AttributeError, ConfigError) as exc:
            raise ConfigError(
                f"suite line {number}: task {slug!r} is malformed ({exc!r})"
            ) from exc
    return tasks


def suite_from_lines(lines) -> list[EpisodeCard]:
    """The cards of a suite's lines: a task table first, then the cards."""
    tasks: dict[str, TaskTemplate] | None = None
    cards = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if tasks is None:
            tasks = _task_table(number, line)
            continue
        try:
            doc = loads(line)
            if isinstance(doc, dict) and TABLE_KEY in doc:
                raise ConfigError("a second task table; a suite states each task once")
            cards.append(EpisodeCard.from_json(doc, tasks))
        except (ValueError, LookupError, TypeError, AttributeError, ConfigError) as exc:
            raise ConfigError(f"suite line {number}: not an episode card ({exc!r})") from exc
    return cards


def write_suite(path, cards: list[EpisodeCard]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in suite_to_lines(cards):
            fh.write(line + "\n")


def read_suite(path, data: bytes | None = None) -> list[EpisodeCard]:
    """The cards of suite file `path`; `data`, when given, is its bytes, already read.

    The first line that is not blank is the task table, `{"tasks": {slug:
    {"prompt", "tools", "steps"}}}`; every later one is a card, `{"episode_id",
    "task_slug", "plan", "retry_budget", "max_steps"}`. Each task is built and
    checked once, and every card of it holds that one `TaskTemplate`. This is
    the one reader: a file with no table, as when its first card holds its own
    tools, is refused, as is a second table or a card naming a slug the table
    lacks. A refusal names the line, and for a task its slug.

    Lines end at \\n, \\r\\n or \\r, as text-mode reading translates them, and
    are numbered from 1, blank ones included; no other character ends a line,
    since `dumps_canonical` writes U+2028 and U+0085 raw inside strings. The
    bytes are decoded a chunk at a time as the lines are read, so no decoded
    copy of the whole file is kept, and a malformed line is refused before
    any invalid UTF-8 in a later chunk is met.
    """
    if data is None:
        data = Path(path).read_bytes()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None) as lines:
        try:
            return suite_from_lines(lines)
        except UnicodeDecodeError as exc:
            # no position: the decoder counts it from the start of its chunk
            raise ConfigError(f"suite file {path} is not UTF-8: {exc.reason}") from None


def suite_manifest(spec: SuiteSpec, cards: list[EpisodeCard], bank_version: str) -> dict:
    return {
        "spec": spec.to_json(),
        "n_cards": len(cards),
        "catalog_version": CATALOG_VERSION,
        "bank_version": bank_version,
        "seed_mixer": SEED_MIXER,
    }
