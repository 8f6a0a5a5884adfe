"""The benchmark's workloads: the CLI commands of one pass and their checks.

A workload turns a seed into a fixed list of `Command`s. One pass runs them
in order inside a fresh directory; every path in a command is relative to it.
`check_pass` then reads the artifacts and returns the labels of commands whose
outputs are wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DESK_MASTER_SEED = 1337
DESK_EVAL_SEED = 42

# The 15 kinds of the shipped catalog, fixed here so that a catalog change
# does not silently change the workload.
HELDOUT_KINDS = (
    "dns_error", "http_400", "http_401", "http_403", "http_404", "http_407", "http_422",
    "http_429", "http_500", "http_503", "inconsistent_state", "malformed_json",
    "partial_output", "schema_violation", "timeout",
)


@dataclass(frozen=True)
class Scale:
    desk_cards: int
    heldout_cards: int
    heldout_kinds: int
    corpus_target: int
    corpus_builds: int


# `full` is what the benchmark measures; `smoke` is the smallest size, for tests.
SCALES = {
    "full": Scale(desk_cards=200, heldout_cards=60, heldout_kinds=15,
                  corpus_target=150, corpus_builds=8),
    "smoke": Scale(desk_cards=20, heldout_cards=10, heldout_kinds=2,
                   corpus_target=20, corpus_builds=1),
}


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out: str = ""  # directory the command writes its artifacts into
    # artifact name -> number of lines it must hold (0: any)
    artifacts: tuple[tuple[str, int], ...] = ()
    episodes: int = 0  # episode records this command writes

    def artifact_paths(self, pass_dir: Path) -> dict[str, Path]:
        """Each artifact's path; evaluate writes into one `run-<hash>` directory."""
        out = pass_dir / self.out
        runs = sorted(out.glob("run-*"))
        base = runs[0] if len(runs) == 1 else out
        return {name: base / name for name, _ in self.artifacts}


@dataclass(frozen=True)
class Workload:
    name: str
    description: str
    commands: tuple[Command, ...]
    throughput_name: str  # how the throughput reads for this workload

    @property
    def episodes_per_pass(self) -> int:
        return sum(c.episodes for c in self.commands)


def _evaluate(label, suite, agent, seed, n_cards, extra=()) -> Command:
    out = f"runs-{label}"
    return Command(
        label=label,
        argv=("evaluate", "--suite", suite, "--agent", agent, *extra, "--seed", str(seed),
              "--jobs", "1", "--out-dir", out),
        out=out,
        artifacts=(("trajectories.jsonl", n_cards), ("report.json", 0)),
        episodes=n_cards,
    )


def desk(seed: int, scale: Scale) -> Workload:
    master, eval_seed = DESK_MASTER_SEED + seed, DESK_EVAL_SEED + seed
    n = scale.desk_cards
    commands = [Command("gen-suite", ("gen-suite", "--n", str(n), "--seed", str(master),
                                      "--out", "desk.jsonl"))]
    for agent in ("vanilla", "toolbench", "reflect", "critic", "paladin"):
        commands.append(_evaluate(agent, "desk.jsonl", agent, eval_seed, n))
    commands.append(_evaluate("paladin_no_retrieval", "desk.jsonl", "paladin", eval_seed, n,
                              extra=("--no-retrieval",)))
    return Workload(
        "desk",
        f"{n}-card desk suite, master seed {master}, eval seed {eval_seed}; "
        "5 policies plus paladin --no-retrieval",
        tuple(commands),
        "episodes_per_s",
    )


def heldout(seed: int, scale: Scale) -> Workload:
    master, eval_seed = DESK_MASTER_SEED + seed, DESK_EVAL_SEED + seed
    n = scale.heldout_cards
    kinds = HELDOUT_KINDS[: scale.heldout_kinds]
    commands = []
    for kind in kinds:
        suite = f"heldout-{kind}.jsonl"
        commands.append(Command(f"gen-suite-{kind}", (
            "gen-suite", "--n", str(n), "--seed", str(master), "--hold-out", kind,
            "--out", suite)))
        for agent in ("paladin", "critic"):
            commands.append(_evaluate(f"{agent}-{kind}", suite, agent, eval_seed, n,
                                      extra=("--bank", f"{suite}.bank.json")))
    return Workload(
        "heldout",
        f"{len(kinds)} held-out kinds x {n} cards, master seed {master}, eval seed "
        f"{eval_seed}; paladin and critic on each pruned bank",
        tuple(commands),
        "episodes_per_s",
    )


def corpus(seed: int, scale: Scale) -> Workload:
    first = seed * scale.corpus_builds
    target = scale.corpus_target
    commands = []
    for build_seed in range(first, first + scale.corpus_builds):
        out = f"corpus-{build_seed}"
        commands.append(Command(
            f"build-corpus-{build_seed}",
            ("build-corpus", "--target", str(target), "--teacher", "rule",
             "--seed", str(build_seed), "--out-dir", out),
            out=out,
            artifacts=(("corpus.jsonl", target),),
            episodes=target,
        ))
    return Workload(
        "corpus",
        f"{scale.corpus_builds} x build-corpus --target {target} --teacher rule, "
        f"seeds {first}..{first + scale.corpus_builds - 1}",
        tuple(commands),
        "corpus_traces_per_s",
    )


WORKLOADS = {"desk": desk, "heldout": heldout, "corpus": corpus}


def _report(pass_dir: Path, command: Command) -> dict | None:
    path = command.artifact_paths(pass_dir).get("report.json")
    try:
        return json.loads(path.read_text(encoding="utf-8")) if path else None
    except (OSError, ValueError):
        return None


def desk_result_failures(reports: dict[str, dict | None]) -> list[tuple[str, tuple[str, ...]]]:
    """The paper's desk-table claims that do not hold, with the commands they read.

    RR(paladin) > RR(critic) > RR(reflect) > RR(vanilla); CSR(paladin) = 1.0;
    RR(paladin, no retrieval) < RR(paladin).
    """
    def value(agent, metric):
        doc = reports.get(agent) or {}
        return doc.get(metric)

    failures = []
    order = ("paladin", "critic", "reflect", "vanilla")
    for higher, lower in zip(order, order[1:]):
        a, b = value(higher, "rr"), value(lower, "rr")
        if a is None or b is None or not a > b:
            failures.append((f"RR({higher})={a} > RR({lower})={b}", (higher, lower)))
    csr = value("paladin", "csr")
    if csr != 1.0:
        failures.append((f"CSR(paladin)={csr} = 1.0", ("paladin",)))
    a, b = value("paladin_no_retrieval", "rr"), value("paladin", "rr")
    if a is None or b is None or not a < b:
        failures.append((f"RR(paladin_no_retrieval)={a} < RR(paladin)={b}",
                         ("paladin_no_retrieval", "paladin")))
    return failures


def check_pass(workload: Workload, pass_dir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Artifact problems of one pass: ({label: reason}, {label/artifact: path}).

    Each artifact must exist and hold its expected number of lines; on `desk`
    the reports must reproduce the paper's ordering.
    """
    problems: dict[str, str] = {}
    paths: dict[str, str] = {}
    for command in workload.commands:
        found = command.artifact_paths(pass_dir)
        for name, lines in command.artifacts:
            key, path = f"{command.label}/{name}", found[name]
            if not path.is_file():
                problems[command.label] = f"{key} missing"
                continue
            paths[key] = str(path)
            if lines:
                with open(path, "rb") as fh:
                    have = sum(1 for _ in fh)
                if have != lines:
                    problems[command.label] = f"{key} has {have} lines, expected {lines}"
    if workload.name == "desk":
        reports = {c.label: _report(pass_dir, c) for c in workload.commands if c.out}
        for claim, labels in desk_result_failures(reports):
            for label in labels:
                problems.setdefault(label, f"desk claim fails: {claim}")
    return problems, paths
