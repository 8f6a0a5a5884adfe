"""Golden digests: the bytes every agent, gen-suite and the corpus builder produce.

A refactor that keeps behaviour keeps these digests. A change that moves one
must say so and update the value here together with its reason.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from faultharness import agents, taxonomy
from faultharness.agents import RemoteChatPolicy, make_policy, oracle_gate
from faultharness.bank import load_bank
from faultharness.benchgen import SuiteSpec, generate_suite, read_suite
from faultharness.cli import main, run_card
from faultharness.encoders import dumps_canonical
from faultharness.episode import Trajectory, Turn, trajectory_to_line
from faultharness.metrics import grade_episode
from faultharness.protocol import render_action
from faultharness.remote import EndpointConfig
from faultharness.simulator import SimConfig, render_failure, run_episode
from faultharness.taxonomy import CATALOG

EVAL_SEED = 42

TRAJECTORIES = {
    "vanilla": "da682421a071e86638425c45a5e99448736592ad3a21e75f87bc0f8a09311321",
    "toolbench": "4f10940bab614caa208abc6cb113b6f1689e83c850998eea1843c484d1e2a359",
    "reflect": "6445762f0aba4d2dbd8a457d84b00196c64d0e73b189886cb92ceb02a93e34e3",
    "critic": "239f91a7870b55560710eb3360d1c4012bf201079f21299c8ffea120b9c59b80",
    "paladin": "5e357746fb6140514afd259fa048308757eff281b62f738ba468a4fea396cafd",
    "paladin_no_bank": "ea775bc754dc2e4359c1ff0b56ef6e862e88fd0e76541c36fd1b7c46e17f9d19",
}

GRADES = {
    "vanilla": "129b0afefea1b46dc19cd4d818c87e061c638a4fd1742ae7e0e9e9942e91c83a",
    "toolbench": "5a411e3c891bc396856c62cba02f539e0d3e9f97559a762e2d78308e20d7efc8",
    "reflect": "4fdd2b57a5c0d419117b1f346dfe04276d4c37c2722e25608d5c6aeea50829e0",
    "critic": "6e51818f6751b8ea3c7bb56f4c526cd0a1df090c5045995ecc4f7e554f43fe92",
    "paladin": "9cab888922a8b81a5fd421958910f787ea32f07119442170eacabe59aae12b60",
}

# (trajectories, grades) of 60-card `gen-suite --seed 1337 --hold-out KIND` suites,
# run against the pruned bank that gen-suite writes beside the suite and read back:
# every retrieved exemplar is of another kind, while on the desk suite every one
# is of the injected kind
HELD_OUT = {
    ("malformed_json", "critic"): (
        "26f7c7fb191b5b679b98e7cfb3e04f43c9828fa7a10764c4f9a2e96fef8204ba",
        "4c37095fbf503b9881392fad0f0a76b99ed666c141e8d22810e39f28f0aff64b",
    ),
    ("malformed_json", "paladin"): (
        "ddb876629ce104da15f585742d568858c218330b4c6c258305530b6b4a40acfb",
        "8caf062bd3c60f6a18f49ebccac0b846b84640d9a33e04c8b3d0fdc6b404729a",
    ),
    ("timeout", "critic"): (
        "60739e248935b32c84397910f9e80535c7b9e4fb087cfe20797ec85ad39c0be5",
        "f67ac22360faa575a0a42182936610b2043fe6d816c68a4a753331c8999caa9a",
    ),
    ("timeout", "paladin"): (
        "73b75ba99e34ee50df338d210aede9ca7275e7f6a1735c339dc440236756f029",
        "354da6d4c3f2128a227a6ce60c8e4258e222f37f6abe55247683d4359c7ad268",
    ),
}

# suite files gen-suite writes: `--n 200 --seed 1337`, and `--n 60 --seed 1337
# --hold-out KIND` for each catalog kind
DESK_SUITE = "1312347f6235d47673854bb0e2b217a814c176b0a7fe88b4942d6c2bef90faba"

HELD_OUT_SUITES = {
    "dns_error": "c2af71dc78074b68b135f05c9ee58c53dafe002a8607be41a53b0f6dfa741dc8",
    "http_400": "3b9347137f1557f346b149e99156abce4722e3d681bb2d26c1273aff307b0b31",
    "http_401": "b82fe52dc904cdc23511819a8b579d42aa0b7b065f029bd463cc5a3199c9eeca",
    "http_403": "ebe5f1698ea799189e82559c197c6a4047fc0354db0d2388237c2491e23b306f",
    "http_404": "f89f618f57d49f6ace8a2c4b7da63f1d33e1ef31ced9bffe887de7e3acc02205",
    "http_407": "5590cc87fc366d8abcae35fc3c1223531344d8abf8100225662d4e3ce64de398",
    "http_422": "b5e244640ae9260c1435a0e860729e4dadf7b015a05a7d379e3c99bd6b45148d",
    "http_429": "f216a6f07aaa9ba8786ea084e92982c57f6f994a2705b202cbe86624a24d77bc",
    "http_500": "cac400ac6e98dda57557a9f76242e7fee9544a6c610bb558703bb9d5e41a26e0",
    "http_503": "10343b2745a0ea8708d53c417255f6b11681ad56b0d1940760a7d20a1dec3fad",
    "inconsistent_state": "bd45e7dfc25cabe9df535895c4b6eeb9d9f2711dd5734023970b96dc1c162dc4",
    "malformed_json": "602b4d5c6cbbada47e4e55bdc9db313d35fe93942baddb6e29f9de179025286b",
    "partial_output": "57fdc1b32674a489b9c315f5cfbfcff6b22c4865467c7398de7b7f4fd776f169",
    "schema_violation": "e159b839bf0ee22edc1cfbe79130911e1f694f3c84def2b21864dc249d36153e",
    "timeout": "a69a8683bd5e659caca6bfabe711ba60d1d6ded59cc6e6fc549f05cc213ca423",
}

# report.json from `evaluate --agent paladin --seed 42`, desk suite of 200 cards, seed 1337;
# the same bytes on CPython 3.10 to 3.13, since `pearson_r` sums exactly
REPORT = "a6a303742a08d45e4a0a7e80ecd32070a455ee4c7af61823d985c65cd80dbab8"

CORPUS = {
    "corpus.jsonl": "e55f93bed8ac0aabdd3e6600efc6ad8157819f378de705b9316e90436b01f1ba",
    "spans.json": "1d4898d4e97676c1acca52a7a6f51d777ad91f1dd7c00ddd82f55f608736646e",
}


@pytest.fixture(scope="module")
def desk_cards(tasks):
    return generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=1337))


def _run_desk(cards, agent, bank):
    """(trajectories digest, grades digest, failure events) of one agent over
    the suite."""
    trajectories = hashlib.sha256()
    grades = hashlib.sha256()
    events = 0
    for card in cards:
        traj = run_card(card, agent, bank, EVAL_SEED)
        trajectories.update((trajectory_to_line(traj) + "\n").encode("utf-8"))
        grade = grade_episode(traj, card)
        grades.update((dumps_canonical(grade.to_json()) + "\n").encode("utf-8"))
        events += grade.failures_encountered
    return trajectories.hexdigest(), grades.hexdigest(), events


@pytest.mark.parametrize("agent", sorted(GRADES))
def test_desk_digests(desk_cards, bank, agent):
    trajectories, grades, _ = _run_desk(desk_cards, agent, bank)
    assert trajectories == TRAJECTORIES[agent]
    assert grades == GRADES[agent]


def test_desk_paladin_without_bank_digest(desk_cards):
    trajectories, _, _ = _run_desk(desk_cards, "paladin", None)
    assert trajectories == TRAJECTORIES["paladin_no_bank"]


def test_critic_draws_each_oracle_gate_once(desk_cards, bank, monkeypatch):
    draws = []

    def counting_gate(*args):
        draws.append(args)
        return oracle_gate(*args)

    monkeypatch.setattr(agents, "oracle_gate", counting_gate)
    trajectories, grades, events = _run_desk(desk_cards, "critic", bank)
    assert (trajectories, grades) == (TRAJECTORIES["critic"], GRADES["critic"])
    assert len(draws) == events > 0
    assert len(set(draws)) == len(draws)


class _Replay:
    """A chat endpoint answering with a scripted policy's own rendered action,
    decided on the context the posted messages spell out."""

    def __init__(self, policy, card, bank):
        self._policy, self._card, self._bank = policy, card, bank
        self._context = Trajectory(episode_id=card.episode_id, plan=card.plan, turns=[])

    def complete(self, messages):
        turns = self._context.turns  # messages only grow: append the new ones
        turns.extend(Turn(m["role"], m["content"]) for m in messages[len(turns):])
        return render_action(self._policy.decide(self._context, self._card.tools, self._bank))


@pytest.mark.parametrize("agent", sorted(GRADES))
def test_remote_replay_of_a_scripted_policy_writes_its_trajectories(desk_cards, bank, agent):
    # a model that writes what the scripted policy decides is credited as that
    # policy is: every recovery turn states its action, which the world reads
    differ = []
    for card in desk_cards:
        policy = make_policy(agent, card.steps, card.retry_budget, seed=EVAL_SEED)
        remote = RemoteChatPolicy(EndpointConfig(base_url="http://127.0.0.1:1"))
        remote._client = _Replay(policy, card, bank)
        config = SimConfig(
            max_steps=card.max_steps, retry_budget_per_error=card.retry_budget, rng_seed=EVAL_SEED
        )
        replayed = run_episode(
            card.prompt, card.tools, remote, card.plan, config,
            bank=bank, episode_id=card.episode_id,
        )
        if trajectory_to_line(replayed) != trajectory_to_line(run_card(card, agent, bank, EVAL_SEED)):
            differ.append(card.episode_id)
    assert differ == [], f"{len(differ)} of {len(desk_cards)} episodes differ"


@pytest.fixture(scope="module")
def held_out_suites(tmp_path_factory):
    """Kind -> (cards, pruned bank read back from the file gen-suite wrote)."""
    tmp = tmp_path_factory.mktemp("held-out")
    suites = {}
    for kind in sorted({kind for kind, _ in HELD_OUT}):
        suite = tmp / f"{kind}.jsonl"
        result = CliRunner().invoke(
            main,
            ["gen-suite", "--n", "60", "--seed", "1337", "--hold-out", kind,
             "--out", str(suite)],
        )
        assert result.exit_code == 0, result.output
        suites[kind] = (read_suite(suite), load_bank(f"{suite}.bank.json"))
    return suites


@pytest.mark.parametrize("kind, agent", sorted(HELD_OUT))
def test_held_out_digests(held_out_suites, kind, agent):
    cards, pruned = held_out_suites[kind]
    trajectories, grades, _ = _run_desk(cards, agent, pruned)
    assert (trajectories, grades) == HELD_OUT[kind, agent]


def _suite_digest(tmp_path, *options):
    suite = tmp_path / "suite.jsonl"
    result = CliRunner().invoke(main, ["gen-suite", *options, "--out", str(suite)])
    assert result.exit_code == 0, result.output
    return hashlib.sha256(suite.read_bytes()).hexdigest()


def test_desk_suite_file_digest(tmp_path):
    assert _suite_digest(tmp_path, "--n", "200", "--seed", "1337") == DESK_SUITE


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_held_out_suite_file_digest(tmp_path, kind):
    digest = _suite_digest(tmp_path, "--n", "60", "--seed", "1337", "--hold-out", kind)
    assert digest == HELD_OUT_SUITES[kind]


@pytest.fixture(scope="module")
def paladin_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    runner = CliRunner()
    suite = tmp / "desk.jsonl"
    result = runner.invoke(
        main, ["gen-suite", "--n", "200", "--seed", "1337", "--out", str(suite)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["evaluate", "--suite", str(suite), "--agent", "paladin",
         "--seed", str(EVAL_SEED), "--out-dir", str(tmp / "runs")],
    )
    assert result.exit_code == 0, result.output
    (run_dir,) = (tmp / "runs").iterdir()
    return run_dir


def test_evaluate_classifies_each_scripted_response_once_per_tool(tmp_path, monkeypatch):
    # every card of a task holds its one template, whose tools classify their
    # scripted responses, and the PartialOutput text their first one fixes,
    # once each; an ErrorPayload fault's text is fixed by its kind, and was
    # classified at import, and no fault is empty text
    runner = CliRunner()
    suite = tmp_path / "desk.jsonl"
    result = runner.invoke(
        main, ["gen-suite", "--n", "200", "--seed", "1337", "--out", str(suite)]
    )
    assert result.exit_code == 0, result.output
    held = {
        (card.task_slug, tool.name, key): text
        for card in read_suite(suite)
        for tool in card.tools.tools
        for key, text in tool.scripted_responses.items()
    }
    holders = Counter(held.values())  # each text: the tools of the suite's tasks holding it
    partial = Counter(
        render_failure(CATALOG["partial_output"], tool, 0)[0]
        for card in {card.task_slug: card for card in read_suite(suite)}.values()
        for tool in card.tools.tools
    )  # each PartialOutput text: the tools of the suite's tasks it is cut from
    classified = Counter()
    original = taxonomy.detect_failure

    def counting(text):
        classified[text] += 1
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("faultharness") and getattr(module, "detect_failure", None) is original:
            monkeypatch.setattr(module, "detect_failure", counting)
    result = runner.invoke(
        main,
        ["evaluate", "--suite", str(suite), "--agent", "paladin", "--seed", str(EVAL_SEED),
         "--n-resamples", "5", "--out-dir", str(tmp_path / "runs")],
    )
    assert result.exit_code == 0, result.output
    (run_dir,) = (tmp_path / "runs").iterdir()
    trajectories = hashlib.sha256((run_dir / "trajectories.jsonl").read_bytes()).hexdigest()
    assert trajectories == TRAJECTORIES["paladin"]
    assert {t: classified[t] for t, n in holders.items() if classified[t] > n} == {}
    assert any(classified[t] for t in partial)
    assert {t: classified[t] for t, n in partial.items() if classified[t] > n} == {}
    fixed = {kind.example_output for kind in CATALOG.values()} | {""}
    assert sorted(fixed & set(classified)) == []


def test_desk_paladin_report_digest(paladin_run_dir):
    assert hashlib.sha256((paladin_run_dir / "report.json").read_bytes()).hexdigest() == REPORT


def test_evaluate_grades_file_matches_grade_digest(paladin_run_dir):
    digest = hashlib.sha256((paladin_run_dir / "grades.jsonl").read_bytes()).hexdigest()
    assert digest == GRADES["paladin"]


def test_corpus_digests(tmp_path):
    out = tmp_path / "corpus"
    result = CliRunner().invoke(
        main,
        ["build-corpus", "--target", "150", "--teacher", "rule", "--seed", "0",
         "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    for name, digest in CORPUS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
