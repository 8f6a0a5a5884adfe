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
from faultharness.taxonomy import CATALOG, Manifestation

EVAL_SEED = 42

TRAJECTORIES = {
    "vanilla": "3c41032cf5988d4f14bb29dc0aba1001c9c7b10eeb4ef07c98ec008672c95142",
    "toolbench": "84df25a2099ab52b46b28b21891811a6b1e3dbd9a5028c432b2d152187262a7e",
    "reflect": "f1df7153ca6f3c421514241d9e27fa252fc37519a1bafb783fb181825978c7c1",
    "critic": "8add797436ea84bfaad1d02a5d9d3d05a03162fbde0d6b614a89bcb4ff37a24b",
    "paladin": "f5d8b2d08756e743c2f2e810172b7f8e48af37fde14e549782461604b7d22a89",
    "paladin_no_bank": "d754fee8e4acd7972b3bad5e53369050118a4fb5c4514dc1bddd271519e5a427",
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
        "610fefcaa1c3f540ee2f3535c6422803560ec98139a518ac9ad45efb9edb7b7f",
        "4c37095fbf503b9881392fad0f0a76b99ed666c141e8d22810e39f28f0aff64b",
    ),
    ("malformed_json", "paladin"): (
        "a7a4cd87d25f4152d67d5e950611d1897c4eb433f0fd2005fd570fd908bd00d5",
        "8caf062bd3c60f6a18f49ebccac0b846b84640d9a33e04c8b3d0fdc6b404729a",
    ),
    ("timeout", "critic"): (
        "cbb7a6f85ceac36ce3b82e0263b44b95bd7be4af9a02b9b6d46ac47962d8ced3",
        "f67ac22360faa575a0a42182936610b2043fe6d816c68a4a753331c8999caa9a",
    ),
    ("timeout", "paladin"): (
        "ebb768cd15f513bd029d4cebdc9a814d741f82490b3f1ff979336ae3852ea007",
        "354da6d4c3f2128a227a6ce60c8e4258e222f37f6abe55247683d4359c7ad268",
    ),
}

# suite files gen-suite writes: `--n 200 --seed 1337`, and `--n 60 --seed 1337
# --hold-out KIND` for each catalog kind
DESK_SUITE = "de3e0dd984e2cd090800a283b7f2f6b68ad2a903c4075a6850cbba26e1ccd8c7"

HELD_OUT_SUITES = {
    "dns_error": "b0f4a38051ffe816d5cd92fb021b62ad3de4cc9a8085ede1c57215c82a38e964",
    "http_400": "93425a1bd03b07c1d76f42bd10227201d3773b9b485ad4bbd1579860537b05ad",
    "http_401": "57b5fdb8d25905ea3137c7f5cd2eac8c95627dbf69c226ec2d75375744bb3e1d",
    "http_403": "63cb7388b6545ca79a0dbf024825d7282fa9b25753cfbf29c5128bfff88949b7",
    "http_404": "7f47d3f4a21d45dc5778ab74dae58c2590b66eba9b9e6bc1d6236d0da8ec2c54",
    "http_407": "6d7226f89085b0cb76d1f12829b27564844e8c5160961fd45af6bc9dbb45297a",
    "http_422": "a8aa9eada27ee0ca9ab10e84635674de991bedf5fff9701660fde5951693f55d",
    "http_429": "4994ec005cb8f0d1d4fdffbd96a0b6cfff7bf9ea2ccbd9af68a6efc3ed16ff2d",
    "http_500": "da6ce43329ae4d335a167e5ec2bddf9f80184363e3eea0f3b25390881490b9cb",
    "http_503": "c3f8b9cedc0069cc9f96d139884a1e46f4a9bfcf0329ad013d1b3351f26c8f7c",
    "inconsistent_state": "281782cfeb3813268147b298236240ad22e018078a487f586015607787c809d3",
    "malformed_json": "ba5db2e93e7ce5765a7735f1fffaf929b57d126120938313fe9f8d8789a58e88",
    "partial_output": "66640da1bba0b1e1f5812c4fe790113056198af341708fb8b2fde64983f8cd6c",
    "schema_violation": "c07e005c18694b8bf695685492d8261a4462d11e2bdd82db05dd5c675b322c9a",
    "timeout": "3e83c73bd02b93c3e986443857b5698b4a10bbdf0b4521420559e6d2613675d9",
}

# report.json from `evaluate --agent paladin --seed 42`, desk suite of 200 cards, seed 1337;
# the same bytes on CPython 3.10 to 3.13, since `pearson_r` sums exactly
REPORT = "a6a303742a08d45e4a0a7e80ecd32070a455ee4c7af61823d985c65cd80dbab8"

CORPUS = {
    "corpus.jsonl": "a6836de4b091b0f1b95d01f06ba131b19b5f073e789c7474cd92890db376b5fa",
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
    # once each; an ErrorPayload or SilentFailure fault's text is fixed by its
    # kind, and was classified at import
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
        render_failure(CATALOG["partial_output"], Manifestation.PARTIAL_OUTPUT, tool, 0)
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
