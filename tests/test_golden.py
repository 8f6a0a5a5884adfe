"""Golden digests: the bytes every agent, gen-suite and the corpus builder produce.

A refactor that keeps behaviour keeps these digests. A change that moves one
must say so and update the value here together with its reason.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from faultharness import agents
from faultharness.agents import oracle_gate
from faultharness.bank import load_bank
from faultharness.benchgen import SuiteSpec, generate_suite, read_suite
from faultharness.cli import main, run_card
from faultharness.encoders import dumps_canonical
from faultharness.episode import trajectory_to_line
from faultharness.metrics import grade_episode
from faultharness.taxonomy import CATALOG

EVAL_SEED = 42

TRAJECTORIES = {
    "vanilla": "d25adc357ef32e8807d18c4a2f81d70eab07fa5337f02e906122e5e1b1856de0",
    "toolbench": "ccd3cde63a1f131e2cd7ff40f50312af1f66a91b9be31d1cf94dfeea9d6f225c",
    "reflect": "36dfdc95ccb58ef9ba6eb03af97c8aa511ba616412723db0c4d5dc600b101ad8",
    "critic": "39ff1e2f25754268ddca2a7930cf8da34047a50bc78fff872e15e87583b9af6e",
    "paladin": "294a26d6b2292acddb824b3c5abb449d376260640d2844565dbfd57e745243c7",
    "paladin_no_bank": "d72954f024eb8de3834229d08b80005875e33ec119c6c0541a84154892902170",
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
        "7de851d45c362acb1deb8f02e473afe5a70de1669184a32fe15c57e05c54497e",
        "4c37095fbf503b9881392fad0f0a76b99ed666c141e8d22810e39f28f0aff64b",
    ),
    ("malformed_json", "paladin"): (
        "1356ac4b008227d599d30ba0e77578abd910ea7f1238a2c242c8e3f1ed6aee8b",
        "8caf062bd3c60f6a18f49ebccac0b846b84640d9a33e04c8b3d0fdc6b404729a",
    ),
    ("timeout", "critic"): (
        "4ad6fdeb5a23364edb6843388875fc32ef4753c49bd7297e503c2f7ffe577fe9",
        "f67ac22360faa575a0a42182936610b2043fe6d816c68a4a753331c8999caa9a",
    ),
    ("timeout", "paladin"): (
        "476c224a1d1cfb927214a8939ce92009096a94eadf4df6525dd7b6b3692ab79a",
        "354da6d4c3f2128a227a6ce60c8e4258e222f37f6abe55247683d4359c7ad268",
    ),
}

# suite files gen-suite writes: `--n 200 --seed 1337`, and `--n 60 --seed 1337
# --hold-out KIND` for each catalog kind
DESK_SUITE = "acb6f62ac6cc8eb749b5bdd25d32874997dc09100142f5d2a423a9b4fe2a97af"

HELD_OUT_SUITES = {
    "dns_error": "d4fcf3ddc00de5c339de84350a8f58bb72888245045a40e2406ddec91d4dd55d",
    "http_400": "0292fc2ed96d7be62bbf7be420787f6428c20f540a9d08191febdb305fe6e458",
    "http_401": "28d1156d4f77943370b542293df97a2e9aa2b40fbe1d6329b6e0c695cbbad561",
    "http_403": "eb8a3919edf779e1fcdb024a6186eac5a039045b6dd47aaa98661e1cbca3bc95",
    "http_404": "58e15cc668b7be7d574afa394110dc70ba0dfc57772e1386acc2f987d0360a8e",
    "http_407": "5c5cf3fc187cfee24a28650268fda373fb19a40b5ec84cbe54fa9b3f4540d1dc",
    "http_422": "b18e2cf3b2c91f75665126ec7d9962f977869e1d8848eb62a4de2a178ff8f632",
    "http_429": "ac9442e083c81b910519dc300ecc529f971c6b39303ac2452091ae1402bb8558",
    "http_500": "dab7815341a9edf6e7bbb8ef6f2b73c0a38aafa98231e50c110784f7374bdbd4",
    "http_503": "a7d2538757220df4b229dc373b7b159bd352fd8446c040b358111894f845f144",
    "inconsistent_state": "03a97cadb98052672d241b2eccdc80f02cd304adee27b0a0844739a3d5398609",
    "malformed_json": "8d7260dfdd2525e765476c819ba6c746cbc45d5ce49b1bb62b29ba1db8d07c3a",
    "partial_output": "806a5ff527e9bd34f2e54f00ae5068bc2712350c1edf567959ceb0066c1d43dd",
    "schema_violation": "e52147473a372ef4fcb8daea11997c3f5621c112ee6ab2c32183081c074242d3",
    "timeout": "984d4ee7fa855db8e064de4d48513e0dbc133f7055ab41dddc5d315012eb4ba1",
}

# report.json from `evaluate --agent paladin --seed 42`, desk suite of 200 cards, seed 1337;
# the same bytes on CPython 3.10 to 3.13, since `pearson_r` sums exactly
REPORT = "a6a303742a08d45e4a0a7e80ecd32070a455ee4c7af61823d985c65cd80dbab8"

CORPUS = {
    "corpus.jsonl": "972e38c0abdc89b617c06b83fd6966111e40939f325e4e706b935c9e4c876596",
    "spans.json": "36252f69c5e3c03a4d935e84bda585cb499abee975902c7d768ae59d977b9b2a",
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
