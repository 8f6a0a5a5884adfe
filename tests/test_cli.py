from __future__ import annotations

import builtins
import copy
import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
import threading
import weakref
from collections import Counter
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import faultharness
from faultharness import cli
from faultharness.bank import load_bank, load_shipped_bank, parse_bank
from faultharness.cli import main, run_card
from faultharness.errors import ConfigError
from faultharness.taxonomy import ErrorClass, kind_status

SHIPPED_BANK = resources.files("faultharness.data").joinpath("recovery_bank.json")


@pytest.fixture
def runner():
    return CliRunner()


def _gen(runner, tmp_path, n=14, seed=7, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "suite.jsonl"
    result = runner.invoke(
        main,
        ["gen-suite", "--n", str(n), "--seed", str(seed), "--out", str(out), *extra],
    )
    assert result.exit_code == 0, result.output
    return out


def test_gen_suite_writes_cards_and_manifest(runner, tmp_path):
    out = _gen(runner, tmp_path)
    lines = out.read_text().splitlines()
    assert len(lines) == 14
    manifest = json.loads((tmp_path / "suite.jsonl.manifest.json").read_text())
    assert manifest["n_cards"] == 14
    assert manifest["spec"]["master_seed"] == 7


def test_gen_suite_rerun_is_byte_identical(runner, tmp_path):
    a = _gen(runner, tmp_path / "a", n=21, seed=9)
    b = _gen(runner, tmp_path / "b", n=21, seed=9)
    assert a.read_bytes() == b.read_bytes()


def test_gen_suite_without_seed_prints_records_and_replays_the_generated_seed(
    runner, tmp_path
):
    out = tmp_path / "a" / "suite.jsonl"
    result = runner.invoke(main, ["gen-suite", "--n", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    match = re.search(r"^seed not given; generated seed=(\d+)$", result.output, re.MULTILINE)
    assert match, result.output
    seed = int(match.group(1))
    manifest = json.loads((tmp_path / "a" / "suite.jsonl.manifest.json").read_text())
    assert manifest["spec"]["master_seed"] == seed
    again = _gen(runner, tmp_path / "b", n=5, seed=seed)
    assert again.read_bytes() == out.read_bytes()


# modules that only one command needs, on one code path (see the cli.py docstring)
_DEFERRED_MODULES = (
    "faultharness.pipeline", "faultharness.remote", "concurrent.futures", "secrets",
    "requests",
)

_STARTUP_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
deferred = json.loads(sys.argv[2])
import faultharness.cli as cli

def loaded():
    return [m for m in deferred if m in sys.modules]

seen = {"import": loaded()}
for argv in (
    ["gen-suite", "--n", "6", "--seed", "1", "--out", "suite.jsonl"],
    ["evaluate", "--suite", "suite.jsonl", "--agent", "paladin", "--jobs", "1",
     "--seed", "1", "--n-resamples", "5"],
):
    try:
        cli.main.main(argv, standalone_mode=False)
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
seen["commands"] = loaded()
print(json.dumps(seen))
"""


def test_startup_imports_no_command_only_module(tmp_path):
    # every CLI call is a fresh process: what the module imports, each command pays
    src = str(Path(faultharness.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, src, json.dumps(_DEFERRED_MODULES)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "commands": []}
    assert list((tmp_path / "runs").glob("run-*/report.json"))


def test_gen_suite_holdout_writes_pruned_bank(runner, tmp_path):
    out = _gen(
        runner, tmp_path, n=7, seed=3,
        extra=["--hold-out", "http_503", "--clean-fraction", "0"],
    )
    bank_path = tmp_path / "suite.jsonl.bank.json"
    bank_doc = json.loads(bank_path.read_text())
    kinds = {ex["pattern"].get("kind") for ex in bank_doc["exemplars"]}
    assert "http_503" not in kinds
    assert not any("status_code" in ex["pattern"] for ex in bank_doc["exemplars"])
    cards = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(c["plan"]["kind"] == "http_503" for c in cards)
    expected = load_shipped_bank().without_kinds({"http_503"}).exemplars
    assert load_bank(bank_path).exemplars == expected
    # the form written before patterns stopped storing a status loads the same
    for ex in bank_doc["exemplars"]:
        status = kind_status(ex["pattern"].get("kind", ""))
        if status is not None:
            ex["pattern"]["status_code"] = status
    assert parse_bank(bank_doc).exemplars == expected


def test_evaluate_writes_reports(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=14, seed=5)
    result = runner.invoke(
        main,
        [
            "evaluate", "--suite", str(suite), "--agent", "paladin",
            "--seed", "42", "--out-dir", str(tmp_path / "runs"),
            "--n-resamples", "50",
        ],
    )
    assert result.exit_code == 0, result.output
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    for name in ("report.json", "report.csv", "trajectories.jsonl", "grades.jsonl",
                 "manifest.json"):
        assert (run_dirs[0] / name).exists()
    report = json.loads((run_dirs[0] / "report.json").read_text())
    assert report["n_episodes"] == 14
    assert 0 <= report["tsr"] <= 1


def test_evaluate_rejects_zero_resamples(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=7, seed=5)
    result = runner.invoke(
        main,
        [
            "evaluate", "--suite", str(suite), "--agent", "vanilla",
            "--seed", "1", "--out-dir", str(tmp_path / "runs"), "--n-resamples", "0",
        ],
    )
    assert result.exit_code == 2
    assert "--n-resamples" in result.output
    assert not (tmp_path / "runs").exists()


def test_evaluate_assert_flag_sets_exit_code(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=14, seed=5)
    result = runner.invoke(
        main,
        [
            "evaluate", "--suite", str(suite), "--agent", "vanilla",
            "--seed", "1", "--out-dir", str(tmp_path / "runs"),
            "--n-resamples", "10", "--assert-min-rr", "0.99",
        ],
    )
    assert result.exit_code == 1


def test_evaluate_no_retrieval_flag(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=14, seed=5)
    for flag, out in ((None, "with"), ("--no-retrieval", "without")):
        args = [
            "evaluate", "--suite", str(suite), "--agent", "paladin",
            "--seed", "42", "--out-dir", str(tmp_path / out),
            "--n-resamples", "10",
        ]
        if flag:
            args.append(flag)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    def rr(base):
        run_dir = next((tmp_path / base).iterdir())
        return json.loads((run_dir / "report.json").read_text())["rr"]

    assert rr("without") < rr("with")


def test_evaluate_jobs_match_serial(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=14, seed=5)
    outputs = []
    for jobs, out in (("1", "serial"), ("4", "parallel")):
        result = runner.invoke(
            main,
            [
                "evaluate", "--suite", str(suite), "--agent", "critic",
                "--seed", "11", "--out-dir", str(tmp_path / out),
                "--jobs", jobs, "--n-resamples", "10",
            ],
        )
        assert result.exit_code == 0, result.output
        run_dir = next((tmp_path / out).iterdir())
        outputs.append((run_dir / "trajectories.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


def test_evaluate_jobs_start_at_most_two_cards_per_worker_ahead(runner, tmp_path, monkeypatch):
    # the first card waits while the others may start; a writer that must wait
    # for it bounds how many finished episodes pile up behind it
    suite = _gen(runner, tmp_path, n=14, seed=5)
    first_id = json.loads(suite.read_text(encoding="utf-8").splitlines()[0])["episode_id"]
    jobs = 2
    started = []
    too_many = threading.Event()

    def first_card_waits(card, *args, **kwargs):
        started.append(card.episode_id)
        if len(started) > 2 * jobs:
            too_many.set()
        if card.episode_id == first_id:
            too_many.wait(timeout=1)
        return run_card(card, *args, **kwargs)

    in_card_order = cli._in_card_order
    started_at_first_line = []

    def recording_in_card_order(*args):
        for item in in_card_order(*args):
            started_at_first_line.append(len(started))
            yield item

    monkeypatch.setattr("faultharness.cli.run_card", first_card_waits)
    monkeypatch.setattr("faultharness.cli._in_card_order", recording_in_card_order)
    result = _evaluate(runner, tmp_path, suite, "--jobs", str(jobs))
    assert result.exit_code == 0, result.output
    assert len(started) == 14
    assert started_at_first_line[0] <= 2 * jobs


_ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
_UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "LANG": "C.UTF-8", "PYTHONUTF8": "1"}


def test_evaluate_writes_the_same_utf8_artifacts_under_an_ascii_locale(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    lines = suite.read_text(encoding="utf-8").splitlines()
    card = json.loads(lines[0])
    card["prompt"] += " café"
    lines[0] = json.dumps(card, ensure_ascii=False)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(faultharness.__file__).resolve().parent.parent)
    artifacts = []
    for name, locale in (("ascii", _ASCII_LOCALE), ("utf8", _UTF8_LOCALE)):
        proc = subprocess.run(
            [sys.executable, "-m", "faultharness.cli", "evaluate", "--suite", str(suite),
             "--agent", "paladin", "--seed", "1", "--n-resamples", "5",
             "--out-dir", str(tmp_path / name)],
            env={**os.environ, "PYTHONPATH": src, **locale},
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        (run_dir,) = (tmp_path / name).iterdir()
        artifacts.append({f.name: f.read_bytes() for f in sorted(run_dir.iterdir())})
    assert "café".encode("utf-8") in artifacts[0]["trajectories.jsonl"]
    assert artifacts[0] == artifacts[1]


def test_evaluate_holds_one_trajectory_at_a_time(runner, tmp_path, monkeypatch):
    # each trajectory is written as its episode ends, then dropped
    suite = _gen(runner, tmp_path, n=14, seed=5)
    earlier = []
    alive_at_call = []

    def tracking_run_card(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in earlier))
        trajectory = run_card(*args, **kwargs)
        earlier.append(weakref.ref(trajectory))
        return trajectory

    monkeypatch.setattr("faultharness.cli.run_card", tracking_run_card)
    result = _evaluate(runner, tmp_path, suite, "--jobs", "1")
    assert result.exit_code == 0, result.output
    assert alive_at_call == [0] * 14


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_stopped_by_an_episode_leaves_no_trajectory_file(runner, tmp_path,
                                                                  monkeypatch, jobs):
    suite = _gen(runner, tmp_path, n=14, seed=5)
    calls = iter(range(1, 15))  # next() on a range iterator is atomic across threads

    def third_fails(*args, **kwargs):
        if next(calls) == 3:
            raise ConfigError("the third card cannot run")
        return run_card(*args, **kwargs)

    monkeypatch.setattr("faultharness.cli.run_card", third_fails)
    result = _evaluate(runner, tmp_path, suite, "--jobs", jobs)
    _assert_no_traceback(result, "the third card cannot run")
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert list(run_dir.iterdir()) == []


def test_build_corpus_rule_teacher(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "build-corpus", "--target", "10", "--recovery-fraction", "0.8",
            "--teacher", "rule", "--seed", "3", "--out-dir", str(tmp_path / "corpus"),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "corpus" / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 10
    spans = json.loads((tmp_path / "corpus" / "spans.json").read_text())
    with_recovery = [tid for tid, s in spans.items() if s]
    assert len(with_recovery) == 8
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    assert manifest["counts"] == {"recovery": 8, "clean": 2, "total": 10}


def test_build_corpus_counts_distinct_recovery_traces(runner, tmp_path):
    # at seed 0 the first 128 repairs hold duplicate (signature, task) keys;
    # the builder keeps trying until it holds 128 distinct ones
    out = tmp_path / "corpus"
    result = runner.invoke(
        main, ["build-corpus", "--target", "160", "--seed", "0", "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "(128 recovery + 32 clean," in result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"] == {"recovery": 128, "clean": 32, "total": 160}
    spans = json.loads((out / "spans.json").read_text())
    assert sum(1 for s in spans.values() if s) == 128


def test_build_corpus_remote_without_token_fails(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("FAULTHARNESS_API_TOKEN", raising=False)
    result = runner.invoke(
        main,
        [
            "build-corpus", "--teacher", "remote", "--seed", "1",
            "--endpoint-url", "http://localhost:9",
            "--out-dir", str(tmp_path / "c"),
        ],
    )
    assert result.exit_code != 0
    assert "FAULTHARNESS_API_TOKEN" in result.output


def test_build_corpus_rerun_identical(runner, tmp_path):
    for name in ("a", "b"):
        result = runner.invoke(
            main,
            [
                "build-corpus", "--target", "10", "--seed", "3",
                "--out-dir", str(tmp_path / name),
            ],
        )
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (
        tmp_path / "b" / "corpus.jsonl"
    ).read_bytes()


def test_report_diff(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"tsr": 0.5, "rr": 0.4, "csr": 1.0, "es": 0.3,
                             "composite": 0.5}))
    b.write_text(json.dumps({"tsr": 0.7, "rr": 0.6, "csr": 1.0, "es": 0.2,
                             "composite": 0.7}))
    result = runner.invoke(main, ["report-diff", str(a), str(b)])
    assert result.exit_code == 0
    assert "tsr: 0.5000 -> 0.7000 (delta +0.2000)" in result.output


# --- errors exit 2 with a message -----------------------------------------------------


def _evaluate(runner, tmp_path, suite, *extra, agent="paladin", out="runs"):
    return runner.invoke(
        main,
        [
            "evaluate", "--suite", str(suite), "--agent", agent, "--seed", "1",
            "--out-dir", str(tmp_path / out), "--n-resamples", "5", *extra,
        ],
    )


def _assert_clean_failure(result, *fragments):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    for fragment in fragments:
        assert fragment in result.output


def test_gen_suite_pool_exhausted_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["gen-suite", "--n", "1000", "--seed", "1", "--out", str(tmp_path / "s.jsonl")]
    )
    _assert_clean_failure(result, "Error:")


_DUPLICATE_TOOLS_CARD = json.dumps({
    "episode_id": "dup", "prompt": "p", "steps": [], "plan": {"seed": 1},
    "tools": [{"name": "lookup"}, {"name": "lookup"}],
})


def _card_line(plan=None, **fields):
    """A well-formed one-step card, with `plan` and `fields` set over its own."""
    card = {
        "episode_id": "e", "prompt": "p",
        "tools": [{"name": "lookup", "scripted_responses": {"lookup({})": "{}"}}],
        "steps": [{"tool": "lookup", "arguments": {}}],
        "plan": {"seed": 1, "kind": "http_500", "manifestation": "ErrorPayload",
                 "turn_index": 1, **(plan or {})},
        **fields,
    }
    return json.dumps(card)


@pytest.mark.parametrize(
    "bad_line, fragment",
    [
        ('{"foo": 1}', "episode_id"),
        ("not json at all", "JSONDecodeError"),
        (_DUPLICATE_TOOLS_CARD, "tool names must be unique"),
        (_card_line(retry_budget="3"), "retry_budget_per_error must be an int within [1, 4]"),
        (_card_line(retry_budget=True), "retry_budget_per_error must be an int within [1, 4]"),
        (_card_line(max_steps=None), "max_steps must be an int >= 3"),
        (_card_line(max_steps=20.5), "max_steps must be an int >= 3"),
        (_card_line(max_steps=2), "max_steps must be an int >= 3, not 2"),
        (_card_line(plan={"seed": "x"}), "plan seed must be an int"),
        (_card_line(plan={"seed": 1.5}), "plan seed must be an int"),
        (_card_line(plan={"turn_index": "2"}), "plan turn_index must be an int >= 1"),
        (_card_line(plan={"kind": "bogus"}), "unknown failure kind 'bogus'"),
        (_card_line(plan={"turn_index": 99}), "plan turn_index 99 exceeds max_steps 20"),
        (_card_line(steps=[]), "a card needs at least one task step"),
        (_card_line(tools=[]), "a card needs at least one tool"),
        (_card_line(steps=[{"tool": "missing", "arguments": {}}]),
         "step tool 'missing' is not among the card's tools"),
        (_card_line(steps=[{"tool": "lookup", "arguments": []}]),
         "a step needs a string tool and object arguments"),
        (_card_line(episode_id=5), "episode_id must be a string, not 5"),
        (_card_line(episode_id=""), "episode_id must not be empty"),
        (_card_line(prompt=None), "prompt must be a string, not None"),
        (_card_line(task_slug=["t"]), "task_slug must be a string"),
        (_card_line(tools=[{"name": "lookup", "scripted_responses": {"lookup({})": 5}}]),
         "a scripted response is not a string: 5"),
        (_card_line(tools=[{"name": 7}]), "tool name must be a string, not 7"),
        (_card_line(tools=[{"name": "lookup", "parameters": []}]),
         "tool parameters must be an object"),
    ],
    ids=[
        "missing-key", "not-json", "duplicate-tools", "budget-str", "budget-bool",
        "steps-null", "steps-float", "steps-range", "seed-str", "seed-float",
        "turn-str", "kind-unknown", "turn-beyond-budget", "steps-empty", "tools-empty",
        "step-tool-unknown", "arguments-list", "id-int", "id-empty", "prompt-null", "slug-list",
        "response-int", "tool-name-int", "parameters-list",
    ],
)
def test_evaluate_malformed_suite_line_exits_2(runner, tmp_path, bad_line, fragment):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    good = suite.read_text().splitlines()
    suite.write_text("\n".join([good[0], "", bad_line, *good[1:]]) + "\n")
    result = _evaluate(runner, tmp_path, suite)
    _assert_clean_failure(result, "suite line 3", fragment)
    # refused when read: no episode ran and no run directory was made
    assert not (tmp_path / "runs").exists()


def test_evaluate_cascade_plan_exits_2(runner, tmp_path):
    # a plan injects one fault; a card asking for a second is refused rather
    # than run as a one-fault card
    suite = _gen(runner, tmp_path, n=3, seed=5, extra=["--clean-fraction", "0"])
    lines = suite.read_text().splitlines()
    card = json.loads(lines[1])
    card["plan"]["cascade"] = {"kind": "http_429", "turn_index": card["plan"]["turn_index"] + 1}
    lines[1] = json.dumps(card)
    suite.write_text("\n".join(lines) + "\n")
    result = _evaluate(runner, tmp_path, suite)
    _assert_clean_failure(result, "suite line 2", "cascade")


def test_evaluate_bank_missing_classes_exits_2(runner, tmp_path):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"version": "1.0", "exemplars": []}))
    result = _evaluate(runner, tmp_path, suite, "--bank", str(bank))
    _assert_clean_failure(result, "does not cover")


def _shipped_bank_doc():
    from importlib import resources

    return json.loads(
        resources.files("faultharness.data").joinpath("recovery_bank.json").read_text("utf-8")
    )


def test_same_version_banks_get_distinct_run_dirs(runner, tmp_path):
    from faultharness.bank import parse_bank

    suite = _gen(runner, tmp_path, n=3, seed=5)
    doc = _shipped_bank_doc()
    trimmed = dict(doc, exemplars=doc["exemplars"][1:])
    parse_bank(trimmed)  # still covers every class
    for name, bank_doc in (("full.json", doc), ("trimmed.json", trimmed)):
        (tmp_path / name).write_text(json.dumps(bank_doc))
        result = _evaluate(runner, tmp_path, suite, "--bank", str(tmp_path / name))
        assert result.exit_code == 0, result.output
    run_dirs = sorted((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 2
    digests = {json.loads((d / "manifest.json").read_text())["flags"]["bank_sha256"]
               for d in run_dirs}
    assert len(digests) == 2


def test_remote_models_get_distinct_run_dirs(runner, tmp_path):
    # nothing listens on port 1: every episode ends on a transport failure at once
    suite = _gen(runner, tmp_path, n=2, seed=5)
    for model in ("model-a", "model-b"):
        result = _evaluate(
            runner, tmp_path, suite, "--endpoint-url", "http://127.0.0.1:1",
            "--endpoint-model", model, agent="remote",
        )
        assert result.exit_code == 0, result.output
    run_dirs = sorted((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 2
    models = {json.loads((d / "manifest.json").read_text())["flags"]["endpoint_model"]
              for d in run_dirs}
    assert models == {"model-a", "model-b"}


# --- output paths -------------------------------------------------------------------


def test_gen_suite_creates_missing_parent_directory(runner, tmp_path):
    out = tmp_path / "nodir" / "s.jsonl"
    result = runner.invoke(main, ["gen-suite", "--n", "3", "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(out.read_text().splitlines()) == 3


def test_gen_suite_out_that_is_a_directory_exits_2(runner, tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    result = runner.invoke(main, ["gen-suite", "--n", "3", "--seed", "1", "--out", str(out)])
    _assert_no_traceback(result, "is a directory")
    assert sorted(tmp_path.rglob("*")) == [out]


@pytest.mark.parametrize("command", ["evaluate", "build-corpus"])
def test_out_dir_that_is_a_file_exits_2_before_any_episode(runner, tmp_path, monkeypatch,
                                                           command):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    out = tmp_path / "f"
    out.write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))

    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before --out-dir was checked")

    monkeypatch.setattr("faultharness.cli.run_episode", no_episodes)
    monkeypatch.setattr("faultharness.simulator.run_episode", no_episodes)
    if command == "evaluate":
        result = _evaluate(runner, tmp_path, suite, out="f")
    else:
        result = runner.invoke(
            main, ["build-corpus", "--target", "10", "--seed", "0", "--out-dir", str(out)]
        )
    _assert_no_traceback(result, "is a file")
    assert sorted(tmp_path.rglob("*")) == before
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["gen-suite", "evaluate", "build-corpus"])
def test_out_path_under_a_file_exits_2_before_any_work(runner, tmp_path, monkeypatch,
                                                       command):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    blocker = tmp_path / "f"
    blocker.write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory was made")

    monkeypatch.setattr("faultharness.cli.generalization_split", no_work)
    monkeypatch.setattr("faultharness.cli.run_episode", no_work)
    monkeypatch.setattr("faultharness.simulator.run_episode", no_work)
    if command == "gen-suite":
        result = runner.invoke(
            main, ["gen-suite", "--n", "3", "--seed", "1", "--out", str(blocker / "s.jsonl")]
        )
    elif command == "evaluate":
        result = _evaluate(runner, tmp_path, suite, out="f/sub")
    else:
        result = runner.invoke(
            main, ["build-corpus", "--target", "10", "--seed", "0",
                   "--out-dir", str(blocker / "sub")]
        )
    _assert_no_traceback(result, "cannot create directory", str(blocker))
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


# --- malformed input files exit 2 with a message -------------------------------------


def _assert_no_traceback(result, *fragments):
    _assert_clean_failure(result, *fragments)
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "text, fragments",
    [
        ("not json", ["bank.json is not JSON"]),
        ("[1]", ["bank must be a JSON object"]),
        ('{"exemplars": [5]}', ["bank entry 0 is not a JSON object"]),
        (
            json.dumps({"exemplars": [{"id": "odd", "pattern": {"kind": "timeout"},
                                       "script": [{"action": "dance"}]}]}),
            ["bank entry 0 (odd)", "unknown recovery action 'dance'"],
        ),
        (
            json.dumps({"exemplars": [{"id": "odd", "kinds": "timeout",
                                       "pattern": {"error_class": "ReentrantFailure"},
                                       "script": [{"action": "terminate_gracefully"}]}]}),
            ["bank entry 0 (odd)", "'kinds' must be a list"],
        ),
        (
            json.dumps({"exemplars": [{"id": "odd",
                                       "pattern": {"error_class": "ReentrantFailure",
                                                   "message_tokens": "rate limit"},
                                       "script": [{"action": "terminate_gracefully"}]}]}),
            ["bank entry 0 (odd)", "'message_tokens' must be a list"],
        ),
    ],
    ids=["not-json", "list", "entry-not-object", "unknown-action", "kinds-string",
         "message-tokens-string"],
)
def test_evaluate_malformed_bank_exits_2(runner, tmp_path, text, fragments):
    suite = _gen(runner, tmp_path, n=2, seed=5)
    bank = tmp_path / "bank.json"
    bank.write_text(text)
    result = _evaluate(runner, tmp_path, suite, "--bank", str(bank))
    _assert_no_traceback(result, *fragments)


@pytest.mark.parametrize(
    "entry_id, key, value, message",
    [
        ("resource_locked", "error_class", "InvalidToolInvocation",
         "kind 'http_423' is ReentrantFailure in the taxonomy, not InvalidToolInvocation"),
        # a status is the kind's own; an older file may state it, but only rightly
        ("server_fault", "status_code", "500",
         "status_code '500' is not the status of kind 'http_500' (500)"),
        ("server_fault", "status_code", 503,
         "status_code 503 is not the status of kind 'http_500' (500)"),
    ],
    ids=["class", "status-string", "status-other"],
)
def test_evaluate_bank_class_disagreeing_with_the_taxonomy_exits_2(
    runner, tmp_path, entry_id, key, value, message
):
    doc = json.loads(SHIPPED_BANK.read_text(encoding="utf-8"))
    index = next(i for i, e in enumerate(doc["exemplars"]) if e["id"] == entry_id)
    doc["exemplars"][index]["pattern"][key] = value
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    result = _evaluate(runner, tmp_path, _gen(runner, tmp_path), "--bank", str(bank))
    _assert_no_traceback(result, f"bank entry {index} ({entry_id})", message)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "entry_id, change, reason",
    [
        ("upgrade_required", lambda e: e.update(id="arg_media"),
         "duplicate exemplar id 'arg_media'"),
        ("rate_limited", lambda e: e.update(script=[]), "exemplar script is empty"),
        ("rate_limited", lambda e: e["pattern"].update(error_class="GremlinFailure"),
         "'GremlinFailure' is not a valid ErrorClass"),
        ("rate_limited", lambda e: e.update(kinds=[None], pattern={}),
         "pattern binds neither error_class nor kind"),
        ("rate_limited", lambda e: e["script"][0].update(action="dance"),
         "unknown recovery action 'dance'"),
        ("rate_limited", lambda e: e.update(kinds="http_429"), "'kinds' must be a list"),
        ("resource_locked", lambda e: e["pattern"].update(error_class="InvalidToolInvocation"),
         "kind 'http_423' is ReentrantFailure in the taxonomy, not InvalidToolInvocation"),
        ("server_fault", lambda e: e["pattern"].update(status_code=503),
         "status_code 503 is not the status of kind 'http_500' (500)"),
    ],
    ids=["duplicate-id", "empty-script", "unknown-class", "wildcard-pattern",
         "unknown-action", "kinds-string", "class-contradicts-kind", "wrong-status"],
)
def test_evaluate_bank_entry_refusal_names_the_entry(runner, tmp_path, entry_id, change, reason):
    doc = json.loads(SHIPPED_BANK.read_text(encoding="utf-8"))
    index = next(i for i, e in enumerate(doc["exemplars"]) if e["id"] == entry_id)
    entry = doc["exemplars"][index]
    change(entry)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    result = _evaluate(runner, tmp_path, _gen(runner, tmp_path), "--bank", str(bank))
    _assert_no_traceback(result, f"bank entry {index} ({entry['id']}): {reason}")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "tag, field, value",
    [
        ("retry_with_backoff", "max_attempts", 2.5),
        ("retry_with_backoff", "base_delay_ms", 1.5),
        ("terminate_gracefully", "report", 5),
        ("retry_with_backoff", "respect_retry_after", "yes"),
    ],
    ids=["float-attempts", "float-delay", "int-report", "string-flag"],
)
def test_evaluate_mistyped_action_field_exits_2(runner, tmp_path, tag, field, value):
    doc = json.loads(SHIPPED_BANK.read_text(encoding="utf-8"))
    steps = [
        (index, entry["id"], step)
        for index, entry in enumerate(doc["exemplars"])
        for step in entry["script"]
        if step["action"] == tag
    ]
    for _, _, step in steps:
        step[field] = value
    index, entry_id, _ = steps[0]
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    result = _evaluate(runner, tmp_path, _gen(runner, tmp_path), "--bank", str(bank))
    _assert_no_traceback(result, f"bank entry {index} ({entry_id})", f".{field} must be")


@pytest.mark.parametrize(
    "report",
    ["Could not use {tool} or {backup}: {error}", "{tool} failed: {}", "{tool.x}: {error}",
     "{tool} failed {"],
    ids=["unknown-slot", "positional-slot", "attribute-slot", "lone-brace"],
)
def test_evaluate_report_with_bad_slot_exits_2(runner, tmp_path, report):
    doc = json.loads(SHIPPED_BANK.read_text(encoding="utf-8"))
    steps = [
        (index, entry["id"], step)
        for index, entry in enumerate(doc["exemplars"])
        for step in entry["script"]
        if step["action"] == "terminate_gracefully"
    ]
    for _, _, step in steps:
        step["report"] = report
    index, entry_id, _ = steps[0]
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    result = _evaluate(runner, tmp_path, _gen(runner, tmp_path), "--bank", str(bank))
    _assert_no_traceback(result, f"bank entry {index} ({entry_id})", "TerminateGracefully.report")


def test_evaluate_opens_the_suite_and_the_bank_once(runner, tmp_path, monkeypatch):
    # their bytes are both parsed and hashed into the run hash
    suite = _gen(runner, tmp_path, n=6, seed=5, extra=["--hold-out", "timeout"])
    bank = tmp_path / "suite.jsonl.bank.json"
    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    result = _evaluate(runner, tmp_path, suite, "--bank", str(bank))
    assert result.exit_code == 0, result.output
    assert (opened[str(suite)], opened[str(bank)]) == (1, 1)


def test_evaluate_non_utf8_suite_exits_2(runner, tmp_path):
    suite = tmp_path / "suite.jsonl"
    suite.write_bytes(b"\xff\xfe{}\n")
    result = _evaluate(runner, tmp_path, suite)
    _assert_no_traceback(result, "suite file", "suite.jsonl", "is not UTF-8")


@pytest.mark.parametrize("command", ["suite", "bank", "report-diff"])
def test_directory_as_input_file_exits_2(runner, tmp_path, command):
    directory = tmp_path / "inputs"
    directory.mkdir()
    if command == "report-diff":
        result = runner.invoke(main, ["report-diff", str(directory), str(directory)])
    elif command == "bank":
        suite = _gen(runner, tmp_path, n=2, seed=5)
        result = _evaluate(runner, tmp_path, suite, "--bank", str(directory))
    else:
        result = _evaluate(runner, tmp_path, directory)
    _assert_no_traceback(result, "is a directory")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["suite", "bank", "report-diff"])
def test_deeply_nested_json_input_exits_2(runner, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000 + "\n")
    if command == "report-diff":
        result = runner.invoke(main, ["report-diff", str(deep), str(deep)])
        fragments = ["report", "deep.json is not JSON"]
    elif command == "bank":
        suite = _gen(runner, tmp_path, n=2, seed=5)
        result = _evaluate(runner, tmp_path, suite, "--bank", str(deep))
        fragments = ["bank file", "deep.json is not JSON"]
    else:
        result = _evaluate(runner, tmp_path, deep)
        fragments = ["suite line 1", "RecursionError"]
    _assert_no_traceback(result, *fragments)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "is not JSON"),
        ("[0.5]", "is not a JSON object"),
        ('{"tsr": "high"}', "tsr is not a number"),
    ],
    ids=["not-json", "list", "string-metric"],
)
def test_report_diff_malformed_report_exits_2(runner, tmp_path, text, fragment):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"tsr": 0.5}))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    result = runner.invoke(main, ["report-diff", str(good), str(bad)])
    _assert_no_traceback(result, "bad.json", fragment)


# One field of a valid input, changed by a type swap, an empty value, an
# out-of-range number or a deleted key. Every such input either runs or exits 2
# with a message; none ends in a traceback or exit 1.

_DELETE = object()
_MUTANTS = (
    None, True, 0, -1, 2**64, 1.5, float("inf"), "", "x", [], {}, ["x"], {"x": 1}, _DELETE,
)


def _paths(doc, prefix=()):
    """The path of `doc` and of every value nested in it."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(data, doc, paths, mutants=_MUTANTS):
    """A copy of `doc` with the value at one of `paths` replaced or deleted."""
    path = data.draw(st.sampled_from(paths), label="path")
    mutant = data.draw(st.sampled_from(mutants), label="mutant")
    doc = copy.deepcopy(doc)
    if not path:
        return {} if mutant is _DELETE else mutant
    *parents, last = path
    owner = reduce(operator.getitem, parents, doc)
    if mutant is _DELETE:
        del owner[last]
    else:
        owner[last] = mutant
    return doc


def _assert_runs_or_exits_2(result, *fragments):
    assert isinstance(result.exception, SystemExit) or result.exception is None, result.output
    assert result.exit_code in (0, 2), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        for fragment in fragments:
            assert fragment in result.output


_PROPERTY = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_PROPERTY
@given(data=st.data())
def test_evaluate_any_one_field_change_to_a_card_runs_or_exits_2(runner, data):
    card = json.loads(_card_line())
    card = _mutated(data, card, list(_paths(card)))
    with tempfile.TemporaryDirectory() as scratch:
        suite = Path(scratch) / "suite.jsonl"
        suite.write_text(json.dumps(card) + "\n")
        result = _evaluate(runner, Path(scratch), suite)
        _assert_runs_or_exits_2(result, "suite line 1")
        assert (result.exit_code == 0) == (Path(scratch) / "runs").exists()


@pytest.fixture(scope="module")
def ten_card_suite(tmp_path_factory):
    return _gen(CliRunner(), tmp_path_factory.mktemp("suite"), n=10, seed=5)


@_PROPERTY
@given(data=st.data())
def test_evaluate_any_one_field_change_to_a_bank_entry_runs_or_exits_2(runner, ten_card_suite,
                                                                      data):
    doc = json.loads(SHIPPED_BANK.read_text(encoding="utf-8"))
    index = data.draw(st.integers(0, len(doc["exemplars"]) - 1), label="entry")
    paths = [("exemplars", index, *path) for path in _paths(doc["exemplars"][index])]
    # a class label of the taxonomy's own that need not be the entry's kinds' class
    classes = tuple(c.value for c in ErrorClass)
    doc = _mutated(data, doc, paths, _MUTANTS + classes)
    with tempfile.TemporaryDirectory() as scratch:
        bank = Path(scratch) / "bank.json"
        bank.write_text(json.dumps(doc))
        result = _evaluate(runner, Path(scratch), ten_card_suite, "--bank", str(bank))
        # every class has two entries or more, so one changed entry is refused by name
        _assert_runs_or_exits_2(result, f"bank entry {index} ")
        assert (result.exit_code == 0) == (Path(scratch) / "runs").exists()


@_PROPERTY
@given(data=st.data())
def test_report_diff_any_one_field_change_runs_or_exits_2(runner, data):
    report = {"tsr": 0.5, "rr": 0.25, "csr": 1.0, "es": 0.3, "composite": 0.4,
              "n_episodes": 3, "bootstrap": {"tsr": [0.1, 0.9]}}
    changed = _mutated(data, report, list(_paths(report)))
    with tempfile.TemporaryDirectory() as scratch:
        good, bad = Path(scratch) / "good.json", Path(scratch) / "bad.json"
        good.write_text(json.dumps(report))
        bad.write_text(json.dumps(changed))
        result = runner.invoke(main, ["report-diff", str(good), str(bad)])
        _assert_runs_or_exits_2(result, "bad.json")


# --- out-of-range options exit 2 with a message --------------------------------------


@pytest.mark.parametrize(
    "option, value",
    [("--target", "0"), ("--target", "-3"), ("--recovery-fraction", "1.5")],
)
def test_build_corpus_out_of_range_size_exits_2(runner, tmp_path, option, value):
    out = tmp_path / "corpus"
    result = runner.invoke(
        main, ["build-corpus", option, value, "--seed", "0", "--out-dir", str(out)]
    )
    _assert_no_traceback(result, option)
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_alpha_exits_2(runner, tmp_path, value):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    result = _evaluate(runner, tmp_path, suite, "--alpha", value)
    _assert_no_traceback(result, "alpha must be finite")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_evaluate_jobs_below_one_exits_2(runner, tmp_path, value):
    suite = _gen(runner, tmp_path, n=3, seed=5)
    result = _evaluate(runner, tmp_path, suite, "--jobs", value)
    _assert_no_traceback(result, "--jobs")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("option", ["--assert-min-rr", "--assert-min-tsr", "--assert-min-csr"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_gate_exits_2(runner, tmp_path, option, value):
    # a NaN gate compares false against every score, so it would never fail
    suite = _gen(runner, tmp_path, n=3, seed=5)
    result = _evaluate(runner, tmp_path, suite, option, value)
    _assert_no_traceback(result, f"{option.lstrip('-')} must be finite")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("option", ["--alpha", "--assert-min-rr"])
def test_evaluate_checks_finiteness_before_running_episodes(runner, tmp_path, monkeypatch,
                                                            option):
    suite = _gen(runner, tmp_path, n=3, seed=5)

    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before the option was checked")

    monkeypatch.setattr("faultharness.cli.run_episode", no_episodes)
    monkeypatch.setattr("faultharness.cli.read_suite", no_episodes)
    result = _evaluate(runner, tmp_path, suite, option, "nan")
    _assert_no_traceback(result, f"{option.lstrip('-')} must be finite")
