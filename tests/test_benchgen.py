from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from faultharness.bank import similarity_distance
from faultharness.benchgen import (
    EpisodeCard,
    SuiteSpec,
    generalization_split,
    generate_suite,
    read_suite,
    suite_from_lines,
    suite_manifest,
    suite_to_lines,
)
from faultharness.errors import ConfigError
from faultharness.taxonomy import CATALOG, ErrorClass


def test_70_cards_uniform_is_10_per_class(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=70, master_seed=7, clean_fraction=0.0))
    counts = Counter(CATALOG[c.plan.kind].error_class for c in cards)
    assert all(n == 10 for n in counts.values())
    assert len(counts) == 7


@pytest.mark.parametrize(
    "n_episodes, held_out, expected",
    [
        # 74 = 7 * 10 + 4: the first four classes by name take one extra card
        (74, frozenset(), {
            ErrorClass.ARGUMENT_HALLUCINATION: 11,
            ErrorClass.INVALID_INTERMEDIATE_REASONING: 11,
            ErrorClass.INVALID_TOOL_INVOCATION: 11,
            ErrorClass.OUTPUT_HALLUCINATION: 11,
            ErrorClass.PARTIAL_EXECUTION: 10,
            ErrorClass.REENTRANT_FAILURE: 10,
            ErrorClass.TOOL_HALLUCINATION: 10,
        }),
        # held-out pool of two classes: ReentrantFailure sorts first
        (33, frozenset({"http_404", "http_503"}), {
            ErrorClass.REENTRANT_FAILURE: 17,
            ErrorClass.TOOL_HALLUCINATION: 16,
        }),
    ],
    ids=["seven-classes", "two-held-out-classes"],
)
def test_remainder_cards_go_to_first_classes_by_name(tasks, n_episodes, held_out, expected):
    spec = SuiteSpec(
        n_episodes=n_episodes, master_seed=7, clean_fraction=0.0, held_out_kinds=held_out
    )
    cards = generate_suite(tasks, spec)
    assert Counter(CATALOG[c.plan.kind].error_class for c in cards) == expected


def test_clean_fraction_split(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=100, master_seed=3, clean_fraction=0.2))
    clean = [c for c in cards if c.plan.is_clean]
    assert len(clean) == 20
    assert len(cards) - len(clean) == 80


def test_suite_generation_is_byte_deterministic(tasks):
    spec = SuiteSpec(n_episodes=70, master_seed=7, clean_fraction=0.1)
    a = suite_to_lines(generate_suite(tasks, spec))
    b = suite_to_lines(generate_suite(tasks, spec))
    assert a == b


def test_different_seeds_differ(tasks):
    a = suite_to_lines(generate_suite(tasks, SuiteSpec(n_episodes=35, master_seed=1)))
    b = suite_to_lines(generate_suite(tasks, SuiteSpec(n_episodes=35, master_seed=2)))
    assert a != b


def test_dedup_invariant(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=200, master_seed=5))
    keys = [
        (c.task_slug, c.plan.kind, None if c.plan.is_clean else c.plan.turn_index)
        for c in cards
    ]
    assert len(keys) == len(set(keys))


def test_episode_seeds_split_from_master(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=50, master_seed=11))
    seeds = [c.plan.seed for c in cards]
    assert len(set(seeds)) == len(seeds)


def test_cards_roundtrip_through_jsonl(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=20, master_seed=4))
    lines = suite_to_lines(cards)
    parsed = suite_from_lines(lines)
    assert suite_to_lines(parsed) == lines


def test_cards_are_self_contained(tasks):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=20, master_seed=4))
    for card in cards:
        assert card.prompt
        assert len(card.tools) >= 2
        assert card.steps
        assert card.final_step_payload()
        assert card.retry_budget == 3


def test_read_suite_ends_lines_at_newline_and_carriage_return_only(tasks, tmp_path):
    cards = generate_suite(tasks, SuiteSpec(n_episodes=4, master_seed=4))
    cards[1] = dataclasses.replace(cards[1], prompt=cards[1].prompt + " \u2028 \x85 \x0c end")
    lines = suite_to_lines(cards)
    assert "\u2028" in lines[1] and "\x85" in lines[1]  # written raw, inside a string
    path = tmp_path / "suite.jsonl"
    path.write_bytes(
        (lines[0] + "\r\n\r\n" + lines[1] + "\r" + lines[2] + "\n\r" + lines[3]).encode("utf-8")
    )
    assert suite_to_lines(read_suite(path)) == lines

    # a blank line counts; the JSON error sees the line's end as a newline
    truncated = lines[2][:-1]
    path.write_bytes((lines[0] + "\r\r" + lines[1] + "\r" + truncated + "\r\n").encode("utf-8"))
    with pytest.raises(ConfigError) as excinfo:
        read_suite(path)
    assert str(excinfo.value) == (
        "suite line 4: not an episode card (JSONDecodeError(\"Expecting ',' delimiter: "
        f"line 2 column 1 (char {len(truncated) + 1})\"))"  # just past the newline
    )

    path.write_bytes(b"\xff" + (lines[0] + "\n").encode("utf-8"))
    with pytest.raises(ConfigError, match="is not UTF-8"):
        read_suite(path)


# the bytes io.TextIOWrapper decodes at a time, and so the seam a suite's
# reader must carry a line end or a character across
CHUNK = 8192


def _suite_lines(tasks, prompt_end="", shift=0):
    """Three suite lines; the first card's prompt gains `shift` ASCII bytes, then
    `prompt_end`, moving every later byte of the file by as much."""
    cards = generate_suite(tasks, SuiteSpec(n_episodes=3, master_seed=4))
    cards[0] = dataclasses.replace(cards[0], prompt=cards[0].prompt + "x" * shift + prompt_end)
    return suite_to_lines(cards)


def _lines_read(monkeypatch, path):
    """Each line `read_suite` reads from `path`, as it hands them on to be parsed."""
    seen = []

    def record(lines):
        seen.extend(lines)
        return suite_from_lines(seen)

    monkeypatch.setattr("faultharness.benchgen.suite_from_lines", record)
    read_suite(path)
    return seen


@pytest.mark.parametrize(
    "char, end",
    [("", "\r\n"), ("", "\r"), ("", "\n"),
     ("\u00e9", "\n"), ("\u20ac", "\r\n"), ("\U0001f600", "\n")],
    ids=["crlf", "cr", "lf", "2-byte-char", "3-byte-char", "4-byte-char"],
)
def test_read_suite_carries_a_line_end_or_a_character_across_the_chunk_seam(
    tasks, tmp_path, monkeypatch, char, end
):
    seam = (char or end).encode("utf-8")  # its first byte ends the first chunk

    def suite(shift):
        lines = _suite_lines(tasks, char, shift)
        return lines, (end.join(lines) + end).encode("utf-8")

    lines, data = suite(CHUNK - 1 - suite(0)[1].index(seam))
    assert data[CHUNK - 1:CHUNK - 1 + len(seam)] == seam
    path = tmp_path / "suite.jsonl"
    path.write_bytes(data)
    assert _lines_read(monkeypatch, path) == [line + "\n" for line in lines]


def test_read_suite_refuses_an_invalid_byte_past_the_first_chunk(tasks, tmp_path):
    data = ("\n".join(_suite_lines(tasks, "\u00e9", shift=CHUNK)) + "\n").encode("utf-8")
    at = data.rindex("\u00e9".encode("utf-8"))
    assert at > CHUNK
    path = tmp_path / "suite.jsonl"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])  # a lead byte becomes an invalid one
    with pytest.raises(ConfigError, match="is not UTF-8") as excinfo:
        read_suite(path)
    assert "position" not in str(excinfo.value)  # the decoder counts from its chunk's start


# A failure card as older releases wrote it: with the grader's `guidelines`
# tags, and a `protocol` label as older suite specs carried.
OLD_CARD_LINE = (
    '{"episode_id":"0026-44a62a795b8fd257","guidelines":{"expected_recovery_family":'
    '"reformat_arguments","forbidden":["hallucinated_success"]},"max_steps":20,"plan":'
    '{"kind":"http_422","manifestation":"ErrorPayload","seed":4946687941428630103,'
    '"turn_index":1},"prompt":"Report today\'s average gas price in Ohio.",'
    '"protocol":"Paladin","retry_budget":3,"steps":[{"arguments":{"state":"Ohio"},'
    '"tool":"gas_prices"}],"task_slug":"gas_price","tools":[{"capability":"fuel",'
    '"description":"Primary fuel source.","name":"gas_prices","parameters":{"state":'
    '{"required":true,"type":"string"}},"scripted_responses":{"gas_prices({\\"state'
    '\\":\\"Ohio\\"})":"{\\"premium_usd\\":3.81,\\"regular_usd\\":3.09}"}},'
    '{"capability":"fuel","description":"Backup fuel source.","name":"gas_prices_backup",'
    '"parameters":{"state":{"required":true,"type":"string"}},"scripted_responses":'
    '{"gas_prices_backup({\\"state\\":\\"Ohio\\"})":"{\\"premium_usd\\":3.81,'
    '\\"regular_usd\\":3.09}"}}]}'
)


def test_final_step_payload_nested_too_deep_to_parse_is_empty():
    doc = json.loads(OLD_CARD_LINE)
    responses = doc["tools"][0]["scripted_responses"]
    (key,) = responses
    responses[key] = "[" * 100_000
    assert EpisodeCard.from_json(doc).final_step_payload() == {}


def test_old_suite_line_still_loads(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(OLD_CARD_LINE + "\n", encoding="utf-8")
    (card,) = read_suite(path)
    assert card.plan.kind == "http_422"
    assert card.final_step_payload() == {"premium_usd": 3.81, "regular_usd": 3.09}
    expected = json.loads(OLD_CARD_LINE)
    del expected["guidelines"], expected["protocol"]
    assert json.loads(suite_to_lines([card])[0]) == expected


def test_pool_exhaustion_on_oversized_clean_request(tasks):
    with pytest.raises(ConfigError, match="150 clean episodes requested but only 40 tasks exist"):
        generate_suite(tasks, SuiteSpec(n_episodes=300, master_seed=1, clean_fraction=0.5))


def test_generalization_holds_out_kind(tasks, bank):
    spec = SuiteSpec(
        n_episodes=35, master_seed=9, clean_fraction=0.0,
        held_out_kinds=frozenset({"http_503"}),
    )
    pruned, cards = generalization_split(spec, tasks, bank)
    assert all(c.plan.kind == "http_503" for c in cards)
    assert all(ex.pattern.kind != "http_503" for ex in pruned.exemplars)
    # retrieval falls back to a same-class exemplar at distance > 0
    from faultharness.bank import retrieve
    from faultharness.taxonomy import ErrorSignature

    obs = ErrorSignature(
        kind="http_503", message="Service unavailable due to overload or maintenance"
    )
    fallback = retrieve(pruned, obs)
    assert fallback.pattern.error_class is ErrorClass.REENTRANT_FAILURE
    d = similarity_distance(obs, fallback.pattern)
    assert d > 0
    # hand-computed floor: kind always mismatches (w2 = 2)
    assert d >= 2


def test_generalization_empty_holdout_is_plain_suite(tasks, bank):
    spec = SuiteSpec(n_episodes=21, master_seed=6, clean_fraction=0.0)
    pruned, cards = generalization_split(spec, tasks, bank)
    assert pruned is bank
    assert suite_to_lines(cards) == suite_to_lines(generate_suite(tasks, spec))


def test_generalization_rejects_class_wipeout(tasks):
    # a minimal bank with one exemplar per class: holding out its only
    # reentrant kind would empty that class
    from faultharness.bank import parse_bank

    entries = []
    for i, (error_class, kind) in enumerate(
        [
            ("ToolHallucination", "http_404"),
            ("ArgumentHallucination", "http_400"),
            ("InvalidToolInvocation", "http_401"),
            ("PartialExecution", "partial_output"),
            ("OutputHallucination", "malformed_json"),
            ("InvalidIntermediateReasoning", "inconsistent_state"),
            ("ReentrantFailure", "http_500"),
        ]
    ):
        entries.append(
            {
                "id": f"m{i}",
                "pattern": {"error_class": error_class, "kind": kind},
                "script": [{"action": "terminate_gracefully"}],
                "rationale": "",
            }
        )
    minimal = parse_bank({"version": "m", "exemplars": entries})
    spec = SuiteSpec(
        n_episodes=10, master_seed=1, clean_fraction=0.0,
        held_out_kinds=frozenset({"http_500"}),
    )
    with pytest.raises(ConfigError, match="holding out http_500 empties class"):
        generalization_split(spec, tasks, minimal)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SuiteSpec(n_episodes=0)
    with pytest.raises(ConfigError):
        SuiteSpec(n_episodes=5, clean_fraction=1.0)
    with pytest.raises(ConfigError):
        SuiteSpec(n_episodes=5, held_out_kinds=frozenset({"made_up_kind"}))


def test_manifest_records_versions(tasks, bank):
    spec = SuiteSpec(n_episodes=14, master_seed=3)
    cards = generate_suite(tasks, spec)
    manifest = suite_manifest(spec, cards, bank.version)
    assert manifest["n_cards"] == 14
    assert manifest["catalog_version"]
    assert manifest["bank_version"] == bank.version
    assert manifest["seed_mixer"] == "splitmix64"
