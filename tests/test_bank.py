from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import digit_limit
from faultharness.bank import (
    DEFAULT_WEIGHTS,
    ExemplarBank,
    RetryWithBackoff,
    SignaturePattern,
    TerminateGracefully,
    WaitUntilHealthy,
    action_from_json,
    action_to_json,
    load_bank,
    load_shipped_bank,
    parse_bank,
    retrieve,
    retrieve_top_k,
    similarity_distance,
)
from faultharness.errors import ConfigError
from faultharness.taxonomy import (
    CATALOG,
    DATA_DIR,
    ErrorClass,
    ErrorSignature,
    Manifestation,
    classify_raw_failure,
    kind_status,
    message_tokens,
)


def observed(kind="http_500", message="Unexpected server error"):
    return ErrorSignature(kind=kind, message=message)


def test_distance_identity_is_zero():
    obs = observed()
    pattern = SignaturePattern(
        error_class=obs.error_class,
        kind=obs.kind,
        message_tokens=message_tokens(obs.message),
    )
    assert similarity_distance(obs, pattern) == 0


def test_distance_disjoint_tokens_is_w4():
    obs = observed(message="completely different words here")
    pattern = SignaturePattern(
        error_class=obs.error_class,
        kind=obs.kind,
        message_tokens=frozenset({"unexpected", "server", "glitch"}),
    )
    assert similarity_distance(obs, pattern) == DEFAULT_WEIGHTS[3]


def test_distance_wildcards_contribute_zero():
    obs = observed()
    assert similarity_distance(obs, SignaturePattern(kind="http_500")) == 0
    assert similarity_distance(
        obs, SignaturePattern(error_class=ErrorClass.ARGUMENT_HALLUCINATION)
    ) == DEFAULT_WEIGHTS[0]


def test_distance_rejects_fully_wildcard_pattern():
    # such a pattern cannot be built, so no distance meets one
    with pytest.raises(ValueError, match="binds neither error_class nor kind"):
        SignaturePattern()
    with pytest.raises(ValueError):
        SignaturePattern(message_tokens=frozenset({"timeout"}))


def _random_signature(rng: random.Random) -> ErrorSignature:
    kind_id = rng.choice(sorted(CATALOG))
    words = rng.sample(
        ["rate", "limit", "server", "error", "request", "timed", "out", "invalid",
         "key", "resource", "schema", "truncated", "conflict", "gateway"],
        k=rng.randint(1, 5),
    )
    return ErrorSignature(kind=kind_id, message=" ".join(words))


def _oracle_ranking(bank: ExemplarBank, obs: ErrorSignature) -> list[str]:
    # exhaustive sort re-implementing the distance formula inline, in Fractions
    w1, w2, w3, w4 = DEFAULT_WEIGHTS

    def distance(p: SignaturePattern) -> Fraction:
        d = Fraction(0)
        if p.error_class is not None and p.error_class != obs.error_class:
            d += w1
        if p.kind is not None and p.kind != obs.kind:
            d += w2
        if p.status_code is not None and p.status_code != obs.status_code:
            d += w3
        if p.message_tokens is not None:
            o = message_tokens(obs.message)
            union = o | p.message_tokens
            j = Fraction(1) if not union else Fraction(len(o & p.message_tokens), len(union))
            d += w4 * (1 - j)
        return d

    return [ex.id for ex in sorted(bank.exemplars, key=lambda e: (distance(e.pattern), e.id))]


def _oracle_argmin(bank: ExemplarBank, obs: ErrorSignature) -> str:
    return _oracle_ranking(bank, obs)[0]


def test_retrieve_matches_bruteforce_oracle_on_small_bank(bank):
    rng = random.Random(23)
    small = ExemplarBank(exemplars=tuple(rng.sample(list(bank.exemplars), 20)))
    for _ in range(100):
        obs = _random_signature(rng)
        assert retrieve(small, obs).id == _oracle_argmin(small, obs)


def _shipped_messages() -> dict[str, tuple[str, str]]:
    """Exemplar id -> (kind, message) as `recovery_bank.json` states them."""
    doc = json.loads((DATA_DIR / "recovery_bank.json").read_text(encoding="utf-8"))
    found = {}
    for entry in doc["exemplars"]:
        kinds = entry.get("kinds", [entry["pattern"].get("kind")])
        for kind in kinds:
            ex_id = entry["id"] if len(kinds) == 1 else f"{entry['id']}__{kind}"
            found[ex_id] = (kind, entry["pattern"]["messages"][kind])
    return found


def test_each_shipped_exemplar_retrieves_itself(bank):
    # a tool that fails with exactly the message an exemplar was written from
    # must be served that exemplar
    messages = _shipped_messages()
    assert set(messages) == {ex.id for ex in bank.exemplars}
    missed = {}
    for ex in bank.exemplars:
        kind, message = messages[ex.id]
        body = {"error": message}
        if kind_status(kind) is not None:
            body["status"] = kind_status(kind)
        found = retrieve(bank, classify_raw_failure(json.dumps(body))).id
        if found != ex.id:
            missed[ex.id] = found
    assert not missed, f"{len(missed)} of {len(bank)} exemplars retrieve another: {missed}"


def test_retrieve_exact_pattern_copy_returns_that_exemplar(bank):
    exemplar = {ex.id: ex for ex in bank.exemplars}["rate_limited"]
    obs = ErrorSignature(kind=exemplar.pattern.kind, message="Rate limit exceeded")
    assert retrieve(bank, obs).id == "rate_limited"


def test_shipped_429_script_respects_retry_after(bank):
    obs = observed(kind="http_429", message="Rate limit exceeded")
    exemplar = retrieve(bank, obs)
    first = exemplar.script[0]
    assert isinstance(first, RetryWithBackoff)
    assert first.respect_retry_after is True


def test_shipped_auth_script_terminates_without_retry(bank):
    obs = observed(kind="http_401", message="Invalid API key provided")
    exemplar = retrieve(bank, obs)
    assert isinstance(exemplar.script[-1], TerminateGracefully)
    assert not any(isinstance(a, RetryWithBackoff) for a in exemplar.script)


def test_shipped_bank_size_and_coverage(bank):
    assert len(bank) >= 55
    assert bank.covered_classes() == set(ErrorClass)
    assert len({ex.id for ex in bank.exemplars}) == len(bank)


def test_catalog_kind_coverage_within_w4(bank):
    # every catalog kind retrieves an exemplar matched on class and kind
    for kind_id in CATALOG:
        obs = ErrorSignature(kind=kind_id, message="probe message")
        best = retrieve(bank, obs)
        d = similarity_distance(obs, best.pattern)
        assert d <= DEFAULT_WEIGHTS[3], (kind_id, best.id, d)
        assert best.pattern.kind == kind_id


def _shipped_http_messages():
    doc = json.loads((DATA_DIR / "recovery_bank.json").read_text("utf-8"))
    params = []
    for entry in doc["exemplars"]:
        for kind, message in entry["pattern"].get("messages", {}).items():
            if kind.startswith("http_"):
                exemplar_id = entry["id"] if len(entry["kinds"]) == 1 else f"{entry['id']}__{kind}"
                params.append(pytest.param(exemplar_id, kind, message, id=exemplar_id))
    return params


@pytest.mark.parametrize("exemplar_id, kind, message", _shipped_http_messages())
def test_shipped_http_exemplar_is_retrieved_by_its_own_response(bank, exemplar_id, kind,
                                                               message):
    # the classifier and the bank give a status one class, so a tool that
    # answers with an exemplar's own message and status gets that exemplar
    raw = f'{{"error": "{message}", "status": {kind.removeprefix("http_")}}}'
    assert retrieve(bank, classify_raw_failure(raw)).id == exemplar_id


def test_zero_distance_dominance(bank):
    obs = observed(kind="http_429", message="Rate limit exceeded")
    best = retrieve(bank, obs)
    zero = [
        ex.id
        for ex in bank.exemplars
        if similarity_distance(obs, ex.pattern) == 0
    ]
    assert zero and best.id in zero


def test_retrieve_deterministic_across_reloads(bank):
    fresh = parse_bank(
        {"version": bank.version,
         "exemplars": [ex.to_json() for ex in bank.exemplars]}
    )
    rng = random.Random(5)
    for _ in range(50):
        obs = _random_signature(rng)
        assert retrieve(bank, obs).id == retrieve(fresh, obs).id


def test_top_k_is_distance_then_id_ordered(bank):
    obs = observed(kind="http_503",
                   message="Service unavailable due to overload or maintenance")
    top = retrieve_top_k(bank, obs, k=3)
    distances = [similarity_distance(obs, ex.pattern) for ex in top]
    assert distances == sorted(distances)
    assert len(top) == 3


_WORDS = ["rate", "limit", "server", "error", "timed", "out", "invalid", "key",
          "resource", "gone", "schema", "truncated", "conflict", "gateway", "unavailable"]
_token_sets = st.frozensets(st.sampled_from(_WORDS), max_size=4)


@st.composite
def _banks(draw, shipped: ExemplarBank) -> ExemplarBank:
    """The shipped bank or a `without_kinds` prune, some patterns re-tokenized.

    An override of None drops the pattern's message tokens; an empty set makes
    an empty union possible.
    """
    held_out = draw(st.sets(st.sampled_from(sorted(CATALOG)), max_size=3))
    try:
        bank = shipped.without_kinds(held_out) if held_out else shipped
    except ConfigError:
        bank = shipped
    overrides = draw(st.dictionaries(
        st.integers(0, len(bank) - 1), st.none() | _token_sets, max_size=12
    ))
    if not overrides:
        return bank
    exemplars = list(bank.exemplars)
    for i, tokens in overrides.items():
        pattern = dataclasses.replace(exemplars[i].pattern, message_tokens=tokens)
        exemplars[i] = dataclasses.replace(exemplars[i], pattern=pattern)
    return ExemplarBank(exemplars=tuple(exemplars), version=bank.version)


@st.composite
def _signatures(draw) -> ErrorSignature:
    """A catalog kind with a message of bank words and digits, or a silent failure."""
    if draw(st.booleans()) and draw(st.booleans()):
        return ErrorSignature(kind="unknown", message="",
                              manifestation=Manifestation.SILENT_FAILURE)
    kind = draw(st.sampled_from(sorted(CATALOG)))
    words = draw(st.lists(st.sampled_from(_WORDS + ["503", "#17"]), min_size=1, max_size=6))
    return ErrorSignature(kind=kind, message=" ".join(words))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_retrieval_equals_exhaustive_fraction_oracle(bank, data):
    drawn = data.draw(_banks(bank))
    obs = data.draw(_signatures())
    ranking = _oracle_ranking(drawn, obs)
    assert retrieve(drawn, obs).id == ranking[0]
    assert retrieve(drawn, obs).id == ranking[0]  # second call reads the memo
    # every k reaches each tier boundary and tie the tiered scoring can stop at
    k = data.draw(st.integers(1, len(drawn)), label="k")
    assert [ex.id for ex in retrieve_top_k(drawn, obs, k=k)] == ranking[:k]


def test_repeated_signature_returns_the_memoized_ranking():
    fresh = load_shipped_bank()
    obs = observed(message="Unexpected server error #4411")
    first = retrieve_top_k(fresh, obs, k=2)
    key = (obs.kind, obs.message, 2)
    assert fresh.ranked_memo == {key: first}
    fresh.ranked_memo[key] = first[::-1]  # a repeat reads the memo, not the bank
    again = retrieve_top_k(fresh, obs, k=2)
    assert again == first[::-1]
    again.clear()  # each call gets its own list
    assert retrieve_top_k(fresh, obs, k=2) == first[::-1]
    assert retrieve(fresh, obs) is first[0]  # k = 1 is a key of its own
    assert set(fresh.ranked_memo) == {key, (obs.kind, obs.message, 1)}


def test_ranking_memo_holds_each_lookup_once_per_bank():
    warm, cold = load_shipped_bank(), load_shipped_bank()
    messages = ["Unexpected server error #4411", "unexpected  SERVER error #9"]
    for message in messages * 2:
        retrieve(warm, observed(message=message))
        retrieve_top_k(warm, observed(message=message), k=0)  # ranks one, as k = 1
    assert set(warm.ranked_memo) == {("http_500", m, 1) for m in messages}
    assert not cold.ranked_memo
    assert not warm.without_kinds({"http_503"}).ranked_memo


def test_messages_differing_only_in_digits_retrieve_the_same_exemplars(bank):
    rng = random.Random(7)
    for _ in range(30):
        obs = _random_signature(rng)
        numbered = dataclasses.replace(obs, message=f"{obs.message} #{rng.randrange(10**6)}")
        assert retrieve_top_k(bank, numbered, k=3) == retrieve_top_k(bank, obs, k=3)


def test_pruned_bank_never_returns_a_removed_exemplar():
    parent = load_shipped_bank()
    obs = observed(kind="http_503", message="Service unavailable")
    assert retrieve(parent, obs).pattern.kind == "http_503"
    pruned = parent.without_kinds({"http_503"})
    assert not pruned.ranked_memo
    nearest = retrieve(pruned, obs)
    assert nearest.pattern.kind != "http_503"
    assert nearest in pruned.exemplars


def test_banks_compare_equal_whatever_their_memo_holds():
    warm, cold = load_shipped_bank(), load_shipped_bank()
    rng = random.Random(11)
    for _ in range(20):
        retrieve(warm, _random_signature(rng))
    assert warm.ranked_memo and not cold.ranked_memo
    assert warm == cold
    assert repr(warm) == repr(cold)


def _entry(entry_id="x1", kind="http_500", script=None, **pattern_extra):
    if script is None:
        script = [
            {"action": "retry_with_backoff", "max_attempts": 2},
            {"action": "terminate_gracefully"},
        ]
    return {
        "id": entry_id,
        "pattern": {"error_class": "ReentrantFailure", "kind": kind, **pattern_extra},
        "script": script,
        "rationale": "test entry",
    }


def _full_coverage_entries():
    # one exemplar per class so parse_bank's coverage check passes
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
                "id": f"cov{i}",
                "pattern": {"error_class": error_class, "kind": kind},
                "script": [{"action": "terminate_gracefully"}],
                "rationale": "",
            }
        )
    return entries


def test_load_rejects_duplicate_ids():
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [_entry("cov0")]}
    with pytest.raises(ConfigError) as excinfo:
        parse_bank(doc)
    index = len(doc["exemplars"]) - 1
    assert str(excinfo.value) == f"bank entry {index} (cov0): duplicate exemplar id 'cov0'"


def test_load_rejects_empty_script():
    doc = {"version": "t",
           "exemplars": _full_coverage_entries() + [_entry("e_empty", script=[])]}
    with pytest.raises(ConfigError, match=r"\(e_empty\): exemplar script is empty"):
        parse_bank(doc)


def test_load_rejects_fully_wildcard_pattern():
    bad = {"id": "wild", "pattern": {}, "script": [{"action": "terminate_gracefully"}],
           "rationale": ""}
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [bad]}
    with pytest.raises(ConfigError, match=r"\(wild\): pattern binds neither"):
        parse_bank(doc)


def test_load_rejects_unknown_error_class():
    bad = _entry("weird")
    bad["pattern"]["error_class"] = "GremlinFailure"
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [bad]}
    with pytest.raises(ConfigError) as excinfo:
        parse_bank(doc)
    assert "(weird): 'GremlinFailure' is not a valid ErrorClass" in str(excinfo.value)


def test_branch_group_expands_per_kind():
    group = {
        "id": "auth",
        "kinds": ["http_401", "http_403", "http_407"],
        "pattern": {"error_class": "InvalidToolInvocation"},
        "script": [{"action": "terminate_gracefully"}],
        "rationale": "auth branch",
    }
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [group]}
    parsed = parse_bank(doc)
    expanded = [ex for ex in parsed.exemplars if ex.id.startswith("auth__")]
    assert {ex.pattern.kind for ex in expanded} == {"http_401", "http_403", "http_407"}
    assert len({ex.script for ex in expanded}) == 1
    assert {ex.pattern.status_code for ex in expanded} == {401, 403, 407}


def test_without_kinds_guards_class_coverage(bank):
    pruned = bank.without_kinds({"http_503"})
    assert all(ex.pattern.kind != "http_503" for ex in pruned.exemplars)
    reentrant_kinds = {
        ex.pattern.kind for ex in bank.exemplars
        if ex.pattern.error_class is ErrorClass.REENTRANT_FAILURE
    }
    with pytest.raises(ConfigError, match="empties class"):
        bank.without_kinds(reentrant_kinds)


def test_action_json_roundtrip():
    actions = [
        {"action": "retry_with_backoff", "max_attempts": 4, "base_delay_ms": 250,
         "cap_ms": 4000, "respect_retry_after": True},
        {"action": "reformat_arguments"},
        {"action": "switch_tool"},
        {"action": "refresh_credentials"},
        {"action": "validate_and_reissue"},
        {"action": "lenient_parse"},
        {"action": "terminate_gracefully", "report": "r"},
        {"action": "wait_until_healthy", "poll_interval_ms": 100},
    ]
    for doc in actions:
        assert action_to_json(action_from_json(doc)) == doc


# the fields older bank files set on these actions, which loading drops
_DROPPED_FIELDS = {
    "reformat_arguments": {"hint": "fix the argument formatting"},
    "switch_tool": {"strategy": "fallback"},
    "validate_and_reissue": {"check": "url"},
    "wait_until_healthy": {"max_wait_ms": 9000},
}


def test_entry_with_dropped_fields_parses_equal_without_them():
    script = [{"action": tag} for tag in _DROPPED_FIELDS] + [{"action": "lenient_parse"}]
    older = [{**step, **_DROPPED_FIELDS.get(step["action"], {})} for step in script]

    def bank_of(steps):
        entry = _entry("e", script=steps)
        return parse_bank({"version": "t", "exemplars": _full_coverage_entries() + [entry]})

    assert older != script
    assert bank_of(older) == bank_of(script)


@pytest.mark.parametrize(
    "step",
    [{"action": "switch_tool", "target": "x"}, {"action": "retry_with_backoff", "hint": "x"}],
    ids=["unknown-key", "dropped-key-of-another-action"],
)
def test_entry_with_other_unknown_key_is_rejected(step):
    entry = _entry("odd", script=[step, {"action": "terminate_gracefully"}])
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [entry]}
    with pytest.raises(ConfigError, match=r"bank entry 7 \(odd\)"):
        parse_bank(doc)


@pytest.mark.parametrize(
    "kind, status",
    [("http_500", "500"), ("http_500", 503), ("http_500", True), ("timeout", 500), (None, 500)],
    ids=["string", "other-status", "bool", "kind-without-status", "no-kind"],
)
def test_pattern_status_other_than_its_kinds_is_rejected(kind, status):
    entry = _entry("odd", kind=kind, status_code=status)
    doc = {"version": "t", "exemplars": _full_coverage_entries() + [entry]}
    with pytest.raises(ConfigError, match=r"bank entry 7 \(odd\): status_code"):
        parse_bank(doc)


@pytest.mark.parametrize(
    "action, fields",
    [
        (RetryWithBackoff, {"max_attempts": True}),
        (RetryWithBackoff, {"cap_ms": 8000.0}),
        (RetryWithBackoff, {"respect_retry_after": 1}),
        (TerminateGracefully, {"report": None}),
        (WaitUntilHealthy, {"poll_interval_ms": "500"}),
    ],
)
def test_action_fields_are_type_checked(action, fields):
    with pytest.raises(TypeError, match=f"{action.__name__}.{next(iter(fields))} must be"):
        action(**fields)


def test_retry_attempts_bounded():
    with pytest.raises(ValueError):
        RetryWithBackoff(max_attempts=5)
    with pytest.raises(ValueError):
        RetryWithBackoff(max_attempts=0)


def test_bank_field_past_the_digit_limit_is_refused_the_same_under_every_limit(tmp_path):
    # 700 digits: read as its digit string under every limit, so refused as a string
    doc = json.loads((DATA_DIR / "recovery_bank.json").read_text(encoding="utf-8"))
    step = next(s for e in doc["exemplars"] for s in e["script"] if "max_attempts" in s)
    step["max_attempts"] = "<digits>"
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(doc).replace('"<digits>"', "9" * 700), encoding="utf-8")
    messages = set()
    for limit in (0, 640, 4300):
        with digit_limit(limit), pytest.raises(ConfigError) as refused:
            load_bank(path)
        messages.add(str(refused.value))
    (message,) = messages
    assert "RetryWithBackoff.max_attempts must be int, not '999" in message
