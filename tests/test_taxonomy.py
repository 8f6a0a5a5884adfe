from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from faultharness.bank import _ACTION_TAGS, _TAG_BY_TYPE, retrieve
from faultharness.simulator import SimConfig, ToolSpec, render_failure
from faultharness.taxonomy import (
    CATALOG,
    PROTOCOL_ERROR_KIND,
    UNKNOWN_KIND,
    ErrorClass,
    ErrorSignature,
    Manifestation,
    canonical_key,
    classify_raw_failure,
    detect_failure,
    json_object,
    kind_class,
    kind_status,
    message_tokens,
)


def sig(kind="http_500", message="Unexpected server error", **kw):
    return ErrorSignature(kind=kind, message=message, **kw)


def test_exactly_seven_error_classes():
    assert len(ErrorClass) == 7
    with pytest.raises(ValueError):
        ErrorClass("NetworkGremlin")


def test_catalog_covers_required_kinds_and_all_classes():
    required = {
        "http_400", "http_401", "http_403", "http_404", "http_429", "http_500",
        "http_503", "timeout", "dns_error", "malformed_json", "schema_violation",
    }
    assert required <= set(CATALOG)
    assert {k.error_class for k in CATALOG.values()} == set(ErrorClass)


def test_http_status_only_on_http_kinds():
    for kind in CATALOG:
        assert kind.startswith("http_") == (kind_status(kind) is not None)


def test_classify_rate_limit_payload():
    raw = '{"error": "Rate limit exceeded", "status": 429}'
    result = classify_raw_failure(raw)
    assert result.kind == "http_429"
    assert result.error_class is ErrorClass.REENTRANT_FAILURE
    assert result.status_code == 429
    assert result.message == "Rate limit exceeded"


def test_classify_empty_string_is_silent_unknown():
    result = classify_raw_failure("")
    assert result.kind == "unknown"
    assert result.manifestation is Manifestation.SILENT_FAILURE


def test_classify_json_parse_exception_text():
    result = classify_raw_failure("SyntaxError: JSON.parse_error")
    assert result.kind == "malformed_json"
    assert result.error_class is ErrorClass.OUTPUT_HALLUCINATION


def test_classify_is_total_on_junk():
    result = classify_raw_failure("complete nonsense output")
    assert result.kind == "unknown"
    assert result.error_class is None  # the text says nothing of a class


def test_detect_failure_none_for_wrapped_success():
    assert detect_failure('{"error": "", "response": "{}"}') is None
    assert detect_failure('{"status": "on time", "gate": "D42"}') is None
    assert detect_failure('{"error": "", "status": 500}') is None


_TOOL = ToolSpec(
    name="lookup",
    description="",
    parameters={},
    scripted_responses={"lookup({})": '{"a":1,"b":2}'},
)


def test_roundtrip_every_catalog_kind_at_default_manifestation():
    for kind in CATALOG.values():
        rendered = render_failure(kind, kind.default_manifestation, _TOOL, seed=9)
        result = classify_raw_failure(rendered)
        assert result.kind == kind.identifier, (kind.identifier, rendered)
        assert result.error_class is kind.error_class


def test_retry_vs_terminate_partition():
    # transient kinds are the ones the simulator lets a retry clear
    for kind in CATALOG.values():
        if kind.persistence is not None:
            assert kind.error_class in (
                ErrorClass.REENTRANT_FAILURE,
                ErrorClass.OUTPUT_HALLUCINATION,
            ), kind.identifier
    # auth failures must never be retried
    for kind_id in ("http_401", "http_403", "http_407"):
        assert CATALOG[kind_id].error_class is ErrorClass.INVALID_TOOL_INVOCATION
        assert CATALOG[kind_id].persistence is None


def test_fault_table_agrees_with_the_shipped_bank(bank):
    # what clears a kind in the simulated world is what the bank tells an
    # agent to do about it
    budget = SimConfig().retry_budget_per_error
    for kind in CATALOG.values():
        rendered = render_failure(kind, kind.default_manifestation, _TOOL, seed=9)
        observed = detect_failure(rendered)
        tags = {_TAG_BY_TYPE[type(action)] for action in retrieve(bank, observed).script}
        name = kind.identifier
        if kind.fixes:
            assert tags & kind.fixes, (name, tags)
        elif kind.persistence is not None:
            assert "retry_with_backoff" in tags, (name, tags)
        else:
            assert "retry_with_backoff" not in tags, (name, tags)
        assert kind.fixes <= set(_ACTION_TAGS), name
        if kind.persistence is not None:
            assert kind.persistence[1] < budget, name
            assert not kind.fixes, name
        else:
            assert not kind.retry_after, name


@pytest.mark.parametrize(
    "raw, kind, message",
    [
        ('{"error": 5}', "unknown", "5"),
        ('{"error": {"code": 429, "message": "Too many"}}', "unknown", "Too many"),
        ("[" * 100_000 + "]" * 100_000, "malformed_json", "[" * 200),
    ],
    ids=["int-error-slot", "object-error-slot", "deep-nesting"],
)
def test_detect_failure_never_raises(raw, kind, message):
    found = detect_failure(raw)
    assert found is not None
    assert (found.kind, found.message) == (kind, message)


@pytest.mark.parametrize(
    "status, kind",
    [('"503"', "http_503"), ("503", "http_503"), ('"5o3"', "unknown"),
     ('"\\u0665\\u0660\\u0663"', "unknown"), ('"99"', "unknown"),
     ('"%s"' % ("9" * 5000), "unknown")],
    ids=["digit-string", "int", "not-digits", "non-ascii-digits", "out-of-range",
         "more-digits-than-int-converts"],
)
def test_error_body_status_may_be_a_digit_string(status, kind):
    raw = '{"error": "Service unavailable", "status": %s}' % status
    found = detect_failure(raw)
    assert found.kind == kind
    if kind == "http_503":
        assert (found.status_code, found.error_class) == (503, ErrorClass.REENTRANT_FAILURE)


# 700 digits: past the lowest digit limit CPython allows (640), within the
# default one (4300); 5000: past the default too
@pytest.mark.parametrize("digits", [700, 5000])
@pytest.mark.parametrize(
    "limit", [None, 0, 640, 4300], ids=["as-started", "no-limit", "lowest-limit", "default-limit"]
)
def test_an_integer_past_a_digit_limit_is_read_as_json(digits, limit):
    # json.loads raises a plain ValueError for an integer past the limit; the text
    # is still a JSON object, and no answer may depend on the limit
    if limit is not None:
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no digit limit")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
    number = "9" * digits
    try:
        assert detect_failure('{"value": %s}' % number) is None
        assert json_object('{"value": %s}' % number) == {"value": number}
        # the error slot's compact JSON would write the integer back out, which
        # raises the same ValueError: its digits are written as a string
        found = detect_failure('{"error": {"code": %s}}' % number)
        assert found == ErrorSignature(UNKNOWN_KIND, '{"code":"%s"}' % number)
        assert detect_failure('{"error": "x", "status": 5%s}' % number).kind == UNKNOWN_KIND
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(before)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)
# kinds the classifier itself names, beyond the catalog's
_CLASSIFIER_KINDS = {UNKNOWN_KIND, "malformed_json", PROTOCOL_ERROR_KIND, "tool_not_found"}


def _raw_tool_outputs():
    dumped = _JSON_VALUES.map(json.dumps)
    in_error_slot = st.builds(
        lambda slot, status: json.dumps({"error": slot, "status": status}),
        _JSON_VALUES,
        _JSON_VALUES,
    )
    return st.one_of(st.text(), dumped, in_error_slot)


@settings(max_examples=250, deadline=None)
@given(raw=_raw_tool_outputs())
def test_detect_failure_is_total(raw):
    found = detect_failure(raw)
    if found is None:
        return
    assert (
        found.kind in CATALOG
        or found.kind in _CLASSIFIER_KINDS
        or re.fullmatch(r"http_[0-9]{3}", found.kind)
    ), found.kind


def test_canonical_key_normalizes_case_and_whitespace():
    a = sig(message="Unexpected server error")
    b = sig(message="unexpected  SERVER error")
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_distinct_kinds_differ():
    a = sig(kind="http_500")
    b = sig(kind="http_503")
    assert canonical_key(a) != canonical_key(b)


def test_canonical_key_strips_digits():
    a = sig(message="request 12345 failed at shard 9")
    b = sig(message="request 777 failed at shard 2")
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_permutation_oracle():
    # brute-force oracle: every word permutation of one message yields one key
    words = ["gateway", "refused", "the", "upstream", "connection", "again"]
    rng = random.Random(17)
    keys = set()
    for _ in range(1000):
        rng.shuffle(words)
        keys.add(canonical_key(sig(message=" ".join(words))))
    assert len(keys) == 1


@given(st.text(max_size=80))
def test_message_tokens_never_contain_digits(message):
    for token in message_tokens(message):
        assert token
        assert not any(ch.isdigit() for ch in token)


def test_signature_validation_rules():
    with pytest.raises(ValueError, match="no class"):
        sig(kind="ssl_error")  # a kind the taxonomy does not know
    with pytest.raises(ValueError, match="out of range"):
        sig(kind="http_600")
    with pytest.raises(ValueError):
        sig(message="")  # ErrorPayload requires a message


@pytest.mark.parametrize(
    "kind, status, error_class",
    [
        ("http_404", 404, ErrorClass.TOOL_HALLUCINATION),  # a catalog row
        ("http_423", 423, ErrorClass.REENTRANT_FAILURE),  # a status outside the catalog
        ("http_599", 599, ErrorClass.REENTRANT_FAILURE),  # by range
        ("timeout", None, ErrorClass.REENTRANT_FAILURE),
        ("tool_not_found", None, ErrorClass.TOOL_HALLUCINATION),  # the classifier's own
        (PROTOCOL_ERROR_KIND, None, ErrorClass.INVALID_INTERMEDIATE_REASONING),
        (UNKNOWN_KIND, None, None),  # a classified text that names no class
        ("ssl_error", None, None),  # a bank-only kind
        ("http_abc", None, None),
        ("http_\u0664\u0660\u0664", None, None),  # non-ASCII digits spell no status
        ("http_", None, None),
    ],
)
def test_kind_status_and_class(kind, status, error_class):
    assert kind_status(kind) == status
    assert kind_class(kind) is error_class


def test_classify_unknown_http_status_maps_by_range():
    result = classify_raw_failure('{"error": "Bad gateway", "status": 502}')
    assert result.kind == "http_502"
    assert result.error_class is ErrorClass.REENTRANT_FAILURE
