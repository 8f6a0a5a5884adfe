"""The prebuilt JSON encoders give exactly the text `json.dumps` gives with
their call sites' options, on the C path and on the pure-Python fallback; the
one reader, `loads`, means the same under every digit limit."""

from __future__ import annotations

import json
import json.encoder
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import digit_limit
from faultharness import encoders
from faultharness.encoders import (
    dumps_action_input,
    dumps_ascii,
    dumps_canonical,
    dumps_indented,
    loads,
)
from faultharness.protocol import ToolCall, render_action
from faultharness.simulator import canonical_call_key, wrap_response
from faultharness.taxonomy import _error_text

# each encoding function with the options of the `json.dumps` calls it replaces
FORMS = (
    (dumps_canonical, {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}),
    (dumps_ascii, {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": True}),
    (dumps_action_input, {"sort_keys": True, "separators": (", ", ": "), "ensure_ascii": False}),
)


@contextmanager
def _without_c_accelerator():
    """The `json` module as an interpreter without its C accelerator has it: no C
    encoder and the pure-Python string escapers, which `JSONEncoder.iterencode`
    reads at call time. Yields the three forms built there; call them inside."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "c_make_encoder", None)
        mp.setattr(json.encoder, "encode_basestring", json.encoder.py_encode_basestring)
        mp.setattr(
            json.encoder, "encode_basestring_ascii", json.encoder.py_encode_basestring_ascii
        )
        mp.setattr(encoders, "c_make_encoder", None)
        yield tuple(encoders._compact_form(**options) for _, options in FORMS)


_texts = (
    st.text()
    | st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))  # lone surrogates
    | st.sampled_from(
        ["", " ", " ", "\x85", "\x00\x07\x1f\x7f", "café 漢字", "\U0001f600",
         '"quoted" \\ back/slash', "\ud800", "a\udc00b"]
    )
)
_numbers = (
    st.integers(-(2**64), 2**64)
    | st.integers(-(10**300), 10**300)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1e-05, 1e300, 1.5e300, 5e-324, 2**53 + 1])
)
_scalars = st.none() | st.booleans() | _numbers | _texts
_docs = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(_texts, inner, max_size=4)  # drawn in no particular key order
        | st.dictionaries(st.integers(-5, 5), inner, max_size=4)
    ),
    max_leaves=20,
)
_objects = st.dictionaries(_texts, _docs, max_size=5)


@settings(max_examples=200, deadline=None)
@given(doc=_docs)
def test_each_prebuilt_encoder_matches_json_dumps_with_its_options(doc):
    expected = [json.dumps(doc, **options) for _, options in FORMS]
    assert [encode(doc) for encode, _ in FORMS] == expected
    with _without_c_accelerator() as fallback_forms:
        assert [encode(doc) for encode in fallback_forms] == expected


@settings(max_examples=100, deadline=None)
@given(doc=_docs)
def test_indented_form_matches_json_dumps(doc):
    assert dumps_indented(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# 641 characters: past the lowest digit limit CPython allows (640), within the
# default one (4300); 5000: past the default too
@pytest.mark.parametrize("limit", [0, 640, 4300])
@pytest.mark.parametrize("length", [641, 5000])
def test_loads_reads_an_integer_longer_than_640_characters_as_its_digits(length, limit):
    text = "9" * length
    with digit_limit(limit):
        assert loads('{"n": [%s, -%s]}' % (text, text[1:])) == {"n": [text, "-" + text[1:]]}
        assert loads("9" * 640) == int("9" * 640)


def test_fallback_forms_run_the_pure_python_encoder():
    built = []
    make_iterencode = json.encoder._make_iterencode

    def spy(*args, **kwargs):
        built.append(args[0])  # the circular-reference markers
        return make_iterencode(*args, **kwargs)

    with _without_c_accelerator() as fallback_forms, pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "_make_iterencode", spy)
        for encode in fallback_forms:
            encode({"b": [1, "é"], "a": None})
    assert built == [None] * len(FORMS)


def _assert_refuses_what_json_dumps_refuses(encode):
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        encode({"a": [object()]})
    cycle: list = []
    cycle.append(cycle)
    with pytest.raises(RecursionError):  # no circular-reference check runs
        encode(cycle)


@pytest.mark.parametrize("index", range(len(FORMS)))
def test_each_encoder_refuses_what_json_dumps_refuses(index):
    _assert_refuses_what_json_dumps_refuses(FORMS[index][0])
    with _without_c_accelerator() as fallback_forms:
        _assert_refuses_what_json_dumps_refuses(fallback_forms[index])


@settings(max_examples=100, deadline=None)
@given(doc=_objects, name=_texts, payload=_texts)
def test_call_sites_match_json_dumps_with_their_options(doc, name, payload):
    canonical = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}
    assert canonical_call_key(name, doc) == f"{name}({json.dumps(doc, **canonical)})"
    assert wrap_response(payload) == json.dumps({"error": "", "response": payload}, **canonical)
    assert _error_text(doc) == (
        doc["message"] if isinstance(doc.get("message"), str) and doc["message"]
        else json.dumps(doc, **canonical)
    )
    assert render_action(ToolCall(name="t", arguments=doc)).endswith(
        "Action Input: " + json.dumps(doc, sort_keys=True, ensure_ascii=False)
    )
