"""The prebuilt JSON encoders give exactly the text `json.dumps` gives with
their call sites' options."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from faultharness.encoders import COMPACT_ASCII, dumps_canonical
from faultharness.protocol import _args_text
from faultharness.simulator import canonical_call_key, wrap_response
from faultharness.taxonomy import _error_text

# each encoding function with the options of the `json.dumps` calls it replaces
FORMS = (
    (dumps_canonical, {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}),
    (COMPACT_ASCII.encode, {"sort_keys": True, "separators": (",", ":")}),
    (_args_text, {"sort_keys": True, "separators": (", ", ": "), "ensure_ascii": False}),
)

_texts = st.text() | st.sampled_from(
    ["", " ", " ", "\x00\x07\x1f\x7f", "café 漢字", "\U0001f600",
     '"quoted" \\ back/slash', "\ud800"]
)
_numbers = (
    st.integers(-(2**64), 2**64)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1e-05, 1.5e300, 5e-324, 2**53 + 1])
)
_scalars = st.none() | st.booleans() | _numbers | _texts
_docs = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=20,
)
_objects = st.dictionaries(_texts, _docs, max_size=5)


@settings(max_examples=200, deadline=None)
@given(doc=_docs)
def test_each_prebuilt_encoder_matches_json_dumps_with_its_options(doc):
    for encode, options in FORMS:
        assert encode(doc) == json.dumps(doc, **options)


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
