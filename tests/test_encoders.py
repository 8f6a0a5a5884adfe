"""The prebuilt JSON encoders give exactly the text `json.dumps` gives with
their call sites' options, on the C path and on the pure-Python fallback; the
one reader, `loads`, means the same under every digit limit."""

from __future__ import annotations

import json
import json.encoder
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import digit_limit, run_simple
from faultharness import encoders
from faultharness.encoders import (
    dumps_action_input,
    dumps_ascii,
    dumps_canonical,
    dumps_indented,
    escape_string,
    loads,
)
from faultharness.episode import (
    Abandoned,
    Finished,
    InjectionPlan,
    Trajectory,
    Turn,
    _ROLES,
    trajectory_to_line,
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


# turn texts: the JSON escapes (quotes, backslashes, control characters), the
# separators JSON leaves raw (U+2028, U+0085), astral characters and lone surrogates
_turn_texts = _texts | st.sampled_from(
    ['say "hi"', "C:\\dir\\", "\x00\x1f\x7f", "line\u2028sep\u2029", "\x85",
     "\U0001f600 \U00010348", "\udfff", "\n\r\t\b\f"]
)
_terminals = st.sampled_from([None, Finished("done \u2028"), Abandoned('said "no"')])


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(_turn_texts, min_size=1, max_size=6),
    data=st.data(),
)
def test_line_builder_gives_the_bytes_of_the_canonical_form(pool, data):
    # one dict across the trajectories, as a run passes it, so that a text met
    # again is taken from the dict rather than escaped
    texts: dict[str, str] = {}
    turn = st.builds(Turn, st.sampled_from(_ROLES), st.sampled_from(pool), st.integers(0, 10**6))
    for index in range(data.draw(st.integers(1, 4))):
        traj = Trajectory(
            episode_id=data.draw(_turn_texts),
            plan=InjectionPlan(seed=index),
            turns=data.draw(st.lists(turn, max_size=8)),
            terminal=data.draw(_terminals),
        )
        expected = dumps_canonical(traj.to_json())
        assert trajectory_to_line(traj, texts) == expected
        assert trajectory_to_line(traj) == expected
    assert texts == {text: escape_string(text) for text in texts}


def test_threads_sharing_one_texts_dict_build_the_canonical_lines(bank):
    # `evaluate --jobs` builds lines on worker threads that share the run's dict;
    # more threads than cores and a short switch interval make them interleave
    trajectories = [
        run_simple(agent, kind, plan_seed=seed, bank=bank)[0]
        for agent in ("reflect", "paladin")
        for kind in (None, "timeout", "http_400", "malformed_json")
        for seed in range(3)
    ]
    expected = [dumps_canonical(traj.to_json()) for traj in trajectories]
    texts: dict[str, str] = {}
    results: dict[int, list[str]] = {}

    def build(worker: int) -> None:
        results[worker] = [trajectory_to_line(traj, texts) for traj in trajectories * 5]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {n: expected * 5 for n in range(8)}
    assert texts == {text: escape_string(text) for text in texts}
