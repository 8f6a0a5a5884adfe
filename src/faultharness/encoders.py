"""The program's one JSON reader and the JSON text forms several modules share:
the compact ones and the indented form of the files written for people, each
one function built once at import.

`loads` reads every JSON text the program parses: tool text, suite lines, bank
files, reports, trajectory lines and Action Input. It reads an integer longer
than `INT_TEXT_MAX` characters as its digit string, so what a text means does
not depend on the interpreter's digit limit, and it refuses every bad text,
nesting too deep to parse included, with a `ValueError`.

`escape_string` gives one text's JSON string, non-ASCII kept, exactly as
`dumps_canonical` writes a string, so a text escaped once can be joined into
many lines.

`json.dumps` with any option set builds a new `json.JSONEncoder` per call, and
even a prebuilt encoder's `encode` builds a new C encoder and a dict of
circular-reference markers on every call. Each form here is one C encoder from
`json.encoder.c_make_encoder`, made once with its options, so a call is one C
call and a join. The text is the same `json.dumps` gives with those options.

No circular-reference check runs: every input is an acyclic tree of dataclass
fields or parsed JSON, and a cycle would raise `RecursionError`, not
`ValueError`. Where the interpreter has no C accelerator (`c_make_encoder` is
`None`), a form falls back to `json.JSONEncoder(<same options>).encode`, with
the circular check off as well. Encoders hold no state between calls, so
threads may share them.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from json.encoder import (
    JSONEncoder,
    c_make_encoder,
    encode_basestring,
    encode_basestring_ascii,
)
from typing import Any

# CPython's limit on the digits `int` converts to or from text
# (`sys.set_int_max_str_digits`) is 0, no limit, or at least 640; an integer
# of at most this many characters converts under every limit.
INT_TEXT_MAX = 640


def _int_or_digits(text: str) -> int | str:
    """A JSON integer: an `int` if its text converts under every digit limit,
    else the text itself, which no limit stops from being written back out."""
    return int(text) if len(text) <= INT_TEXT_MAX else text


_DECODER = json.JSONDecoder(parse_int=_int_or_digits)


def loads(text: str) -> Any:
    """`text` parsed as JSON; raises `ValueError` for any text that is not,
    worded as `json.loads` words it, or for nesting too deep to parse."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deep to parse") from None


_raise_unserializable = JSONEncoder().default


def _compact_form(
    *, sort_keys: bool, separators: tuple[str, str], ensure_ascii: bool
) -> Callable[[Any], str]:
    """A function giving `json.dumps(obj, sort_keys=..., separators=...,
    ensure_ascii=...)`'s text."""
    if c_make_encoder is None:
        return JSONEncoder(
            sort_keys=sort_keys,
            separators=separators,
            ensure_ascii=ensure_ascii,
            check_circular=False,
        ).encode
    item_separator, key_separator = separators
    encode = c_make_encoder(
        None,  # circular-reference markers: none
        _raise_unserializable,
        encode_basestring_ascii if ensure_ascii else encode_basestring,
        None,  # indent
        key_separator,
        item_separator,
        sort_keys,
        False,  # skipkeys
        True,  # allow_nan, as json.dumps
    )

    def dumps(obj: Any) -> str:
        return "".join(encode(obj, 0))

    return dumps


# Sorted keys, no spaces, non-ASCII kept: every serialized artifact, call keys,
# success wrappers and error texts.
dumps_canonical = _compact_form(sort_keys=True, separators=(",", ":"), ensure_ascii=False)

# A text as a JSON string, non-ASCII kept: the string form of `dumps_canonical`.
escape_string: Callable[[str], str] = encode_basestring

# Sorted keys, no spaces, non-ASCII escaped: scripted payloads and the
# simulator's own error bodies.
dumps_ascii = _compact_form(sort_keys=True, separators=(",", ":"), ensure_ascii=True)

# Sorted keys, ", " and ": ", non-ASCII kept: the Action Input of an assistant turn.
dumps_action_input = _compact_form(sort_keys=True, separators=(", ", ": "), ensure_ascii=False)


_encode_indented = JSONEncoder(sort_keys=True, indent=2).encode


def dumps_indented(obj: Any) -> str:
    """Sorted keys, two-space indent, non-ASCII escaped, then a newline: the
    manifests, `spans.json` and `report.json`."""
    return _encode_indented(obj) + "\n"
