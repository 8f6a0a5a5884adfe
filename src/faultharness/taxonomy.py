"""Closed error-class taxonomy, runtime-failure catalog, and error signatures.

The taxonomy is fixed at seven classes. The catalog maps concrete failure
kinds (HTTP statuses, timeouts, malformed bodies, ...) onto those classes and
ships as a versioned JSON file so suites and corpora can pin its version.

This module is the one place that maps a kind to its HTTP status and to its
class: `kind_status` is the only parser of the `http_<N>` spelling, and
`kind_class` answers for catalog rows, for every `http_` status and for the
kinds only the classifier names. Neither fact is stored anywhere else: an
`ErrorSignature` and a bank pattern hold a kind and read its class and status
through these two functions.

`detect_failure`, which classifies a response, and `json_object`, through
which the simulator, the trace and the grader read payloads, read tool text
with the program's one JSON reader, `encoders.loads`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property
from pathlib import Path

from .encoders import INT_TEXT_MAX, dumps_canonical, loads


@unique
class ErrorClass(Enum):
    """The seven canonical error classes for tool-using agents."""

    TOOL_HALLUCINATION = "ToolHallucination"
    ARGUMENT_HALLUCINATION = "ArgumentHallucination"
    INVALID_TOOL_INVOCATION = "InvalidToolInvocation"
    PARTIAL_EXECUTION = "PartialExecution"
    OUTPUT_HALLUCINATION = "OutputHallucination"
    INVALID_INTERMEDIATE_REASONING = "InvalidIntermediateReasoning"
    REENTRANT_FAILURE = "ReentrantFailure"


@unique
class Manifestation(Enum):
    """How a failure is rendered into the function-turn text."""

    ERROR_PAYLOAD = "ErrorPayload"        # structured error body
    MALFORMED_OUTPUT = "MalformedOutput"  # syntactically broken body
    SILENT_FAILURE = "SilentFailure"      # empty/absent response
    PARTIAL_OUTPUT = "PartialOutput"      # truncated but valid body


def _ascii_number(text: str) -> int | None:
    """The number `text` spells in at most `INT_TEXT_MAX` ASCII digits, else None."""
    if len(text) > INT_TEXT_MAX or not (text.isascii() and text.isdigit()):
        return None
    return int(text)


def kind_status(kind: str) -> int | None:
    """N for an `http_N` kind (N in ASCII digits); None for any other kind."""
    return _ascii_number(kind[5:]) if kind.startswith("http_") else None


@dataclass(frozen=True)
class FailureKind:
    """One catalog entry: a concrete runtime failure, its class, and how the
    simulated world treats it once injected.

    A transient kind has `persistence`, the (min, max) number of failed
    identical retries before it clears; `retry_after` marks the transient
    kinds whose failures carry a Retry-After. A structural kind has `fixes`,
    the recovery-action tags whose reissue clears it. A kind with neither
    never clears on the same call.
    """

    identifier: str
    error_class: ErrorClass
    default_manifestation: Manifestation
    example_output: str
    persistence: tuple[int, int] | None = None
    retry_after: bool = False
    fixes: frozenset[str] = frozenset()


UNKNOWN_KIND = "unknown"
PROTOCOL_ERROR_KIND = "protocol_error"


def _parse_catalog(doc: dict) -> tuple[str, dict[str, FailureKind]]:
    kinds: dict[str, FailureKind] = {}
    for entry in doc["failures"]:
        kind = FailureKind(
            identifier=entry["identifier"],
            error_class=ErrorClass(entry["error_class"]),
            default_manifestation=Manifestation(entry["default_manifestation"]),
            example_output=entry["example_output"],
            persistence=tuple(entry["persistence"]) if "persistence" in entry else None,
            retry_after=entry.get("retry_after", False),
            fixes=frozenset(entry.get("fixes", ())),
        )
        if kind.identifier in kinds:
            raise ValueError(f"duplicate catalog identifier {kind.identifier!r}")
        kinds[kind.identifier] = kind
    return str(doc.get("version", "0")), kinds


DATA_DIR = Path(__file__).parent / "data"


def _load_shipped_catalog() -> tuple[str, dict[str, FailureKind]]:
    return _parse_catalog(loads((DATA_DIR / "catalog.json").read_text("utf-8")))


CATALOG_VERSION, CATALOG = _load_shipped_catalog()

@dataclass(frozen=True)
class ErrorSignature:
    """Canonical description of one failing tool response, made from its text.

    A signature holds what the text says: the failure's kind, its message and
    how it was rendered. Its class and HTTP status are the kind's own
    (`kind_class`, `kind_status`), read once per signature, so they cannot
    disagree with the kind. Only kind `unknown` has no class: the text says
    nothing of one. It does not say where it was seen; the same text
    always yields an equal signature, whichever tool served it on whichever
    turn. Positions live in `trace.TraceView.responses`.
    """

    kind: str
    message: str
    manifestation: Manifestation = Manifestation.ERROR_PAYLOAD

    def __post_init__(self):
        if self.error_class is None and self.kind != UNKNOWN_KIND:
            raise ValueError(f"kind {self.kind!r} has no class in the taxonomy")
        if self.status_code is not None and not 100 <= self.status_code <= 599:
            raise ValueError("status_code out of range")
        if self.manifestation is Manifestation.ERROR_PAYLOAD and not self.message:
            raise ValueError("ErrorPayload signatures carry a non-empty message")

    @cached_property
    def error_class(self) -> ErrorClass | None:
        return kind_class(self.kind)

    @cached_property
    def status_code(self) -> int | None:
        return kind_status(self.kind)

    @property
    def detail(self) -> str:
        """What a report quotes of the failure: its message, or else its kind."""
        return self.message or self.kind


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
_DIGITS = re.compile(r"[0-9]+")


def message_tokens(message: str) -> frozenset[str]:
    """Normalized token set of a failure message.

    Lowercased, split on non-alphanumerics, digits stripped (messages embed
    volatile ids and counters that must not affect dedup or similarity).
    """
    tokens = set()
    for raw in _TOKEN_SPLIT.split(message.lower()):
        token = _DIGITS.sub("", raw)
        if token:
            tokens.add(token)
    return frozenset(tokens)


def canonical_key(sig: ErrorSignature) -> str:
    """Stable dedup key: lowercased kind + status + sorted message tokens."""
    status = "" if sig.status_code is None else str(sig.status_code)
    return f"{sig.kind.lower()}|{status}|{' '.join(sorted(message_tokens(sig.message)))}"


# Statuses outside the catalog follow the same retry-vs-terminate semantics;
# the catalog's own rows state their classes, and the range fallback covers
# the rest.
_STATUS_CLASS: dict[int, ErrorClass] = {
    402: ErrorClass.INVALID_TOOL_INVOCATION,
    405: ErrorClass.INVALID_TOOL_INVOCATION,
    406: ErrorClass.INVALID_TOOL_INVOCATION,
    408: ErrorClass.REENTRANT_FAILURE,
    409: ErrorClass.INVALID_INTERMEDIATE_REASONING,
    410: ErrorClass.TOOL_HALLUCINATION,
    412: ErrorClass.INVALID_INTERMEDIATE_REASONING,
    413: ErrorClass.ARGUMENT_HALLUCINATION,
    414: ErrorClass.ARGUMENT_HALLUCINATION,
    415: ErrorClass.ARGUMENT_HALLUCINATION,
    423: ErrorClass.REENTRANT_FAILURE,
    424: ErrorClass.REENTRANT_FAILURE,
    425: ErrorClass.REENTRANT_FAILURE,
    428: ErrorClass.INVALID_INTERMEDIATE_REASONING,
    431: ErrorClass.ARGUMENT_HALLUCINATION,
    451: ErrorClass.INVALID_TOOL_INVOCATION,
    501: ErrorClass.INVALID_TOOL_INVOCATION,
    505: ErrorClass.INVALID_TOOL_INVOCATION,
    **{kind_status(k): c.error_class for k, c in CATALOG.items() if kind_status(k) is not None},
}


def status_error_class(status: int) -> ErrorClass:
    if status in _STATUS_CLASS:
        return _STATUS_CLASS[status]
    if 500 <= status <= 599:
        return ErrorClass.REENTRANT_FAILURE
    return ErrorClass.INVALID_TOOL_INVOCATION


# the kinds that only the classifier names; every other kind it names is a
# catalog row or an http_ status, except `unknown`, which says nothing of a class
_CLASSIFIER_KIND_CLASS: dict[str, ErrorClass] = {
    PROTOCOL_ERROR_KIND: ErrorClass.INVALID_INTERMEDIATE_REASONING,
    "tool_not_found": ErrorClass.TOOL_HALLUCINATION,
}


def kind_class(kind: str) -> ErrorClass | None:
    """The class of `kind`: its catalog row's, else its status's for an `http_`
    kind, else the classifier's own; None for `unknown`, whose text names no
    class, and for a kind the taxonomy does not know."""
    row = CATALOG.get(kind)
    if row is not None:
        return row.error_class
    status = kind_status(kind)
    if status is not None:
        return status_error_class(status)
    return _CLASSIFIER_KIND_CLASS.get(kind)


def json_object(text: str) -> dict | None:
    """`text` parsed by `loads`, when it is a JSON object; None for anything else."""
    try:
        value = loads(text)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _looks_like_success(body: dict) -> bool:
    # the error slot is the failure marker; bodies without one (or with an
    # empty one) are ordinary payloads even if they carry a "status" field
    return not body.get("error")


def detect_failure(raw: str) -> ErrorSignature | None:
    """Classify `raw` if it is a failure; None for a normal tool response.

    A normal response is a JSON object whose "error" slot is empty or absent,
    whatever else it holds: a "status" field does not make it a failure, not
    even `{"error": "", "status": 500}`. JSON that is not an object is normal
    too. Empty text is a silent failure, and any other text that is not JSON
    is a failure. The text is read by `loads`. Never raises.
    """
    stripped = raw.strip()
    if not stripped:
        return ErrorSignature(UNKNOWN_KIND, "", Manifestation.SILENT_FAILURE)
    try:
        body = loads(stripped)
    except ValueError:
        return _classify_unparseable(stripped)
    if isinstance(body, dict):
        if _looks_like_success(body):
            return None
        return _classify_error_body(body, stripped)
    # bare scalars/arrays are not something the renderer emits
    return None


def classify_raw_failure(raw: str) -> ErrorSignature:
    """Total classifier: failures map to a signature, anything else to "unknown".

    Round-trip property: text produced by the simulator's own renderer (at the
    kind's default manifestation) classifies back to the injected kind.
    """
    sig = detect_failure(raw)
    if sig is not None:
        return sig
    return ErrorSignature(UNKNOWN_KIND, raw.strip()[:200] or "unclassified output")


def _classify_unparseable(text: str) -> ErrorSignature:
    lowered = text.lower()
    kind = None
    if "timeout" in lowered:
        kind = "timeout"
    elif "getaddrinfo" in lowered or "connectionerror" in lowered:
        kind = "dns_error"
    elif "syntaxerror" in lowered and ("json" in lowered or "parse" in lowered):
        kind = "malformed_json"
    elif "validationerror" in lowered or "is not of type" in lowered:
        kind = "schema_violation"
    if kind is not None:
        return ErrorSignature(kind, text[:200])
    if text[0] in "{[":
        # unparseable JSON-looking text: a truncated/corrupted body
        return ErrorSignature("malformed_json", text[:200], Manifestation.MALFORMED_OUTPUT)
    return ErrorSignature(UNKNOWN_KIND, text[:200])


def _error_text(slot) -> str:
    """The message of a non-empty error slot: the slot itself when it is a
    string, else its "message" string, else its compact JSON."""
    if isinstance(slot, str):
        return slot
    if isinstance(slot, dict) and isinstance(slot.get("message"), str) and slot["message"]:
        return slot["message"]
    return dumps_canonical(slot)


def _classify_error_body(body: dict, raw: str) -> ErrorSignature:
    error_text = _error_text(body["error"])
    status = body.get("status")
    if isinstance(status, str):
        status = _ascii_number(status)
    if isinstance(status, int) and 100 <= status <= 599:
        return ErrorSignature(f"http_{status}", error_text or f"HTTP {status}")
    lowered = error_text.lower()
    manifestation = Manifestation.ERROR_PAYLOAD
    if "partial" in lowered or "truncat" in lowered or "interrupted" in lowered:
        kind = "partial_output"
        if "response" in body:
            manifestation = Manifestation.PARTIAL_OUTPUT
    elif "state conflict" in lowered:
        kind = "inconsistent_state"
    elif "invalid action format" in lowered:
        kind = PROTOCOL_ERROR_KIND
    elif "not found" in lowered or "does not exist" in lowered:
        kind = "tool_not_found"
    else:
        kind = UNKNOWN_KIND
    return ErrorSignature(kind, error_text or raw[:200], manifestation)
