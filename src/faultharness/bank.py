"""Recovery exemplar bank: action scripts, signature similarity, retrieval.

A bank is a JSON object with a `version` and an `exemplars` list. Each entry is
`{"id", "kinds", "pattern": {"error_class", "messages"}, "script", "rationale"}`:
a branch of failure kinds that share one script (e.g. all auth statuses
terminate), and the message each kind fails with. `load_bank` expands each
entry into one exemplar per kind, so pattern matching stays first-class; an
exemplar's id is the entry's, or `<entry id>__<kind>` when the entry lists
several kinds. An entry with no `kinds` is one class-only exemplar. The
shipped bank, a `--bank` file and the pruned bank `gen-suite --hold-out` writes
(`held_out`) are all in this one form, read by the one loader.

A kind's class and status are the taxonomy's (`taxonomy.kind_class` and
`taxonomy.kind_status`); a pattern stores neither and reads its kind's status
from there. An entry that binds an error class must bind the class the
taxonomy gives each of its kinds, where the taxonomy gives one.

A pattern key other than `error_class` and `messages` is refused, not ignored:
a pattern `kind`, `message_tokens` or `status_code`, spellings of an expanded
per-kind form nothing writes, would otherwise load as a class-only wildcard.
Entry keys the loader does not read, such as a `dialogue_template`, are
ignored; a recovery is stated once, by its script.

A script step is `{"action": <tag>, ...}` plus the action's optional fields:
`retry_with_backoff` takes `max_attempts` (int in [1, 4]), `base_delay_ms` and
`cap_ms` (ints >= 0) and `respect_retry_after` (bool); `terminate_gracefully`
takes `report` (str whose only slots are `{tool}` and `{error}`; empty means
the default); `wait_until_healthy` takes `poll_interval_ms` (int > 0); the
other five take none. Any other key of a step is an error, among them the
`hint`, `strategy`, `check` and `max_wait_ms` that nothing reads.

A bank is refused with a `ConfigError`. Each rule an entry can break (an
unknown class, action or pattern key, an empty script, a pattern that binds
neither a class nor a kind, a mistyped field, an exemplar id an earlier entry
already gave) raises `ValueError` or `TypeError` while the entry is expanded,
and `parse_bank` words it as `bank entry N (id): reason`. Only a file that is
not a JSON object with an `exemplars` list, or a bank that leaves a class
uncovered, is refused as a whole.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .encoders import dumps_canonical, loads
from .errors import ConfigError
from .taxonomy import (
    DATA_DIR,
    ErrorClass,
    ErrorSignature,
    kind_class,
    kind_status,
    message_tokens,
)

# --- recovery actions --------------------------------------------------------


def _require(action, kind: type, *names: str) -> None:
    """TypeError unless each named field of `action` is a `kind`; a bool is no int."""
    for name in names:
        value = getattr(action, name)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise TypeError(
                f"{type(action).__name__}.{name} must be {kind.__name__}, not {value!r}"
            )


class _Action:
    """Base of the eight recovery actions."""

    @cached_property
    def text(self) -> str:
        """The compact JSON of `action_to_json(self)`, as a `Recovery:` line
        states this action; worked out at its first rendering and kept. A bank
        loads each script step as one object that its exemplars share, and the
        policies' own actions are module constants, so each is dumped once."""
        return dumps_canonical(action_to_json(self))


@dataclass(frozen=True)
class RetryWithBackoff(_Action):
    max_attempts: int = 3
    base_delay_ms: int = 500
    cap_ms: int = 8000
    respect_retry_after: bool = False

    def __post_init__(self):
        _require(self, int, "max_attempts", "base_delay_ms", "cap_ms")
        _require(self, bool, "respect_retry_after")
        if not 1 <= self.max_attempts <= 4:
            raise ValueError("max_attempts must be within [1, 4]")
        if self.base_delay_ms < 0 or self.cap_ms < 0:
            raise ValueError("delays must be non-negative")

    def max_delay_ms(self, attempt_number: int) -> int:
        """Bound of the full-jitter wait before retry `attempt_number` (1-based),
        which is uniform over [0, min(cap, base * 2^(attempt-1))]."""
        return min(self.cap_ms, self.base_delay_ms * 2 ** (attempt_number - 1))


@dataclass(frozen=True)
class ReformatArguments(_Action):
    pass


@dataclass(frozen=True)
class SwitchTool(_Action):
    pass


@dataclass(frozen=True)
class RefreshCredentials(_Action):
    pass


@dataclass(frozen=True)
class ValidateAndReissue(_Action):
    pass


@dataclass(frozen=True)
class LenientParse(_Action):
    pass


_DEFAULT_REPORT = "Could not complete the step using {tool}: {error}"


@dataclass(frozen=True)
class TerminateGracefully(_Action):
    report: str = _DEFAULT_REPORT

    def __post_init__(self):
        _require(self, str, "report")
        try:  # `report_for` fills both slots with strs; a bad slot fails here, not mid-run
            self.report.format(tool="tool", error="error")
        except (LookupError, AttributeError, ValueError, TypeError) as exc:
            raise ValueError(
                f"TerminateGracefully.report {self.report!r} does not format with "
                f"only {{tool}} and {{error}}: {exc!r}"
            ) from None

    def report_for(self, tool: str, error: ErrorSignature) -> str:
        """The report for `tool` failing with `error`; an empty report is the default one."""
        return (self.report or _DEFAULT_REPORT).format(tool=tool, error=error.detail)


@dataclass(frozen=True)
class WaitUntilHealthy(_Action):
    poll_interval_ms: int = 500

    def __post_init__(self):
        _require(self, int, "poll_interval_ms")
        if self.poll_interval_ms <= 0:
            raise ValueError("poll_interval_ms must be positive")


RecoveryAction = (
    RetryWithBackoff
    | ReformatArguments
    | SwitchTool
    | RefreshCredentials
    | ValidateAndReissue
    | LenientParse
    | TerminateGracefully
    | WaitUntilHealthy
)

_ACTION_TAGS: dict[str, type] = {
    "retry_with_backoff": RetryWithBackoff,
    "reformat_arguments": ReformatArguments,
    "switch_tool": SwitchTool,
    "refresh_credentials": RefreshCredentials,
    "validate_and_reissue": ValidateAndReissue,
    "lenient_parse": LenientParse,
    "terminate_gracefully": TerminateGracefully,
    "wait_until_healthy": WaitUntilHealthy,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _ACTION_TAGS.items()}


def action_to_json(action: RecoveryAction) -> dict:
    doc = {"action": _TAG_BY_TYPE[type(action)]}
    for name in getattr(action, "__dataclass_fields__", {}):
        doc[name] = getattr(action, name)
    return doc


def action_from_json(doc: dict) -> RecoveryAction:
    """The action `doc` states; a key that is not one of its fields is an error."""
    tag = doc.get("action")
    if tag not in _ACTION_TAGS:
        raise ValueError(f"unknown recovery action {tag!r}")
    return _ACTION_TAGS[tag](**{k: v for k, v in doc.items() if k != "action"})


# --- patterns and exemplars ---------------------------------------------------


@dataclass(frozen=True)
class SignaturePattern:
    """Error-signature template; unbound fields are wildcards. A bound kind
    binds its status too. A pattern binds a class or a kind, or both."""

    error_class: ErrorClass | None = None
    kind: str | None = None
    message_tokens: frozenset[str] | None = None

    def __post_init__(self):
        if self.error_class is None and self.kind is None:
            raise ValueError("pattern binds neither error_class nor kind")

    @cached_property
    def status_code(self) -> int | None:
        return None if self.kind is None else kind_status(self.kind)

    def implied_class(self) -> ErrorClass | None:
        """Bound class, or the class the taxonomy gives the bound kind."""
        if self.error_class is not None:
            return self.error_class
        return None if self.kind is None else kind_class(self.kind)


@dataclass(frozen=True)
class RecoveryExemplar:
    id: str
    pattern: SignaturePattern
    script: tuple[RecoveryAction, ...]
    rationale: str = ""


@dataclass(frozen=True)
class ExemplarBank:
    exemplars: tuple[RecoveryExemplar, ...]
    version: str = "0"
    # the bank document this bank was parsed from; outside equality and repr,
    # like the memos below. `without_kinds` prunes it, and a pruned bank's
    # document is the file `gen-suite --hold-out` writes.
    document: dict | None = field(default=None, compare=False, repr=False)
    # the n nearest exemplars per (observed kind, message, n), filled by
    # `retrieve_top_k`; outside equality and repr, so it never changes what a
    # bank is. A signature's kind and message are all that retrieval reads.
    ranked_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # per observed kind, the exemplars grouped by their class, kind and status
    # mismatch weight, in ascending order; filled by `retrieve_top_k` the same way.
    tiers_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.exemplars)

    def covered_classes(self) -> set[ErrorClass]:
        return {c for ex in self.exemplars if (c := ex.pattern.implied_class())}

    def without_kinds(self, kinds: set[str]) -> "ExemplarBank":
        """The bank of this bank's document with every kind in `kinds` held out.

        Its exemplars are this bank's, less those of a held-out kind: the
        exemplars `held_out(self.document, kinds)` expands to, ids included,
        so the pruned document is not parsed again. Raises ConfigError if the
        removal empties an error class.
        """
        document = held_out(self.document, kinds)
        bank = ExemplarBank(
            exemplars=tuple(ex for ex in self.exemplars if ex.pattern.kind not in kinds),
            version=document["version"],
            document=document,
        )
        _check_coverage(bank, f"holding out {', '.join(sorted(kinds))} empties")
        return bank


DEFAULT_WEIGHTS = (4, 2, 1, 1)


def similarity_distance(observed: ErrorSignature, pattern: SignaturePattern) -> Fraction:
    """Weighted mismatch distance between an observed signature and a pattern.

    With (w1, w2, w3, w4) = `DEFAULT_WEIGHTS`,
    d = w1*[class mismatch] + w2*[kind mismatch] + w3*[status mismatch]
      + w4*(1 - Jaccard(message tokens)); wildcard pattern fields contribute 0,
    and so does the class when the observed kind has none (`unknown`).
    """
    return Fraction(*_distance_pair(
        _mismatch(observed, pattern), message_tokens(observed.message), pattern.message_tokens
    ))


def _mismatch(observed: ErrorSignature, pattern: SignaturePattern) -> int:
    """The class, kind and status part of the distance: w1 + w2 + w3 at most."""
    w1, w2, w3, _ = DEFAULT_WEIGHTS
    a = 0
    if (
        pattern.error_class is not None
        and observed.error_class is not None
        and pattern.error_class != observed.error_class
    ):
        a += w1
    if pattern.kind is not None and pattern.kind != observed.kind:
        a += w2
    if pattern.status_code is not None and pattern.status_code != observed.status_code:
        a += w3
    return a


def _distance_pair(
    a: int, observed_tokens: frozenset[str], tokens: frozenset[str] | None
) -> tuple[int, int]:
    """The distance for mismatch weight `a` and a pattern's `tokens`, as an exact
    (numerator, positive denominator) pair.

    With union size u and intersection size i of the token sets,
    d = (a*u + w4*(u - i)) / u, which lies in [a, a + w4]; it is (a, 1) when
    the pattern has no tokens or the union is empty (Jaccard 1).
    """
    if tokens is None:
        return a, 1
    inter = len(observed_tokens & tokens)
    union = len(observed_tokens) + len(tokens) - inter
    if not union:
        return a, 1
    return a * union + DEFAULT_WEIGHTS[3] * (union - inter), union


def _tiers(bank: ExemplarBank, observed: ErrorSignature) -> list:
    """[(a, exemplars)] in ascending mismatch weight a, for the observed kind.

    A signature's class and status are its kind's, so a is fixed per kind.
    """
    tiers = bank.tiers_memo.get(observed.kind)
    if tiers is None:
        grouped: dict[int, list[RecoveryExemplar]] = {}
        for ex in bank.exemplars:
            grouped.setdefault(_mismatch(observed, ex.pattern), []).append(ex)
        tiers = bank.tiers_memo[observed.kind] = sorted(grouped.items())
    return tiers


def retrieve_top_k(
    bank: ExemplarBank, observed: ErrorSignature, k: int = 1
) -> list[RecoveryExemplar]:
    """The k nearest exemplars, distance-then-id ordered (deterministic).

    Exemplars are scored one mismatch tier at a time, in ascending order, until
    the k-th best distance is below the next tier's mismatch weight: no
    exemplar of a later tier can then rank among the k. The scored ones rank
    by one exact key, each distance's numerator scaled to the least common
    multiple of the denominators, then the id. The tiers per observed kind and
    each ranking are memoized on the bank; k below 1 ranks one exemplar.
    """
    if not bank.exemplars:
        raise ConfigError("cannot retrieve from an empty bank")
    n = max(k, 1)
    key = (observed.kind, observed.message, n)
    ranked = bank.ranked_memo.get(key)
    if ranked is not None:
        return list(ranked)
    tokens = message_tokens(observed.message)
    tiers = _tiers(bank, observed)
    scored: list[tuple[int, int, RecoveryExemplar]] = []
    for index, (a, exemplars) in enumerate(tiers):
        scored += (
            (*_distance_pair(a, tokens, ex.pattern.message_tokens), ex) for ex in exemplars
        )
        if index + 1 < len(tiers):
            below = tiers[index + 1][0]
            if sum(num < below * den for num, den, _ in scored) >= n:
                break
    scale = math.lcm(*(den for _, den, _ in scored))
    ranked = bank.ranked_memo[key] = [
        ex for _, _, ex in heapq.nsmallest(
            n, scored, key=lambda s: (s[0] * (scale // s[1]), s[2].id)
        )
    ]
    return list(ranked)


def retrieve(bank: ExemplarBank, observed: ErrorSignature) -> RecoveryExemplar:
    """The nearest exemplar; ties broken by lexicographically smallest id."""
    return retrieve_top_k(bank, observed)[0]


# --- dictionary loading -------------------------------------------------------


def _entry_id(entry: dict) -> str:
    return str(entry.get("id", "<missing id>"))


def _expand_entry(entry: dict) -> list[RecoveryExemplar]:
    pattern_doc = dict(entry.get("pattern", {}))
    for key in pattern_doc:
        if key not in ("error_class", "messages"):
            raise ValueError(
                f"pattern key {key!r} is not read: a pattern holds only 'error_class' "
                "and 'messages', and an entry lists its kinds in 'kinds'"
            )
    class_label = pattern_doc.get("error_class")
    error_class = None if class_label is None else ErrorClass(class_label)

    script_docs = entry.get("script", [])
    if not script_docs:
        raise ValueError("exemplar script is empty")
    script = tuple(action_from_json(d) for d in script_docs)
    # every other action re-executes a call and can complete the step
    if isinstance(script[-1], (ReformatArguments, RefreshCredentials)):
        raise ValueError("script must end with TerminateGracefully or a success-terminal action")

    rationale = entry.get("rationale", "")

    kinds: list[str | None] = [None]  # no kinds: one class-only exemplar
    if "kinds" in entry:
        if not isinstance(entry["kinds"], list):  # a string would expand per character
            raise TypeError("'kinds' must be a list")
        kinds = list(entry["kinds"])
        for kind in kinds:
            if type(kind) is not str:  # not left to whichever later check it breaks
                raise TypeError(f"kind {kind!r} is not a string")

    messages = pattern_doc.get("messages", {})
    if not isinstance(messages, dict):
        raise TypeError("'messages' must be an object")
    entry_id, exemplars = _entry_id(entry), []
    for kind in kinds:
        tokens = message_tokens(messages[kind]) if kind in messages else None
        if error_class is not None and kind is not None:
            known = kind_class(kind)
            if known is not None and known is not error_class:
                raise ValueError(
                    f"kind {kind!r} is {known.value} in the taxonomy, not {error_class.value}"
                )
        pattern = SignaturePattern(error_class=error_class, kind=kind, message_tokens=tokens)
        ex_id = entry_id if len(kinds) == 1 else f"{entry_id}__{kind}"
        exemplars.append(
            RecoveryExemplar(id=ex_id, pattern=pattern, script=script, rationale=rationale)
        )
    return exemplars


def parse_bank(doc: dict) -> ExemplarBank:
    """The bank `doc` states, every entry checked; a malformed entry is named by
    its index and id, and a bank that leaves an error class uncovered is refused."""
    if not isinstance(doc, dict) or not isinstance(doc.get("exemplars", []), list):
        raise ConfigError("bank must be a JSON object whose 'exemplars' is a list")
    exemplars: list[RecoveryExemplar] = []
    seen: set[str] = set()
    for index, entry in enumerate(doc.get("exemplars", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"bank entry {index} is not a JSON object: {entry!r}")
        try:
            expanded = _expand_entry(entry)
            for ex in expanded:
                if ex.id in seen:
                    raise ValueError(f"duplicate exemplar id {ex.id!r}")
                seen.add(ex.id)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bank entry {index} ({_entry_id(entry)}): {exc}") from exc
        exemplars += expanded
    bank = ExemplarBank(
        exemplars=tuple(exemplars), version=str(doc.get("version", "0")), document=doc
    )
    _check_coverage(bank, "bank does not cover")
    return bank


def _check_coverage(bank: ExemplarBank, uncovered: str) -> None:
    """Refuse a bank that leaves an error class uncovered, as `<uncovered> class(es): ...`."""
    if missing := set(ErrorClass) - bank.covered_classes():
        raise ConfigError(f"{uncovered} class(es): " + ", ".join(sorted(c.value for c in missing)))


def held_out(doc: dict, kinds: set[str]) -> dict:
    """The bank document `doc`, in its own form, with every kind in `kinds` held out.

    An entry left with none of its kinds is dropped; one left with some keeps
    their messages, and one left with one of several takes that exemplar's id
    (`arg_format__http_400`). So the result expands to exactly the exemplars of
    `doc` whose kind is not held out, ids included. Its version is `doc`'s with
    `-heldout` appended.
    """
    entries = []
    for entry in doc["exemplars"]:
        listed = entry.get("kinds", [])
        kept = [kind for kind in listed if kind not in kinds]
        if len(kept) == len(listed):
            entries.append(entry)
            continue
        if not kept:
            continue
        pattern = entry.get("pattern", {})
        messages = {k: v for k, v in pattern.get("messages", {}).items() if k in kept}
        pruned = {**entry, "kinds": kept, "pattern": {**pattern, "messages": messages}}
        if len(kept) == 1:
            pruned["id"] = f"{_entry_id(entry)}__{kept[0]}"
        entries.append(pruned)
    return {"version": f"{doc.get('version', '0')}-heldout", "exemplars": entries}


def load_bank(path, data: bytes | None = None) -> ExemplarBank:
    """Load and validate a dictionary file, expanding branch groups.

    `data`, when given, is the file's bytes, already read.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        doc = loads(data.decode("utf-8"))
    except ValueError as exc:  # not JSON or not UTF-8
        raise ConfigError(f"bank file {path} is not JSON: {exc}") from None
    return parse_bank(doc)


def load_shipped_bank() -> ExemplarBank:
    return load_bank(DATA_DIR / "recovery_bank.json")
