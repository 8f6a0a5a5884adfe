"""Recovery exemplar bank: action scripts, signature similarity, retrieval.

The shipped dictionary groups failure kinds into branches that share one
script (e.g. all auth statuses terminate); `load_bank` expands each branch
into one exemplar per member kind so pattern matching stays first-class.

A kind's class and status are the taxonomy's (`taxonomy.kind_class` and
`taxonomy.kind_status`); a pattern stores neither and reads its kind's status
from there. An entry that binds an error class must bind the class the
taxonomy gives each of its kinds, where the taxonomy gives one; an entry that
does not is refused when the bank is loaded. Older bank files, such as pruned
banks written by `gen-suite --hold-out`, give a pattern a `status_code`:
loading drops it when it is the status of the pattern's kind and refuses
any other value. The shipped bank is read by the same loader as a `--bank`
file.

A script step is `{"action": <tag>, ...}` plus the action's optional fields:
`retry_with_backoff` takes `max_attempts` (int in [1, 4]), `base_delay_ms` and
`cap_ms` (ints >= 0) and `respect_retry_after` (bool); `terminate_gracefully`
takes `report` (str whose only slots are `{tool}` and `{error}`; empty means
the default); `wait_until_healthy` takes `poll_interval_ms` (int > 0); the
other five take none. Older bank files give `reformat_arguments` a `hint`,
`switch_tool` a `strategy`, `validate_and_reissue` a `check` and
`wait_until_healthy` a `max_wait_ms`. Nothing read them, so loading drops them;
any other unknown key is an error.

A bank is refused with a `ConfigError`. Each rule an entry can break (an
unknown class or action, an empty script, a pattern that binds neither a class
nor a kind, a mistyped field, an exemplar id an earlier entry already gave)
raises `ValueError` or `TypeError` while the entry is expanded, and
`parse_bank` words it as `bank entry N (id): reason`. Only a file that is not
a JSON object with an `exemplars` list, or a bank that leaves a class
uncovered, is refused as a whole.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

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


@dataclass(frozen=True)
class RetryWithBackoff:
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

    def jitter_ms(self, attempt_number: int, rng: random.Random) -> int:
        """Full-jitter wait before retry `attempt_number` (1-based), uniform
        over [0, min(cap, base * 2^(attempt-1))]."""
        return rng.randint(0, min(self.cap_ms, self.base_delay_ms * 2 ** (attempt_number - 1)))


@dataclass(frozen=True)
class ReformatArguments:
    pass


@dataclass(frozen=True)
class SwitchTool:
    pass


@dataclass(frozen=True)
class RefreshCredentials:
    pass


@dataclass(frozen=True)
class ValidateAndReissue:
    pass


@dataclass(frozen=True)
class LenientParse:
    pass


_DEFAULT_REPORT = "Could not complete the step using {tool}: {error}"


@dataclass(frozen=True)
class TerminateGracefully:
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
class WaitUntilHealthy:
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


# the one field each of these actions had in older bank files; nothing read it
_DROPPED_KEYS = {
    ReformatArguments: "hint",
    SwitchTool: "strategy",
    ValidateAndReissue: "check",
    WaitUntilHealthy: "max_wait_ms",
}


def action_from_json(doc: dict) -> RecoveryAction:
    tag = doc.get("action")
    if tag not in _ACTION_TAGS:
        raise ValueError(f"unknown recovery action {tag!r}")
    cls = _ACTION_TAGS[tag]
    dropped = _DROPPED_KEYS.get(cls)
    return cls(**{k: v for k, v in doc.items() if k not in ("action", dropped)})


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

    def to_json(self) -> dict:
        out: dict = {}
        if self.error_class is not None:
            out["error_class"] = self.error_class.value
        if self.kind is not None:
            out["kind"] = self.kind
        if self.message_tokens is not None:
            out["message_tokens"] = sorted(self.message_tokens)
        return out


@dataclass(frozen=True)
class RecoveryExemplar:
    id: str
    pattern: SignaturePattern
    script: tuple[RecoveryAction, ...]
    rationale: str = ""
    dialogue_template: tuple[dict, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "pattern": self.pattern.to_json(),
            "script": [action_to_json(a) for a in self.script],
            "rationale": self.rationale,
        }
        if self.dialogue_template is not None:
            out["dialogue_template"] = list(self.dialogue_template)
        return out


@dataclass(frozen=True)
class ExemplarBank:
    exemplars: tuple[RecoveryExemplar, ...]
    version: str = "0"
    # nearest exemplar per (kind, message tokens), filled by `retrieve_top_k`;
    # outside equality and repr, so it never changes what a bank is. Token
    # sets drop digits, so messages differing only in ids or counters share
    # one entry.
    nearest_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # token set per observed message, filled by `retrieve_top_k` the same way:
    # a run's failure messages repeat across its retrievals.
    tokens_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # per observed kind, the exemplars grouped by their class, kind and status
    # mismatch weight, in ascending order; filled by `retrieve_top_k` the same way.
    tiers_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.exemplars)

    def by_id(self, exemplar_id: str) -> RecoveryExemplar:
        for ex in self.exemplars:
            if ex.id == exemplar_id:
                return ex
        raise KeyError(exemplar_id)

    def covered_classes(self) -> set[ErrorClass]:
        return {c for ex in self.exemplars if (c := ex.pattern.implied_class())}

    def without_kinds(self, kinds: set[str]) -> "ExemplarBank":
        """Bank with every exemplar matching one of `kinds` removed.

        Raises ConfigError if the removal empties an error class.
        """
        kept = tuple(ex for ex in self.exemplars if ex.pattern.kind not in kinds)
        pruned = ExemplarBank(exemplars=kept, version=self.version)
        missing = set(ErrorClass) - pruned.covered_classes()
        if missing:
            raise ConfigError(
                "holding out "
                + ", ".join(sorted(kinds))
                + " empties class(es): "
                + ", ".join(sorted(c.value for c in missing))
            )
        return pruned


DEFAULT_WEIGHTS = (4, 2, 1, 1)


def similarity_distance(observed: ErrorSignature, pattern: SignaturePattern) -> Fraction:
    """Weighted mismatch distance between an observed signature and a pattern.

    With (w1, w2, w3, w4) = `DEFAULT_WEIGHTS`,
    d = w1*[class mismatch] + w2*[kind mismatch] + w3*[status mismatch]
      + w4*(1 - Jaccard(message tokens)); wildcard pattern fields contribute 0.
    """
    return Fraction(*_distance_pair(
        _mismatch(observed, pattern), message_tokens(observed.message), pattern.message_tokens
    ))


def _mismatch(observed: ErrorSignature, pattern: SignaturePattern) -> int:
    """The class, kind and status part of the distance: w1 + w2 + w3 at most."""
    w1, w2, w3, _ = DEFAULT_WEIGHTS
    a = 0
    if pattern.error_class is not None and pattern.error_class != observed.error_class:
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
    multiple of the denominators, then the id. The tiers per observed kind,
    the nearest one (k <= 1) and each message's token set are memoized on the
    bank.
    """
    if not bank.exemplars:
        raise ConfigError("cannot retrieve from an empty bank")
    tokens = bank.tokens_memo.get(observed.message)
    if tokens is None:
        tokens = bank.tokens_memo[observed.message] = message_tokens(observed.message)
    key = (observed.kind, tokens)
    if k <= 1 and key in bank.nearest_memo:
        return [bank.nearest_memo[key]]
    n = max(k, 1)
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
    ranked = [
        ex for _, _, ex in heapq.nsmallest(
            n, scored, key=lambda s: (s[0] * (scale // s[1]), s[2].id)
        )
    ]
    if k <= 1:
        bank.nearest_memo[key] = ranked[0]
    return ranked


def retrieve(bank: ExemplarBank, observed: ErrorSignature) -> RecoveryExemplar:
    """The nearest exemplar; ties broken by lexicographically smallest id."""
    return retrieve_top_k(bank, observed)[0]


# --- dictionary loading -------------------------------------------------------


def _expand_entry(entry: dict) -> list[RecoveryExemplar]:
    entry_id = str(entry.get("id", "<missing id>"))
    pattern_doc = dict(entry.get("pattern", {}))
    class_label = pattern_doc.get("error_class")
    error_class = None if class_label is None else ErrorClass(class_label)

    script_docs = entry.get("script", [])
    if not script_docs:
        raise ValueError("exemplar script is empty")
    script = tuple(action_from_json(doc) for doc in script_docs)
    # every other action re-executes a call and can complete the step
    if isinstance(script[-1], (ReformatArguments, RefreshCredentials)):
        raise ValueError("script must end with TerminateGracefully or a success-terminal action")

    rationale = entry.get("rationale", "")
    template = entry.get("dialogue_template")
    template_t = tuple(template) if template else None

    kinds: list[str | None]
    if "kinds" in entry:
        if not isinstance(entry["kinds"], list):  # a string would expand per character
            raise TypeError("'kinds' must be a list")
        kinds = list(entry["kinds"])
    else:
        kinds = [pattern_doc.get("kind")]

    messages: dict = pattern_doc.get("messages", {})
    listed_tokens = pattern_doc.get("message_tokens")
    if listed_tokens is not None and not isinstance(listed_tokens, list):
        raise TypeError("'message_tokens' must be a list")  # a string would split per character
    exemplars = []
    for kind in kinds:
        tokens = None
        if kind is not None and kind in messages:
            tokens = message_tokens(messages[kind])
        elif listed_tokens is not None:
            tokens = frozenset(listed_tokens)
        if error_class is not None and kind is not None:
            known = kind_class(kind)
            if known is not None and known is not error_class:
                raise ValueError(
                    f"kind {kind!r} is {known.value} in the taxonomy, not {error_class.value}"
                )
        if "status_code" in pattern_doc:  # older files state the kind's status; drop it
            status = pattern_doc["status_code"]
            expected = None if kind is None else kind_status(kind)
            if type(status) is not int or status != expected:
                raise ValueError(
                    f"status_code {status!r} is not the status of kind {kind!r} ({expected!r})"
                )
        pattern = SignaturePattern(error_class=error_class, kind=kind, message_tokens=tokens)
        ex_id = entry_id if len(kinds) == 1 else f"{entry_id}__{kind}"
        exemplars.append(
            RecoveryExemplar(
                id=ex_id,
                pattern=pattern,
                script=script,
                rationale=rationale,
                dialogue_template=template_t,
            )
        )
    return exemplars


def parse_bank(doc: dict) -> ExemplarBank:
    """Validate a bank document; a malformed entry is named by its index and id."""
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
            entry_id = entry.get("id", "<missing id>")
            raise ConfigError(f"bank entry {index} ({entry_id}): {exc}") from exc
        exemplars += expanded
    bank = ExemplarBank(exemplars=tuple(exemplars), version=str(doc.get("version", "0")))
    missing = set(ErrorClass) - bank.covered_classes()
    if missing:
        raise ConfigError(
            "bank does not cover class(es): " + ", ".join(sorted(c.value for c in missing))
        )
    return bank


def load_bank(path, data: bytes | None = None) -> ExemplarBank:
    """Load and validate a dictionary file, expanding branch groups.

    `data`, when given, is the file's bytes, already read.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"bank file {path} is not JSON: {exc}") from None
    return parse_bank(doc)


def load_shipped_bank() -> ExemplarBank:
    return load_bank(DATA_DIR / "recovery_bank.json")
