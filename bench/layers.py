"""Per-layer tracing for the benchmark, kept entirely outside the program.

Each layer of `faultharness` is traced by replacing its public function under
every name its callers import it by (for example both
`faultharness.agents.retrieve_top_k` and `faultharness.bank.retrieve_top_k`),
so calls made inside the program are seen too. A wrapper records one span:
name, start, end and parent. A call into a layer from inside the same layer
is not a new span. A name that no longer resolves is skipped; a layer with
no name left is reported as absent, and the run goes on. Refactors of the
program therefore need no benchmark edit.

Self time of a span is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, by `Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable

EPISODE_SCOPES = ("simulator.run_episode", "pipeline.repair")
DESK_AGENTS = ("vanilla", "toolbench", "reflect", "critic", "paladin", "paladin_no_retrieval")
_RETRIEVAL_POLICIES = ("paladin", "critic")


@dataclass(frozen=True)
class Layer:
    """A traced layer: its metric prefix and the dotted names wrapped for it."""

    metric: str
    targets: tuple[str, ...]
    # called after each span of this layer ends: (tracer, span_index, bound_args, result)
    observe: Callable | None = None


def _bound(signature, args, kwargs):
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _observe_retrieve(tracer, index, arguments, result):
    observed = arguments.get("observed")
    scope = tracer.enclosing(EPISODE_SCOPES)
    # the fields retrieval reads; turn_index and tool_name do not change the answer
    key = (
        scope,
        id(arguments.get("bank")),
        getattr(observed, "error_class", None),
        getattr(observed, "kind", None),
        getattr(observed, "status_code", None),
        getattr(observed, "message", None),
    )
    if key in tracer.seen:
        tracer.count("bank.retrieve.repeats")
    tracer.seen.add(key)


def _agent_label(agent, bank) -> str:
    label = type(agent).__name__.removesuffix("Policy").lower()
    if bank is None and label in _RETRIEVAL_POLICIES:
        label += "_no_retrieval"
    return label


def _observe_episode(tracer, index, arguments, result):
    label = _agent_label(arguments.get("agent"), arguments.get("bank"))
    tracer.count(f"simulator.episode_ns.{label}", tracer.duration_ns(index))
    tracer.count(f"simulator.episodes.{label}")
    turns = getattr(result, "turns", ())
    tracer.count(
        "simulator.function_turns", sum(1 for t in turns if getattr(t, "role", "") == "function")
    )


def _observe_bootstrap(tracer, index, arguments, result):
    grades = arguments.get("grades") or ()
    draws = max(1, arguments.get("n_resamples", 1)) * len(grades)
    tracer.count("metrics.bootstrap_ci.draws", draws)


def _observe_line(tracer, index, arguments, result):
    if isinstance(result, str):
        tracer.count("episode.bytes_written", len(result.encode("utf-8")) + 1)


def _observe_compose(tracer, index, arguments, result):
    manifest = getattr(result, "manifest", None) or {}
    tracer.count("pipeline.recovery_kept", manifest.get("counts", {}).get("recovery", 0))


def _at(*modules_and_name: str) -> tuple[str, ...]:
    *modules, name = modules_and_name
    return tuple(f"faultharness.{module}.{name}" for module in modules)


LAYERS = (
    Layer(
        "bank.load",
        _at("bank", "cli", "load_bank") + _at("bank", "cli", "benchgen", "load_shipped_bank"),
    ),
    Layer(
        "bank.retrieve",
        _at("bank", "agents", "retrieve_top_k") + _at("bank", "pipeline", "retrieve"),
        _observe_retrieve,
    ),
    Layer(
        "taxonomy.detect_failure",
        _at("taxonomy", "simulator", "agents", "metrics", "pipeline", "detect_failure"),
    ),
    Layer(
        "protocol.parse_action",
        _at("protocol", "agents", "metrics", "pipeline", "parse_action"),
    ),
    Layer("agents.decide", ("faultharness.agents.ScriptedPolicy.decide",)),
    Layer("simulator.run_episode", _at("simulator", "cli", "run_episode"), _observe_episode),
    Layer("metrics.grade_episode", _at("metrics", "cli", "grade_episode")),
    Layer("metrics.aggregate", _at("metrics", "cli", "aggregate")),
    Layer("metrics.bootstrap_ci", _at("metrics", "cli", "bootstrap_ci"), _observe_bootstrap),
    Layer("episode.trajectory_to_line", _at("episode", "cli", "trajectory_to_line"), _observe_line),
    Layer("benchgen.generate_suite", _at("benchgen", "cli", "generate_suite")),
    Layer("benchgen.write_suite", _at("benchgen", "cli", "write_suite")),
    Layer("benchgen.read_suite", _at("benchgen", "cli", "read_suite")),
    Layer("pipeline.repair", _at("pipeline", "cli", "repair")),
    Layer("pipeline.finalize", _at("pipeline", "cli", "finalize")),
    Layer("pipeline.compose_corpus", _at("pipeline", "cli", "compose_corpus"), _observe_compose),
    Layer("pipeline.detect_first_failure", _at("pipeline", "cli", "detect_first_failure")),
)

# The span the benchmark opens around each CLI command; not a wrapped function.
COMMAND_SPAN = "cli.command"


def _metrics(prefix: str, *fields: tuple[str, str, str]) -> tuple[tuple[str, str, str], ...]:
    return tuple((f"{prefix}.{name}", unit, better) for name, unit, better in fields)


_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")

# Every per-layer metric as (name, unit, better), in the order they are reported.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("remote.import_s", "s", "lower"),
    *_metrics("bank.load", _CALLS, _SELF),
    *_metrics("bank.retrieve", _CALLS, _SELF, ("us_per_call", "us", "lower"),
              ("repeat_ratio", "ratio", "lower")),
    *_metrics("taxonomy.detect_failure", _CALLS, _SELF,
              ("calls_per_function_turn", "ratio", "lower")),
    *_metrics("protocol.parse_action", _CALLS, _SELF),
    *_metrics("agents.decide", _CALLS, _SELF),
    *_metrics("simulator.run_episode", _CALLS, _SELF),
    *_metrics("simulator.episode_us", *((agent, "us", "lower") for agent in DESK_AGENTS)),
    *_metrics("metrics.grade_episode", _CALLS, _SELF),
    ("metrics.aggregate.self_s", "s", "lower"),
    *_metrics("metrics.bootstrap_ci", _CALLS, _SELF, ("draws", "count", "lower")),
    *_metrics("episode.trajectory_to_line", _CALLS, _SELF),
    ("episode.bytes_written", "bytes", "lower"),
    *_metrics("benchgen", ("generate_suite.self_s", "s", "lower"),
              ("write_suite.self_s", "s", "lower"), ("read_suite.self_s", "s", "lower")),
    *_metrics("pipeline.repair", _CALLS, _SELF),
    *_metrics("pipeline", ("finalize.self_s", "s", "lower"),
              ("compose_corpus.self_s", "s", "lower"),
              ("detect_first_failure.self_s", "s", "lower"),
              ("kept_ratio", "ratio", "higher"), ("quarantined", "count", "lower")),
    (f"{COMMAND_SPAN}.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(dotted: str):
    """(owner, attribute, value) for a dotted name, or None if it does not exist."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Wraps the layers' functions and records spans while installed.

    Spans are tuples (parent_index, name, start_ns, end_ns, raised) in one
    list per pass; a span's index in that list is its id. Counters hold the
    per-pass counts the layers' observers add.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.seen: set = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: dict[str, list[str]] = {}
        self.passes: list[tuple[list, dict]] = []

    # --- installing -------------------------------------------------------------------

    def install(self) -> None:
        self.missing = {}
        for layer in self.layers:
            for dotted in layer.targets:
                found = _resolve(dotted)
                if found is None or not callable(found[2]):
                    self.missing.setdefault(layer.metric, []).append(dotted)
                    continue
                owner, attribute, original = found
                setattr(owner, attribute, self._wrap(layer, original))
                self._originals.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    def absent(self) -> list[str]:
        """Layers none of whose names resolved."""
        return [
            layer.metric
            for layer in self.layers
            if len(self.missing.get(layer.metric, ())) == len(layer.targets)
        ]

    def _wrap(self, layer: Layer, original):
        tracer = self
        name = layer.metric
        observe = layer.observe
        try:
            signature = inspect.signature(original) if observe else None
        except (TypeError, ValueError):
            signature = None

        def traced(*args, **kwargs):
            if tracer._stack and tracer.spans[tracer._stack[-1]][1] == name:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index, raised=True)
                raise
            tracer.close(index)
            if observe is not None:
                observe(tracer, index, _bound(signature, args, kwargs), result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        return traced

    # --- spans ------------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, name, time.perf_counter_ns(), 0, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter_ns()
        span[4] = raised
        self._stack.pop()

    def duration_ns(self, index: int) -> int:
        span = self.spans[index]
        return span[3] - span[2]

    def enclosing(self, names) -> int:
        """Index of the innermost open span with one of `names`, or -1."""
        for index in reversed(self._stack):
            if self.spans[index][1] in names:
                return index
        return -1

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def end_pass(self) -> None:
        """File this pass's spans and counters and start a fresh pass."""
        self.passes.append((self.spans, self.counters))
        self.spans, self.counters, self.seen = [], {}, set()

    # --- output -----------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "fields": ["pass", "id", "parent", "name", "start_ns", "end_ns", "raised"],
                "absent": self.absent(),
                "missing": self.missing,
            }
            fh.write(json.dumps(header) + "\n")
            for number, (spans, _) in enumerate(self.passes):
                for index, (parent, name, start, end, raised) in enumerate(spans):
                    fh.write(json.dumps([number, index, parent, name, start, end, raised]) + "\n")


def self_and_calls(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Per span name: self time (ns) and number of spans."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for parent, name, start, end, _ in spans:
        duration = end - start
        self_ns[name] = self_ns.get(name, 0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            parent_name = spans[parent][1]
            self_ns[parent_name] = self_ns.get(parent_name, 0) - duration
    return self_ns, calls


def pass_metrics(spans, counters, time_scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass; every time is multiplied by `time_scale`."""
    self_ns, calls = self_and_calls(spans)
    ns_to_s = time_scale / 1e9
    ns_to_us = time_scale / 1e3

    def self_s(name):
        return self_ns.get(name, 0) * ns_to_s

    def calls_of(name):
        return calls.get(name, 0)

    out: dict[str, float] = {}
    for name in ("bank.load", "bank.retrieve", "taxonomy.detect_failure", "protocol.parse_action",
                 "agents.decide", "simulator.run_episode", "metrics.grade_episode",
                 "metrics.bootstrap_ci", "episode.trajectory_to_line", "pipeline.repair"):
        out[f"{name}.calls"] = calls_of(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("metrics.aggregate", "benchgen.generate_suite", "benchgen.write_suite",
                 "benchgen.read_suite", "pipeline.finalize", "pipeline.compose_corpus",
                 "pipeline.detect_first_failure", COMMAND_SPAN):
        out[f"{name}.self_s"] = self_s(name)

    retrieves = calls_of("bank.retrieve")
    out["bank.retrieve.us_per_call"] = _ratio(self_ns.get("bank.retrieve", 0) * ns_to_us, retrieves)
    out["bank.retrieve.repeat_ratio"] = _ratio(counters.get("bank.retrieve.repeats", 0), retrieves)
    out["taxonomy.detect_failure.calls_per_function_turn"] = _ratio(
        calls_of("taxonomy.detect_failure"), counters.get("simulator.function_turns", 0)
    )
    for agent in DESK_AGENTS:
        out[f"simulator.episode_us.{agent}"] = _ratio(
            counters.get(f"simulator.episode_ns.{agent}", 0) * ns_to_us,
            counters.get(f"simulator.episodes.{agent}", 0),
        )
    out["metrics.bootstrap_ci.draws"] = counters.get("metrics.bootstrap_ci.draws", 0)
    out["episode.bytes_written"] = counters.get("episode.bytes_written", 0)
    out["pipeline.kept_ratio"] = _ratio(
        counters.get("pipeline.recovery_kept", 0), calls_of("pipeline.repair")
    )
    out["pipeline.quarantined"] = sum(
        1 for _, name, _, _, raised in spans if raised and name == "pipeline.repair"
    )
    return out


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when the layer did no work in the pass."""
    return part / whole if whole else 0.0
