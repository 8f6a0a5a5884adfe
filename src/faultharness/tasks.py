"""Bundled desk-scale task pool: 40 synthetic (prompt, tools) pairs with
scripted responses.

Every step tool ships with a same-capability backup tool (identical scripted
data) so tool-switch recovery is exercisable on any step.

A task step's calls are built once per run, on the step: the cards of a task
share its template, and so its steps, and a scripted policy makes a step's
call on many decisions. Each is a prepared `protocol.ToolCall`, which keeps
its call key and Action Input text, so the simulator and the renderer dump
neither again. A call made for one decision is not prepared, and pays nothing
for it: a `protocol.ToolCall` keeps the two texts outside its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .encoders import dumps_ascii
from .errors import ConfigError
from .protocol import ToolCall, canonical_call_key
from .simulator import ToolRegistry, ToolSpec
from .taxonomy import json_object


@dataclass(frozen=True)
class TaskStep:
    """One step of a task: the tool it calls and the call's arguments. Its
    calls are built at first use and kept, and share one call key and Action
    Input text."""

    tool: str
    arguments: dict
    # (index, number of steps) -> the call that begins the step there
    _starts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.tool) is not str or type(self.arguments) is not dict:
            raise ConfigError(
                f"a step needs a string tool and object arguments, not {self.to_json()!r}"
            )

    @cached_property
    def call(self) -> ToolCall:
        """The step's call with no thought, which reflect and paladin reissue."""
        return ToolCall(self.tool, self.arguments).prepared()

    def start_call(self, index: int, n_steps: int) -> ToolCall:
        """The call that begins this step as step `index` (from 0) of `n_steps`."""
        call = self._starts.get((index, n_steps))
        if call is None:
            thought = f"Proceeding with step {index + 1} of {n_steps}: call {self.tool}."
            call = self._starts[index, n_steps] = self.call.prepared(thought)
        return call

    def to_json(self) -> dict:
        return {"tool": self.tool, "arguments": self.arguments}

    @classmethod
    def from_json(cls, doc: dict) -> "TaskStep":
        return cls(tool=doc["tool"], arguments=doc["arguments"])


@dataclass(frozen=True)
class TaskTemplate:
    """One task: its prompt, its tools and the steps that complete it.

    Every card of a task holds the task's one template, so what is known of
    the task is worked out once, here: each of its tools classifies its
    scripted responses once (`ToolSpec.served`), and `final_payload`, which
    the grader checks every finished answer against, is read once.
    """

    slug: str
    prompt: str
    tools: ToolRegistry
    steps: tuple[TaskStep, ...]

    def __post_init__(self):
        # a task's rules are checked when it is built, so a malformed task in a
        # suite's table is refused while the file is read; a tool's and a step's
        # own field types are checked where each is built
        for name, value in (("slug", self.slug), ("prompt", self.prompt)):
            if type(value) is not str:
                raise ConfigError(f"{name} must be a string, not {value!r}")
        if not self.tools:
            raise ConfigError("a task needs at least one tool")
        if not self.steps:
            raise ConfigError("a task needs at least one step")
        for step in self.steps:
            if self.tools.get(step.tool) is None:
                raise ConfigError(f"step tool {step.tool!r} is not among the task's tools")

    @cached_property
    def final_payload(self) -> dict:
        """The JSON object the last step's scripted response holds; {} for none."""
        step = self.steps[-1]
        text = self.tools.get(step.tool).scripted_responses.get(step.call.key)
        return {} if text is None else json_object(text) or {}

    def to_json(self) -> dict:
        return {
            "prompt": self.prompt,
            "tools": self.tools.to_json(),
            "steps": [s.to_json() for s in self.steps],
        }

    @classmethod
    def from_json(cls, slug: str, doc: dict) -> "TaskTemplate":
        return cls(
            slug=slug,
            prompt=doc["prompt"],
            tools=ToolRegistry.from_json(doc["tools"]),
            steps=tuple(TaskStep.from_json(s) for s in doc["steps"]),
        )


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    return "string"


def _build_template(slug: str, prompt: str, steps_spec) -> TaskTemplate:
    tools: list[ToolSpec] = []
    steps: list[TaskStep] = []
    for tool_name, capability, args, payload in steps_spec:
        payload_text = dumps_ascii(payload)
        parameters = {k: {"type": _json_type(v), "required": True} for k, v in args.items()}
        backup_name = f"{tool_name}_backup"
        tools.append(
            ToolSpec(
                name=tool_name,
                description=f"Primary {capability} source.",
                parameters=parameters,
                scripted_responses={canonical_call_key(tool_name, args): payload_text},
                capability=capability,
            )
        )
        tools.append(
            ToolSpec(
                name=backup_name,
                description=f"Backup {capability} source.",
                parameters=parameters,
                scripted_responses={canonical_call_key(backup_name, args): payload_text},
                capability=capability,
            )
        )
        steps.append(TaskStep(tool=tool_name, arguments=args))
    return TaskTemplate(
        slug=slug, prompt=prompt, tools=ToolRegistry(tools=tuple(tools)),
        steps=tuple(steps),
    )


_POOL_SPEC = [
    ("weather_paris", "Get the current weather in Paris and report temperature and wind.",
     [("weather_lookup", "weather", {"city": "Paris"},
       {"temp_c": 18, "wind_kph": 22, "sky": "overcast"})]),
    ("fx_eur_usd", "Convert 250 EUR to USD at the current rate.",
     [("currency_convert", "fx", {"amount": 250, "from": "EUR", "to": "USD"},
       {"converted": 271.5, "rate": 1.086})]),
    ("stock_acme", "Look up the latest ACME stock quote.",
     [("stock_quote", "stocks", {"ticker": "ACME"},
       {"price": 132.4, "change_pct": -0.8})]),
    ("geocode_berlin", "Find the coordinates of Berlin, Germany.",
     [("geocode", "geocoding", {"query": "Berlin, Germany"},
       {"lat": 52.52, "lon": 13.405})]),
    ("define_ephemeral", "Define the word 'ephemeral'.",
     [("dictionary_define", "dictionary", {"word": "ephemeral"},
       {"definition": "lasting for a very short time", "part_of_speech": "adjective"})]),
    ("track_pkg", "Track package ZX81-2207 and report its status.",
     [("package_track", "shipping", {"tracking_id": "ZX81-2207"},
       {"status": "in transit", "eta_days": 2})]),
    ("flight_af", "Check the status of flight AF1234.",
     [("flight_status", "flights", {"flight": "AF1234"},
       {"status": "on time", "gate": "D42"})]),
    ("recipe_udon", "Find a highly rated udon noodle recipe.",
     [("recipe_search", "recipes", {"dish": "udon"},
       {"title": "Garlic butter udon", "rating": 4.7})]),
    ("translate_hola", "Translate 'good morning' into Spanish.",
     [("translate_text", "translation", {"text": "good morning", "target": "es"},
       {"translation": "buenos dias", "source_lang": "en"})]),
    ("convert_miles", "Convert 42 kilometers to miles.",
     [("unit_convert", "units", {"value": 42, "from": "km", "to": "mi"},
       {"converted": 26.1, "unit": "mi"})]),
    ("crypto_btc", "Get the current BTC price in USD.",
     [("crypto_price", "crypto", {"symbol": "BTC"},
       {"price_usd": 61250.0, "change_24h_pct": 1.4})]),
    ("news_tech", "Fetch the top technology news headline.",
     [("news_headlines", "news", {"category": "technology"},
       {"headline": "Chipmakers announce new process node", "source": "WireDaily"})]),
    ("hotel_kyoto", "Find an available hotel in Kyoto for two nights.",
     [("hotel_search", "hotels", {"city": "Kyoto", "nights": 2},
       {"hotel": "Kamogawa Inn", "price_per_night": 142})]),
    ("movie_times", "Get tonight's showtimes for 'Solar Winds'.",
     [("movie_showtimes", "movies", {"title": "Solar Winds"},
       {"next_showing": "19:40", "theater": "Astor 3"})]),
    ("score_derby", "Get the final score of yesterday's derby match.",
     [("sports_score", "sports", {"match": "derby"},
       {"home": 2, "away": 1, "status": "final"})]),
    ("air_quality", "Report the current air quality index in Delhi.",
     [("air_quality", "environment", {"city": "Delhi"},
       {"aqi": 178, "category": "unhealthy"})]),
    ("sunrise_oslo", "When is sunrise in Oslo tomorrow?",
     [("sun_times", "astronomy", {"city": "Oslo"},
       {"sunrise": "04:12", "sunset": "22:38"})]),
    ("isbn_lookup", "Look up the book with ISBN 9780143127741.",
     [("isbn_lookup", "books", {"isbn": "9780143127741"},
       {"title": "The Utopia of Rules", "author": "David Graeber"})]),
    ("whois_example", "Find the registrar of example.org.",
     [("domain_whois", "domains", {"domain": "example.org"},
       {"registrar": "IANA", "created": "1995-08-31"})]),
    ("ip_geo", "Locate the IP address 203.0.113.7.",
     [("ip_locate", "ip", {"ip": "203.0.113.7"},
       {"country": "AU", "city": "Sydney"})]),
    ("tz_tokyo", "What is the current UTC offset in Tokyo?",
     [("timezone_info", "time", {"city": "Tokyo"},
       {"utc_offset": "+09:00", "dst": False})]),
    ("holiday_fr", "What is the next public holiday in France?",
     [("public_holidays", "calendar", {"country": "FR"},
       {"holiday": "Bastille Day", "date": "07-14"})]),
    ("traffic_a10", "Check traffic conditions on the A10 motorway.",
     [("traffic_status", "traffic", {"road": "A10"},
       {"congestion": "moderate", "delay_min": 12})]),
    ("transit_route", "Find the quickest transit route from Centraal to Zuid.",
     [("transit_plan", "transit", {"from": "Centraal", "to": "Zuid"},
       {"route": "M52", "duration_min": 9})]),
    ("podcast_sea", "Find a popular podcast about deep-sea exploration.",
     [("podcast_search", "podcasts", {"topic": "deep-sea exploration"},
       {"show": "Abyssal", "episodes": 84})]),
    ("jobs_sre", "Find an open SRE job posting in Amsterdam.",
     [("job_search", "jobs", {"role": "SRE", "city": "Amsterdam"},
       {"company": "Grachtworks", "seniority": "mid"})]),
    ("re_listing", "Get the median apartment listing price in Lisbon.",
     [("realestate_stats", "realestate", {"city": "Lisbon"},
       {"median_price_eur": 395000, "sample": 412})]),
    ("nutrition_oat", "How many calories are in 100g of oats?",
     [("nutrition_lookup", "nutrition", {"food": "oats", "grams": 100},
       {"calories": 389, "protein_g": 16.9})]),
    ("gas_price", "Report today's average gas price in Ohio.",
     [("gas_prices", "fuel", {"state": "Ohio"},
       {"regular_usd": 3.09, "premium_usd": 3.81})]),
    ("quake_feed", "Was there an earthquake above magnitude 5 today?",
     [("earthquake_feed", "geology", {"min_magnitude": 5},
       {"count": 1, "strongest": 5.6})]),
    # two-step tasks
    ("trip_budget", "Check the status of flight AF1234, then convert 250 EUR to USD for the trip budget.",
     [("flight_status", "flights", {"flight": "AF1234"},
       {"status": "on time", "gate": "D42"}),
      ("currency_convert", "fx", {"amount": 250, "from": "EUR", "to": "USD"},
       {"converted": 271.5, "rate": 1.086})]),
    ("picnic_plan", "Get the weather in Hamburg, then find a picnic recipe if it is not raining.",
     [("weather_lookup", "weather", {"city": "Hamburg"},
       {"temp_c": 21, "wind_kph": 9, "sky": "clear"}),
      ("recipe_search", "recipes", {"dish": "picnic salad"},
       {"title": "Orzo picnic salad", "rating": 4.5})]),
    ("relocation_check", "Find the median apartment price in Porto and the current EUR to GBP rate.",
     [("realestate_stats", "realestate", {"city": "Porto"},
       {"median_price_eur": 289000, "sample": 198}),
      ("currency_convert", "fx", {"amount": 1, "from": "EUR", "to": "GBP"},
       {"converted": 0.84, "rate": 0.84})]),
    ("market_brief", "Get the ACME stock quote and the top business headline.",
     [("stock_quote", "stocks", {"ticker": "ACME"},
       {"price": 132.4, "change_pct": -0.8}),
      ("news_headlines", "news", {"category": "business"},
       {"headline": "Freight rates cool after record quarter", "source": "WireDaily"})]),
    ("commute_brief", "Check traffic on the A10 and the next transit departure from Centraal to Zuid.",
     [("traffic_status", "traffic", {"road": "A10"},
       {"congestion": "moderate", "delay_min": 12}),
      ("transit_plan", "transit", {"from": "Centraal", "to": "Zuid"},
       {"route": "M52", "duration_min": 9})]),
    ("run_planner", "Get the air quality and sunrise time in Madrid to plan a morning run.",
     [("air_quality", "environment", {"city": "Madrid"},
       {"aqi": 61, "category": "moderate"}),
      ("sun_times", "astronomy", {"city": "Madrid"},
       {"sunrise": "06:51", "sunset": "21:19"})]),
    ("book_gift", "Look up ISBN 9780143127741 and translate its title into French.",
     [("isbn_lookup", "books", {"isbn": "9780143127741"},
       {"title": "The Utopia of Rules", "author": "David Graeber"}),
      ("translate_text", "translation", {"text": "The Utopia of Rules", "target": "fr"},
       {"translation": "L'utopie des regles", "source_lang": "en"})]),
    ("crypto_report", "Get the BTC price and convert 2000 USD to EUR.",
     [("crypto_price", "crypto", {"symbol": "BTC"},
       {"price_usd": 61250.0, "change_24h_pct": 1.4}),
      ("currency_convert", "fx", {"amount": 2000, "from": "USD", "to": "EUR"},
       {"converted": 1842.0, "rate": 0.921})]),
    ("storm_check", "Check the weather in Miami and whether flight UA88 is delayed.",
     [("weather_lookup", "weather", {"city": "Miami"},
       {"temp_c": 31, "wind_kph": 46, "sky": "storm"}),
      ("flight_status", "flights", {"flight": "UA88"},
       {"status": "delayed", "gate": "B7"})]),
    ("dinner_out", "Find showtimes for 'Solar Winds' and a nearby ramen recipe for afterwards.",
     [("movie_showtimes", "movies", {"title": "Solar Winds"},
       {"next_showing": "19:40", "theater": "Astor 3"}),
      ("recipe_search", "recipes", {"dish": "ramen"},
       {"title": "Shoyu ramen", "rating": 4.8})]),
]


def builtin_task_pool() -> tuple[TaskTemplate, ...]:
    return tuple(_build_template(slug, prompt, steps) for slug, prompt, steps in _POOL_SPEC)
