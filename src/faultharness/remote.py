"""JSON-over-HTTP chat-completion client.

One transport shared by the remote agent policy and the remote repair
teacher. The wire shape is the common chat-completions one:
POST {base_url}/chat/completions with {"model", "messages"} in, assistant
text out of choices[0].message.content.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from .bank import RetryWithBackoff
from .errors import ConfigError, ProtocolError, TransportError

TOKEN_ENV_VAR = "FAULTHARNESS_API_TOKEN"

# the wait the simulated agents are taught: full jitter, 500 ms base, 8 s cap
_BACKOFF = RetryWithBackoff()


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str = "default"
    timeout_ms: int = 30000
    max_retries: int = 2  # retries of 429, 5xx and transport errors

    def auth_token(self) -> str | None:
        return os.environ.get(TOKEN_ENV_VAR)


def _retry_after_ms(value: str | None) -> int | None:
    """An integer Retry-After in seconds, as milliseconds capped at the backoff cap."""
    if value is None or not value.strip().isdigit():
        return None
    return min(int(value.strip()) * 1000, _BACKOFF.cap_ms)


class ChatEndpoint:
    def __init__(self, config: EndpointConfig, sleep: Callable[[float], None] = time.sleep):
        if not config.base_url:
            raise ConfigError("remote endpoint requires a base URL")
        self._config = config
        self._sleep = sleep
        self._rng = random.Random()

    def complete(self, messages: list[dict]) -> str:
        """One chat completion; returns the assistant text.

        429, 5xx and transport errors are retried up to `max_retries` times,
        after a full-jitter backoff or, on 429 and 503, an integer Retry-After
        (capped at 8 s). Raises TransportError on any other 4xx or once the
        retries are spent, and ProtocolError when the endpoint answers with a
        malformed payload.
        """
        import requests  # only remote runs need it; it is most of the CLI's import time

        url = self._config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        token = self._config.auth_token()
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"model": self._config.model, "messages": messages}
        attempts = self._config.max_retries + 1
        last_exc: Exception | None = None
        for attempt in range(1, attempts + 1):
            retry_after_ms = None
            try:
                resp = requests.post(
                    url,
                    json=body,
                    headers=headers,
                    timeout=self._config.timeout_ms / 1000.0,
                )
            except requests.RequestException as exc:
                last_exc = exc
            else:
                status = resp.status_code
                if status < 400:
                    return _completion_text(resp)
                if status != 429 and status < 500:
                    raise TransportError(f"endpoint returned {status}")
                last_exc = TransportError(f"endpoint returned {status}")
                if status in (429, 503):
                    retry_after_ms = _retry_after_ms(resp.headers.get("Retry-After"))
            if attempt < attempts:
                wait_ms = retry_after_ms
                if wait_ms is None:
                    wait_ms = _BACKOFF.jitter_ms(attempt, self._rng)
                self._sleep(wait_ms / 1000.0)
        raise TransportError(f"endpoint unreachable: {last_exc}")


def _completion_text(resp) -> str:
    try:
        payload = resp.json()
        content = payload["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        raise ProtocolError(f"malformed completion payload: {exc}") from exc
    if not isinstance(content, str):
        raise ProtocolError("completion content is not text")
    return content
