"""JSON-over-HTTP chat-completion client.

One transport shared by the remote agent policy and the remote repair
teacher. The wire shape is the common chat-completions one:
POST {base_url}/chat/completions with {"model", "messages"} in, assistant
text out of choices[0].message.content.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError, ProtocolError, TransportError

TOKEN_ENV_VAR = "FAULTHARNESS_API_TOKEN"


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str = "default"
    timeout_ms: int = 30000
    max_retries: int = 2  # transport-level only
    token_env: str = TOKEN_ENV_VAR

    def auth_token(self) -> str | None:
        return os.environ.get(self.token_env)


class ChatEndpoint:
    def __init__(self, config: EndpointConfig):
        if not config.base_url:
            raise ConfigError("remote endpoint requires a base URL")
        self._config = config

    def complete(self, messages: list[dict]) -> str:
        """One chat completion; returns the assistant text.

        Raises TransportError after exhausting transport retries and
        ProtocolError when the endpoint answers with a malformed payload.
        """
        import requests  # only remote runs need it; it is most of the CLI's import time

        url = self._config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        token = self._config.auth_token()
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"model": self._config.model, "messages": messages}
        last_exc: Exception | None = None
        for _ in range(self._config.max_retries + 1):
            try:
                resp = requests.post(
                    url,
                    json=body,
                    headers=headers,
                    timeout=self._config.timeout_ms / 1000.0,
                )
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code >= 500:
                last_exc = TransportError(f"endpoint returned {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise TransportError(f"endpoint returned {resp.status_code}")
            try:
                payload = resp.json()
                content = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise ProtocolError(f"malformed completion payload: {exc}") from exc
            if not isinstance(content, str):
                raise ProtocolError("completion content is not text")
            return content
        raise TransportError(f"endpoint unreachable: {last_exc}")
