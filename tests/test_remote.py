from __future__ import annotations

import json

import pytest
import requests

from faultharness.errors import ProtocolError, TransportError
from faultharness.remote import ChatEndpoint, EndpointConfig


class _Response:
    def __init__(self, status_code, headers=None, text="done"):
        self.status_code = status_code
        self.headers = headers or {}
        self._text = text

    def json(self):
        return {"choices": [{"message": {"content": self._text}}]}


class _TooDeepResponse(_Response):
    def json(self):
        return json.loads("[" * 100_000)  # as `requests` parses such a body: RecursionError


def _endpoint(monkeypatch, replies, max_retries=2):
    """A client whose POSTs answer `replies` in order; returns it, its sleeps and calls."""
    sleeps: list[float] = []
    calls: list[str] = []

    def post(url, **kwargs):
        calls.append(url)
        reply = replies[len(calls) - 1]
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(requests, "post", post)
    config = EndpointConfig(base_url="http://stub", max_retries=max_retries)
    return ChatEndpoint(config, sleep=sleeps.append), sleeps, calls


def test_retries_503_after_a_jittered_backoff(monkeypatch):
    client, sleeps, calls = _endpoint(monkeypatch, [_Response(503), _Response(200)])
    assert client.complete([]) == "done"
    assert len(calls) == 2
    assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 0.5


def test_429_honours_integer_retry_after(monkeypatch):
    client, sleeps, calls = _endpoint(
        monkeypatch, [_Response(429, {"Retry-After": "2"}), _Response(200)]
    )
    assert client.complete([]) == "done"
    assert sleeps == [2.0]


def test_retry_after_is_capped_at_8_seconds(monkeypatch):
    client, sleeps, _ = _endpoint(
        monkeypatch, [_Response(503, {"Retry-After": "120"}), _Response(200)]
    )
    client.complete([])
    assert sleeps == [8.0]


def test_exhausted_retries_raise_with_growing_jitter_bounds(monkeypatch):
    client, sleeps, calls = _endpoint(monkeypatch, [_Response(500)] * 4, max_retries=3)
    with pytest.raises(TransportError, match="500"):
        client.complete([])
    assert len(calls) == 4
    assert len(sleeps) == 3
    assert all(0.0 <= wait <= bound for wait, bound in zip(sleeps, (0.5, 1.0, 2.0)))


def test_other_4xx_fails_at_once(monkeypatch):
    client, sleeps, calls = _endpoint(monkeypatch, [_Response(400), _Response(200)])
    with pytest.raises(TransportError, match="400"):
        client.complete([])
    assert (len(calls), sleeps) == (1, [])


def test_transport_exception_is_retried(monkeypatch):
    client, sleeps, calls = _endpoint(
        monkeypatch, [requests.ConnectionError("refused"), _Response(200)]
    )
    assert client.complete([]) == "done"
    assert len(calls) == 2 and len(sleeps) == 1


def test_completion_nested_too_deep_to_parse_is_a_protocol_error(monkeypatch):
    client, sleeps, calls = _endpoint(monkeypatch, [_TooDeepResponse(200)])
    with pytest.raises(ProtocolError, match="malformed completion payload"):
        client.complete([])
    assert (len(calls), sleeps) == (1, [])
