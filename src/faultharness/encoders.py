"""The compact JSON forms several modules share, one encoder each, built once
at import.

`json.dumps` with any option set builds a new `json.JSONEncoder` per call;
a prebuilt encoder's `encode` gives the same text without that cost. Encoders
hold no state between calls, so threads may share them.
"""

from __future__ import annotations

import json

# Sorted keys, no spaces, non-ASCII kept: every serialized artifact, call keys,
# success wrappers and error texts.
dumps_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode

# Sorted keys, no spaces, non-ASCII escaped: scripted payloads and the
# simulator's own error bodies.
COMPACT_ASCII = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
