"""Exception types shared across the harness.

A class is kept only while some `except` in the package names it: a refusal
that nothing tells apart from its siblings is said by its message, not by a
class of its own. A malformed input (a flag, a field value, a suite or bank
file) raises `ConfigError`; a trace, teacher or grading failure raises
`FaultHarnessError` itself. The CLI reports every `FaultHarnessError` as a
message and exit code 2.
"""

from __future__ import annotations


class FaultHarnessError(Exception):
    """Base class for all harness errors."""


class ConfigError(FaultHarnessError):
    """Invalid or missing configuration (flags, env vars, field values, input files)."""


class AgentProtocolError(FaultHarnessError):
    """Agent emitted text that does not parse under the action grammar."""


class TransportError(FaultHarnessError):
    """Network-level failure talking to a remote endpoint."""


class ProtocolError(FaultHarnessError):
    """Remote endpoint answered with a malformed wire payload."""
