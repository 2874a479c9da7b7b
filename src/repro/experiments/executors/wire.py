"""Reply format spoken by subprocess workers to the coordinator.

A task reaches a worker child as the pickled :class:`WorkerTask` on its
stdin — the same record, in the same encoding, that the local pool's
pipe carries.  Pickle is safe here for the same reason it is on the pool
pipe: the coordinator launches the child and writes its stdin itself, so
the child only ever unpickles what its own coordinator pickled.

One reply flows back on the child's stdout, framed as a ``uint32``
little-endian byte length, a JSON header, and a body:

* success — the header holds the stage-memo counts and the body is the
  ``repro.sweep_cache/v2`` entry of the fresh result under the task's
  cache key (:func:`repro.sim.resultcache.encode_entry`), raw;
* failure — the header holds the exception type and message; no body.

Result bodies pass through the cache's one decoder,
:func:`repro.sim.resultcache.decode_entry_bytes`, which checks the CRC,
the schema and the key.  Anything malformed — truncated stdout, non-JSON
garbage, a foreign schema, a header field of the wrong shape, a damaged
or mis-keyed entry — decodes to :class:`WireProtocolError`, which the
supervisor converts into a structured retryable ``TaskFailure`` rather
than crashing the coordinator (tests/test_executors.py pins this).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict

from repro.sim.resultcache import decode_entry_bytes, encode_entry

from repro.experiments.executors.base import (
    RemoteTaskError,
    WireProtocolError,
    WorkerOutcome,
)

#: Schema tag of the reply header.
RESULT_SCHEMA = "repro.executor.result/v3"

#: Byte length of a reply's JSON header, which precedes it.
_U32 = struct.Struct("<I")


def _frame(header: Dict[str, Any], body: bytes = b"") -> bytes:
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([_U32.pack(len(text)), text, body])


def encode_outcome(outcome: WorkerOutcome, key: str) -> bytes:
    """Serialize a successful task's reply: the header, then the result's
    cache entry under ``key`` (which also carries ``wall_s``)."""
    header = {
        "schema": RESULT_SCHEMA,
        "ok": True,
        "memo_hits": outcome.memo_hits,
        "memo_misses": outcome.memo_misses,
    }
    return _frame(header, encode_entry(key, outcome.result, outcome.wall_s))


def encode_error(error_type: str, message: str) -> bytes:
    """Serialize a task that ran and raised."""
    header = {
        "schema": RESULT_SCHEMA,
        "ok": False,
        "error_type": error_type,
        "message": message,
    }
    return _frame(header)


def decode_result(data: bytes, key: str) -> WorkerOutcome:
    """Parse a worker's reply to the task keyed ``key``.

    Raises :class:`~.base.RemoteTaskError` for a well-formed error reply
    and :class:`~.base.WireProtocolError` for anything undecodable,
    including a result entry that is damaged or keyed to another task.
    """
    if len(data) < _U32.size:
        raise WireProtocolError(f"truncated reply ({len(data)} bytes)")
    end = _U32.size + _U32.unpack_from(data)[0]
    if end > len(data):
        raise WireProtocolError(f"truncated reply header ({len(data)} of {end} bytes)")
    try:
        header = json.loads(data[_U32.size : end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireProtocolError(f"undecodable reply header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != RESULT_SCHEMA:
        got = header.get("schema") if isinstance(header, dict) else type(header).__name__
        raise WireProtocolError(f"expected a {RESULT_SCHEMA} reply header, got {got}")
    if not header.get("ok"):
        raise RemoteTaskError(
            error_type=str(header.get("error_type", "RemoteError")),
            message=str(header.get("message", "")),
        )
    try:
        memo_hits = int(header.get("memo_hits", 0))
        memo_misses = int(header.get("memo_misses", 0))
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed result header: {exc}") from exc
    entry = decode_entry_bytes(key, data[end:])
    if entry is None:
        raise WireProtocolError("damaged result entry, or one keyed to another task")
    return WorkerOutcome(
        wall_s=entry.sim_wall_s,
        result=entry.result,
        memo_hits=memo_hits,
        memo_misses=memo_misses,
    )
