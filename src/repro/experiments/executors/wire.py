"""Wire format spoken between the coordinator and subprocess workers.

One task request flows to a worker's stdin as a single JSON document; one
reply flows back on its stdout, framed as a ``uint32`` little-endian byte
length, a JSON header, and a body:

* success — the header holds the stage-memo counts and the body is the
  ``repro.sweep_cache/v2`` entry of the fresh result under the task's
  cache key (:func:`repro.sim.resultcache.encode_entry`), raw;
* failure — the header holds the exception type and message; no body.

Encoding reuses :func:`repro.sim.resultcache.canonical` (dataclasses →
field dicts, enums → values), which already covers every config object;
decoding rebuilds the typed dataclasses generically from their field
annotations, so new ``SystemConfig``/``SimOptions`` fields never need
hand-written codec updates.  Result bodies pass through the cache's one
decoder, :func:`repro.sim.resultcache.decode_entry_bytes`, which checks
the CRC, the schema and the key.

Anything malformed — truncated stdout, non-JSON garbage, a foreign schema,
a field of the wrong shape, a damaged or mis-keyed entry — decodes to
:class:`WireProtocolError`, which the supervisor converts into a
structured retryable ``TaskFailure`` rather than crashing the coordinator
(tests/test_executors.py pins this).
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import json
import struct
import typing
from typing import Any, Dict, Optional, Type, TypeVar, Union

from repro.config.system import SystemConfig
from repro.sim.engine import SimOptions
from repro.sim.resultcache import canonical, decode_entry_bytes, encode_entry

from repro.experiments.executors.base import (
    RemoteTaskError,
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
)

#: Schema tags of the task document and of the reply header.
TASK_SCHEMA = "repro.executor.task/v2"
RESULT_SCHEMA = "repro.executor.result/v2"

#: Byte length of a reply's JSON header, which precedes it.
_U32 = struct.Struct("<I")

T = TypeVar("T")


def _from_wire(cls: Any, value: Any) -> Any:
    """Rebuild a typed value from its :func:`canonical` wire form.

    Handles the closed type universe of the config/options dataclasses:
    nested (frozen) dataclasses, enums, ``Optional[...]``, tuples/lists,
    and JSON scalars.  Raises ``WireProtocolError`` on shape mismatches.
    """
    origin = typing.get_origin(cls)
    if origin is Union:  # Optional[X] is Union[X, None]
        args = [a for a in typing.get_args(cls) if a is not type(None)]
        if value is None:
            if type(None) in typing.get_args(cls):
                return None
            raise WireProtocolError(f"unexpected null for {cls}")
        if len(args) != 1:
            raise WireProtocolError(f"cannot decode union {cls}")
        return _from_wire(args[0], value)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise WireProtocolError(f"expected list for {cls}, got {type(value).__name__}")
        args = typing.get_args(cls)
        if origin is tuple:
            item_type = args[0] if args and args[-1] is Ellipsis else None
            return tuple(_from_wire(item_type, item) if item_type else item for item in value)
        item_type = args[0] if args else None
        return [_from_wire(item_type, item) if item_type else item for item in value]
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        try:
            return cls(value)
        except ValueError as exc:
            raise WireProtocolError(str(exc)) from exc
    if dataclasses.is_dataclass(cls) and isinstance(cls, type):
        if not isinstance(value, dict):
            raise WireProtocolError(
                f"expected object for {cls.__name__}, got {type(value).__name__}"
            )
        hints = typing.get_type_hints(cls)
        kwargs: Dict[str, Any] = {}
        for fld in dataclasses.fields(cls):
            if fld.name not in value:
                continue  # let dataclass defaults cover absent fields
            kwargs[fld.name] = _from_wire(hints[fld.name], value[fld.name])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise WireProtocolError(f"cannot rebuild {cls.__name__}: {exc}") from exc
    return value  # JSON scalar (or untyped passthrough)


def decode_typed(cls: Type[T], value: Any) -> T:
    """Public typed entry point of :func:`_from_wire`."""
    return _from_wire(cls, value)


def _dumps(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _b64(data: Optional[bytes]) -> Optional[str]:
    return base64.b64encode(data).decode("ascii") if data is not None else None


def _unb64(text: Any, what: str) -> bytes:
    if not isinstance(text, str):
        raise WireProtocolError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise WireProtocolError(f"bad base64 in {what}: {exc}") from exc


# -- task ------------------------------------------------------------------


def encode_task(task: WorkerTask) -> bytes:
    payload = {
        "schema": TASK_SCHEMA,
        "benchmark": task.benchmark,
        "version": task.version,
        "spec_blob_b64": _b64(task.spec_blob),
        "system": canonical(task.system),
        "options": canonical(task.options),
        "cache_key": task.cache_key,
    }
    return _dumps(payload)


def _parse_document(data: bytes, schema: str) -> Dict[str, Any]:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireProtocolError(f"undecodable wire payload: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        raise WireProtocolError(
            f"expected a {schema} document, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload).__name__!s}"
        )
    return payload


def decode_task(data: bytes) -> WorkerTask:
    payload = _parse_document(data, TASK_SCHEMA)
    try:
        benchmark = payload["benchmark"]
        version = payload["version"]
        cache_key = payload["cache_key"]
    except KeyError as exc:
        raise WireProtocolError(f"task payload missing {exc}") from exc
    blob_b64 = payload.get("spec_blob_b64")
    return WorkerTask(
        benchmark=str(benchmark),
        version=str(version),
        spec_blob=_unb64(blob_b64, "spec_blob_b64") if blob_b64 is not None else None,
        system=decode_typed(SystemConfig, payload.get("system")),
        options=decode_typed(SimOptions, payload.get("options")),
        cache_key=str(cache_key),
    )


# -- result ----------------------------------------------------------------


def _frame(header: Dict[str, Any], body: bytes = b"") -> bytes:
    text = _dumps(header)
    return b"".join([_U32.pack(len(text)), text, body])


def encode_outcome(outcome: WorkerOutcome, key: str) -> bytes:
    """Serialize a successful task's reply: the header, then the result's
    cache entry under ``key`` (which also carries ``wall_s``)."""
    header = {
        "schema": RESULT_SCHEMA,
        "ok": True,
        "benchmark": outcome.benchmark,
        "version": outcome.version,
        "memo_hits": outcome.memo_hits,
        "memo_misses": outcome.memo_misses,
    }
    return _frame(header, encode_entry(key, outcome.result, outcome.wall_s))


def encode_error(benchmark: str, version: str, error_type: str, message: str) -> bytes:
    """Serialize a task that ran (or failed to decode) and raised."""
    header = {
        "schema": RESULT_SCHEMA,
        "ok": False,
        "benchmark": benchmark,
        "version": version,
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
    payload = _parse_document(data[_U32.size : end], RESULT_SCHEMA)
    if not payload.get("ok"):
        raise RemoteTaskError(
            error_type=str(payload.get("error_type", "RemoteError")),
            message=str(payload.get("message", "")),
        )
    try:
        benchmark = str(payload["benchmark"])
        version = str(payload["version"])
        memo_hits = int(payload.get("memo_hits", 0))
        memo_misses = int(payload.get("memo_misses", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed result header: {exc}") from exc
    entry = decode_entry_bytes(key, data[end:])
    if entry is None:
        raise WireProtocolError("damaged result entry, or one keyed to another task")
    return WorkerOutcome(
        benchmark=benchmark,
        version=version,
        wall_s=entry.sim_wall_s,
        result=entry.result,
        memo_hits=memo_hits,
        memo_misses=memo_misses,
    )
