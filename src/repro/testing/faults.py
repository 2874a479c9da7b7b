"""Deterministic fault injection for sweep robustness testing.

The fault supervisor of :mod:`repro.experiments.parallel` promises that
worker exceptions, hangs, hard crashes, and cache damage degrade the sweep
gracefully instead of aborting it.  This module makes those promises
testable: a rule table says which (benchmark, version) tasks misbehave and
how, and :func:`maybe_inject` — called from the simulation hook inside
every sweep task — fires the matching fault.

Rules travel through the environment (``$REPRO_FAULTS``) so they cross
into worker processes — the local pool's and the ``subprocess`` backend's
spawned children alike — regardless of start method;
attempt counters live in files under ``$REPRO_FAULT_DIR`` so "fail the
first N attempts, then succeed" stays deterministic across worker
processes (a task's attempts are sequential, so append-then-size needs no
locking).  With no fault spec in the environment the injector is a single
dictionary lookup — effectively free in production.

Fault modes:

* ``raise`` — raise :class:`FaultInjected` inside the task.
* ``hang`` — sleep ``hang_s`` seconds before proceeding (drives the
  per-task timeout path; with a small ``hang_s`` it models a slow task).
* ``kill`` — terminate the worker process with ``os._exit``
  (:data:`KILL_EXIT_CODE`; drives the ``BrokenProcessPool`` recovery path
  and the ``subprocess`` backend's ``TaskCrash``).  Only a process with a
  ``multiprocessing`` parent dies; in the coordinator — serial or degraded
  execution — dying would take the whole sweep down, so it degrades to a
  ``raise``.

The module also plants damaged persistent-cache entries (a flipped byte,
a torn write, a well-formed entry of a foreign schema) to exercise the
:class:`~repro.sim.resultcache.ResultCache` recovery paths.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple, Union

if TYPE_CHECKING:  # the cache helpers take a live ResultCache
    from repro.sim.resultcache import ResultCache

#: JSON rule table mapping targets to fault rules.  A target is
#: ``suite/name:version`` (one task), ``suite/name`` (both versions), or
#: ``*`` (every task).
FAULT_SPEC_ENV = "REPRO_FAULTS"

#: Directory holding cross-process attempt counters (one file per target).
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

#: Exit status of a worker killed by the ``kill`` fault mode.
KILL_EXIT_CODE = 86

RAISE = "raise"
HANG = "hang"
KILL = "kill"
MODES = (RAISE, HANG, KILL)


class FaultInjected(RuntimeError):
    """The error every injected ``raise`` (and parent-side ``kill``) throws."""


@dataclass(frozen=True)
class FaultRule:
    """How one target misbehaves.

    Args:
        mode: ``raise`` | ``hang`` | ``kill``.
        times: inject only on the first N attempts of the target, then
            behave normally (``None`` = every attempt).  Counted through
            ``$REPRO_FAULT_DIR`` when set, else in-process.
        hang_s: sleep duration for ``hang`` rules.
    """

    mode: str
    times: Optional[int] = None
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choose from {MODES}"
            )


def encode_rules(rules: Dict[str, FaultRule]) -> str:
    """Serialize a rule table for ``$REPRO_FAULTS``."""
    return json.dumps(
        {
            target: {
                "mode": rule.mode,
                "times": rule.times,
                "hang_s": rule.hang_s,
            }
            for target, rule in rules.items()
        },
        sort_keys=True,
    )


def decode_rules(text: str) -> Dict[str, FaultRule]:
    """Parse a ``$REPRO_FAULTS`` rule table (inverse of :func:`encode_rules`)."""
    raw = json.loads(text)
    rules: Dict[str, FaultRule] = {}
    for target, fields in raw.items():
        rules[target] = FaultRule(
            mode=fields["mode"],
            times=fields.get("times"),
            hang_s=float(fields.get("hang_s", 60.0)),
        )
    return rules


#: Memoized parse of the env spec: (spec text, parsed rules).
_parsed: Optional[Tuple[str, Dict[str, FaultRule]]] = None

#: Fallback attempt counters when no $REPRO_FAULT_DIR is set (single
#: process only: pool workers each see their own copy).
_local_attempts: Dict[str, int] = {}


def _rules_from(spec_text: str) -> Dict[str, FaultRule]:
    global _parsed
    if _parsed is None or _parsed[0] != spec_text:
        _parsed = (spec_text, decode_rules(spec_text))
    return _parsed[1]


def _counter_path(target: str) -> Optional[str]:
    root = os.environ.get(FAULT_DIR_ENV)
    if not root:
        return None
    slug = target.replace("/", "_").replace(":", "_")
    return os.path.join(root, f"{slug}.attempts")


def _bump_attempt(target: str) -> int:
    """Record one attempt of ``target``; returns its 1-based number."""
    path = _counter_path(target)
    if path is None:
        _local_attempts[target] = _local_attempts.get(target, 0) + 1
        return _local_attempts[target]
    with open(path, "ab") as handle:
        handle.write(b".")
    return os.path.getsize(path)


def attempts_recorded(target: str) -> int:
    """How many attempts of ``target`` the injector has seen (0 if none)."""
    path = _counter_path(target)
    if path is None:
        return _local_attempts.get(target, 0)
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@contextmanager
def injected_faults(
    rules: Dict[str, FaultRule],
    counter_dir: Union[None, str, Path] = None,
) -> Iterator[None]:
    """Activate ``rules`` for the enclosed block, parent and pool workers.

    Pass ``counter_dir`` (created if missing) whenever a rule uses
    ``times`` and the sweep runs in a process pool — workers cannot share
    in-memory counters.
    """
    previous_spec = os.environ.get(FAULT_SPEC_ENV)
    previous_dir = os.environ.get(FAULT_DIR_ENV)
    os.environ[FAULT_SPEC_ENV] = encode_rules(rules)
    if counter_dir is not None:
        os.makedirs(str(counter_dir), exist_ok=True)
        os.environ[FAULT_DIR_ENV] = str(counter_dir)
    _local_attempts.clear()
    try:
        yield
    finally:
        if previous_spec is None:
            os.environ.pop(FAULT_SPEC_ENV, None)
        else:
            os.environ[FAULT_SPEC_ENV] = previous_spec
        if counter_dir is not None:
            if previous_dir is None:
                os.environ.pop(FAULT_DIR_ENV, None)
            else:
                os.environ[FAULT_DIR_ENV] = previous_dir
        _local_attempts.clear()


def maybe_inject(benchmark: str, version: str) -> None:
    """Fire the configured fault for (benchmark, version), if any.

    Called from the sweep's simulation hook; a no-op unless
    ``$REPRO_FAULTS`` is set.
    """
    spec_text = os.environ.get(FAULT_SPEC_ENV)
    if not spec_text:
        return
    rules = _rules_from(spec_text)
    target = f"{benchmark}:{version}"
    rule = rules.get(target) or rules.get(benchmark) or rules.get("*")
    if rule is None:
        return
    if rule.times is not None and _bump_attempt(target) > rule.times:
        return
    if rule.mode == RAISE:
        raise FaultInjected(f"injected fault: {target}")
    if rule.mode == HANG:
        time.sleep(rule.hang_s)
        return
    # KILL: a hard worker death.  Pool workers and the subprocess
    # backend's spawned children may die for real; in the parent process
    # (serial or degraded execution) dying would take down the whole
    # sweep and the test runner with it, so degrade to a raise there.
    if multiprocessing.parent_process() is not None:
        os._exit(KILL_EXIT_CODE)
    raise FaultInjected(f"injected kill refused in parent process: {target}")


# -- persistent-cache damage ----------------------------------------------


def _damage_entry(
    cache: "ResultCache", key: str, damage: Callable[[bytes], bytes]
) -> Path:
    """Rewrite the entry for ``key`` as ``damage(bytes)``.

    A missing entry is first replaced by a well-formed stand-in whose
    header carries no result.
    """
    from repro.sim.resultcache import CACHE_SCHEMA, pack_entry

    path = cache.path_for(key)
    if path.is_file():
        data = path.read_bytes()
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pack_entry({"schema": CACHE_SCHEMA, "key": key, "result": {}}, {})
    path.write_bytes(damage(data))
    return path


def plant_corrupt_entry(cache: "ResultCache", key: str) -> Path:
    """Flip one byte in the middle of the entry for ``key`` (bit rot)."""

    def flip(data: bytes) -> bytes:
        middle = len(data) // 2
        return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1 :]

    return _damage_entry(cache, key, flip)


def plant_truncated_entry(cache: "ResultCache", key: str) -> Path:
    """Truncate the entry for ``key`` mid-stream (torn write)."""
    return _damage_entry(cache, key, lambda data: data[: len(data) // 2])


def plant_foreign_schema_entry(cache: "ResultCache", key: str) -> Path:
    """Write a well-formed entry, valid CRC included, of somebody else's schema."""
    from repro.sim.resultcache import pack_entry

    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pack_entry({"schema": "somebody.else/v9", "key": key}, {}))
    return path
