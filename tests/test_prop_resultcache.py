"""Property-based tests for persistent cache keying.

The cache key must be a pure function of the run's semantic inputs:
stable across process restarts (no dependence on hash randomization or
object identity), insensitive to dict ordering, and sensitive to every
:class:`SimOptions` field.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system
from repro.sim.engine import SimOptions
from repro.sim.resultcache import cache_key, canonical, spec_fingerprint
from repro.workloads.registry import get, simulatable_specs

SPEC = get("rodinia/kmeans")
DISCRETE = discrete_gpu_system()


def sim_options_strategy():
    return st.builds(
        SimOptions,
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1.0, 1 / 2, 1 / 16, 1 / 32, 1 / 64, 1 / 128]),
        line_bytes=st.sampled_from([32, 64, 128, 256]),
        collect_log=st.booleans(),
        dram_row_model=st.booleans(),
    )


@given(options=sim_options_strategy())
@settings(max_examples=50, deadline=None)
def test_key_is_deterministic_per_options(options):
    first = cache_key(SPEC, "copy", DISCRETE, options)
    second = cache_key(SPEC, "copy", DISCRETE, options)
    assert first == second
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")


@given(a=sim_options_strategy(), b=sim_options_strategy())
@settings(max_examples=100, deadline=None)
def test_key_equal_iff_options_equal(a, b):
    key_a = cache_key(SPEC, "copy", DISCRETE, a)
    key_b = cache_key(SPEC, "copy", DISCRETE, b)
    assert (key_a == key_b) == (a == b)


@given(
    items=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
        min_size=1,
        max_size=8,
    ),
    seed=st.randoms(),
)
@settings(max_examples=50, deadline=None)
def test_canonical_json_is_insensitive_to_dict_order(items, seed):
    entries = list(items.items())
    seed.shuffle(entries)
    shuffled = dict(entries)
    assert json.dumps(canonical(items), sort_keys=True) == json.dumps(
        canonical(shuffled), sort_keys=True
    )


@given(spec=st.sampled_from(simulatable_specs()))
@settings(max_examples=20, deadline=None)
def test_spec_fingerprint_is_json_stable(spec):
    fingerprint = spec_fingerprint(spec)
    assert "build" not in fingerprint
    text = json.dumps(fingerprint, sort_keys=True)
    assert json.loads(text) == fingerprint


def test_distinct_benchmarks_never_collide():
    options = SimOptions(scale=1 / 32)
    keys = {
        cache_key(spec, "copy", DISCRETE, options)
        for spec in simulatable_specs()
    }
    assert len(keys) == len(simulatable_specs())


def test_key_is_stable_across_process_restarts():
    """Two interpreters with different hash seeds agree on the key."""
    src_dir = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "from repro.sim.engine import SimOptions\n"
        "from repro.sim.resultcache import cache_key\n"
        "from repro.config.system import discrete_gpu_system\n"
        "from repro.workloads.registry import get\n"
        "print(cache_key(get('rodinia/kmeans'), 'copy', discrete_gpu_system(),"
        " SimOptions(scale=1/32, seed=11)))\n"
    )
    keys = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        ).stdout.strip()
        keys.append(output)
    in_process = cache_key(
        get("rodinia/kmeans"),
        "copy",
        discrete_gpu_system(),
        SimOptions(scale=1 / 32, seed=11),
    )
    assert keys[0] == keys[1] == in_process


def test_key_is_pinned():
    """One key, written down: a change to the key payload (what it hashes
    or how) rotates every stored entry, so it must show up here as a
    deliberate edit rather than as a cache that quietly stops hitting."""
    key = cache_key(
        get("rodinia/kmeans"),
        "copy",
        discrete_gpu_system(),
        SimOptions(scale=1 / 32, seed=1),
    )
    assert key == "f0ee17cf40518f92841e67a19450b0af553e2e9dc6eb74ead255f370350aeeb8"
