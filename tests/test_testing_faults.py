"""The fault injector itself, and the cache-damage recovery it drives.

Covers rule targeting/decoding, cross-process attempt counting, the
parent-process kill guard, and the :class:`ResultCache` promises: damaged
entries degrade to misses (and are removed), transient I/O errors degrade
to misses (and are *kept*), and the maintenance walkers survive entries
vanishing underneath them.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.config.system import discrete_gpu_system
from repro.experiments.parallel import COPY
from repro.sim.engine import SimOptions
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.serialize import results_identical
from repro.testing.faults import (
    FAULT_DIR_ENV,
    FAULT_SPEC_ENV,
    FaultInjected,
    FaultRule,
    attempts_recorded,
    decode_rules,
    encode_rules,
    injected_faults,
    maybe_inject,
    plant_corrupt_entry,
    plant_foreign_schema_entry,
    plant_truncated_entry,
)
from repro.workloads.registry import get


class TestRules:
    def test_encode_decode_round_trip(self):
        rules = {
            "a/b:copy": FaultRule("raise"),
            "c/d": FaultRule("hang", times=2, hang_s=1.5),
            "*": FaultRule("kill", times=1),
        }
        assert decode_rules(encode_rules(rules)) == rules

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultRule("explode")

    def test_no_env_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        maybe_inject("any/thing", COPY)  # must not raise

    def test_target_precedence_exact_then_benchmark_then_wildcard(self):
        with injected_faults(
            {
                "a/b:copy": FaultRule("raise"),
                "a/b": FaultRule("hang", hang_s=0.0),
                "*": FaultRule("hang", hang_s=0.0),
            }
        ):
            with pytest.raises(FaultInjected):
                maybe_inject("a/b", "copy")
            maybe_inject("a/b", "limited-copy")  # benchmark rule: harmless hang
            maybe_inject("x/y", "copy")  # wildcard rule: harmless hang

    def test_times_limits_injections_and_counts_attempts(self, tmp_path):
        rules = {"a/b:copy": FaultRule("raise", times=2)}
        with injected_faults(rules, counter_dir=tmp_path):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    maybe_inject("a/b", "copy")
            maybe_inject("a/b", "copy")  # third attempt: fault exhausted
            assert attempts_recorded("a/b:copy") == 3
        assert attempts_recorded("a/b:copy") == 0  # env restored

    def test_kill_in_parent_process_degrades_to_raise(self):
        """``os._exit`` in the parent would take down the test runner; the
        guard must turn the kill into a catchable exception here."""
        with injected_faults({"a/b:copy": FaultRule("kill")}):
            with pytest.raises(FaultInjected, match="refused in parent"):
                maybe_inject("a/b", "copy")

    def test_context_manager_restores_environment(self, tmp_path):
        os.environ.pop(FAULT_SPEC_ENV, None)
        os.environ.pop(FAULT_DIR_ENV, None)
        with injected_faults({"a/b": FaultRule("raise")}, counter_dir=tmp_path):
            assert FAULT_SPEC_ENV in os.environ
            assert os.environ[FAULT_DIR_ENV] == str(tmp_path)
        assert FAULT_SPEC_ENV not in os.environ
        assert FAULT_DIR_ENV not in os.environ


def _stored_entry(tmp_path):
    """A real simulated result stored in a fresh cache; returns (cache, key)."""
    from repro.experiments.parallel import SweepTask, run_tasks
    from repro.config.system import heterogeneous_processor

    spec = get("rodinia/kmeans")
    options = SimOptions(scale=1 / 512, seed=11)
    cache = ResultCache(tmp_path / "cache")
    results, _ = run_tasks(
        [SweepTask(spec, COPY)],
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=options,
        jobs=1,
        cache=cache,
    )
    key = cache_key(spec, COPY, discrete_gpu_system(), options)
    assert cache.load(key) is not None
    return cache, key, results[(spec.full_name, COPY)]


class TestCacheDamage:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache, key, _ = _stored_entry(tmp_path)
        path = plant_corrupt_entry(cache, key)
        assert cache.load(key) is None
        assert not path.exists()

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache, key, _ = _stored_entry(tmp_path)
        path = plant_truncated_entry(cache, key)
        assert cache.load(key) is None
        assert not path.exists()

    def test_foreign_schema_entry_is_a_miss_and_removed(self, tmp_path):
        cache, key, _ = _stored_entry(tmp_path)
        path = plant_foreign_schema_entry(cache, key)
        assert cache.load(key) is None
        assert not path.exists()

    def test_damaged_entry_heals_through_resimulation(self, tmp_path):
        """End to end: a torn cache write degrades to a re-simulation that
        rewrites the entry bit-identically."""
        cache, key, original = _stored_entry(tmp_path)
        plant_truncated_entry(cache, key)
        cache2, key2, replayed = _stored_entry(tmp_path)
        assert key2 == key
        entry = cache2.load(key)
        assert entry is not None
        assert results_identical(entry.result, original)
        assert results_identical(replayed, original)

    def test_transient_read_error_keeps_the_entry(self, tmp_path, monkeypatch):
        cache, key, _ = _stored_entry(tmp_path)
        path = cache.path_for(key)

        def deny(*args, **kwargs):
            raise PermissionError(13, "injected EACCES", str(path))

        monkeypatch.setattr(pathlib.Path, "read_bytes", deny)
        assert cache.load(key) is None  # miss, not crash
        monkeypatch.undo()
        assert path.exists()  # healthy file survived the hiccup
        assert cache.load(key) is not None

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.load("0" * 64) is None


class TestCacheMaintenanceRaces:
    def test_len_and_size_survive_entries_vanishing(self, tmp_path, monkeypatch):
        cache, key, _ = _stored_entry(tmp_path)
        ghost = cache.path_for("f" * 64)

        real_entries = list(cache.entries())
        monkeypatch.setattr(
            ResultCache, "entries", lambda self: iter(real_entries + [ghost])
        )
        assert len(cache) == 2  # listing itself still counts the ghost...
        assert cache.size_bytes() > 0  # ...but stat'ing it does not raise
        assert cache.clear() == 1  # only the real entry is removable

    def test_entries_skips_stray_files_in_root(self, tmp_path):
        cache, key, _ = _stored_entry(tmp_path)
        (cache.root / "README.txt").write_text("not an entry")
        (cache.root / "aa").mkdir(exist_ok=True)
        (cache.root / "aa" / "notes.md").write_text("also not an entry")
        assert len(cache) == 1

    def test_entries_on_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert list(cache.entries()) == []
        assert len(cache) == 0
        assert cache.size_bytes() == 0
        assert cache.clear() == 0
