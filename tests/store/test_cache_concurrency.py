"""Concurrent-writer safety of the compilation cache."""

import os
import pickle
import tempfile
import threading
from pathlib import Path

from repro.core.pipeline import FermihedralCompiler
from repro.store.cache import CompilationCache, cache_counts
from repro.telemetry import Telemetry


def _result():
    return FermihedralCompiler(2).hamiltonian_independent()


def _key(cache, **overrides):
    from repro.core.config import FermihedralConfig

    return cache.key_for(num_modes=2, config=FermihedralConfig(), **overrides)


class TestPickling:
    def test_cache_pickles_by_directory(self, tmp_path):
        cache = CompilationCache(tmp_path, validate=False)
        cache.put(_key(cache), _result())
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.validate is False
        # the directory and the validate flag are the whole state
        assert vars(clone) == {"root": cache.root, "validate": False}
        assert clone.get(_key(clone)) is not None


class TestConcurrentWriters:
    def test_racing_writers_one_key(self, tmp_path):
        cache = CompilationCache(tmp_path)
        result = _result()
        key = _key(cache)
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    cache.put(key, result)
                    cache.get(key)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.get(key) is not None
        assert len(cache) == 1

    def test_gc_racing_readers(self, tmp_path):
        cache = CompilationCache(tmp_path)
        result = _result()
        keys = [
            _key(cache, method="independent", seed=None),
        ]
        errors = []
        stop = threading.Event()

        def churn():
            try:
                while not stop.is_set():
                    for key in keys:
                        cache.put(key, result)
                    cache.gc(max_entries=0)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def read():
            try:
                for _ in range(40):
                    for key in keys:
                        cache.get(key)  # hit or miss, never an exception
                    cache.entries()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        writer = threading.Thread(target=churn)
        readers = [threading.Thread(target=read) for _ in range(3)]
        writer.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        writer.join()
        assert errors == []


class TestVanishingFiles:
    def test_get_tolerates_entry_vanishing_after_exists(self, tmp_path, monkeypatch):
        """The exists() -> read race with a concurrent gc is a miss, not a
        crash."""
        cache = CompilationCache(tmp_path)
        key = _key(cache)
        monkeypatch.setattr(Path, "exists", lambda self: True)
        telemetry = Telemetry()
        assert cache.get(key, telemetry=telemetry) is None
        assert cache_counts(telemetry)["misses"] == 1
        assert cache_counts(telemetry)["corrupted"] == 0

    def test_put_retries_when_shard_dir_removed(self, tmp_path):
        """A concurrent cleanup deleting the shard directory mid-put is
        absorbed by recreating it once."""
        cache = CompilationCache(tmp_path)
        key = _key(cache)
        result = _result()
        shard = cache.path_for(key).parent

        real_mkstemp = tempfile.mkstemp
        calls = {"n": 0}

        def sabotage(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                # simulate the directory vanishing before the temp file
                # can be created in it
                for child in shard.glob("*"):
                    child.unlink()
                shard.rmdir()
                raise FileNotFoundError(f"no such directory: {shard}")
            return real_mkstemp(*args, **kwargs)

        try:
            tempfile.mkstemp = sabotage
            path = cache.put(key, result)
        finally:
            tempfile.mkstemp = real_mkstemp
        assert path.exists()
        assert calls["n"] == 2
        assert cache.get(key) is not None

    def test_put_retries_when_replace_target_dir_removed(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = _key(cache)
        result = _result()
        shard = cache.path_for(key).parent

        real_replace = os.replace
        calls = {"n": 0}

        def sabotage(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                os.unlink(src)
                for child in shard.glob("*"):
                    child.unlink()
                shard.rmdir()
                raise FileNotFoundError(f"no such directory: {shard}")
            return real_replace(src, dst)

        try:
            os.replace = sabotage
            path = cache.put(key, result)
        finally:
            os.replace = real_replace
        assert path.exists()
        assert calls["n"] == 2
