"""Persistent, content-addressed compilation cache.

Entries live under a root directory, sharded by the first two hex chars of
their fingerprint key::

    <root>/ab/abcdef...0123.json

Each entry is a small, versioned JSON document wrapping a full
:class:`~repro.core.pipeline.CompilationResult` (result schema of
:mod:`repro.encodings.serialization`) plus descriptive job metadata for
``repro cache ls``.  Writes are atomic (temp file + ``os.replace``) so a
crashed or concurrent writer can never leave a half-written entry behind;
readers treat anything unparseable as a miss and count it as corrupted.

A cache object holds nothing but its directory and the ``validate``
flag: it keeps no counters of its own.  :meth:`CompilationCache.get` and
:meth:`~CompilationCache.put` count into the telemetry handle their caller
passes (``repro_cache_requests_total{outcome=hit|miss|corrupted}``,
``repro_cache_stores_total``), and :func:`cache_counts` reads those
counters back.  Worker processes relay their handles to the parent, so one
handle holds the whole record on either batch engine.  Every lookup is
counted where it happens: a job that misses is looked up twice (once at
the front door that checks for a final hit, once by the compile that then
runs it), a final hit once.

The cache is safe to share across threads and across processes on the
same filesystem, because the key is content-addressed: two processes that
race to store the same key write equivalent entries.  The parallel batch
executor leans on this: every worker process opens the same directory,
readers treat an entry GC'd from under them (``FileNotFoundError`` between
the existence check and the read) as a plain miss, and writers recreate a
shard directory a concurrent ``gc()``/cleanup removed mid-``put``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import chaos
from repro.store.fingerprint import compilation_key

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.config import AnnealingSchedule, FermihedralConfig
    from repro.core.pipeline import CompilationResult
    from repro.fermion.hamiltonians import FermionicHamiltonian
    from repro.hardware.topology import DeviceTopology
    from repro.sat.drat import ProofTrace

_ENTRY_FORMAT_VERSION = 1

#: Subdirectory of the cache root holding DRAT proof artifacts, stored
#: content-addressed by their own SHA-256 (not by job fingerprint: the
#: proof describes one concrete refutation, and a result entry points at
#: it through ``CompilationResult.proof["sha256"]``).
_PROOFS_DIR = "proofs"

#: Subdirectory of the cache root holding descent checkpoints, keyed by
#: job fingerprint.  A checkpoint is transient execution state (rung
#: progress of one in-flight descent), not a result: it is excluded from
#: entry listings and overwritten in place as the descent advances.
_CHECKPOINTS_DIR = "checkpoints"

#: Age (seconds) after which an orphaned ``.tmp`` writer file is fair game
#: for gc; any live put() completes in well under this.
_STALE_TEMP_S = 3600.0


def default_cache_dir() -> Path:
    """The conventional cache location: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/fermihedral``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "fermihedral"


_REQUESTS = "repro_cache_requests_total"
_REQUESTS_HELP = "compilation-cache lookups by outcome"


def _count(telemetry, name: str, help: str, **labels) -> None:
    if telemetry is not None:
        telemetry.counter(name, help).labels(**labels).inc()


def cache_counts(telemetry) -> dict[str, int]:
    """The cache activity recorded in a telemetry handle.

    ``hits`` counts entries found and decoded; a hit the compiler then
    used only to seed a warm-started descent also counts in
    ``warm_starts``.  ``corrupted`` counts entries that were present but
    unreadable; each of them is a miss too.  Counters that were never
    incremented read 0.
    """
    families = dict(telemetry.metrics.families())

    def value(name: str, key: tuple = ()) -> int:
        family = families.get(name)
        child = None if family is None else dict(family.children()).get(key)
        return 0 if child is None else int(child.value)

    return {
        "hits": value(_REQUESTS, (("outcome", "hit"),)),
        "misses": value(_REQUESTS, (("outcome", "miss"),)),
        "stores": value("repro_cache_stores_total"),
        "warm_starts": value("repro_cache_warm_starts_total"),
        "corrupted": value(_REQUESTS, (("outcome", "corrupted"),)),
    }


@dataclass(frozen=True)
class CacheEntryInfo:
    """Summary of one on-disk entry, as listed by ``repro cache ls``."""

    key: str
    path: Path
    num_modes: int | None
    method: str | None
    weight: int | None
    proved_optimal: bool | None
    created_at: float
    size_bytes: int
    corrupted: bool = False


@dataclass
class GcReport:
    """What a :meth:`CompilationCache.gc` pass removed and kept."""

    removed: list[CacheEntryInfo] = field(default_factory=list)
    #: Why each entry was evicted: key -> "corrupted" | "unproved" | "over-limit".
    reasons: dict[str, str] = field(default_factory=dict)
    kept: int = 0
    dry_run: bool = False
    temp_files_removed: int = 0

    @property
    def removed_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.removed)


# repro-lint: worker-shipped
class CompilationCache:
    """Content-addressed store of compilation results.

    Args:
        root: directory holding the entries; created on first use.
        validate: re-validate encoding constraints when decoding entries.
            Leave on unless the caller re-verifies results itself.

    The instance is stateless beyond those two: the reads and writes that
    count take the caller's ``telemetry`` handle per call (see the module
    docstring).  High-level use pairs :meth:`key_for` with
    :meth:`get`/:meth:`put`; :class:`~repro.core.pipeline
    .FermihedralCompiler` does this when constructed with ``cache=``.
    """

    def __init__(self, root: str | Path, validate: bool = True):
        self.root = Path(root)
        self.validate = validate

    # -- keys -----------------------------------------------------------------

    def key_for(
        self,
        num_modes: int,
        config: FermihedralConfig,
        hamiltonian: FermionicHamiltonian | None = None,
        method: str = "independent",
        schedule: AnnealingSchedule | None = None,
        seed: int | None = None,
        device: "DeviceTopology | None" = None,
    ) -> str:
        """Fingerprint a compilation job (see :mod:`repro.store.fingerprint`)."""
        return compilation_key(
            num_modes, config, hamiltonian, method, schedule, seed, device
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def proof_path(self, sha: str) -> Path:
        """On-disk location of a proof artifact (whether or not it exists)."""
        return self.root / _PROOFS_DIR / f"{sha}.json"

    def checkpoint_path(self, key: str) -> Path:
        """On-disk location of a key's descent checkpoint (if any)."""
        return self.root / _CHECKPOINTS_DIR / f"{key}.json"

    # -- read side ------------------------------------------------------------

    def _decode_entry(self, path: Path, key: str) -> CompilationResult:
        """Fully decode one entry file, raising ``ValueError``-family
        exceptions on any corruption (the single source of truth for what
        counts as a readable entry)."""
        from repro.encodings.serialization import result_from_dict

        data = json.loads(path.read_text())
        if data.get("entry_format_version") != _ENTRY_FORMAT_VERSION:
            raise ValueError("unknown entry format version")
        if data.get("key") != key:
            raise ValueError("entry key does not match its filename")
        return result_from_dict(data["result"], validate=self.validate)

    def get(self, key: str, telemetry=None) -> CompilationResult | None:
        """Fetch a cached result, or ``None`` on miss.

        Corrupted entries (unreadable JSON, schema mismatch, key mismatch,
        invalid encodings) are counted as ``corrupted`` and reported as
        misses; ``gc()`` removes them.  The lookup counts into
        ``telemetry`` when one is given.
        """
        path = self.path_for(key)
        result = None
        try:
            chaos.inject("cache.read", telemetry=telemetry)
            if path.exists():
                result = self._decode_entry(path, key)
        except OSError:
            # An unreadable store (injected or real) degrades to a miss:
            # the pipeline recomputes instead of failing the job.
            pass
        except (ValueError, KeyError, TypeError):
            _count(telemetry, _REQUESTS, _REQUESTS_HELP, outcome="corrupted")
        outcome = "miss" if result is None else "hit"
        _count(telemetry, _REQUESTS, _REQUESTS_HELP, outcome=outcome)
        return result

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # -- write side -----------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, text: str, prefix: str) -> None:
        """Write ``text`` to ``path`` atomically (temp + ``os.replace``).

        One retry: a concurrent cleanup may remove the parent directory
        between mkdir and the write/replace below; recreating it once
        closes that race (a second removal mid-retry is a real error).
        """
        for attempt in (0, 1):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                handle, temp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=f".{prefix}.", suffix=".tmp"
                )
            except FileNotFoundError:
                if attempt == 0:
                    continue
                raise
            try:
                with os.fdopen(handle, "w") as stream:
                    stream.write(text)
                os.replace(temp_name, path)
                break
            except FileNotFoundError:
                if attempt == 0:
                    continue
                raise
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise

    def put(self, key: str, result: CompilationResult, telemetry=None) -> Path:
        """Persist a result under ``key`` atomically; returns the entry path.
        The store counts into ``telemetry`` when one is given."""
        from repro.encodings.serialization import result_to_dict

        chaos.inject("cache.write", telemetry=telemetry)
        entry = {
            "entry_format_version": _ENTRY_FORMAT_VERSION,
            "key": key,
            "created_at": time.time(),
            "job": {
                "num_modes": result.encoding.num_modes,
                "method": result.method,
            },
            "result": result_to_dict(result),
        }
        path = self.path_for(key)
        self._atomic_write(path, json.dumps(entry, indent=2) + "\n", key[:8])
        _count(telemetry, "repro_cache_stores_total", "cache entries written")
        return path

    # -- proof artifacts -------------------------------------------------------

    def put_proof(self, trace: "ProofTrace") -> tuple[str, Path]:
        """Persist a DRAT proof artifact content-addressed; returns
        ``(sha256, path)``.

        The filename *is* the content hash, so concurrent writers of the
        same trace write identical bytes and the write is idempotent.
        """
        sha = trace.sha256()
        path = self.proof_path(sha)
        text = json.dumps(trace.to_dict(), sort_keys=True) + "\n"
        self._atomic_write(path, text, sha[:8])
        return sha, path

    def get_proof(self, sha: str) -> "ProofTrace | None":
        """Load a proof artifact by content hash; ``None`` on miss.

        The artifact's hash is recomputed and compared against the
        filename, so a corrupted or tampered file reads as a miss rather
        than as a plausible-looking certificate.
        """
        from repro.sat.drat import ProofTrace

        path = self.proof_path(sha)
        try:
            trace = ProofTrace.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError):
            # ``from_dict`` raises ValueError for every malformed artifact.
            return None
        if trace.sha256() != sha:
            return None
        return trace

    def proof_shas(self) -> list[str]:
        """Content hashes of every stored proof artifact (sorted)."""
        proofs = self.root / _PROOFS_DIR
        if not proofs.is_dir():
            return []
        return sorted(path.stem for path in proofs.glob("*.json"))

    # -- descent checkpoints ---------------------------------------------------

    def put_checkpoint(self, key: str, data: dict, telemetry=None) -> Path:
        """Persist a descent checkpoint document for ``key`` atomically.

        Overwrites any previous checkpoint for the key — only the latest
        rung state matters.  Raises ``OSError`` on failure; callers
        (:class:`repro.core.checkpoint.CacheCheckpointSink`) treat that as
        best-effort and keep solving.  ``telemetry`` only reaches the
        ``checkpoint.write`` chaos point.
        """
        chaos.inject("checkpoint.write", telemetry=telemetry)
        path = self.checkpoint_path(key)
        self._atomic_write(path, json.dumps(data) + "\n", key[:8])
        return path

    def get_checkpoint(self, key: str) -> dict | None:
        """Load a key's descent checkpoint document; ``None`` on miss or
        corruption (a bad checkpoint just means a cold start)."""
        path = self.checkpoint_path(key)
        try:
            data = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            return None
        return data if isinstance(data, dict) else None

    def clear_checkpoint(self, key: str) -> None:
        """Drop a key's checkpoint (after the descent completed)."""
        try:
            self.checkpoint_path(key).unlink()
        except OSError:
            pass

    # -- maintenance ----------------------------------------------------------

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name in (_PROOFS_DIR, _CHECKPOINTS_DIR):
                continue  # proof/checkpoint artifacts are not result entries
            yield from sorted(shard.glob("*.json"))

    def _info_for(self, path: Path) -> CacheEntryInfo | None:
        """Summarize one entry file; ``None`` when it vanished under a
        concurrent writer.  Reads only the summary fields — cheap, but
        blind to corruption deep inside the result payload (``gc()`` does
        the full decode)."""
        key = path.stem
        try:
            stat = path.stat()
        except OSError:
            return None  # vanished under a concurrent gc
        try:
            data = json.loads(path.read_text())
            if data.get("entry_format_version") != _ENTRY_FORMAT_VERSION:
                raise ValueError("unknown entry format version")
            if data.get("key") != key:
                raise ValueError("entry key does not match its filename")
            result = data["result"]
            return CacheEntryInfo(
                key=key,
                path=path,
                num_modes=data.get("job", {}).get("num_modes"),
                method=result.get("method"),
                weight=result.get("weight"),
                proved_optimal=result.get("proved_optimal"),
                created_at=data.get("created_at", stat.st_mtime),
                size_bytes=stat.st_size,
            )
        except OSError:
            return None  # vanished under a concurrent gc
        except (ValueError, KeyError, TypeError):
            return CacheEntryInfo(
                key=key,
                path=path,
                num_modes=None,
                method=None,
                weight=None,
                proved_optimal=None,
                created_at=stat.st_mtime,
                size_bytes=stat.st_size,
                corrupted=True,
            )

    def entries(self) -> list[CacheEntryInfo]:
        """Summaries of every entry, corrupted ones flagged rather than hidden.

        Entries removed by a concurrent writer between listing and reading
        are silently skipped.
        """
        infos = []
        for path in self._entry_paths():
            info = self._info_for(path)
            if info is not None:
                infos.append(info)
        return infos

    def find(self, key_prefix: str) -> list[CacheEntryInfo]:
        """Entries whose key starts with ``key_prefix``.

        Matches on filenames first (keys are content-addressed), so only
        the matching entries are ever read.
        """
        infos = []
        for path in self._entry_paths():
            if not path.stem.startswith(key_prefix):
                continue
            info = self._info_for(path)
            if info is not None:
                infos.append(info)
        return infos

    @staticmethod
    def _unlink_if_unchanged(path: Path, observed: os.stat_result) -> bool:
        """Remove ``path`` only if it is still the file ``observed`` described.

        A ``.tmp`` that looked stale when scanned may belong to a *live*
        writer whose clock is skewed or whose ``put()`` stalled: between
        the scan's ``stat`` and this removal the writer can finish
        (``os.replace`` moves the temp onto its entry, so the name
        vanishes) or the name can be reused by a fresh writer.  Re-check
        identity (inode + mtime) immediately before unlinking and treat
        any mismatch or disappearance as "not ours to remove", so gc
        never deletes — or counts — a temp that was replaced between
        stat and unlink.
        """
        try:
            fresh = path.stat()
            if (fresh.st_ino, fresh.st_mtime_ns) != (
                observed.st_ino, observed.st_mtime_ns
            ):
                return False
            path.unlink()
        except OSError:
            return False
        return True

    def gc(
        self,
        drop_unproved: bool = False,
        max_entries: int | None = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Prune the store.

        Corrupted entries are always removed — each survivor of the cheap
        summary check is fully decoded, so corruption buried in the result
        payload is caught too — as are temp files abandoned by crashed
        writers (older than :data:`_STALE_TEMP_S`, so a live writer's
        in-flight temp survives; removal re-checks the file's identity
        right before unlinking, so a temp the writer replaced between
        stat and unlink is neither deleted nor counted, and a stalled
        writer that loses its temp anyway recovers through ``put()``'s
        retry).  ``drop_unproved`` also evicts
        results whose optimality was never proved and that therefore only
        ever serve as warm starts — excluding ``sat+annealing`` entries,
        which are unproved by nature but count as full hits.
        ``max_entries`` keeps at most that many of the
        newest surviving entries.  ``dry_run`` reports without deleting.
        """
        from repro.core.config import METHOD_ANNEALING

        report = GcReport(dry_run=dry_run)
        now = time.time()
        for shard in self.root.glob("*/"):
            for temp in shard.glob(".*.tmp"):
                try:
                    observed = temp.stat()
                except OSError:
                    continue  # already replaced or removed
                if now - observed.st_mtime < _STALE_TEMP_S:
                    continue
                if dry_run:
                    report.temp_files_removed += 1
                elif self._unlink_if_unchanged(temp, observed):
                    report.temp_files_removed += 1
        def evict(info: CacheEntryInfo, reason: str) -> None:
            report.removed.append(info)
            report.reasons[info.key] = reason

        survivors = []
        for info in self.entries():
            corrupted = info.corrupted
            if not corrupted:
                # entries() only reads summary fields; a gc pass can afford
                # the full decode, so deep corruption is caught here too.
                try:
                    self._decode_entry(info.path, info.key)
                except OSError:
                    continue  # vanished under a concurrent writer
                except (ValueError, KeyError, TypeError):
                    corrupted = True
            if corrupted:
                evict(info, "corrupted")
                continue
            # sat+annealing results are never "proved" yet serve as full
            # hits (deterministic for their seed), so drop_unproved must
            # not evict them.
            evictable_unproved = (
                info.proved_optimal is False and info.method != METHOD_ANNEALING
            )
            if drop_unproved and evictable_unproved:
                evict(info, "unproved")
            else:
                survivors.append(info)
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort(key=lambda info: info.created_at, reverse=True)
            for info in survivors[max_entries:]:
                evict(info, "over-limit")
            survivors = survivors[:max_entries]
        report.kept = len(survivors)
        if not dry_run:
            for info in report.removed:
                try:
                    info.path.unlink()
                except OSError:
                    pass
        return report
