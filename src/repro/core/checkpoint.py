"""Descent checkpoint/resume: rung progress persisted through a sink.

A weight descent is a ladder of independent SAT calls, which makes it
naturally checkpointable: after each completed rung the whole useful
state is "best encoding so far and the stats of the rungs already
climbed".  The bound to chase next is always one below that encoding's
weight, so it is derived, never stored.  :func:`repro.core.descent.descend`
serializes that state into a :class:`DescentCheckpoint` after every SAT
rung and hands it to a :class:`CheckpointSink`; when a worker is killed
mid-descent, the retry loads the checkpoint and resumes at the last
completed rung instead of re-proving every bound from the baseline.

Persistence is **best-effort by contract**: a sink that cannot write
(disk full, chaos-injected fault) reports failure and the descent keeps
solving — losing a checkpoint costs retry time, never correctness.
Loading is equally defensive: any unreadable, version-skewed or
mismatched checkpoint is treated as absent (a cold start), and keys a
document carries beyond the ones read here (older writers stored the
loop's strategy, its next bound and a bisection window) are ignored.

The production sink (:class:`CacheCheckpointSink`) stores checkpoints in
the compilation cache's content-addressed tree under ``checkpoints/``,
keyed by the job fingerprint — the same identity the daemon requeues a
crashed job under, so a retried attempt finds its predecessor's progress
with no extra coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.encodings.base import MajoranaEncoding
    from repro.store.cache import CompilationCache

_CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class DescentCheckpoint:
    """Resumable state of one weight descent, captured between rungs.

    ``encoding`` is the best model so far in the standard encoding-schema
    dict (:func:`repro.encodings.serialization.encoding_to_dict`);
    ``steps`` are the completed rungs in result-schema step dicts.  A
    resumed descent asks next for one below the encoding's measured
    weight; ``weight`` records that weight for readers of the document.
    """

    encoding: dict
    weight: int
    steps: list = field(default_factory=list)
    solve_time_s: float = 0.0
    created_at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "checkpoint_format_version": _CHECKPOINT_FORMAT_VERSION,
            "encoding": self.encoding,
            "weight": self.weight,
            "steps": list(self.steps),
            "solve_time_s": self.solve_time_s,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DescentCheckpoint":
        version = data.get("checkpoint_format_version")
        if version != _CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {version!r}")
        return cls(
            encoding=data["encoding"],
            weight=data["weight"],
            steps=list(data.get("steps", [])),
            solve_time_s=data.get("solve_time_s", 0.0),
            created_at=data.get("created_at", 0.0),
        )

    def decode_encoding(self, num_modes: int) -> "MajoranaEncoding | None":
        """The checkpointed best encoding, or ``None`` when it does not
        decode to a valid encoding of ``num_modes`` modes (a checkpoint
        that fails its own consistency check is worthless — cold-start)."""
        from repro.encodings.serialization import encoding_from_dict

        try:
            encoding = encoding_from_dict(self.encoding, validate=True)
        except Exception:
            return None
        return encoding if encoding.num_modes == num_modes else None

    def decode_steps(self) -> list:
        """The completed rungs as :class:`~repro.core.descent.DescentStep`."""
        from repro.encodings.serialization import step_from_dict

        return [step_from_dict(step) for step in self.steps]


class CheckpointSink:
    """Where a descent persists its progress.  The base class is inert —
    a descent run without resilience wiring checkpoints nowhere."""

    def load(self) -> DescentCheckpoint | None:
        return None

    def save(self, checkpoint: DescentCheckpoint) -> bool:
        """Persist; returns ``False`` (never raises) when the write failed."""
        return False

    def clear(self) -> None:
        pass


class MemoryCheckpointSink(CheckpointSink):
    """In-process sink for tests: keeps the latest checkpoint and the
    full save history, so crash-resume tests can replay any rung k."""

    def __init__(self, checkpoint: DescentCheckpoint | None = None):
        self.checkpoint = checkpoint
        self.history: list[DescentCheckpoint] = []
        self.cleared = 0

    def load(self) -> DescentCheckpoint | None:
        return self.checkpoint

    def save(self, checkpoint: DescentCheckpoint) -> bool:
        self.checkpoint = checkpoint
        self.history.append(DescentCheckpoint.from_dict(checkpoint.to_dict()))
        return True

    def clear(self) -> None:
        self.checkpoint = None
        self.cleared += 1


class CacheCheckpointSink(CheckpointSink):
    """Checkpoints in the compilation cache, keyed by job fingerprint.

    Saves swallow ``OSError`` (real or chaos-injected) into a ``False``
    return plus a ``repro_checkpoint_failures_total`` counter — a descent
    must outlive its checkpoint store.
    """

    def __init__(self, cache: "CompilationCache", key: str, telemetry=None):
        self.cache = cache
        self.key = key
        self.telemetry = telemetry

    def load(self) -> DescentCheckpoint | None:
        data = self.cache.get_checkpoint(self.key)
        if data is None:
            return None
        try:
            return DescentCheckpoint.from_dict(data)
        except (ValueError, KeyError, TypeError):
            return None

    def save(self, checkpoint: DescentCheckpoint) -> bool:
        try:
            self.cache.put_checkpoint(self.key, checkpoint.to_dict(),
                                      telemetry=self.telemetry)
        except OSError:
            if self.telemetry is not None:
                self.telemetry.counter(
                    "repro_checkpoint_failures_total",
                    "descent checkpoint writes that failed (best-effort)",
                ).inc()
            return False
        if self.telemetry is not None:
            self.telemetry.counter(
                "repro_checkpoint_writes_total", "descent checkpoints persisted"
            ).inc()
        return True

    def clear(self) -> None:
        self.cache.clear_checkpoint(self.key)
