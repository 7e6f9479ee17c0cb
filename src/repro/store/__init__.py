"""Persistent compilation store: fingerprints, on-disk cache, batch compile.

The SAT descent is expensive but deterministic, and its product — an
optimal encoding plus its provenance — is a small JSON document.  This
package turns that asymmetry into a subsystem:

* :mod:`repro.store.fingerprint` — stable content keys for compilation
  jobs (``(num_modes, config, canonical Hamiltonian support, method)``).
* :mod:`repro.store.cache` — :class:`CompilationCache`, a content-addressed
  on-disk memo of full :class:`~repro.core.pipeline.CompilationResult`s
  with hit / warm-start / corrupted-entry handling; its lookups and
  stores count into the caller's telemetry (:func:`cache_counts`).
* :mod:`repro.store.batch` — :class:`BatchCompiler`, a front-end that
  deduplicates a job list, answers final cache hits itself, and compiles
  the rest in-process or across worker processes
  (:mod:`repro.parallel.executor`).

See ``docs/ARCHITECTURE.md`` for the fingerprint and schema design.
"""

from repro.store.batch import (
    CONFIG_SPEC_KEYS,
    JOB_SPEC_KEYS,
    JOB_STATUSES,
    METHOD_SPELLINGS,
    BatchCompiler,
    BatchReport,
    CompileJob,
    JobOutcome,
    config_from_spec,
    job_from_spec,
)
from repro.store.cache import (
    CacheEntryInfo,
    CompilationCache,
    GcReport,
    cache_counts,
    default_cache_dir,
)
from repro.store.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_config,
    canonical_hamiltonian,
    compilation_key,
    job_payload,
)

__all__ = [
    "BatchCompiler",
    "BatchReport",
    "CONFIG_SPEC_KEYS",
    "CacheEntryInfo",
    "CompilationCache",
    "CompileJob",
    "FINGERPRINT_VERSION",
    "GcReport",
    "JOB_SPEC_KEYS",
    "JOB_STATUSES",
    "JobOutcome",
    "METHOD_SPELLINGS",
    "cache_counts",
    "canonical_config",
    "canonical_hamiltonian",
    "compilation_key",
    "config_from_spec",
    "default_cache_dir",
    "job_from_spec",
    "job_payload",
]
