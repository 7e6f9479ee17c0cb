"""High-level compiler entry points — the paper's three configurations.

* :func:`solve_hamiltonian_independent` — minimize summed Majorana weight
  (Figures 6/7), with or without the algebraic-independence clauses.
* :func:`solve_full_sat` — "Full SAT": Hamiltonian-dependent weight encoded
  directly in the SAT objective (Tables 4/6, Figures 8-10).
* :func:`solve_sat_annealing` — "SAT + Anl.": Hamiltonian-independent SAT
  optimum, then simulated annealing over the pair-to-mode assignment
  (Tables 4/5).

:class:`FermihedralCompiler` bundles them behind one object for the
examples and benchmarks.  Constructed with a
:class:`repro.store.cache.CompilationCache`, it memoizes results on disk:

* **hit** — a cached result whose optimality was proved (or any cached
  ``sat+annealing`` result, which is deterministic for its seed) is
  returned as-is, performing zero SAT calls;
* **warm start** — a cached result that was *not* proved optimal seeds
  :func:`~repro.core.descent.descend`'s starting bound in place of the
  textbook baseline, so a rerun resumes tightening from where the last
  run stopped rather than from Bravyi-Kitaev;
* **miss** — a fresh compile, stored on completion.

**Hardware-aware mode.**  Constructed with a ``device`` (a
:class:`repro.hardware.topology.DeviceTopology` or a registry name such
as ``"grid-3x3"``), the compiler grounds the whole pipeline in that
device: the descent objective becomes the connectivity-weighted weight
(:func:`repro.hardware.cost.connectivity_weights` →
``FermihedralConfig.qubit_weights``), the SAT result competes against the
admissible textbook baselines on *routed* two-qubit gate count
(:class:`repro.hardware.cost.HardwareCostModel`), and the returned
:class:`CompilationResult` carries the winning encoding's
:class:`~repro.hardware.cost.HardwareCost`.  Cache fingerprints include
the device, so results for different topologies never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.annealing import AnnealingResult, anneal_pairing
from repro.core.baselines import best_baseline, candidate_baselines
from repro.core.config import (
    COMPILE_METHODS,
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    AnnealingSchedule,
    FermihedralConfig,
)
from repro.core.descent import DescentResult, descend, measured_weight
from repro.core.encoder import weight_classes
from repro.core.verify import VerificationReport, verify_encoding
from repro.encodings.base import MajoranaEncoding
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.hardware import (
    DeviceTopology,
    HardwareCost,
    HardwareCostModel,
    connectivity_weights,
    resolve_device,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.store.cache import CompilationCache


@dataclass
class CompilationResult:
    """An encoding together with how it was obtained and how it verifies.

    In hardware-aware mode (compiled through a device-bound
    :class:`FermihedralCompiler`), ``weight`` is normalized to the plain,
    unweighted objective value of the returned encoding so it stays
    comparable across devices; the connectivity-weighted objective the
    descent actually tightened lives in ``descent.weight``, ``device``
    names the topology, and ``hardware`` holds the routed gate counts.
    """

    encoding: MajoranaEncoding
    method: str
    weight: int
    proved_optimal: bool
    descent: DescentResult
    annealing: AnnealingResult | None = None
    verification: VerificationReport | None = None
    device: str | None = None
    hardware: HardwareCost | None = None
    #: Optimality-proof metadata when the job ran with ``proof=True`` and
    #: the descent captured an UNSAT certificate: the trace's content
    #: address (``sha256``), its size (``drat_lines``), the refuted bound,
    #: the engine that produced it, and — when a cache persisted the full
    #: artifact — its ``artifact`` path, consumable by
    #: ``repro verify-proof``.  ``None`` when no proof was captured.
    proof: dict | None = None
    #: The job's wall-clock deadline expired mid-descent: the encoding is
    #: the (valid) best found in time, returned instead of an error —
    #: graceful degradation.  Details in ``descent.degraded`` /
    #: ``descent.target_bound``.  Degraded results are never proved
    #: optimal, so the cache treats them as warm-start seeds, not hits.
    degraded: bool = False

    def verify(self) -> VerificationReport:
        if self.verification is None:
            self.verification = verify_encoding(self.encoding)
        return self.verification


def hardware_config(
    config: FermihedralConfig,
    topology: DeviceTopology | None,
    num_modes: int,
) -> FermihedralConfig:
    """The effective config of a job targeting ``topology``.

    A device installs its connectivity weights into the objective unless
    the caller pinned explicit ``qubit_weights`` already; without a device
    the config passes through unchanged.  The compiler and the batch
    fingerprinter share this so their cache keys always agree.
    """
    if topology is None or config.qubit_weights is not None:
        return config
    return config.with_qubit_weights(connectivity_weights(topology, num_modes))


def _as_fermihedral(encoding: MajoranaEncoding) -> MajoranaEncoding:
    """The compiler's output is always named ``fermihedral``, even when a
    budget-starved descent falls back to the seeding baseline."""
    if encoding.name == "fermihedral":
        return encoding
    return MajoranaEncoding(encoding.strings, name="fermihedral", validate=False)


def solve_hamiltonian_independent(
    num_modes: int,
    config: FermihedralConfig | None = None,
    baseline: MajoranaEncoding | None = None,
    telemetry=None,
    checkpoint=None,
) -> CompilationResult:
    """Minimize the total Pauli weight of the 2N Majorana strings.

    ``baseline`` overrides the automatic baseline selection; the cache
    passes a previously found encoding here to warm-start the descent.
    ``checkpoint`` (a :class:`repro.core.checkpoint.CheckpointSink`)
    enables the descent's crash-resume persistence.
    """
    config = config or FermihedralConfig()
    baseline = baseline or best_baseline(num_modes, config)
    result = descend(num_modes, config=config, baseline=baseline,
                     telemetry=telemetry, checkpoint=checkpoint)
    method = "full-sat" if config.algebraic_independence else "sat-wo-alg"
    return CompilationResult(
        encoding=_as_fermihedral(result.encoding),
        method=f"{method}/independent",
        weight=result.weight,
        proved_optimal=result.proved_optimal,
        descent=result,
        degraded=result.degraded,
    )


def solve_full_sat(
    hamiltonian: FermionicHamiltonian,
    config: FermihedralConfig | None = None,
    baseline: MajoranaEncoding | None = None,
    telemetry=None,
    checkpoint=None,
) -> CompilationResult:
    """Minimize the encoded weight of a specific Hamiltonian in SAT."""
    config = config or FermihedralConfig()
    baseline = baseline or best_baseline(hamiltonian.num_modes, config, hamiltonian)
    result = descend(
        hamiltonian.num_modes, config=config, hamiltonian=hamiltonian,
        baseline=baseline, telemetry=telemetry, checkpoint=checkpoint,
    )
    method = "full-sat" if config.algebraic_independence else "sat-wo-alg"
    return CompilationResult(
        encoding=_as_fermihedral(result.encoding),
        method=f"{method}/dependent",
        weight=result.weight,
        proved_optimal=result.proved_optimal,
        descent=result,
        degraded=result.degraded,
    )


def solve_sat_annealing(
    hamiltonian: FermionicHamiltonian,
    config: FermihedralConfig | None = None,
    schedule: AnnealingSchedule | None = None,
    seed: int = 2024,
    baseline: MajoranaEncoding | None = None,
    telemetry=None,
    checkpoint=None,
) -> CompilationResult:
    """SAT + Anl.: independent SAT optimum, then annealed pair assignment."""
    config = config or FermihedralConfig()
    baseline = baseline or best_baseline(hamiltonian.num_modes, config)
    independent = descend(hamiltonian.num_modes, config=config, baseline=baseline,
                          telemetry=telemetry, checkpoint=checkpoint)
    annealed = anneal_pairing(
        independent.encoding, hamiltonian, schedule=schedule, seed=seed
    )
    return CompilationResult(
        encoding=_as_fermihedral(annealed.encoding),
        method="sat+annealing",
        weight=annealed.weight,
        proved_optimal=False,
        descent=independent,
        annealing=annealed,
        # The annealing stage still ran to completion; what is degraded is
        # the SAT optimum it started from.
        degraded=independent.degraded,
    )


class FermihedralCompiler:
    """Facade over the three solving strategies, with optional memoization.

    Args:
        num_modes: number of fermionic modes every job must match.
        config: constraint/budget configuration shared by all jobs.
        cache: a :class:`repro.store.cache.CompilationCache`; when given,
            every compile consults and populates it (see the module
            docstring for the hit / warm-start / miss semantics).
        device: target topology for hardware-aware compilation — a
            :class:`~repro.hardware.topology.DeviceTopology` or a name
            resolvable by :func:`repro.hardware.devices.get_device`
            (``"grid-3x3"``, ``"ibm-falcon-27"``, ...).  Jobs may also
            override it per call via ``compile(..., device=...)``.
        telemetry: a :class:`repro.telemetry.Telemetry` handle; when
            given, every compile opens a ``compile`` span, the descent and
            solver layers record their own spans and metrics beneath it,
            and every cache lookup, store and warm start counts into the
            handle's registry.  ``None`` (the default) keeps the whole
            pipeline on its zero-overhead path.

    After each :meth:`compile` call, :attr:`last_cache_status` records how
    the cache participated: ``"disabled"``, ``"hit"``, ``"warm-start"``,
    ``"miss"``, or ``"store-failed"`` — the last meaning the compilation
    itself succeeded but persisting it did not (unwritable or vanished
    cache directory); the result is still returned and
    :attr:`last_cache_error` carries the reason.  Cache persistence is
    deliberately best-effort: a broken cache directory must never discard
    a finished compilation nor take down a batch or service worker.

    Example:
        >>> compiler = FermihedralCompiler(num_modes=2)
        >>> result = compiler.hamiltonian_independent()
        >>> result.weight <= 6
        True
    """

    def __init__(
        self,
        num_modes: int,
        config: FermihedralConfig | None = None,
        cache: CompilationCache | None = None,
        device: str | DeviceTopology | None = None,
        telemetry=None,
    ):
        if num_modes < 1:
            raise ValueError("num_modes must be positive")
        self.num_modes = num_modes
        self.config = config or FermihedralConfig()
        self.cache = cache
        self.telemetry = telemetry
        self.device = resolve_device(device)
        self._check_device(self.device)
        self.last_cache_status: str | None = None
        self.last_cache_error: str | None = None

    def _check_device(self, topology: DeviceTopology | None) -> None:
        if topology is not None and topology.num_qubits < self.num_modes:
            raise ValueError(
                f"device {topology.name!r} has {topology.num_qubits} qubits, "
                f"the encoding needs {self.num_modes}"
            )

    def _device_config(self, topology: DeviceTopology | None) -> FermihedralConfig:
        return hardware_config(self.config, topology, self.num_modes)

    def hamiltonian_independent(self) -> CompilationResult:
        return self.compile(method=METHOD_INDEPENDENT)

    def full_sat(self, hamiltonian: FermionicHamiltonian) -> CompilationResult:
        return self.compile(method=METHOD_FULL_SAT, hamiltonian=hamiltonian)

    def sat_with_annealing(
        self,
        hamiltonian: FermionicHamiltonian,
        schedule: AnnealingSchedule | None = None,
        seed: int = 2024,
    ) -> CompilationResult:
        return self.compile(
            method=METHOD_ANNEALING,
            hamiltonian=hamiltonian,
            schedule=schedule,
            seed=seed,
        )

    def compile(
        self,
        method: str = METHOD_INDEPENDENT,
        hamiltonian: FermionicHamiltonian | None = None,
        schedule: AnnealingSchedule | None = None,
        seed: int = 2024,
        cache_key: str | None = None,
        device: str | DeviceTopology | None = None,
    ) -> CompilationResult:
        """Run one compilation job through the cache (when enabled).

        Args:
            method: one of :data:`repro.core.config.COMPILE_METHODS`.
            hamiltonian: required for the Hamiltonian-dependent methods
                (``full-sat`` and ``sat+annealing``); must be ``None`` for
                ``independent``.
            schedule: cooling schedule for ``sat+annealing``.
            seed: annealing RNG seed for ``sat+annealing``.
            cache_key: precomputed fingerprint of this exact job (an
                optimization for callers like the batch compiler that
                already fingerprinted it); must equal what
                ``cache.key_for`` would return for the *device-effective*
                config — ``hardware_config(config, device, num_modes)`` —
                and the resolved device, which is what this method
                computes itself when the argument is omitted.
            device: per-call override of the compiler's target topology
                (see the constructor); ``None`` uses the compiler's own.
        """
        if method not in COMPILE_METHODS:
            raise ValueError(
                f"unknown compile method {method!r}; expected one of {COMPILE_METHODS}"
            )
        if method == METHOD_INDEPENDENT:
            if hamiltonian is not None:
                raise ValueError("the independent method takes no Hamiltonian")
        else:
            if hamiltonian is None:
                raise ValueError(f"method {method!r} requires a Hamiltonian")
            self._check_modes(hamiltonian)

        topology = self.device if device is None else resolve_device(device)
        self._check_device(topology)
        config = self._device_config(topology)
        self.last_cache_error = None

        if self.telemetry is None:
            return self._compile_inner(
                method, hamiltonian, schedule, seed, cache_key, topology, config
            )
        with self.telemetry.span(
            "compile",
            method=method,
            modes=self.num_modes,
            device="" if topology is None else topology.name,
        ) as attrs:
            result = self._compile_inner(
                method, hamiltonian, schedule, seed, cache_key, topology, config
            )
            attrs.update(
                cache=self.last_cache_status,
                weight=result.weight,
                proved_optimal=result.proved_optimal,
            )
            return result

    def _compile_inner(
        self,
        method: str,
        hamiltonian: FermionicHamiltonian | None,
        schedule: AnnealingSchedule | None,
        seed: int,
        cache_key: str | None,
        topology: DeviceTopology | None,
        config: FermihedralConfig,
    ) -> CompilationResult:
        if self.cache is None:
            self.last_cache_status = "disabled"
            result = self._solve(method, hamiltonian, schedule, seed, None, config)
            result = self._finish_hardware(result, topology, hamiltonian, config)
            self._attach_proof(result)
            return result

        from repro.core.checkpoint import CacheCheckpointSink

        key = cache_key or self.cache.key_for(
            num_modes=self.num_modes,
            config=config,
            hamiltonian=hamiltonian,
            method=method,
            schedule=schedule,
            seed=seed,
            device=topology,
        )
        cached = self.cache.get(key, telemetry=self.telemetry)
        if cached is not None and self._is_final(cached, method, topology):
            self.last_cache_status = "hit"
            return cached
        baseline = cached.encoding if cached is not None else None
        if baseline is not None:
            self.last_cache_status = "warm-start"
            if self.telemetry is not None:
                self.telemetry.counter(
                    "repro_cache_warm_starts_total",
                    "cache hits consumed as descent warm starts",
                ).inc()
        else:
            self.last_cache_status = "miss"
        # The sink shares the entry's fingerprint, so a retried attempt of
        # the same job (same key) finds its predecessor's rung progress.
        checkpoint = CacheCheckpointSink(self.cache, key, telemetry=self.telemetry)
        result = self._solve(method, hamiltonian, schedule, seed, baseline, config,
                             checkpoint=checkpoint)
        result = self._finish_hardware(result, topology, hamiltonian, config)
        self._attach_proof(result)
        try:
            self.cache.put(key, result, telemetry=self.telemetry)
        except OSError as error:
            # Persistence is best-effort (see the class docstring): an
            # unwritable or vanished cache directory downgrades to a
            # store-failed status instead of discarding the result.
            self.last_cache_status = "store-failed"
            self.last_cache_error = f"{type(error).__name__}: {error}"
            self._note_store_failure()
        return result

    def _note_store_failure(self) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(
                "repro_cache_store_failures_total",
                "cache writes that failed (best-effort persistence)",
            ).inc()

    def _solve(
        self,
        method: str,
        hamiltonian: FermionicHamiltonian | None,
        schedule: AnnealingSchedule | None,
        seed: int,
        baseline: MajoranaEncoding | None,
        config: FermihedralConfig | None = None,
        checkpoint=None,
    ) -> CompilationResult:
        config = config or self.config
        if method == METHOD_INDEPENDENT:
            return solve_hamiltonian_independent(
                self.num_modes, config, baseline=baseline,
                telemetry=self.telemetry, checkpoint=checkpoint,
            )
        if method == METHOD_FULL_SAT:
            return solve_full_sat(
                hamiltonian, config, baseline=baseline,
                telemetry=self.telemetry, checkpoint=checkpoint,
            )
        return solve_sat_annealing(
            hamiltonian, config, schedule, seed, baseline=baseline,
            telemetry=self.telemetry, checkpoint=checkpoint,
        )

    def _attach_proof(self, result: CompilationResult) -> None:
        """Summarize (and, with a cache, persist) the descent's DRAT trace.

        The metadata dict travels with the result and its cache entry; the
        full trace is content-addressed under the cache's ``proofs/``
        directory so ``repro verify-proof`` can re-check it later.  Like
        result persistence, artifact persistence is best-effort: a broken
        cache directory downgrades to ``store-failed`` instead of
        discarding the finished compilation.
        """
        trace = getattr(result.descent, "proof_trace", None)
        if trace is None:
            return
        proof = {
            "sha256": trace.sha256(),
            "drat_lines": trace.num_proof_lines,
            "bound": trace.meta.get("bound"),
            "engine": trace.meta.get("engine"),
        }
        if self.cache is not None:
            try:
                _, path = self.cache.put_proof(trace)
            except OSError as error:
                self.last_cache_status = "store-failed"
                self.last_cache_error = f"{type(error).__name__}: {error}"
                self._note_store_failure()
            else:
                proof["artifact"] = str(path)
        result.proof = proof

    @staticmethod
    def _is_final(
        cached: CompilationResult,
        method: str,
        topology: DeviceTopology | None,
    ) -> bool:
        """Whether a cached result can be returned as-is (a true hit).

        ``proved_optimal`` covers the plain methods; ``sat+annealing`` is
        deterministic for its schedule and seed.  A hardware-aware job is
        also final once its *descent* proved the weighted optimum — the
        routed-cost candidate selection that may have replaced the descent
        winner (clearing ``proved_optimal``) is deterministic given the
        device, so re-running could only reproduce the same answer.
        """
        if cached.proved_optimal or method == METHOD_ANNEALING:
            return True
        return topology is not None and cached.descent.proved_optimal

    def _finish_hardware(
        self,
        result: CompilationResult,
        topology: DeviceTopology | None,
        hamiltonian: FermionicHamiltonian | None,
        config: FermihedralConfig,
    ) -> CompilationResult:
        """Ground a fresh result in the target device (no-op without one).

        The descent winner's qubits are first relabelled for the device
        within their weight classes
        (:meth:`~repro.hardware.cost.HardwareCostModel.best_qubit_order`),
        which changes neither its weight nor its proof.  It then competes
        with the admissible textbook baselines on routed two-qubit gate
        count — hardware-aware compilation never returns an encoding that
        routes worse than a constructive one it could have had for free.  ``weight`` is normalized to the plain
        objective of whichever encoding wins, and the routed cost is
        attached.
        """
        if topology is None:
            return result
        model = HardwareCostModel(topology)
        # The descent returned its lex-leader labelling within each
        # weight class, arbitrary with respect to the device; choose one
        # for it instead.
        placed, _ = model.best_qubit_order(
            result.encoding, hamiltonian,
            weight_classes(config.qubit_weights, self.num_modes))
        candidates = [placed] + candidate_baselines(
            self.num_modes, config.vacuum_preservation
        )
        best, cost = model.best_encoding(candidates, hamiltonian)
        if best is not result.encoding:
            result.encoding = _as_fermihedral(best)
            result.verification = None
            if best is not placed:
                result.proved_optimal = False
        result.weight = measured_weight(result.encoding, hamiltonian)
        result.device = topology.name
        result.hardware = cost
        return result

    def _check_modes(self, hamiltonian: FermionicHamiltonian) -> None:
        if hamiltonian.num_modes != self.num_modes:
            raise ValueError(
                f"compiler built for {self.num_modes} modes, Hamiltonian has "
                f"{hamiltonian.num_modes}"
            )
