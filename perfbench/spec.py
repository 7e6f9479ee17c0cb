"""What the benchmark measures: workloads, budgets, metrics, layer map.

``BENCHMARK.json`` at the repository root holds the command, the workload
names and rationales, and each metric's unit, direction and bound; this
module reads it and adds what that file has no keys for (instances,
budgets, metric definitions, the layer map), which ``python3
perfbench/run.py --describe`` prints.

Every solver budget is a conflict count, never seconds: conflict counts
repeat exactly from run to run, wall time does not, and a time budget
would make the answers depend on how fast the host happens to be.
"""

from __future__ import annotations

import functools
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.cache
def benchmark() -> dict:
    """``BENCHMARK.json``: command, workloads, metrics with their bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def names(section: str) -> list[str]:
    """The names in one section: workloads, end_to_end or per_layer."""
    return [row["name"] for row in benchmark()[section]]


def units() -> dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer alike."""
    document = benchmark()
    return {row["name"]: row["unit"]
            for row in document["end_to_end"] + document["per_layer"]}


#: Hand-written optima of the Hamiltonian-independent objective (summed
#: Majorana weight, vacuum-preserving Full SAT), paper Fig. 6.
EXPECTED_OPTIMA = {2: 6, 3: 11, 4: 16}

#: Instances per workload: ``(modes, method, model, device)``.  A run
#: compiles whole passes over the list; the seed shuffles each pass.
#: ``proof-4``: the device-free job and the uniform-degree devices, which
#: all prove the optimum in the same 4,099 conflicts over 3 rungs.
PROOF4_INSTANCES = [
    (4, "independent", None, None),
    (4, "independent", None, "grid-2x2"),
    (4, "independent", None, "ring-4"),
]
#: Per-rung conflict cap of ``proof-4``.  It never binds on these
#: instances; it only turns a future hardness cliff into a visible
#: unproved result instead of a hang.
PROOF4_CONFLICTS_PER_RUNG = 20_000

#: ``ladder-6``: w/o-Alg (no power-set family), every rung capped.
LADDER6_INSTANCES = [
    (6, method, model, device)
    for device in (None, "grid-2x3", "linear-6")
    for method, model in (("independent", None),
                          ("sat+annealing", "hubbard:3"),
                          ("sat+annealing", "tv:6"))
]
LADDER6_CONFLICTS_PER_RUNG = 1_000

#: Annealing RNG seed of every ``sat+annealing`` job.  It is fixed, not
#: drawn from the benchmark seed, so the quality metrics are the same
#: for every seed and a change in them is a change in the program.
ANNEALING_SEED = 2024

#: Nominal wall time of one pass, used only to turn ``--seconds`` into a
#: whole number of passes of the traced run (at least two, for the
#: determinism check).  The untraced run times its passes as it goes.
NOMINAL_PASS_S = {"proof-4": 9.0, "ladder-6": 9.5}

#: Fewest timed compiles of an untraced run (it also makes at least two
#: passes).  Nine give each ``proof-4`` instance three samples, so its
#: median is a middle value, not the mean of two.
MIN_TIMED_COMPILES = 9

#: Compile workloads whose latencies are reported in reference-host
#: seconds (:mod:`perfbench.calibration`).  ``ladder-6``'s wall latency
#: drifted from 1.04 to 1.67 s within one set of ten runs; ``proof-4``
#: stays in wall seconds, because there the loop over-corrects.
CALIBRATED_COMPILES = ("ladder-6",)

#: Untimed compiles before the measured window: the first few compiles of
#: a process run 30-60% slower.  They use the small N=3 proof job, which
#: walks the same encoder, preprocess, solver and drat code.
WARMUP_COMPILES = 6

#: Fresh-process set-ups per run; ``setup_s`` is their median.  Half run
#: before the measured window and half after it, so a slow minute on the
#: host moves only some of them.
SETUP_SAMPLES = 5

#: ``service-mixed``: N=3 independent Full SAT with proofs, on no device
#: and on ``linear-3``.  A miss gets a fresh fingerprint from a distinct
#: per-rung conflict cap far above the 530-610 conflicts the descent
#: needs, so every miss does the same work and proves the same optimum.
SERVICE_MODES = 3
SERVICE_DEVICES = (None, "linear-3")
SERVICE_MISS_CONFLICTS_BASE = 50_000
SERVICE_HIT_CONFLICTS_BASE = 20_000
#: Hand-written results of the service job on each device: the proved
#: weight optimum (paper Fig. 6) and the routed two-qubit count of the
#: winning encoding (Bravyi-Kitaev needs 16 on ``linear-3``).  Every hit
#: and every miss must match them and every miss must prove the optimum.
SERVICE_EXPECTED = {None: {"weight": 11, "2q": None},
                    "linear-3": {"weight": 11, "2q": 10}}
#: Pre-warmed cache entries per device.  The daemon keeps fewer finished
#: records than all devices' hit keys together, so a cycled hit key has
#: always left its registry and every hit submission takes the
#: fingerprint + cache-read path.
SERVICE_HIT_KEYS = 32
SERVICE_MAX_RECORDS = 32
#: Untimed misses before the measured window (the first fork of the
#: worker pool and its first compiles are slow).
SERVICE_WARMUP_MISSES = 3
#: The miss thread waits on the daemon's event feed (``GET /events``
#: long-polls for at most this long) and wakes on its job's terminal
#: event: no sleep quantization, where the client library's ``wait``
#: sleeps 0.25 s between polls, and no busy polling competing with the
#: worker for a core.
SERVICE_EVENT_WAIT_S = 5.0
#: The reads thread pauses this long after each hit/duplicate/poll
#: cycle.  Without a pause, client, daemon and worker contend for two
#: cores and the miss latency swings with the scheduler.
SERVICE_READ_THINK_S = 0.05
#: Daemon readiness is polled this often during set-up.
SERVICE_READY_POLL_S = 0.001

#: ``--smoke``: the same code paths on instances that finish in well
#: under a second, for the benchmark's own tests.
SMOKE_INSTANCES = {
    "proof-4": [(2, "independent", None, None),
                (3, "independent", None, "ring-3")],
    "ladder-6": [(4, "independent", None, None),
                 (4, "sat+annealing", "hubbard:2", "linear-4")],
}
SMOKE_LADDER_CONFLICTS_PER_RUNG = 200
SMOKE_SERVICE_HIT_KEYS = 4
SMOKE_SERVICE_MAX_RECORDS = 4

WORKLOAD_DETAILS = {
    "proof-4": {
        "instances": "independent N=4 Full SAT, proof=True, on each of "
                     "no device, grid-2x2, ring-4; each pass shuffled by "
                     "the seed",
        "budget": f"{PROOF4_CONFLICTS_PER_RUNG} conflicts per rung",
        "loop": "closed, one serial compiler in the benchmark process, "
                "no cache",
        "left_out": "N=4 without vacuum constraints (525 s) and the "
                    "linear-4-weighted objective (>200 s): hardness cliffs",
    },
    "ladder-6": {
        "instances": "{independent, sat+annealing on hubbard:3, "
                     "sat+annealing on tv:6} x {no device, grid-2x3, "
                     "linear-6}; each pass shuffled by the seed",
        "budget": f"{LADDER6_CONFLICTS_PER_RUNG} conflicts per rung",
        "loop": "closed, one serial compiler in the benchmark process, "
                "no cache",
        "left_out": "6-mode Hamiltonian-dependent Full SAT: its first rung "
                    "exhausts any affordable budget and returns the baseline",
    },
    "service-mixed": {
        "instances": "N=3 independent Full SAT, proof=True, on no device "
                     "and linear-3; hit keys pre-warmed into the cache, "
                     "visited in a seeded order; miss caps offset by the seed",
        "budget": "conflict caps far above need; distinct caps give each "
                  "miss a fresh fingerprint",
        "loop": "closed, two client threads (reads: hit, duplicate, "
                "full-result poll, 50 ms think; misses: submit, then wait "
                "on the event feed) against "
                "a daemon process with one worker process",
        "left_out": "open-loop arrival rates",
    },
}

#: What each metric means; names, units, directions and bounds are in
#: ``BENCHMARK.json``.
DEFINITIONS = {
    "setup_s":
        "fresh process to ready for the first timed op: imports, instance "
        "generation and, in service-mixed, daemon readiness and the cache "
        "pre-warm; median of several set-ups in fresh processes, in "
        "reference-host seconds (see perfbench/calibration.py)",
    "compiles_per_s":
        "proof-4: compiles finished per second of measured wall time; "
        "ladder-6 and service-mixed (misses): compiles per reference-host "
        "second of compile latency, see perfbench/calibration.py",
    "compile_s_p50":
        "per-compile latency: the geometric mean over instances "
        "(service-mixed: devices) of each one's median; wall seconds on "
        "proof-4, reference-host seconds on ladder-6 and service-mixed "
        "(where a miss runs from submit to done)",
    "peak_rss_mb":
        "peak resident memory of the compiling process tree (service-mixed: "
        "daemon plus worker)",
    "weight_ratio":
        "geometric mean of achieved weight over the Bravyi-Kitaev weight",
    "routed_2q_ratio":
        "geometric mean of routed two-qubit gates over Bravyi-Kitaev's on the"
        " same device, device-bound compiles only",
    "encoder.self_s": "build_base_formula self time per compile",
    "encoder.clauses": "base-formula clauses per compile",
    "encoder.vars": "base-formula variables per compile",
    "ladder.self_s": "weight_ladder self time per compile",
    "ladder.clauses": "ladder clauses per compile",
    "preprocess.self_s": "preprocess self time per compile",
    "preprocess.clauses_out": "clauses left after preprocessing, per compile",
    "preprocess.vars_eliminated": "variables eliminated per compile",
    "solver.self_s": "CdclSolver construction + solve self time per compile",
    "solver.calls": "solve calls per compile",
    "solver.conflicts": "conflicts per compile",
    "solver.propagations": "propagations per compile",
    "solver.conflicts_per_s": "conflicts per second of solver self time",
    "solver.definitive_ratio": "SAT or UNSAT answers over solve calls",
    "descent.self_s":
        "descend self time per compile: decode, rank-check repair, phases",
    "descent.rungs": "descent rungs per compile",
    "descent.repairs": "w/o-Alg repairs per compile",
    "drat.self_s": "build_trace + trace hashing per compile",
    "drat.lines": "DRAT proof lines per compile",
    "drat.check_s":
        "check_trace time per distinct certificate (outside the timed op)",
    "annealing.self_s": "anneal_pairing self time per compile",
    "baselines.self_s": "baseline selection self time per compile",
    "hardware.self_s":
        "HardwareCostModel set-up + best_encoding self time per compile",
    "hardware.candidates": "encodings routed per device-bound compile",
    "hardware.swaps": "SWAPs of the winning encoding per device-bound compile",
    "cache.get_s": "CompilationCache.get self time per call",
    "cache.put_s": "CompilationCache.put + put_proof self time per call",
    "cache.hit_ratio": "cache hits over cache lookups",
    "cache.bytes_written":
        "bytes of entries and proof artifacts written per miss",
    "fingerprint.self_s":
        "job_from_spec + compile_job_key self time per submission",
    "serialization.self_s":
        "result_to_dict + result_from_dict self time per request",
    "serialization.bytes": "JSON response bytes per request",
    "service.submit_s":
        "daemon-side submit latency per submission (/metrics histogram)",
    "service.queue_wait_s": "median miss queued-to-started",
    "executor.dispatch_s":
        "mean miss started-to-finished minus the worker's job span",
    "service.trace_bytes_per_job": "/debug/trace payload bytes per miss",
    "client.requests_per_s":
        "HTTP requests completed per second by both client threads",
    "client.hit_s_p50": "median cache-hit submission latency",
    "client.hit_s_p99": "99th-percentile cache-hit latency",
    "client.dup_s_p50": "median duplicate-submission latency",
    "client.poll_s_p50": "median full-result poll latency",
    "quality.proved_fraction": "compiles that returned a proved optimum",
    "trace.overhead_share": "traced over untraced compile latency, minus one",
    "unattributed_share": "(op wall - sum of layer self time) / op wall",
}

#: Which end-to-end metric each layer should move, on which workload it is
#: heavy, and where it should not move (the prediction there is "no
#: change").  Service-only latencies are per-layer ``client.*`` metrics.
LAYER_MAP = {
    "core.encoder": {"metrics": ["encoder."], "moves": ["compile_s_p50"],
                     "heavy_in": "proof-4", "still_in": "ladder-6"},
    "sat.totalizer": {"metrics": ["ladder."], "moves": ["compile_s_p50"],
                      "heavy_in": "ladder-6", "still_in": "service-mixed"},
    "sat.preprocess": {"metrics": ["preprocess."], "moves": ["compiles_per_s"],
                       "heavy_in": "proof-4",
                       "still_in": "service-mixed hits"},
    "sat.solver": {"metrics": ["solver."], "moves": ["compiles_per_s"],
                   "heavy_in": "proof-4, ladder-6",
                   "still_in": "service-mixed hits"},
    "core.descent": {"metrics": ["descent."], "moves": ["compile_s_p50"],
                     "heavy_in": "ladder-6", "still_in": "proof-4"},
    "sat.drat": {"metrics": ["drat."], "moves": ["compile_s_p50"],
                 "heavy_in": "proof-4", "still_in": "ladder-6"},
    "core.annealing": {"metrics": ["annealing."], "moves": ["compile_s_p50"],
                       "heavy_in": "ladder-6", "still_in": "proof-4"},
    "core.baselines": {"metrics": ["baselines."], "moves": ["compile_s_p50"],
                       "heavy_in": "ladder-6", "still_in": "service-mixed"},
    "hardware": {"metrics": ["hardware."],
                 "moves": ["compile_s_p50", "routed_2q_ratio"],
                 "heavy_in": "ladder-6", "still_in": "service-mixed"},
    "store.cache": {"metrics": ["cache."],
                    "moves": ["client.hit_s_p50", "compile_s_p50"],
                    "heavy_in": "service-mixed", "still_in": "proof-4"},
    "store.fingerprint + store.batch": {
        "metrics": ["fingerprint."], "moves": ["client.hit_s_p50"],
        "heavy_in": "service-mixed", "still_in": "proof-4, ladder-6"},
    "encodings.serialization": {
        "metrics": ["serialization."], "moves": ["client.requests_per_s"],
        "heavy_in": "service-mixed", "still_in": "proof-4, ladder-6"},
    "service + parallel.executor": {
        "metrics": ["service.", "executor."],
        "moves": ["compile_s_p50", "client.hit_s_p99"],
        "heavy_in": "service-mixed", "still_in": "proof-4, ladder-6"},
}

def describe() -> dict:
    """Everything ``BENCHMARK.json`` has no keys for."""
    return {
        "workloads": WORKLOAD_DETAILS,
        "seed": "--seed shuffles each pass (compile workloads) and orders "
                "the hit keys and offsets the miss caps (service-mixed)",
        "definitions": DEFINITIONS,
        "layer_map": LAYER_MAP,
        "expected_optima": EXPECTED_OPTIMA,
    }
