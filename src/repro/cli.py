"""Command-line interface to the Fermihedral compiler.

Subcommands::

    python -m repro solve     --modes 3 [--model hubbard:3] [--cache DIR]
                              [--device grid-3x3] [--stats]
                              [--trace FILE.jsonl]
    python -m repro baselines --modes 4 [--model h2]
    python -m repro compile   --model h2 --encoding bk [--time 1.0]
                              [--device ibm-falcon-27]
    python -m repro verify    --encoding-file enc.json
    python -m repro verify-proof ARTIFACT [--dir DIR]
    python -m repro lint      [PATH ...] [--json|--sarif] [--explain RULE]
    python -m repro batch     jobs.json [--model h2 ...] [--cache DIR]
                              [--device linear-8] [--jobs 4]
    python -m repro cache     {ls,show,gc} [--dir DIR]
    python -m repro devices   {ls,show NAME}
    python -m repro trace     show FILE.jsonl
    python -m repro serve     [--port 8765] [--cache DIR] [--jobs 4]
    python -m repro submit    --model h2 [--wait] [--url URL]
    python -m repro jobs      {ls,show ID,proof ID,forensics ID} [--url URL]
    python -m repro top       [--once] [--interval 2.0] [--url URL]
    python -m repro watch     JOB_ID [--url URL]
    python -m repro shutdown  [--no-drain] [--url URL]
    python -m repro bench     {record,compare} --json-dir DIR

The service verbs talk to a ``repro serve`` daemon: a JSON-over-HTTP
job queue that deduplicates submissions by fingerprint, answers
cache hits synchronously, and fans the rest across worker processes.
``--url`` defaults to ``$REPRO_SERVICE_URL`` or
``http://127.0.0.1:8765``.

Parallelism: ``batch --jobs N`` fans unique jobs across N worker
processes with a live per-job status line on stderr; with ``--cache``,
final cached results are answered before any worker starts, and the
closing ``cache:`` line counts each job that misses twice (the batch's
own lookup, then the compile's) and each final hit once.  SAT instances
are simplified before solving (``--no-preprocess`` opts out), ``solve
--profile`` wraps the whole pipeline in cProfile, and ``solve --proof``
captures a DRAT certificate of the optimality-proving UNSAT answer
that ``repro verify-proof`` re-checks independently.  ``solve --trace
FILE.jsonl`` records the span tree of the whole compile (compile →
descent → rung → solve) as JSONL that ``repro trace show`` renders; a
running service additionally exposes ``GET /metrics`` (Prometheus text)
and ``GET /debug/trace/<id>``, and ``repro jobs proof ID`` fetches a
served proof and re-checks it client-side.

Observability: ``repro top`` is a live ops console over a running
service (queue depth, worker slots, cache hit ratio, latency quantiles,
per-active-job bound and conflict rate), ``repro watch ID`` follows one
job's progress stream to completion, ``repro jobs forensics ID``
retrieves the flight-recorder dump of a failed job (breadcrumbs, open
spans, metrics, traceback), and ``repro bench record/compare`` keeps an
append-only perf-history ledger that flags >10% regressions between
commits.  Given enough budget per SAT call, none of these knobs
changes achieved weights or optimality proofs — only wall-clock time.

Model specs: ``h2``, ``hubbard:<sites>``, ``hubbard:<rows>x<cols>``,
``syk:<modes>``, ``electronic:<modes>``, ``tv:<sites>``.

Device specs: registry presets (``repro devices ls``) or parametric
layouts — ``linear-<n>``, ``ring-<n>``, ``grid-<r>x<c>``,
``heavy-hex-<r>x<c>``, ``all-to-all-<n>``.  A device switches solving to
hardware-aware mode: connectivity-weighted SAT objective, routed-cost
candidate selection, per-device cache keys, and routed gate counts in the
output.

The ``cache`` directory defaults to ``$REPRO_CACHE_DIR`` or
``~/.cache/fermihedral`` for the ``cache`` subcommand; ``solve`` and
``batch`` only persist when ``--cache`` is passed explicitly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.tables import format_table
from repro.circuits import greedy_cancellation_order, optimize_circuit, trotter_circuit
from repro.core import (
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    FermihedralCompiler,
    FermihedralConfig,
    SolverBudget,
    verify_encoding,
)
from repro.encodings import (
    bravyi_kitaev,
    jordan_wigner,
    parity_encoding,
    random_encoding,
    ternary_tree,
)
from repro.encodings.serialization import load_encoding, save_encoding
from repro.fermion.catalog import MODEL_SPEC_HELP, parse_model
from repro.hardware import (
    HardwareCostModel,
    connectivity_weights,
    device_spec_help,
    get_device,
    list_devices,
)
from repro.store import (
    BatchCompiler,
    CompilationCache,
    CompileJob,
    cache_counts,
    default_cache_dir,
    job_from_spec,
)

_BASELINE_BUILDERS = {
    "jw": jordan_wigner,
    "bk": bravyi_kitaev,
    "parity": parity_encoding,
    "tt": ternary_tree,
}

_MODEL_HELP = MODEL_SPEC_HELP


def _config_from_args(args) -> FermihedralConfig:
    return FermihedralConfig(
        algebraic_independence=not args.no_alg,
        vacuum_preservation=not args.no_vacuum,
        exact_vacuum=args.exact_vacuum,
        budget=SolverBudget(
            max_conflicts=args.max_conflicts, time_budget_s=args.budget_s
        ),
        preprocess=not args.no_preprocess,
        proof=getattr(args, "proof", False),
        deadline_s=getattr(args, "deadline", None),
    )


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    """Constraint/budget flags shared by ``solve`` and ``batch``."""
    parser.add_argument("--no-alg", action="store_true",
                        help="label the run 'SAT w/o Alg.' (paper Section "
                             "4.1); the instance is unchanged, since "
                             "pairwise anticommutation already implies "
                             "algebraic independence")
    parser.add_argument("--no-vacuum", action="store_true",
                        help="drop the vacuum-preservation clauses")
    parser.add_argument("--exact-vacuum", action="store_true",
                        help="use the exact vacuum constraint instead of the "
                             "paper's sufficient condition")
    parser.add_argument("--budget-s", type=float, default=60.0, metavar="SECONDS",
                        help="time budget per SAT call (default: 60)")
    parser.add_argument("--max-conflicts", type=int, default=None, metavar="N",
                        help="conflict budget per SAT call (default: unlimited)")
    parser.add_argument("--no-preprocess", action="store_true",
                        help="solve the raw CNF instead of simplifying it "
                             "first (unit propagation, subsumption, bounded "
                             "variable elimination); identical results, "
                             "usually slower")
    parser.add_argument("--proof", action="store_true",
                        help="capture a DRAT certificate of the descent's "
                             "final UNSAT answer (the optimality proof), "
                             "re-checkable with 'repro verify-proof'")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="whole-job wall-clock deadline; on expiry the "
                             "best encoding found so far is returned marked "
                             "degraded instead of failing (execution-only: "
                             "does not change the cache fingerprint)")


def _resolve_encoding(name: str, num_modes: int):
    if name in _BASELINE_BUILDERS:
        return _BASELINE_BUILDERS[name](num_modes)
    if name.startswith("random"):
        _, _, seed = name.partition(":")
        return random_encoding(num_modes, seed=int(seed or 0))
    return load_encoding(name)


def _print_result_summary(result, mid_lines: tuple[str, ...] = (),
                          post_lines: tuple[str, ...] = ()) -> None:
    """The shared ``solve`` / ``cache show`` result block.

    ``mid_lines`` print between the headline fields and the solver stats;
    ``post_lines`` print after the stats, before the Majorana strings.
    """
    print(f"method:          {result.method}")
    print(f"weight:          {result.weight}")
    print(f"proved optimal:  {result.proved_optimal}")
    for line in mid_lines:
        print(line)
    print(f"SAT calls:       {result.descent.sat_calls}"
          f" (solve {result.descent.solve_time_s:.2f}s)")
    if result.annealing is not None:
        print(f"annealing:       {result.annealing.initial_weight} -> "
              f"{result.annealing.weight} "
              f"({result.annealing.accepted_moves} accepted moves)")
    if result.hardware is not None:
        hardware = result.hardware
        print(f"device:          {result.device} "
              f"({hardware.num_physical_qubits} qubits)")
        print(f"routed 2q gates: {hardware.two_qubit_count} "
              f"({hardware.swap_count} swaps, "
              f"+{hardware.routing_overhead} over logical)")
        print(f"routed depth:    {hardware.depth} "
              f"(logical {hardware.logical_depth})")
    for line in post_lines:
        print(line)
    print("majorana strings:")
    for index, string in enumerate(result.encoding.strings):
        print(f"  m_{index:<3d} {string.label()}")


def _print_solver_stats(result) -> None:
    """The ``solve --stats`` block: search effort per descent step."""
    descent = result.descent
    print("solver statistics:")
    print(f"  conflicts:     {descent.total_conflicts}")
    print(f"  decisions:     {descent.total_decisions}")
    print(f"  propagations:  {descent.total_propagations}")
    print(f"  restarts:      {descent.total_restarts}")
    print(f"  construct:     {descent.construct_time_s:.2f}s")
    if descent.preprocess_time_s:
        print(f"  preprocess:    {descent.preprocess_time_s:.2f}s")
    rows = [
        [step.bound, step.status,
         "-" if step.achieved_weight is None else step.achieved_weight,
         step.conflicts, step.decisions, step.propagations, step.restarts,
         f"{step.elapsed_s:.2f}"]
        for step in descent.steps
    ]
    if rows:
        print(format_table(
            ["bound", "status", "achieved", "conflicts", "decisions",
             "propagations", "restarts", "time (s)"],
            rows,
        ))


def _profiled(run):
    """Run ``run()`` under cProfile; returns (result, top-20 stats text)."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = run()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(20)
    return value, buffer.getvalue()


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    # --proof-out implies --proof: asking for the artifact is asking for
    # the capture.
    if args.proof_out:
        config = config.with_parallelism(proof=True)
    cache = CompilationCache(args.cache) if args.cache else None
    telemetry = None
    if args.trace:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    if args.model:
        hamiltonian = parse_model(args.model)
        if args.modes and args.modes != hamiltonian.num_modes:
            print(f"error: model has {hamiltonian.num_modes} modes, --modes says "
                  f"{args.modes}", file=sys.stderr)
            return 2
        method = METHOD_ANNEALING if args.method == "sat-anl" else METHOD_FULL_SAT
        compiler = FermihedralCompiler(hamiltonian.num_modes, config, cache=cache,
                                       device=args.device, telemetry=telemetry)
        run = lambda: compiler.compile(method=method, hamiltonian=hamiltonian)  # noqa: E731
    else:
        if not args.modes:
            print("error: --modes or --model is required", file=sys.stderr)
            return 2
        compiler = FermihedralCompiler(args.modes, config, cache=cache,
                                       device=args.device, telemetry=telemetry)
        run = lambda: compiler.compile(method=METHOD_INDEPENDENT)  # noqa: E731

    if args.profile:
        result, profile_text = _profiled(run)
    else:
        result, profile_text = run(), None

    report = result.verify()
    post = []
    if result.degraded:
        target = result.descent.target_bound
        post.append(
            "degraded:        deadline expired mid-descent; best-so-far "
            f"weight {result.weight}"
            + ("" if target is None else f" (next target bound was {target})")
        )
    if cache is not None:
        post.append(f"cache:           {compiler.last_cache_status} ({args.cache})")
    if result.proof is not None:
        post.append(f"proof:           sha256 {result.proof['sha256'][:12]} "
                    f"({result.proof['drat_lines']} DRAT lines, "
                    f"bound {result.proof['bound']})")
    elif config.proof:
        if compiler.last_cache_status == "hit":
            reason = "the cached result was computed without --proof"
        else:
            reason = "the descent never proved UNSAT"
        post.append(f"proof:           not captured ({reason})")
    _print_result_summary(
        result,
        mid_lines=(
            f"valid:           {report.valid}",
            f"vacuum:          {report.vacuum_preservation}",
        ),
        post_lines=tuple(post),
    )
    if args.stats:
        _print_solver_stats(result)
    if profile_text is not None:
        print("profile (top 20 by cumulative time):")
        print(profile_text, end="")
    if args.output:
        save_encoding(result.encoding, args.output)
        print(f"saved encoding to {args.output}")
    if telemetry is not None:
        from repro.telemetry import write_jsonl

        events = telemetry.tracer.events()
        write_jsonl(events, args.trace)
        print(f"saved trace to {args.trace} ({len(events)} spans; "
              f"render with 'repro trace show {args.trace}')")
    if result.proof is not None:
        trace = getattr(result.descent, "proof_trace", None)
        if trace is None and cache is not None:
            # Cache hit: the trace lives in the cache's proofs/ directory.
            trace = cache.get_proof(result.proof["sha256"])
        artifact = result.proof.get("artifact")
        if args.proof_out or artifact is None:
            out = args.proof_out or f"proof-{result.proof['sha256'][:12]}.json"
            if trace is None:
                print("error: the proof trace is not available to write "
                      "(cached metadata without a stored artifact)",
                      file=sys.stderr)
                return 1
            _write_proof_artifact(trace, out)
            print(f"saved proof to {out}")
        else:
            print(f"proof artifact:  {artifact}")
    return 0


def cmd_baselines(args) -> int:
    hamiltonian = parse_model(args.model) if args.model else None
    num_modes = hamiltonian.num_modes if hamiltonian else args.modes
    if not num_modes:
        print("error: --modes or --model is required", file=sys.stderr)
        return 2
    rows = []
    for name, builder in _BASELINE_BUILDERS.items():
        encoding = builder(num_modes)
        cells = [name, encoding.total_majorana_weight]
        if hamiltonian is not None:
            cells.append(encoding.hamiltonian_pauli_weight(hamiltonian))
        rows.append(cells)
    headers = ["encoding", "majorana weight"]
    if hamiltonian is not None:
        headers.append(f"H weight ({hamiltonian.name})")
    print(format_table(headers, rows))
    return 0


def cmd_compile(args) -> int:
    hamiltonian = parse_model(args.model)
    encoding = _resolve_encoding(args.encoding, hamiltonian.num_modes)
    operator = encoding.encode(hamiltonian).without_identity().hermitian_part()
    order = greedy_cancellation_order(operator)
    circuit = optimize_circuit(
        trotter_circuit(operator, time=args.time, steps=args.steps, term_order=order)
    )
    stats = circuit.gate_statistics()
    print(f"model:     {hamiltonian.name} ({hamiltonian.num_modes} modes)")
    print(f"encoding:  {encoding.name}")
    print(f"H weight:  {encoding.hamiltonian_pauli_weight(hamiltonian)}")
    print(f"terms:     {len(operator)}")
    print(f"gates:     single={stats['single']} cnot={stats['cnot']} "
          f"total={stats['total']} depth={stats['depth']}")
    if args.device:
        topology = get_device(args.device)
        cost = HardwareCostModel(topology, evolution_time=args.time).cost_of_encoding(
            encoding, hamiltonian
        )
        print(f"device:    {topology.name} ({topology.num_qubits} qubits)")
        print(f"routed:    cnot={cost.two_qubit_count} swaps={cost.swap_count} "
              f"depth={cost.depth} (+{cost.routing_overhead} cnot over logical)")
    return 0


def _write_proof_artifact(trace, path: str | Path) -> None:
    """Write a proof trace exactly as the cache stores it (canonical JSON),
    so the file's sha256 discipline matches ``verify-proof``'s."""
    Path(path).write_text(json.dumps(trace.to_dict(), sort_keys=True) + "\n")


def _unreadable_artifact(source: str) -> int:
    print(f"artifact:        {source}")
    print("verdict:         FAILED (artifact is corrupted or unreadable)")
    return 1


def _print_proof_verdict(claim: str | None, ok: bool, reason: str | None,
                         checked_additions: int, steps: int,
                         where: str = "") -> int:
    """The claim and verdict lines of a proof check; returns the exit code."""
    if claim is not None:
        print(f"claim:           {claim}")
    if ok:
        print(f"verdict:         OK ({checked_additions} additions "
              f"checked in {steps} steps{where})")
        return 0
    print(f"verdict:         FAILED ({reason})")
    return 1


def cmd_verify_proof(args) -> int:
    from repro.core.claims import verify_proof
    from repro.sat.drat import ProofTrace

    path = Path(args.artifact)
    if path.exists():
        source = str(path)
        # Text that is not JSON at all is a usage error (exit 2, like any
        # unreadable input file); JSON that is no proof artifact fails the
        # verification itself.
        data = json.loads(path.read_text())
        try:
            trace = ProofTrace.from_dict(data)
        except ValueError:
            return _unreadable_artifact(source)
        # Content-addressed file names double as integrity checks.
        stem = path.stem
        if len(stem) == 64 and all(c in "0123456789abcdef" for c in stem) \
                and trace.sha256() != stem:
            print(f"artifact:        {source}")
            print("verdict:         FAILED (content does not match the "
                  "artifact's content address)")
            return 1
    else:
        cache = CompilationCache(args.dir)
        matches = [sha for sha in cache.proof_shas()
                   if sha.startswith(args.artifact)]
        if not matches:
            print(f"error: no file or cached proof matches {args.artifact!r}",
                  file=sys.stderr)
            return 2
        if len(matches) > 1:
            print(f"error: {args.artifact!r} is ambiguous "
                  f"({len(matches)} proofs):", file=sys.stderr)
            for sha in matches:
                print(f"  {sha}", file=sys.stderr)
            return 2
        trace = cache.get_proof(matches[0])
        source = str(cache.proof_path(matches[0]))
        if trace is None:
            return _unreadable_artifact(source)
    print(f"artifact:        {source}")
    print(f"sha256:          {trace.sha256()}")
    print(f"variables:       {trace.num_variables}")
    print(f"assumptions:     {len(trace.assumptions)}")
    print(f"axioms:          {len(trace.axioms)}")
    print(f"proof lines:     {trace.num_proof_lines}")
    for key in ("bound", "engine"):
        if key in trace.meta:
            print(f"{key + ':':<17}{trace.meta[key]}")
    claim, verdict = verify_proof(trace)
    return _print_proof_verdict(claim, verdict.ok, verdict.reason,
                                verdict.checked_additions, verdict.steps)


def cmd_trace_show(args) -> int:
    from repro.telemetry import read_jsonl, render_tree

    events = read_jsonl(args.file)
    print(render_tree(events))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import (
        baseline_dict,
        explain_rule,
        load_baseline,
        run_lint,
    )

    if args.explain is not None:
        print(explain_rule(args.explain))
        return 0
    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    baseline = load_baseline(args.baseline) if args.baseline else None
    rules = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    report = run_lint(paths, rules=rules, baseline=baseline)
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(baseline_dict(report), indent=2) + "\n")
        print(f"baseline with {len(report.findings)} entries written to "
              f"{args.write_baseline}")
        return 0
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif args.sarif:
        print(json.dumps(report.to_sarif(), indent=2))
    else:
        print(report.to_text())
    for entry in report.stale_baseline:
        print(f"warning: stale baseline entry "
              f"{entry.get('rule')}:{entry.get('path')} no longer matches "
              "anything — prune it", file=sys.stderr)
    return report.exit_code


def cmd_verify(args) -> int:
    encoding = load_encoding(args.encoding_file, validate=False)
    report = verify_encoding(encoding)
    print(f"strings:                 {len(encoding.strings)} "
          f"({encoding.num_modes} modes)")
    print(f"anticommutativity:       {report.anticommutativity}")
    print(f"algebraic independence:  {report.algebraic_independence}")
    print(f"vacuum preservation:     {report.vacuum_preservation}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    return 0 if report.valid else 1


# -- batch -------------------------------------------------------------------


def _jobs_from_args(args, base_config: FermihedralConfig) -> list[CompileJob]:
    specs: list[dict] = []
    if args.jobs:
        text = sys.stdin.read() if args.jobs == "-" else Path(args.jobs).read_text()
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("the jobs file must hold a JSON list of job objects")
        specs.extend(data)
    specs.extend({"model": model, "method": args.method} for model in args.model)
    if not specs:
        raise ValueError("no jobs: pass a jobs file and/or --model")
    return [
        job_from_spec(
            spec,
            default_method=args.method,
            default_device=args.device,
            base_config=base_config,
        )
        for spec in specs
    ]


def cmd_batch(args) -> int:
    from repro.parallel.events import format_event
    from repro.telemetry import Telemetry

    default_config = _config_from_args(args)
    jobs = _jobs_from_args(args, default_config)
    cache = CompilationCache(args.cache) if args.cache else None
    # The cache counts into the telemetry handed to it; workers relay
    # theirs home, so this one handle sees every job on either engine.
    telemetry = Telemetry() if cache is not None else None

    def live_status(event) -> None:
        # Progress goes to stderr so stdout stays a clean result table.
        print(format_event(event), file=sys.stderr, flush=True)

    compiler = BatchCompiler(
        cache=cache,
        default_config=default_config,
        jobs=args.jobs_n,
        on_event=None if args.quiet else live_status,
        telemetry=telemetry,
    )
    report = compiler.compile(jobs)

    any_device = any(
        outcome.result is not None and outcome.result.device is not None
        for outcome in report.outcomes
    )
    rows = []
    for outcome in report.outcomes:
        result = outcome.result
        row = [
            outcome.job.display,
            outcome.job.method,
            outcome.status,
            result.weight if result else "-",
            result.proved_optimal if result else "-",
            f"{outcome.elapsed_s:.2f}",
        ]
        if any_device:
            hardware = result.hardware if result else None
            row[3:3] = [
                (result.device or "-") if result else "-",
                hardware.two_qubit_count if hardware else "-",
                hardware.depth if hardware else "-",
            ]
        rows.append(row)
    headers = ["job", "method", "status", "weight", "optimal", "time (s)"]
    if any_device:
        headers[3:3] = ["device", "routed 2q", "depth"]
    print(format_table(headers, rows))
    print(report.summary() + f" in {report.elapsed_s:.2f}s")
    for outcome in report.outcomes:
        if outcome.status == "error":
            print(f"error [{outcome.job.display}]: {outcome.error}", file=sys.stderr)
        elif outcome.cache_error:
            print(f"warning [{outcome.job.display}]: result not cached "
                  f"({outcome.cache_error})", file=sys.stderr)
    if cache is not None:
        counts = cache_counts(telemetry)
        print(f"cache: {counts['hits']} hits, {counts['misses']} misses, "
              f"{counts['warm_starts']} warm starts, {counts['stores']} stores "
              f"({args.cache})")
    return 0 if report.ok else 1


# -- devices -----------------------------------------------------------------


def cmd_devices_ls(args) -> int:
    rows = []
    for name, description in list_devices():
        topology = get_device(name)
        rows.append([
            name,
            topology.num_qubits,
            len(topology.edges),
            topology.diameter,
            description,
        ])
    print(format_table(["device", "qubits", "couplers", "diameter", "description"],
                       rows))
    print(f"parametric specs: {device_spec_help()}")
    return 0


def cmd_devices_show(args) -> int:
    topology = get_device(args.name)
    degrees = [topology.degree(qubit) for qubit in range(topology.num_qubits)]
    print(f"device:    {topology.name}")
    print(f"qubits:    {topology.num_qubits}")
    print(f"couplers:  {len(topology.edges)}")
    print(f"diameter:  {topology.diameter}")
    print(f"degree:    min={min(degrees)} max={max(degrees)} "
          f"mean={sum(degrees) / len(degrees):.2f}")
    weights = connectivity_weights(topology)
    print(f"objective weights: {list(weights)}")
    print("couplers:")
    line = "  "
    for a, b in topology.edges:
        token = f"({a},{b}) "
        if len(line) + len(token) > 78:
            print(line.rstrip())
            line = "  "
        line += token
    if line.strip():
        print(line.rstrip())
    return 0


# -- cache -------------------------------------------------------------------


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.0f}d"


def cmd_cache_ls(args) -> int:
    cache = CompilationCache(args.dir)
    entries = cache.entries()
    if not entries:
        print(f"cache at {cache.root} is empty")
        return 0
    now = time.time()
    rows = []
    for info in entries:
        rows.append([
            info.key[:12],
            "?" if info.corrupted else info.num_modes,
            "corrupted" if info.corrupted else info.method,
            "-" if info.weight is None else info.weight,
            "-" if info.proved_optimal is None else info.proved_optimal,
            _format_age(max(0.0, now - info.created_at)),
            info.size_bytes,
        ])
    print(format_table(
        ["key", "modes", "method", "weight", "optimal", "age", "bytes"], rows
    ))
    print(f"{len(entries)} entries at {cache.root}")
    return 0


def cmd_cache_show(args) -> int:
    cache = CompilationCache(args.dir)
    matches = cache.find(args.key)
    if not matches:
        print(f"error: no cache entry matches {args.key!r}", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"error: {args.key!r} is ambiguous "
              f"({len(matches)} entries):", file=sys.stderr)
        for info in matches:
            print(f"  {info.key}", file=sys.stderr)
        return 2
    info = matches[0]
    if info.corrupted:
        print(f"key:             {info.key}")
        print(f"path:            {info.path}")
        print("status:          corrupted (run 'repro cache gc' to remove)")
        return 1
    result = cache.get(info.key)
    if result is None:
        print(f"error: entry {info.key} could not be decoded", file=sys.stderr)
        return 1
    if args.json:
        print(info.path.read_text(), end="")
        return 0
    print(f"key:             {info.key}")
    print(f"path:            {info.path}")
    _print_result_summary(
        result, mid_lines=(f"modes:           {result.encoding.num_modes}",)
    )
    return 0


def cmd_cache_gc(args) -> int:
    cache = CompilationCache(args.dir)
    report = cache.gc(
        drop_unproved=args.drop_unproved,
        max_entries=args.max_entries,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(f"{verb} {len(report.removed)} entries ({report.removed_bytes} bytes), "
          f"kept {report.kept}")
    if report.temp_files_removed:
        print(f"{verb} {report.temp_files_removed} stale temp files")
    for info in report.removed:
        print(f"  {info.key[:12]}  {report.reasons.get(info.key, '?')}")
    return 0


# -- service -----------------------------------------------------------------


def cmd_serve(args) -> int:
    import signal

    from repro.service import CompilationService, ServiceServer

    cache = CompilationCache(args.cache) if args.cache else None
    service = CompilationService(
        cache=cache,
        default_config=_config_from_args(args),
        jobs=args.jobs_n or 1,
        queue_limit=args.queue_limit,
        max_attempts=args.max_attempts,
        default_device=args.device,
    ).start()
    server = ServiceServer((args.host, args.port), service, verbose=args.verbose)

    def handle_signal(signum, frame):
        # First signal: graceful drain; a second one cancels queued jobs
        # too (jobs already on a worker always run to completion).
        if service.state == "serving":
            print("shutting down: draining accepted jobs "
                  "(signal again to cancel queued ones)", file=sys.stderr)
            server.request_shutdown(drain=True)
        else:
            print("shutting down: cancelling queued jobs", file=sys.stderr)
            server.request_shutdown(drain=False)

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    print(f"repro service at {server.url}")
    print(f"  metrics:     {server.url}/metrics")
    print(f"  cache:       {args.cache or 'disabled'}")
    print(f"  workers:     {service.jobs} "
          f"({service.healthz()['execution']})")
    print(f"  queue limit: {service.queue_limit}", flush=True)
    server.serve_until_stopped()
    print("service stopped")
    return 0


def _submit_spec_from_args(args) -> dict:
    spec: dict = {}
    if args.model:
        spec["model"] = args.model
    if args.modes:
        spec["modes"] = args.modes
    spec["method"] = args.method or (
        "independent" if args.modes else "full-sat"
    )
    if args.device:
        spec["device"] = args.device
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.label:
        spec["label"] = args.label
    config: dict = {}
    if args.budget_s is not None:
        config["budget_s"] = args.budget_s
    if args.max_conflicts is not None:
        config["max_conflicts"] = args.max_conflicts
    if args.proof:
        config["proof"] = True
    if getattr(args, "deadline", None) is not None:
        config["deadline_s"] = args.deadline
    if config:
        spec["config"] = config
    return spec


def cmd_submit(args) -> int:
    from repro.service import JobFailedError, ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        record = client.submit(_submit_spec_from_args(args))
        note = " (deduplicated)" if record.get("deduplicated") else ""
        print(f"job:    {record['id']}")
        print(f"status: {record['status']}{note}", flush=True)
        if not args.wait:
            return 0
        record = client.wait(record["id"], timeout=args.timeout)
        result = client.result(record)
    except JobFailedError as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"outcome:         {record['outcome']}")
    _print_result_summary(result)
    return 0


def cmd_jobs_ls(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        jobs = ServiceClient(args.url).jobs()
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"no jobs at {args.url or 'the service'}")
        return 0
    rows = [
        [
            job["id"][:12],
            job["label"],
            job["method"],
            job["status"],
            job["outcome"] or "-",
            "-" if job["weight"] is None else job["weight"],
            "-" if job["proved_optimal"] is None else job["proved_optimal"],
            job["submissions"],
            f"{job['elapsed_s']:.2f}",
        ]
        for job in jobs
    ]
    print(format_table(
        ["job", "label", "method", "status", "outcome", "weight",
         "optimal", "submits", "time (s)"],
        rows,
    ))
    return 0


def cmd_jobs_show(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        record = client.job(args.id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    print(f"job:             {record['id']}")
    print(f"label:           {record['label']}")
    print(f"status:          {record['status']}")
    if record["outcome"]:
        print(f"outcome:         {record['outcome']}")
    if record["error"]:
        print(f"error:           {record['error']}")
    if record["cache_error"]:
        print(f"cache error:     {record['cache_error']}")
    print(f"submissions:     {record['submissions']}")
    if record.get("result") is not None:
        _print_result_summary(client.result(record))
        return 0
    return 0 if record["status"] != "failed" else 1


def cmd_jobs_proof(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.proof(args.id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    proof = payload.get("proof") or {}
    print(f"job:             {payload['id']}")
    if proof.get("sha256"):
        print(f"sha256:          {proof['sha256']}")
    print(f"proof lines:     {proof.get('drat_lines', '-')}")
    for key in ("bound", "engine"):
        if proof.get(key) is not None:
            print(f"{key + ':':<17}{proof[key]}")
    document = payload.get("trace")
    if args.out:
        if document is None:
            print("error: the service holds proof metadata but no trace "
                  "artifact to save", file=sys.stderr)
            return 1
        Path(args.out).write_text(json.dumps(document, sort_keys=True) + "\n")
        print(f"saved proof to {args.out}")
    if args.no_verify:
        return 0
    try:
        report = client.verify_proof(payload["id"])
    except ServiceError as error:
        print(f"verdict:         UNAVAILABLE ({error})")
        return 1
    return _print_proof_verdict(
        report["claim"], report["verified"], report["reason"],
        report["checked_additions"], report["steps"],
        where=", verified client-side",
    )


def cmd_shutdown(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        reply = ServiceClient(args.url).shutdown(drain=not args.no_drain)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    verb = "cancelling" if args.no_drain else "draining"
    print(f"shutdown accepted: {verb} {reply['queued']} queued job(s), "
          f"{reply['running']} running")
    return 0


# -- live ops console ---------------------------------------------------------


def _latency_cells(families: dict, family: str,
                   quantiles=(0.5, 0.9, 0.99)) -> str:
    """``p50/p90/p99`` of one latency histogram as ``a/b/c ms``."""
    from repro.telemetry import histogram_quantile

    info = families.get(family) or {}
    buckets = [
        (labels.get("le", "+Inf"), value)
        for labels, value in (info.get("samples") or {}).get(
            f"{family}_bucket", ())
    ]
    cells = []
    for q in quantiles:
        value = histogram_quantile(q, buckets) if buckets else None
        cells.append("-" if value is None else f"{value * 1000:.1f}")
    return "/".join(cells) + " ms"


def _progress_row(job: dict, progress: dict | None) -> list:
    snapshot = progress or {}
    rate = snapshot.get("conflicts_per_s")
    eta = snapshot.get("eta_s")
    return [
        job["id"][:12],
        job["label"],
        job["status"],
        snapshot.get("engine", "-"),
        "-" if snapshot.get("bound") is None else snapshot["bound"],
        "-" if snapshot.get("conflicts") is None else snapshot["conflicts"],
        "-" if rate is None else f"{rate:.0f}/s",
        "-" if snapshot.get("elapsed_s") is None
        else f"{snapshot['elapsed_s']:.1f}s",
        "-" if eta is None else f"{eta:.0f}s",
    ]


def _render_top(client) -> str:
    """One frame of the ops console: stats + quantiles + active jobs."""
    from repro.telemetry import parse_prometheus_text

    stats = client.stats()
    families = parse_prometheus_text(client.metrics())
    jobs = client.jobs()
    tallies = stats.get("jobs") or {}
    counters = stats.get("counters") or {}
    cache = stats.get("cache") or {}

    lines = [
        f"repro service at {client.base_url} — state {stats['state']}, "
        f"up {stats['uptime_s']:.0f}s",
        f"workers: {stats['workers']} ({stats['execution']})   "
        f"queued: {tallies.get('queued', 0)}/{stats['queue_limit']}   "
        f"running: {tallies.get('running', 0)}   "
        f"done: {tallies.get('done', 0)}   "
        f"failed: {tallies.get('failed', 0)}",
    ]
    if cache.get("enabled"):
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        total = hits + misses
        ratio = f" ({100.0 * hits / total:.0f}% hit)" if total else ""
        lines.append(f"cache: {hits} hits, {misses} misses{ratio}, "
                     f"{cache.get('warm_starts', 0)} warm starts")
    else:
        lines.append("cache: disabled")
    lines.append(
        "counters: " + "  ".join(
            f"{name} {counters.get(name, 0)}"
            for name in ("submitted", "accepted", "deduplicated",
                         "cache_hits", "completed", "failed", "rejected")
        )
    )
    lines.append(
        "latency p50/p90/p99: "
        f"submit {_latency_cells(families, 'repro_service_submit_seconds')}"
        f"   poll {_latency_cells(families, 'repro_service_poll_seconds')}"
    )
    active = [job for job in jobs if job["status"] in ("queued", "running")]
    if active:
        rows = []
        for job in active:
            try:
                progress = client.progress(job["id"]).get("progress")
            except Exception:  # job may finish between /jobs and here
                progress = None
            rows.append(_progress_row(job, progress))
        lines.append("")
        lines.append(format_table(
            ["job", "label", "status", "engine", "bound", "conflicts",
             "confl/s", "elapsed", "eta"],
            rows,
        ))
    else:
        lines.append("no active jobs")
    return "\n".join(lines)


def cmd_top(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    while True:
        try:
            frame = _render_top(client)
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.once:
            print(frame)
            return 0
        # Clear + home, repaint, and truncate any taller previous frame.
        sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _format_watch_line(payload: dict) -> str:
    snapshot = payload.get("progress") or {}
    parts = [payload["id"][:12], payload["status"]]
    if snapshot.get("bound") is not None:
        parts.append(f"bound={snapshot['bound']}")
    if snapshot.get("conflicts") is not None:
        rate = snapshot.get("conflicts_per_s")
        rate_text = "" if rate is None else f" ({rate:.0f}/s)"
        parts.append(f"conflicts={snapshot['conflicts']}{rate_text}")
    if snapshot.get("elapsed_s") is not None:
        parts.append(f"elapsed={snapshot['elapsed_s']:.1f}s")
    if snapshot.get("eta_s") is not None:
        parts.append(f"eta={snapshot['eta_s']:.0f}s")
    if snapshot.get("last_kind") or snapshot.get("kind"):
        parts.append(f"[{snapshot.get('last_kind') or snapshot.get('kind')}]")
    return "  ".join(str(part) for part in parts)


def cmd_watch(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    last_line = None
    try:
        while True:
            payload = client.progress(args.id)
            line = _format_watch_line(payload)
            if line != last_line:
                print(line, flush=True)
                last_line = line
            if payload["status"] in ("done", "failed", "cancelled"):
                return 0 if payload["status"] == "done" else 1
            time.sleep(args.interval)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def cmd_jobs_forensics(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.forensics(args.id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    dump = payload.get("forensics") or {}
    print(f"job:         {payload['id']}")
    captured = dump.get("captured_at")
    if captured is not None:
        print("captured at: " + time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(captured)))
    if dump.get("synthesized"):
        print("(synthesized dump — the worker crashed before relaying one)")
    error_text = dump.get("error")
    if error_text:
        print("error:")
        for line in str(error_text).rstrip().splitlines():
            print(f"  {line}")
    events = dump.get("events") or []
    print(f"breadcrumbs ({len(events)}):")
    for event in events:
        fields = {
            key: value for key, value in event.items()
            if key not in ("level", "message", "ts", "seq")
        }
        suffix = f"  {fields}" if fields else ""
        print(f"  [{event.get('level', '?')}] "
              f"{event.get('message', event.get('kind', '?'))}{suffix}")
    spans = dump.get("open_spans") or []
    if spans:
        print(f"open spans ({len(spans)}):")
        for span in spans:
            age = span.get("age_s")
            age_text = "-" if age is None else f"{age:.1f}s"
            print(f"  {span.get('name', '?')}  open {age_text}  "
                  f"{span.get('attrs') or {}}")
    metrics_text = dump.get("metrics")
    if metrics_text:
        print(f"metrics snapshot: {len(metrics_text.splitlines())} lines "
              "(--json to see it)")
    return 0


# -- perf history -------------------------------------------------------------


def cmd_bench_record(args) -> int:
    from repro.analysis.perfhistory import record_run

    entries = record_run(args.json_dir, args.history,
                         sha=args.sha, note=args.note)
    if not entries:
        print(f"error: no BENCH_*.json snapshots in {args.json_dir}",
              file=sys.stderr)
        return 2
    print(f"recorded {len(entries)} benchmark(s) at sha "
          f"{entries[0]['sha'][:12]} -> {args.history}")
    return 0


def cmd_bench_compare(args) -> int:
    from repro.analysis.perfhistory import compare_runs, format_report

    report = compare_runs(args.json_dir, args.history,
                          threshold=args.threshold, sha=args.sha)
    print(format_report(report))
    return 0 if report.ok else 1


_URL_HELP = ("service URL (default: $REPRO_SERVICE_URL or "
             "http://127.0.0.1:8765)")


_DEVICE_HELP = ("target device: a preset from 'repro devices ls' or a spec "
                "(linear-<n> | ring-<n> | grid-<r>x<c> | heavy-hex-<r>x<c> | "
                "all-to-all-<n>); enables hardware-aware compilation")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fermihedral: SAT-optimal fermion-to-qubit encoding compiler",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve",
        help="find an optimal encoding",
        description="Run the SAT weight descent for an optimal encoding, "
                    "Hamiltonian-independent (--modes) or Hamiltonian-"
                    "dependent (--model).",
    )
    solve.add_argument("--modes", type=int, default=None, metavar="N",
                       help="mode count for a Hamiltonian-independent solve")
    solve.add_argument("--model", default=None, metavar="SPEC", help=_MODEL_HELP)
    solve.add_argument("--method", choices=("full-sat", "sat-anl"),
                       default="full-sat",
                       help="Hamiltonian-dependent strategy: weight in the SAT "
                            "objective (full-sat) or independent SAT optimum "
                            "plus annealed pairing (sat-anl)")
    _add_solver_options(solve)
    solve.add_argument("--stats", action="store_true",
                       help="print solver statistics (conflicts, decisions, "
                            "propagations, restarts) per descent step")
    solve.add_argument("--profile", action="store_true",
                       help="run the pipeline under cProfile and print the "
                            "top-20 functions by cumulative time")
    solve.add_argument("--device", default=None, metavar="NAME", help=_DEVICE_HELP)
    solve.add_argument("--cache", default=None, metavar="DIR",
                       help="memoize results in a persistent compilation "
                            "cache at DIR (hit: zero SAT calls; unproved "
                            "entries warm-start the descent)")
    solve.add_argument("--output", default=None, metavar="FILE",
                       help="save the encoding as JSON here")
    solve.add_argument("--proof-out", default=None, metavar="FILE",
                       help="save the optimality-proof artifact as JSON here "
                            "(implies --proof); without it, --proof stores "
                            "the artifact in the cache or next to the "
                            "working directory")
    solve.add_argument("--trace", default=None, metavar="FILE.jsonl",
                       help="record the compile's span tree (compile -> "
                            "descent -> rung -> solve) as JSONL here; "
                            "render it with 'repro trace show'")
    solve.set_defaults(handler=cmd_solve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect recorded telemetry traces",
        description="Work with span traces recorded by 'repro solve "
                    "--trace FILE.jsonl'.",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser(
        "show", help="render a trace file as a span tree",
        description="Pretty-print a JSONL trace: one line per span, "
                    "indented by parent, with durations and attributes "
                    "(per-rung bound, engine, status, conflicts).",
    )
    trace_show.add_argument("file", help="JSONL trace file from "
                                         "'repro solve --trace'")
    trace_show.set_defaults(handler=cmd_trace_show)

    baselines = subparsers.add_parser(
        "baselines",
        help="tabulate baseline weights",
        description="Compare the textbook encodings (JW, BK, parity, ternary "
                    "tree) by Majorana weight and, with --model, by encoded-"
                    "Hamiltonian weight.",
    )
    baselines.add_argument("--modes", type=int, default=None, metavar="N",
                           help="mode count to tabulate")
    baselines.add_argument("--model", default=None, metavar="SPEC",
                           help=_MODEL_HELP)
    baselines.set_defaults(handler=cmd_baselines)

    compile_parser = subparsers.add_parser(
        "compile",
        help="compile a Trotter circuit",
        description="Encode a model with a chosen encoding and report gate "
                    "counts of the optimized Trotter circuit.",
    )
    compile_parser.add_argument("--model", required=True, metavar="SPEC",
                                help=_MODEL_HELP)
    compile_parser.add_argument("--encoding", default="bk",
                                help="jw | bk | parity | tt | random[:seed] | "
                                     "<file.json> (default: bk)")
    compile_parser.add_argument("--time", type=float, default=1.0,
                                help="evolution time (default: 1.0)")
    compile_parser.add_argument("--steps", type=int, default=1,
                                help="Trotter steps (default: 1)")
    compile_parser.add_argument("--device", default=None, metavar="NAME",
                                help=_DEVICE_HELP + " (reports the routed cost "
                                     "of one Trotter step)")
    compile_parser.set_defaults(handler=cmd_compile)

    verify = subparsers.add_parser(
        "verify",
        help="verify an encoding JSON file",
        description="Re-check anticommutativity, algebraic independence, and "
                    "vacuum preservation of a saved encoding.",
    )
    verify.add_argument("encoding_file", help="encoding JSON produced by "
                                              "'repro solve --output'")
    verify.set_defaults(handler=cmd_verify)

    verify_proof = subparsers.add_parser(
        "verify-proof",
        help="re-check a DRAT optimality-proof artifact",
        description="Independently verify a proof artifact produced by "
                    "'repro solve --proof': rebuild the CNF its claim "
                    "names (format v2) and require the embedded one to "
                    "match, then replay its DRAT derivation with a "
                    "backward RUP/RAT checker that shares no code with "
                    "the solver. Accepts "
                    "a file path or a (prefix of a) sha256 resolved "
                    "against the cache's proofs/ directory.",
    )
    verify_proof.add_argument("artifact",
                              help="proof JSON file, or a unique sha256 "
                                   "prefix of a cache-stored proof")
    verify_proof.add_argument("--dir", default=str(default_cache_dir()),
                              metavar="DIR",
                              help="cache directory for sha lookups "
                                   "(default: $REPRO_CACHE_DIR or "
                                   "~/.cache/fermihedral)")
    verify_proof.set_defaults(handler=cmd_verify_proof)

    lint = subparsers.add_parser(
        "lint",
        help="run the project-invariant static analyzer",
        description="Statically check the tree against the project's own "
                    "invariants: config-field classification (L001), "
                    "hot-path telemetry gating (L002), stdlib-only layer "
                    "boundaries (L003), serialization back-compat (L004), "
                    "worker picklability (L005), and a lock-acquisition "
                    "race detector over the threaded subsystems "
                    "(C001 lock-order inversions, C002 unguarded writes "
                    "to lock-guarded attributes). Exit 1 on any error-"
                    "severity finding. Suppress a finding inline with "
                    "'# repro-lint: disable=RULE'.",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to analyze "
                           "(default: src/ if present, else .)")
    lint_format = lint.add_mutually_exclusive_group()
    lint_format.add_argument("--json", action="store_true",
                             help="machine-readable report "
                                  "(schema version 1)")
    lint_format.add_argument("--sarif", action="store_true",
                             help="SARIF 2.1.0 report for code-scanning "
                                  "uploads")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule-id allowlist "
                           "(default: all rules)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="accepted-findings file; matching findings are "
                           "filtered, stale entries warned about")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="write the current findings as a baseline "
                           "and exit 0")
    lint.add_argument("--explain", default=None, metavar="RULE",
                      help="print one rule's rationale and a minimal "
                           "violating/fixed example, then exit")
    lint.set_defaults(handler=cmd_lint)

    batch = subparsers.add_parser(
        "batch",
        help="compile many jobs, deduplicated through the cache",
        description="Compile a list of jobs, deduplicated through the cache. "
                    "Jobs with identical fingerprints are compiled once; with "
                    "--cache, results persist across runs and already-final "
                    "entries are answered before any compile starts (the "
                    "'cache:' line counts a job that misses twice: the "
                    "batch's lookup, then the compile's). --jobs N fans the "
                    "jobs across N worker processes (real CPU parallelism); "
                    "otherwise they compile one after another in this "
                    "process. Jobs come from a "
                    "JSON file (a list of objects with 'model' or 'modes', "
                    "plus optional 'method', 'seed', 'label') and/or repeated "
                    "--model flags.",
    )
    batch.add_argument("jobs", nargs="?", default=None,
                       help="JSON job-list file, or '-' for stdin")
    batch.add_argument("--model", action="append", default=[], metavar="SPEC",
                       help=f"add one job compiling {_MODEL_HELP} (repeatable)")
    batch.add_argument("--method",
                       choices=("full-sat", "sat-anl", "independent"),
                       default="full-sat",
                       help="method for jobs that do not specify one "
                            "(default: full-sat)")
    batch.add_argument("--jobs", type=int, default=1, metavar="N", dest="jobs_n",
                       help="worker processes (default: 1 = compile "
                            "serially in this process); identical results "
                            "at any N, only faster")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress the live per-job status line on stderr")
    batch.add_argument("--cache", default=None, metavar="DIR",
                       help="persistent compilation cache directory")
    batch.add_argument("--device", default=None, metavar="NAME",
                       help=_DEVICE_HELP + " (jobs may override it with their "
                            "own 'device' field)")
    _add_solver_options(batch)
    batch.set_defaults(handler=cmd_batch)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or prune the compilation cache",
        description="Manage the persistent compilation cache used by "
                    "'solve --cache' and 'batch --cache'.",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    def _add_dir(sub):
        sub.add_argument("--dir", default=str(default_cache_dir()), metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR or "
                              "~/.cache/fermihedral)")

    cache_ls = cache_sub.add_parser(
        "ls", help="list cache entries",
        description="List every cached compilation result, flagging "
                    "corrupted entries.",
    )
    _add_dir(cache_ls)
    cache_ls.set_defaults(handler=cmd_cache_ls)

    cache_show = cache_sub.add_parser(
        "show", help="show one cache entry",
        description="Print one cached result, looked up by unique key prefix.",
    )
    cache_show.add_argument("key", help="entry key (any unique prefix)")
    cache_show.add_argument("--json", action="store_true",
                            help="dump the raw entry JSON instead of a summary")
    _add_dir(cache_show)
    cache_show.set_defaults(handler=cmd_cache_show)

    cache_gc = cache_sub.add_parser(
        "gc", help="prune the cache",
        description="Remove corrupted entries, and optionally unproved "
                    "results or everything beyond a size limit.",
    )
    cache_gc.add_argument("--drop-unproved", action="store_true",
                          help="also evict results never proved optimal "
                               "(keeps sat+annealing entries, which are "
                               "final for their seed)")
    cache_gc.add_argument("--max-entries", type=int, default=None, metavar="N",
                          help="keep at most the N newest surviving entries")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without deleting")
    _add_dir(cache_gc)
    cache_gc.set_defaults(handler=cmd_cache_gc)

    serve = subparsers.add_parser(
        "serve",
        help="run the compilation service daemon",
        description="Serve a JSON-over-HTTP compilation API: POST /jobs "
                    "submits a job spec (deduplicated by fingerprint; cache "
                    "hits answer synchronously), GET /jobs/<id> polls it, "
                    "GET /jobs/<id>/proof serves its DRAT certificate, "
                    "GET /healthz and /stats report liveness and counters, "
                    "GET /metrics exposes the telemetry registry in "
                    "Prometheus text format, GET /debug/trace/<id> returns "
                    "a finished job's span events, and POST /shutdown "
                    "drains and exits. Jobs fan out across --jobs worker "
                    "processes; a full queue answers 429.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral one "
                            "(default: 8765)")
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       dest="jobs_n",
                       help="worker processes draining the queue "
                            "(default: 1)")
    serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="bound on active (queued + running) jobs; "
                            "submissions beyond it get HTTP 429 "
                            "(default: 64)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="total attempts per job: retryable failures "
                            "(killed worker, spawn failure) are requeued "
                            "with backoff up to N-1 times, resuming from "
                            "the descent checkpoint (default: 3)")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="persistent compilation cache backing the "
                            "service (hits answer without queueing)")
    serve.add_argument("--device", default=None, metavar="NAME",
                       help=_DEVICE_HELP + " (jobs may override it with "
                            "their own 'device' field)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    _add_solver_options(serve)
    serve.set_defaults(handler=cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit one job to a running service",
        description="POST one compilation job to a 'repro serve' daemon "
                    "and print its id; --wait polls until it finishes and "
                    "prints the result.",
    )
    submit.add_argument("--url", default=None, help=_URL_HELP)
    submit.add_argument("--model", default=None, metavar="SPEC",
                        help=_MODEL_HELP)
    submit.add_argument("--modes", type=int, default=None, metavar="N",
                        help="mode count for a Hamiltonian-independent job")
    submit.add_argument("--method",
                        choices=("full-sat", "sat-anl", "independent"),
                        default=None,
                        help="compile method (default: full-sat with "
                             "--model, independent with --modes)")
    submit.add_argument("--device", default=None, metavar="NAME",
                        help=_DEVICE_HELP)
    submit.add_argument("--seed", type=int, default=None, metavar="N",
                        help="annealing RNG seed (sat-anl only)")
    submit.add_argument("--label", default=None,
                        help="display name in job listings")
    submit.add_argument("--budget-s", type=float, default=None,
                        metavar="SECONDS",
                        help="per-SAT-call time budget override")
    submit.add_argument("--proof", action="store_true",
                        help="capture a DRAT optimality proof "
                             "(fetch it later with 'repro jobs proof')")
    submit.add_argument("--max-conflicts", type=int, default=None, metavar="N",
                        help="per-SAT-call conflict budget override")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="whole-job wall-clock deadline; on expiry the "
                             "job finishes 'degraded' with the best "
                             "encoding found so far")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print the "
                             "result")
    submit.add_argument("--timeout", type=float, default=3600.0,
                        metavar="SECONDS",
                        help="--wait deadline (default: 3600)")
    submit.set_defaults(handler=cmd_submit)

    jobs_parser = subparsers.add_parser(
        "jobs",
        help="list or inspect jobs on a running service",
        description="Query a 'repro serve' daemon's job registry.",
    )
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)
    jobs_ls = jobs_sub.add_parser(
        "ls", help="list all jobs",
        description="Tabulate every job the service has accepted, newest "
                    "last.",
    )
    jobs_ls.add_argument("--url", default=None, help=_URL_HELP)
    jobs_ls.set_defaults(handler=cmd_jobs_ls)
    jobs_show = jobs_sub.add_parser(
        "show", help="show one job",
        description="Print one job record (any unique id prefix), "
                    "including its full result once done.",
    )
    jobs_show.add_argument("id", help="job id (any unique prefix)")
    jobs_show.add_argument("--json", action="store_true",
                           help="dump the raw wire record instead of a "
                                "summary")
    jobs_show.add_argument("--url", default=None, help=_URL_HELP)
    jobs_show.set_defaults(handler=cmd_jobs_show)
    jobs_proof = jobs_sub.add_parser(
        "proof", help="fetch and client-side-verify a job's proof",
        description="Download a finished job's DRAT optimality proof from "
                    "the service and re-check it locally with "
                    "'repro verify-proof''s checks (claim, then the "
                    "independent checker) — the service is never trusted "
                    "about its own certificates.",
    )
    jobs_proof.add_argument("id", help="job id (any unique prefix)")
    jobs_proof.add_argument("--out", default=None, metavar="FILE",
                            help="also save the proof artifact as JSON here")
    jobs_proof.add_argument("--no-verify", action="store_true",
                            help="fetch metadata (and --out) without running "
                                 "the checker")
    jobs_proof.add_argument("--url", default=None, help=_URL_HELP)
    jobs_proof.set_defaults(handler=cmd_jobs_proof)
    jobs_forensics = jobs_sub.add_parser(
        "forensics", help="fetch a failed job's flight-recorder dump",
        description="Download the forensics dump the service captured "
                    "when a job failed: breadcrumb trail, spans still "
                    "open at the moment of death, a metrics snapshot, "
                    "and the worker-side traceback.",
    )
    jobs_forensics.add_argument("id", help="job id (any unique prefix)")
    jobs_forensics.add_argument("--json", action="store_true",
                                help="dump the raw wire payload instead "
                                     "of a summary")
    jobs_forensics.add_argument("--url", default=None, help=_URL_HELP)
    jobs_forensics.set_defaults(handler=cmd_jobs_forensics)

    top = subparsers.add_parser(
        "top",
        help="live ops console for a running service",
        description="Continuously render a running service's vitals: "
                    "queue depth, worker slots, cache hit ratio, "
                    "submit/poll latency quantiles (computed client-side "
                    "from /metrics histograms), and one row per active "
                    "job with its current bound, conflict rate, and rung "
                    "ETA.  Ctrl-C exits; --once prints a single frame "
                    "(scripts, CI smoke tests).",
    )
    top.add_argument("--url", default=None, help=_URL_HELP)
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit instead of looping")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="refresh period (default: 2.0)")
    top.set_defaults(handler=cmd_top)

    watch = subparsers.add_parser(
        "watch",
        help="follow one job's live progress until it finishes",
        description="Poll a job's /progress endpoint and print a line "
                    "whenever its snapshot changes (bound, conflicts, "
                    "conflict rate, rung ETA).  Exits 0 when the job "
                    "finishes 'done', 1 on 'failed' or 'cancelled'.",
    )
    watch.add_argument("id", help="job id (any unique prefix)")
    watch.add_argument("--url", default=None, help=_URL_HELP)
    watch.add_argument("--interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="poll period (default: 0.5)")
    watch.set_defaults(handler=cmd_watch)

    shutdown = subparsers.add_parser(
        "shutdown",
        help="gracefully stop a running service",
        description="Ask a 'repro serve' daemon to stop: intake closes "
                    "immediately, accepted jobs finish (unless "
                    "--no-drain), then the daemon exits.",
    )
    shutdown.add_argument("--url", default=None, help=_URL_HELP)
    shutdown.add_argument("--no-drain", action="store_true",
                          help="cancel still-queued jobs instead of "
                               "finishing them (running jobs always "
                               "complete)")
    shutdown.set_defaults(handler=cmd_shutdown)

    devices_parser = subparsers.add_parser(
        "devices",
        help="list or inspect target device topologies",
        description="Browse the device registry used by --device: realistic "
                    "presets plus parametric layouts (linear, ring, grid, "
                    "heavy-hex, all-to-all).",
    )
    devices_sub = devices_parser.add_subparsers(dest="devices_command",
                                                required=True)
    devices_ls = devices_sub.add_parser(
        "ls", help="list device presets",
        description="Tabulate every registry preset with its size, coupler "
                    "count and diameter.",
    )
    devices_ls.set_defaults(handler=cmd_devices_ls)
    devices_show = devices_sub.add_parser(
        "show", help="show one device topology",
        description="Print a device's coupling graph, degree profile and "
                    "the per-qubit objective weights it induces.",
    )
    devices_show.add_argument("name", help="preset name or parametric spec "
                                           "(e.g. grid-3x3)")
    devices_show.set_defaults(handler=cmd_devices_show)

    bench = subparsers.add_parser(
        "bench",
        help="record or compare benchmark perf history",
        description="Track the benchmark suite's performance over time: "
                    "'record' appends a --json DIR snapshot to the "
                    "append-only ledger keyed by git sha; 'compare' "
                    "diffs a fresh snapshot against the last recorded "
                    "commit and exits non-zero when any metric regressed "
                    "beyond the threshold.",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    def _add_bench_common(sub):
        sub.add_argument("--json-dir", required=True, metavar="DIR",
                         help="directory of BENCH_*.json snapshots "
                              "(the benchmark suite's --json DIR)")
        sub.add_argument("--history",
                         default="benchmarks/results/history.jsonl",
                         metavar="FILE",
                         help="ledger path (default: "
                              "benchmarks/results/history.jsonl)")
        sub.add_argument("--sha", default=None,
                         help="override the git sha (default: "
                              "'git rev-parse HEAD', or 'unknown')")

    bench_record = bench_sub.add_parser(
        "record", help="append a benchmark run to the ledger",
        description="Store every BENCH_*.json in --json-dir as one "
                    "ledger line each, stamped with the current git sha.",
    )
    _add_bench_common(bench_record)
    bench_record.add_argument("--note", default=None,
                              help="free-form annotation stored with "
                                   "the run")
    bench_record.set_defaults(handler=cmd_bench_record)

    bench_compare = bench_sub.add_parser(
        "compare", help="diff a benchmark run against the ledger",
        description="Compare --json-dir against the newest recorded run "
                    "from a different sha.  Rates (…per_s, …throughput) "
                    "must not drop and costs (…_wall_s, …conflicts) must "
                    "not rise by more than --threshold; any violation "
                    "makes the exit code 1.",
    )
    _add_bench_common(bench_compare)
    bench_compare.add_argument("--threshold", type=float, default=0.10,
                               metavar="FRACTION",
                               help="fractional regression threshold "
                                    "(default: 0.10)")
    bench_compare.set_defaults(handler=cmd_bench_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
