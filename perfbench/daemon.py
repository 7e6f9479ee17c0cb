"""A ``repro serve``-style daemon for the ``service-mixed`` workload.

Run as its own process::

    python3 perfbench/daemon.py --cache DIR --max-records N [--trace-dir DIR]

It serves :class:`repro.service.CompilationService` with one worker
process over HTTP on an ephemeral localhost port and prints the base URL
as its first line of output once the socket listens.  ``POST /shutdown``
or SIGTERM stops it.  Unlike ``repro serve`` it takes ``--max-records``
(so cycled cache-hit keys leave the registry), runs each job once (no
supervised retries, so a failed compile shows as a failure) and, with
``--trace-dir``,
installs the benchmark's spans in the daemon and its forked worker and
writes their totals to that directory (on SIGUSR1 and at exit).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.tracing import COMPILE_PATCHES, SERVICE_PATCHES, SpanRecorder  # noqa: E402
from repro.core.config import METHOD_INDEPENDENT, FermihedralConfig  # noqa: E402
from repro.service import CompilationService, ServiceServer  # noqa: E402
from repro.store.cache import CompilationCache  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", required=True)
    parser.add_argument("--max-records", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir:
        recorder = SpanRecorder(dump_dir=args.trace_dir)
        recorder.install(SERVICE_PATCHES + COMPILE_PATCHES)
        # A forked worker starts from a copy of the daemon's totals and
        # possibly a held lock; it must count only its own work.
        os.register_at_fork(after_in_child=recorder.forget_parent)
        # SIGUSR1 writes the totals so far: the start of a measured window.
        signal.signal(signal.SIGUSR1,
                      lambda signum, frame: recorder.dump("daemon"))

    service = CompilationService(
        cache=CompilationCache(args.cache),
        default_config=FermihedralConfig(),
        jobs=1,
        max_records=args.max_records,
        max_attempts=1,
        default_method=METHOD_INDEPENDENT,
        use_processes=True,
    ).start()
    server = ServiceServer(("127.0.0.1", 0), service)
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: server.request_shutdown(drain=False))
    print(server.url, flush=True)
    try:
        server.serve_until_stopped()
    finally:
        if recorder is not None:
            recorder.dump("daemon")
    return 0


if __name__ == "__main__":
    sys.exit(main())
