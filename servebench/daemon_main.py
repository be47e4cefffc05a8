"""Launch the scheduler daemon in its own process for the benchmark.

    python3 servebench/daemon_main.py --socket PATH [--trace-out FILE]

Prints ``ready`` once the socket is bound, serves until a ``shutdown``
request, then (with ``--trace-out``) writes the spans the traced run
collected.  BLAS threads are pinned to one before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    tracer = None
    daemon = None
    if args.trace_out:
        from servebench.layers import install
        from servebench.tracer import Tracer

        tracer = Tracer()
        sessions = {}

        def tenant_of(session) -> str:
            if id(session) not in sessions:
                for name, state in daemon.tenants.items():
                    sessions[id(state.session)] = name
            return sessions[id(session)]

        install(tracer, tenant_of=tenant_of)

    from repro.serve.daemon import DaemonConfig, SchedulerDaemon

    daemon = SchedulerDaemon(DaemonConfig(socket_path=args.socket))
    daemon.bind()
    print("ready", flush=True)
    daemon.serve_forever()
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
