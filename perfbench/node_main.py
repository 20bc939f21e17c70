"""Node entrypoint for benchmark clusters.

    python perfbench/node_main.py --stats-out S.json [--trace-out T.json] \
        -- serve --spec cluster.json --node ingestor-0 --data-dir DIR

Runs ``repro.cli.main`` on the arguments after ``--`` and, when it
returns, writes the process's own CPU time and ``/proc/self/io``
counters to ``--stats-out``.  With ``--trace-out`` it first wraps the
layer entry points (see :mod:`tracing`) and at exit also writes the
spans, counters, loop-lag samples and the node's own stats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import proc_io, require_source_tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    require_source_tree()
    tracer = None
    if args.trace_out:
        from tracing import Tracer, install_node

        tracer = Tracer()
        install_node(tracer)
    import repro.cli

    started = time.monotonic()
    code = repro.cli.main(cli_args)
    times = os.times()
    stats = {
        "code": code,
        "wall_s": time.monotonic() - started,
        "cpu_s": times.user + times.system,
        "io": proc_io(),
    }
    with open(args.stats_out, "w") as sink:
        json.dump(stats, sink)
    if tracer is not None:
        from tracing import node_state

        document = tracer.dump()
        document["state"] = node_state(tracer)
        with open(args.trace_out, "w") as sink:
            json.dump(document, sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
