"""Child process of the benchmark: a traced job, or the reference report.

    python perfbench/probe.py trace --entry repro.fleet.__main__ \
        --run-id ID --spans spans.jsonl -- run city-block-1k --quiet ...
    python perfbench/probe.py trace --entry repro.gateway.__main__ \
        --run-id ID --spans spans.jsonl -- serve --port 0
    python perfbench/probe.py reference --scenario city-block-1k \
        --seed 3 --report report.json

``trace`` opens the job's root span, imports the entry module under a
``cli.import`` span, wraps every layer (see :mod:`tracer`), calls the
module's ``main`` with the arguments after ``--`` and writes the spans as
JSON lines when it returns.  The fleet CLI's own stdout goes to
``/dev/null``; the gateway's is kept, because its first line carries the
port.  ``reference`` runs the scenario once through ``FleetRunner`` and
writes the report with ``FleetResult.to_json``: the benchmark compares
the CLI, gateway and sharded outputs against it.  Both modes need the
program's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys

import tracer


def _trace(args) -> int:
    trace = tracer.Tracer(args.run_id)
    root = trace.open(tracer.ROOT)
    span = trace.open("cli.import")
    entry = importlib.import_module(args.entry)
    trace.close(span)
    tracer.install_layer_timers(trace)
    if args.entry == "repro.fleet.__main__":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = entry.main(args.argv)
    else:
        code = entry.main(args.argv)
    trace.close(root)
    trace.dump(args.spans)
    return code


def _reference(args) -> int:
    from repro.fleet.runner import FleetRunner
    from repro.fleet.scenarios import SCENARIOS

    spec = SCENARIOS.build(args.scenario, seed=args.seed)
    FleetRunner(spec).run().to_json(args.report)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/probe.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    trace = sub.add_parser("trace", help="one traced job")
    trace.add_argument("--entry", required=True,
                       choices=("repro.fleet.__main__", "repro.gateway.__main__"))
    trace.add_argument("--run-id", required=True)
    trace.add_argument("--spans", required=True, help="span JSON-lines path")
    trace.add_argument("argv", nargs=argparse.REMAINDER,
                       help="-- then the entry module's arguments")
    ref = sub.add_parser("reference", help="one-shot FleetRunner report")
    ref.add_argument("--scenario", required=True)
    ref.add_argument("--seed", type=int, required=True)
    ref.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    if args.mode == "trace":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _trace(args)
    return _reference(args)


if __name__ == "__main__":
    sys.exit(main())
