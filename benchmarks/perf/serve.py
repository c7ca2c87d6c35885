"""Run the query daemon through the CLI, as the serve workloads measure it.

Usage::

    python benchmarks/perf/serve.py --cpu 0 --speed-out SPEED.json \\
        [--trace-out SPANS.json] -- serve STORE --build EDGES --nodes N --port 0

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the
daemon takes exactly the code path of ``python -m repro serve``.  The
launcher only pins the process to one CPU (the load generator takes
another), runs the host-speed probe (:mod:`hostspeed`) beside the daemon,
and with ``--trace-out`` installs the benchmark's tracer.  The probe
samples, and the spans, are written out after the daemon shuts down.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from hostspeed import SpeedProbe, pin_to_cpu
from trace import Tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True,
                        help="index of the CPU (among those allowed) to run on")
    parser.add_argument("--speed-out", required=True,
                        help="where to write the speed-probe samples (JSON)")
    parser.add_argument("--trace-out", help="trace; write the spans here (JSON)")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by repro CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    pin_to_cpu(args.cpu)
    from repro.cli import main as cli_main

    tracer = Tracer().install() if args.trace_out else None
    probe = SpeedProbe().start()
    try:
        return cli_main(cli_args)
    finally:
        probe.stop()
        probe.dump(args.speed_out)
        if tracer is not None:
            tracer.uninstall()
            tracer.finish()
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
