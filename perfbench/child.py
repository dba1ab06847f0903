"""One measured iteration of one workload, in a fresh process.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` set to the
checkout's ``src`` and a fixed ``PYTHONHASHSEED``.  Prints one JSON
object: ``setup_s``, ``measured_s`` (the routing work; both in seconds
scaled to a reference host speed, see ``hostspeed.py``), the routing
work's raw ``measured_cpu_s`` and ``measured_wall_s``, ``peak_rss_mib``,
the workload's deterministic outputs, the output-check problems, and,
with ``--trace 1``, the per-layer metrics.  With ``--trace 0`` the
program's ``OBS`` registry stays disabled and nothing is wrapped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.obs import OBS  # noqa: E402

from tracing import LayerTracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workload-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload_seed)
    setup_s = workload.setup()
    tracer = None
    if args.trace:
        OBS.reset()
        OBS.configure(enabled=True)
        tracer = LayerTracer().install()
    try:
        timing = workload.measure()
    finally:
        if tracer is not None:
            tracer.remove()
            OBS.enabled = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs, problems = workload.outputs()
    record = {
        "setup_s": setup_s,
        "measured_s": timing.seconds,
        "measured_cpu_s": timing.cpu_s,
        "measured_wall_s": timing.wall_s,
        "probes": timing.probes,
        "peak_rss_mib": peak_rss_mib,
        "outputs": outputs,
        "problems": problems,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, dict(OBS.counters), timing.wall_s
        )
        record["unwrapped"] = tracer.missing
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
