"""The repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow_quick --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``flow_quick``   - full ``BonnRouteFlow.run`` on the Table I quick chip;
* ``eco_moves``    - that chip routed once (set-up), then ECO edits
  applied one at a time with ``apply_changes`` + ``reroute``;
* ``global_dense`` - ``GlobalRouter.run`` alone on Table III's four
  chips at ``capacity_scale=0.35``.

Every iteration runs in a fresh ``python3 perfbench/child.py`` process
with ``PYTHONHASHSEED`` set to ``--seed``; the routing instance is fixed
by ``--workload-seed`` (default 1, the paper-table chips), so runs with
different ``--seed`` time the same work and also check that the outputs
do not depend on string hashing.  ``--trace 0`` repeats iterations while
the ``--seconds`` budget allows (at least one) and reports the
end-to-end metrics as medians (times in CPU seconds scaled to a
reference host speed, see ``hostspeed.py``); ``--trace 1`` runs one untraced and one
traced iteration and reports the per-layer metrics plus
``trace.overhead_ratio`` (traced / untraced routing time).

Output checks, any of which makes the run fail (``correct: false``,
exit code 1): drc/checker.py finds no opens and agrees with the flow's
own error count; removed ECO nets leave no wiring; global netlength is
at least the Steiner bound of the routed nets; no net fails; every
deterministic output (and, traced, every call and work count) is the
same in every iteration, in the traced and untraced iteration, and as
in the first run of the same code recorded under ``.perfbench_state/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench_state"

WORKLOADS = ("flow_quick", "eco_moves", "global_dense")
DEFAULT_WORKLOAD_SEED = 1

#: A run never starts an iteration that would end past this many seconds.
WALL_CAP_S = 170.0

#: Deterministic outputs reported as end-to-end metrics.
OUTPUT_METRICS = ("netlength_dbu", "vias", "errors", "scenic_nets", "max_congestion")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed child)."""


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources (the state key)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(args, trace: int, deadline: float) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--workload-seed", str(args.workload_seed),
        "--trace", str(trace),
    ]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} iteration exceeded {timeout:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{args.workload} iteration exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def deterministic(record: Dict[str, object]) -> Dict[str, object]:
    """Outputs plus traced call/work counts (everything but times)."""
    out = dict(record["outputs"])
    for name, value in record.get("layers", {}).items():
        if not (name.endswith("_s") or name.startswith("trace.")):
            out[name] = value
    return out


def check_state(key: str, values: Dict[str, object]) -> List[str]:
    """Compare with the first run of the same code; record it if none."""
    path = STATE_DIR / f"{key}.json"
    if path.is_file():
        first = json.loads(path.read_text())
        return [
            f"{name} = {values.get(name)!r}, first run of this code had {value!r}"
            for name, value in sorted(first.items())
            if values.get(name) != value
        ]
    STATE_DIR.mkdir(exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(values, sort_keys=True))
    os.replace(scratch, path)
    return []


def end_to_end(records: List[Dict[str, object]]) -> Dict[str, float]:
    outputs = records[0]["outputs"]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "route_s": statistics.median(r["measured_s"] for r in records),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
    }
    metrics.update({name: outputs[name] for name in OUTPUT_METRICS})
    return metrics


def measure(args) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    start = time.perf_counter()
    deadline = start + WALL_CAP_S
    if args.trace:
        plain = run_child(args, 0, deadline)
        traced = run_child(args, 1, deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["measured_s"] / plain["measured_s"]
        return metrics, [plain, traced]
    records = [run_child(args, 0, deadline)]
    while True:
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(records)
        if min(args.seconds, WALL_CAP_S) < elapsed + per_iteration:
            break
        records.append(run_child(args, 0, deadline))
    return end_to_end(records), records


def output_problems(args, records: List[Dict[str, object]]) -> List[str]:
    problems: List[str] = []
    for record in records:
        problems.extend(record["problems"])
        if record["outputs"]["failed"]:
            problems.append(f"{record['outputs']['failed']} nets failed")
    first = records[0]["outputs"]
    for index, record in enumerate(records[1:], 1):
        for name, value in sorted(first.items()):
            if record["outputs"].get(name) != value:
                problems.append(
                    f"iteration {index}: {name} = {record['outputs'].get(name)!r}, "
                    f"iteration 0 had {value!r}"
                )
    key = f"{code_fingerprint()}-{args.workload}-ws{args.workload_seed}"
    if args.trace:
        key += "-traced"
    problems.extend(check_state(key, deterministic(records[-1])))
    return problems


def _terminate(signum, _frame):
    # subprocess.run kills and reaps its child on any exception.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="PYTHONHASHSEED of the routing processes")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring budget of one run (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help="seed of the chips and the ECO edit list")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no router sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    try:
        metrics, records = measure(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json", file=sys.stderr,
        )
        return 2
    problems = output_problems(args, records)
    print(
        f"{args.workload} workload-seed={args.workload_seed} seed={args.seed} "
        f"iterations={len(records)} trace={args.trace}"
    )
    for index, record in enumerate(records):
        print(
            f"  iteration {index}: setup_s={record['setup_s']:.6g} "
            f"route_s={record['measured_s']:.6g} "
            f"(cpu {record['measured_cpu_s']:.6g} s, "
            f"wall {record['measured_wall_s']:.6g} s, "
            f"{record['probes']} probes) "
            f"peak_rss_mib={record['peak_rss_mib']:.6g}"
        )
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:>14.6g} {units[name]}")
    for path in records[-1].get("unwrapped", ()):
        print(f"note: {path} not found, its layer reports 0")
    for problem in problems:
        print(f"check failed: {problem}")
    outputs = records[-1]["outputs"]
    result = {
        "correct": not problems,
        "attempted": int(outputs["attempted"]),
        "failed": int(outputs["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
