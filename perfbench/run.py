"""Run one benchmark workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing installed in the program and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
measures the same work once plain and once with the layer wrappers of
``tracer.py`` installed, prints the per-layer metrics, and writes the
spans (JSON and Chrome trace-event format) under ``perfbench/out/``.
``--workload all`` runs the three workloads in one process.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Human-readable lines before it repeat every metric with its unit,
under the names the benchmark's README maps them to.
Exit status: 0 all outputs correct, 1 some output wrong, 3 skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing is salted per process, and the salt alone moved
    # the median artifact load by 30 % between runs: pin it.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the paths above)

WORKLOADS = ("paper_sweep", "sor_native", "adi_parallel")
CACHE_DIR = os.path.join(HERE, ".cache")
OUT_DIR = os.path.join(HERE, "out")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            ) -> workloads.Outcome:
    work = os.path.join(CACHE_DIR, "tmp")
    os.makedirs(work, exist_ok=True)
    if name == "paper_sweep":
        return workloads.run_sweep(seed, seconds, trace, work, OUT_DIR)
    return workloads.run_executions(name, seconds, trace, work, OUT_DIR,
                                    os.path.join(CACHE_DIR, "ref"))


def metrics_of(outcome: workloads.Outcome, trace: bool,
               spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The JSON metrics: every end-to-end (or per-layer) metric."""
    values = outcome.layers if trace else outcome.e2e
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"{outcome.workload} did not measure {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def report(outcome: workloads.Outcome,
           metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"== {outcome.workload}: {outcome.seed_note}")
    for name, m in metrics.items():
        note = outcome.notes.get(name)
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for name, value, note in outcome.report:
        print(f"  {name:24s} {value:14.6g} {note}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'fail_frac':24s} {frac:14.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for what in outcome.failures:
        print(f"  FAILED: {what}")
    for path in outcome.trace_files:
        print(f"  trace: {os.path.relpath(path, ROOT)}")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The shared-memory mailboxes of ``execute_parallel`` start that helper
    process, which otherwise outlives this one until it notices the
    closed pipe; a benchmark must leave no process behind.
    """
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders paper_sweep's points (run workloads "
                         "take no seed)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    skipped: Dict[str, str] = {}
    for name in names:
        outcome = run_one(name, args.seed, args.seconds, trace)
        if outcome.skip is not None:
            print(f"== {name}: SKIPPED, {outcome.skip}")
            skipped[name] = outcome.skip
            continue
        m = metrics_of(outcome, trace, spec)
        report(outcome, m)
        attempted += outcome.attempted
        failed += outcome.failed
        if args.workload == "all":
            m = {f"{name}.{k}": v for k, v in m.items()}
        metrics.update(m)
        sys.stdout.flush()
    if not metrics:
        print(json.dumps({"skipped": skipped}))
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Keep the C compiler's and every other temporary file in the checkout.
    os.makedirs(os.path.join(CACHE_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(CACHE_DIR, "tmp")
    try:
        status = main()
    finally:
        stop_resource_tracker()
    sys.exit(status)
