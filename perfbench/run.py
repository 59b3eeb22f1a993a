"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {cold-cli,sweep,serve-mix} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes a Chrome trace to ``.bench_out/``.  Every output is
checked against the fixed-point results.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status: 0 when every check passed, 1 on any
mismatch, 2 when the checkout holds no program to measure.
"""

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness  # noqa: E402


def workload_fns():
    from perfbench.serve_mix import serve_mix
    from perfbench.workloads import cold_cli, sweep

    return {"cold-cli": cold_cli, "sweep": sweep, "serve-mix": serve_mix}


def report(run, trace: bool) -> dict:
    """Print the readable report; return the JSON result."""
    kind = "per_layer" if trace else "end_to_end"
    meaning = harness.metric_map()[kind]
    metrics = {}
    print(f"== perfbench {run.workload} ({'traced' if trace else 'end to end'})")
    for spec in harness.bench_spec()[kind]:
        name, unit = spec["name"], spec["unit"]
        value = run.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        meta = meaning[name]
        if trace:
            where = "; ".join(meta["moves"]) or meta.get("note", "-")
            print(f"{name:<28} {value:>14.6g} {unit:<6} -> {where}")
        else:
            alias = meta["workloads"][run.workload]
            print(f"{name:<20} {value:>14.6g} {unit:<6} ({alias})")
    outcome = run.outcome
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"failed_ratio {ratio:.6g} ({outcome.failed} of "
          f"{outcome.attempted} checked operations)")
    for note in run.notes:
        print(f"note: {note}")
    for problem in outcome.failures[:20]:
        print(f"FAILED: {problem}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in harness.bench_spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.ensure_source()
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(harness.ROOT)
    # a terminated run still unwinds, so every child (daemons included) is
    # stopped and reaped by the ``finally`` blocks that started it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    run = workload_fns()[args.workload](args.seed, args.seconds, trace)
    if trace:
        path = os.path.join(harness.OUT_DIR, f"trace-{args.workload}.json")
        run.spans.write_chrome(path)
        run.notes.append(
            f"Chrome trace of {len(run.spans.records)} spans: {path}"
        )
    result = report(run, trace)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
