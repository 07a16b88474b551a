"""Kernel-to-HTTP benchmark of the FabP scan runtimes.

Run from the repository root::

    python3 perfbench/run.py --workload session-batch --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn.  The report goes to
standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything the
run writes goes under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics printed by an untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_gcups": "Gcell/s",
    "memory_pss_mb": "MiB",
}


def _metadata(seed: int, workers: int) -> dict:
    import numpy

    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from layers import GROUP_OWNER, LAYER_METRICS, PROBE_SECONDS, direct_layers
    from measure import Tracer
    from workloads import PROBES, WORKLOADS, Context

    workers = len(os.sched_getaffinity(0))
    tracer = Tracer(trace)
    ctx = Context(ROOT, work, seed, seconds, workers, tracer)
    outcome = WORKLOADS[name](ctx)
    attempted, failed = outcome.attempted, outcome.failed
    report = {"workload": name, "trace": trace, "meta": _metadata(seed, workers),
              "detail": {name: outcome.detail}}
    if not trace:
        metrics = {key: {"value": outcome.metrics[key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    else:
        layers = dict(outcome.layers)
        sources = {key: name for key in layers}
        direct, report["detail"]["direct"] = direct_layers(outcome.inputs, workers, seed)
        layers.update(direct)
        sources.update({key: "direct" for key in direct})
        owned = {owner for prefix, owner in GROUP_OWNER.items()
                 if not any(key.startswith(prefix) for key in layers)}
        probes = {}
        for owner in sorted(owned):
            probe_ctx = Context(ROOT, work, seed, PROBE_SECONDS, workers, tracer, setups=1)
            probe = PROBES[owner](probe_ctx)
            probes[owner] = probe
            attempted += probe.attempted
            failed += probe.failed
            report["detail"][f"probe:{owner}"] = probe.detail
            for key, value in probe.layers.items():
                if key not in layers and key != "trace.overhead_ratio":
                    layers[key] = value
                    sources[key] = f"{owner} (probe)"
        session = outcome if name == "session-batch" else probes["session-batch"]
        equivalent = session.detail["kernel_equivalent"]
        layers["session.parallel_efficiency"] = (
            equivalent["cells_per_call"] / (layers["bitscore.gcups_k8"] * 1e9)
            / (equivalent["call_seconds_p50"] * equivalent["workers"])
        )
        sources["session.parallel_efficiency"] = sources["session.pass_ms"]
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, (unit, _, _) in LAYER_METRICS.items()}
        report["layers"] = {
            key: {"value": layers[key], "unit": unit, "moves": moves, "on": on,
                  "measured_on": sources[key]}
            for key, (unit, moves, on) in LAYER_METRICS.items()
        }
        span_file = work / f"trace-{name}-{seed}.json"
        tracer.write(span_file)
        report["spans"] = {"file": str(span_file.relative_to(ROOT)),
                           "count": len(tracer.spans),
                           "self_seconds": tracer.self_seconds()}
    report["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return report


def _print_report(report: dict) -> None:
    print(json.dumps({k: v for k, v in report.items() if k != "result"}, indent=1, default=str))
    print(f"== {report['workload']} (trace={int(report['trace'])})")
    result = report["result"]
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    # Reported where they apply, outside the metrics every workload prints.
    detail = report["detail"][report["workload"]]
    if "latency_tail_ms" in detail:
        latency = detail["latency_ms"]
        print(f"  {'latency_tail_ms':32s} {detail['latency_tail_ms']:14.6g} ms "
              f"(p{latency['tail_pct']:g} of {latency['n']})")
    if "slo_attainment" in detail:
        print(f"  {'slo_attainment':32s} {detail['slo_attainment']:14.6g} ratio "
              f"(within {detail['slo_ms']:g} ms)")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    from procfs import become_subreaper, stop_all

    become_subreaper()
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), work)
                   for n in names]
    finally:
        killed = stop_all()
    for report in reports:
        _print_report(report)
    results = [r["result"] for r in reports]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rep['workload']}/{key}": metric
                        for rep in reports for key, metric in rep["result"]["metrics"].items()},
        }
    if killed:
        # Processes that outlived every workload's own leak check: a leak too.
        print(f"error: killed processes that outlived the run: {killed}", file=sys.stderr)
        final["failed"] += len(killed)
        final["correct"] = False
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
