"""Benchmark of openquad: closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
worker process (worker.py), so every pass pays set-up and first-call
LAPACK costs as a command-line run does, and the next pass starts only
after the previous one has finished.  Passes repeat for about --seconds.
Set-up is also timed in a few worker processes that run no pass.

With --trace 0 the end-to-end metrics are reported: setup_s, wall_s and
peak_rss_mb, each the median over the run's processes.  With --trace 1
passes alternate between untraced and traced (span wrappers, see
spans.py), and the per-layer metrics are the medians over the traced
passes; trace_overhead_s is the traced minus the untraced median wall_s.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs every
workload in turn and prefixes each metric with the workload name.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import metric_names  # noqa: E402

WORKLOADS = ("sweep_n53", "ness_large", "gap_scan", "dynamics")
SETUP_ONLY_RUNS = 3
MIN_PASSES = 3  # per kind: untraced, and traced in a traced run
STOP_STARTING_AFTER_S = 120.0  # keeps a much slower build inside the time limit
WORKER_TIMEOUT_S = 160.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerError(Exception):
    pass


def run_worker(workload, seed, *flags):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run passes of one workload for about ``seconds``; return its summary."""
    setups = [run_worker(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_ONLY_RUNS)]
    passes = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        result = run_worker(workload, seed, *(["--trace"] if traced else []))
        passes[traced].append(result)
        setups.append(result["setup_s"])
        elapsed = time.perf_counter() - start
        done = sum(len(passes[k]) for k in kinds)
        enough = all(len(passes[k]) >= MIN_PASSES for k in kinds)
        if elapsed > STOP_STARTING_AFTER_S or (
                enough and elapsed + elapsed / done > seconds):
            break

    every = passes[False] + passes[True]
    untraced = passes[False]
    summary = {
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "failures": {k: v for p in every for k, v in p["failures"].items()},
        "machine": every[0]["machine"],
        "passes": len(every),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "setup_samples": len(setups),
    }
    if not trace:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        summary["units"] = dict(END_TO_END)
    else:
        traced = passes[True]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in metric_names()}
        metrics["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in untraced))
        summary["metrics"] = metrics
        summary["units"] = {name: layer_unit(name) for name in metrics}
    return summary


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    return "MB" if name.endswith("_mb") else "s"


def report(workload, summary):
    """Human-readable lines for one workload."""
    rate = summary["failed"] / summary["attempted"]
    print(f"== {workload}: {summary['passes']} passes, "
          f"{summary['setup_samples']} set-ups, {summary['attempted']} operations")
    print("  untraced wall_s per pass: "
          + " ".join(f"{w:.3f}" for w in summary["pass_wall_s"]))
    for name, value in summary["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {summary['units'][name]}")
    print(f"  {'error_rate':48s} {rate:14.6g} failed/attempted")
    for op, msg in list(summary["failures"].items())[:5]:
        print(f"  FAILED {op}: {msg}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "openquad" / "__init__.py").is_file():
        print(f"no openquad sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summaries[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_out", ignore_errors=True)

    print("machine " + json.dumps(summaries[names[0]]["machine"], sort_keys=True))
    metrics = {}
    for name, summary in summaries.items():
        report(name, summary)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in summary["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": summary["units"][metric]}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
