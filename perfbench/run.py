"""fraclap benchmark: one workload per call, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nls-step --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh subprocess with OMP/OPENBLAS/MKL_NUM_THREADS=1
and ``src/`` first on PYTHONPATH, so the checkout's own fraclap is measured.
Set-up time is sampled in several extra fresh processes that stop after
set-up.  The lines before the last are for people: environment, every
end-to-end metric under the name the workload gives it (``step_s``,
``apply_s``, ``cli_csv_s``, ``cli_json_s``, ``linf``, ``mass_drift``,
``ops_failed``, ...) with its unit and sample count, and, with ``--trace 1``,
every per-layer metric and the tracing overhead.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  The exit code is nonzero when any correctness
check failed or a workload could not run.

No machine setting is touched: no cache dropping, no huge pages, no CPU
pinning or frequency control.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS
from workloads import ROOT, THREAD_VARS, WORKLOADS, at_reference_speed, calibrate

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10  # extra fresh processes that only set up
TIME_LIMIT = 170.0  # seconds for the whole call, below the 180 s allowance
P90_MIN_BEYOND = 10  # report p90 only with this many samples above it


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(args, extra, deadline) -> dict:
    """Run workloads.py in a fresh process; return its result with setup_s."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra + (["--tiny"] if args.tiny else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} worker ran past the time limit")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - started
    return result


def cache_sizes() -> dict:
    """L1d/L2/L3 sizes in bytes from getconf (empty if unavailable)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE",
                                            "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def p90(samples):
    """90th percentile when at least ten samples lie beyond it, else None."""
    if len(samples) * 0.1 < P90_MIN_BEYOND:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def report(args, res, setups, kernels) -> tuple[list, dict]:
    """Human-readable lines and the contract metrics of one result."""
    w = args.workload
    lines = []

    def line(name, value, unit, note=""):
        lines.append(f"{w:<15} {name:<40} {value:<24.10g} {unit:<6} {note}".rstrip())

    if args.trace:
        for name, value in res["layer"].items():
            line(name, value, PER_LAYER_UNITS[name])
        metrics = {name: {"value": float(value), "unit": PER_LAYER_UNITS[name]}
                   for name, value in res["layer"].items()}
        lines.append(f"{w:<15} tracing overhead per operation "
                     f"{res['layer']['trace.overhead_s']:.6g} s "
                     "(median traced minus median untraced, interleaved)")
        lines.append(f"{w:<15} span check: "
                     f"{res['trace_check'] or 'self times plus unattributed time add up to each wall time'}"
                     f"; spans written to {res['spans_file']}")
        return lines, metrics

    setup_s = at_reference_speed(setups, kernels, w)
    op_ref_s = at_reference_speed(res["op_times"], res["kernel_times"], w)
    line("setup_s", setup_s, "s", f"median of {len(setups)} fresh-process "
         "set-ups, at reference speed")
    line("setup_wall_s", statistics.median(setups), "s", "median, as measured")
    line("op_ref_s", op_ref_s, "s", f"median of {len(res['op_times'])} "
         "operations, at reference speed")
    line("kernel_s", statistics.median(res["kernel_times"]), "s",
         f"calibration kernel, median, n={len(res['kernel_times'])}")
    for name, samples in res["named"].items():
        line(name, statistics.median(samples), "s", f"median, n={len(samples)}")
        tail = p90(samples)
        if tail is not None:
            beyond = sum(1 for s in samples if s > tail)
            line(name[:-2] + "_p90_s", tail, "s",
                 f"n={len(samples)}, {beyond} beyond")
    line("peak_rss_mb", res["peak_rss_mib"], "MiB", "worker process, ru_maxrss")
    line(res["error_name"], res["error"], "1", res["error_note"])
    line("oracle_rel_dev", res["oracle_rel"], "1", "fast vs direct, seeded samples")
    line("ops_failed", res["failed"], "count")
    line("ops_attempted", res["attempted"], "count")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ref_s": {"value": op_ref_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
        "error": {"value": res["error"], "unit": "1"},
    }
    return lines, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fraclap" / "__init__.py").is_file():
        print(f"perfbench: no fraclap sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT
    try:
        # Set-ups and calibration kernels alternate, the last kernel of
        # all running in the main worker before its first operation.
        setups, kernels = [], []
        if not args.trace:
            worker(args, ["--probe"], deadline)  # warms the file and .pyc caches
            for _ in range(2 if args.tiny else SETUP_PROBES):
                kernels.append(calibrate(args.workload, args.tiny))
                setups.append(worker(args, ["--probe"], deadline)["setup_s"])
            kernels.append(calibrate(args.workload, args.tiny))
        res = worker(args, [], deadline)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    kernels.append(res["kernel_times"][0])

    env = dict(res["env"], **cache_sizes())
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# machine settings untouched: no cache dropping, no huge pages, "
          "no pinning; one closed-loop caller, no extra threads")
    lines, metrics = report(args, res, setups, kernels)
    print("\n".join(lines))
    for msg in res["failures"]:
        print(f"# FAILED {msg}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
