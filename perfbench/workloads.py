"""The benchmark workloads, each run in the calling process.

``run.py`` starts this module in a fresh single-threaded subprocess per
workload and per set-up sample:

    python3 perfbench/workloads.py --workload nls-step --seed 1 --seconds 30 \
        --trace 0 [--probe] [--tiny]

It prints one JSON object: the raw timings, the correctness-gate tally,
peak RSS and, with ``--trace 1``, the per-layer metrics.  ``--probe`` stops
right after set-up, so the caller can sample set-up time in several fresh
processes.  ``--tiny`` shrinks every size for the benchmark's own tests.

Every workload is closed-loop: one caller, one operation at a time, the
next starting when the previous one (and its check) is done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Problem sizes.  ``tiny`` keeps every workload well under a second.
# Accuracy limits: the acceptance limit for linf at N = 2^20 (1e-10); for
# erf at N = 2^16, where the O(1/N^2) error measures 2.1e-10, five times
# that; for the evolution, a relative mass drift far above the measured
# 1e-10 yet far below what a wrong sample causes.
CONFIGS = {
    "full": {
        "nls-step": dict(alpha=1.99, N=1024, r=32, L=200.0, dt=0.01,
                         drift_steps=40, max_steps=500, drift_limit=1e-6),
        "apply-analytic": dict(alpha=1.3, N=2**20, r=1, L=1.0,
                               linf_limit=1e-10, min_ops=3),
        "cli-erf": dict(alpha=0.9, N=2**16, r=1, L=2.1,
                        linf_limit=1e-9, min_ops=3),
        "oracle": dict(N=101, r=5),
    },
    "tiny": {
        "nls-step": dict(alpha=1.99, N=64, r=4, L=4.0, dt=0.01,
                         drift_steps=5, max_steps=50, drift_limit=1e-4),
        "apply-analytic": dict(alpha=1.3, N=2048, r=2, L=1.0,
                               linf_limit=1e-6, min_ops=3),
        "cli-erf": dict(alpha=0.9, N=1024, r=2, L=2.1,
                        linf_limit=1e-6, min_ops=2),
        "oracle": dict(N=16, r=2),
    },
}
ORACLE_LIMIT = 1e-11  # fast vs direct, relative to max |direct| (criterion 1)

# The calibration kernel of each workload: fixed numpy work on arrays of the
# workload's size (an FFT round trip and an elementwise exp), plus, for
# cli-erf, per-node formatting done the way its writers do it (numpy
# scalars through ".17g", and the pure-Python json encoder of indent=1).
# It is timed right before and right after every operation; the machine's
# speed, which drifts by a third and more between minutes on a shared host,
# scales both alike.
CALIBRATION = {
    "full": {"nls-step": dict(n=2**17, n_fmt=0, reps=2),
             "apply-analytic": dict(n=2**20, n_fmt=0, reps=1),
             "cli-erf": dict(n=2**16, n_fmt=2**13, reps=1)},
    "tiny": {"nls-step": dict(n=2**10, n_fmt=0, reps=1),
             "apply-analytic": dict(n=2**10, n_fmt=0, reps=1),
             "cli-erf": dict(n=2**10, n_fmt=2**8, reps=1)},
}
# A fixed time near each full-size kernel's median on the machine in
# README.md.  A time at reference speed is a measured time divided by the
# kernel time measured around it, times this.
REFERENCE_KERNEL_S = {"nls-step": 0.025, "apply-analytic": 0.13, "cli-erf": 0.15}
KERNEL_WINDOW = 3  # kernels on each side of an operation that set its speed


def calibrate(workload: str, tiny: bool = False) -> float:
    """Run the workload's calibration kernel once; return its wall time."""
    c = CALIBRATION["tiny" if tiny else "full"][workload]
    n = c["n"]
    x = np.exp(1j * np.linspace(0.0, 100.0, n)) * np.linspace(1.0, 2.0, n)
    t0 = time.perf_counter()
    for _ in range(c["reps"]):
        y = np.fft.ifft(np.fft.fft(x) * x)
        z = np.exp(1j * y.real) * y
        if c["n_fmt"]:
            s, m = y.real, range(c["n_fmt"])
            "\n".join(f"{j},{s[j]:.17g},{z[j].real:.17g},{z[j].imag:.17g}" for j in m)
            json.dumps({"nodes": [{"j": j, "s": s[j], "re": z[j].real,
                                   "im": z[j].imag} for j in m]}, indent=1)
    return time.perf_counter() - t0


def at_reference_speed(times, kernel_times, workload: str) -> float:
    """Median of ``times[k]`` over the kernel time around it, in s.

    ``kernel_times[k]`` ran right before ``times[k]`` and
    ``kernel_times[k + 1]`` right after it.  The kernel time around
    operation k is the median of the ``KERNEL_WINDOW`` kernels on each side
    of it, fewer at the ends: one kernel alone is too noisy a yardstick for
    an operation of a few seconds, while the machine's speed drifts over
    tens of seconds and more.
    """
    w = KERNEL_WINDOW
    ratios = [t / statistics.median(kernel_times[max(0, k + 1 - w): k + 1 + w])
              for k, t in enumerate(times)]
    return statistics.median(ratios) * REFERENCE_KERNEL_S[workload]


class _Stop(Exception):
    """Ends a time-stepping run from inside its snapshot callback."""


class Run:
    """State of one workload run: timings, windows, gate tally, tracer."""

    def __init__(self, workload, seed, seconds, trace, tiny, probe, corrupt):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.probe = probe
        self.corrupt = corrupt
        sizes = CONFIGS["tiny" if tiny else "full"]
        self.cfg = sizes[workload]
        self.oracle = sizes["oracle"]
        self.tiny = tiny
        self.first_op_at = None
        self.op_times: list = []
        self.kernel_times: list = []  # one before the first operation, one after each
        self.windows: list = []  # (start, end, kind) per operation
        self.attempted = 0
        self.failures: list = []
        self.peak_rss_mib = None
        self.tracer = None
        if trace and not probe:
            from tracing import Tracer
            self.tracer = Tracer()

    def check(self, ok: bool, what: str):
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def kind(self, k: int) -> str:
        """Tracing mode of operation k: traced and untraced alternate.

        Operation 0 of a traced run is the probe that measures plan memory
        under tracemalloc; it is left out of the per-layer averages.
        """
        if self.tracer is None:
            return "untraced"
        if k == 0:
            return "probe"
        return "traced" if k % 2 else "untraced"

    def enter(self, kind: str):
        if self.tracer is None:
            return
        if kind == "untraced":
            self.tracer.uninstall()
        else:
            self.tracer.measure_plan = kind == "probe"
            self.tracer.install()

    def leave(self):
        if self.tracer is not None:
            self.tracer.uninstall()

    def calibrate(self):
        self.kernel_times.append(calibrate(self.workload, self.tiny))

    def snapshot_rss(self):
        """Peak RSS so far; taken before the post-run checks allocate."""
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workloads ---------------------------------------------------------------


def nls_step(run: Run) -> dict:
    """RK4 steps of the focusing fractional NLS, one Gaussian, cached plan."""
    from fraclap import nls, profiles
    from fraclap.errors import BlowUpError
    from fraclap.grid import GridSpec, map_to_real, output_nodes
    from fraclap.operator import FracLapParams

    c = run.cfg
    g = GridSpec(N=c["N"], r=c["r"], L=c["L"])
    p = FracLapParams(alpha=c["alpha"], grid=g)
    psi0 = np.asarray(profiles.GAUSSIAN.u(map_to_real(output_nodes(g), g.L)),
                      dtype=complex)
    starts, durations, masses, kinds = [], [], [], []
    deadline = math.inf

    def sink(t, psi, m):
        nonlocal deadline
        now = time.perf_counter()
        run.leave()
        k = len(starts)  # this snapshot follows step k
        if run.corrupt and k == 3:
            psi[0] = complex(math.nan, 0.0)
        masses.append(m)
        if k >= 1:
            run.windows.append((starts[k - 1], now, kinds[k - 1]))
            durations.append(now - starts[k - 1])
            drift = abs(m - masses[0])
            run.check(bool(np.isfinite(psi).all())
                      and drift <= c["drift_limit"] * masses[0],
                      f"step {k}: non-finite sample or mass drift {drift:.3e}")
        if k == 1:
            run.first_op_at = now
            deadline = now + run.seconds
            if run.probe:
                raise _Stop
        if k >= 1:
            run.calibrate()  # after step k, before step k+1
        if k >= c["drift_steps"] and now >= deadline:
            raise _Stop
        kinds.append(run.kind(k))  # step k+1 is operation k
        run.enter(kinds[-1])
        starts.append(time.perf_counter())

    try:
        nls.simulate(psi0, p, dt=c["dt"], t_end=c["dt"] * c["max_steps"],
                     snapshot_every=1, sink=sink)
    except _Stop:
        pass
    except BlowUpError as exc:
        run.check(False, f"blow-up: {exc}")
    finally:
        run.leave()
    if run.probe:
        return {}
    run.snapshot_rss()
    run.op_times = durations[1:]  # step 1 built the plan: it is set-up
    drift = max(abs(m - masses[0]) for m in masses[: c["drift_steps"] + 1])
    return {"error_name": "mass_drift", "error": drift,
            "error_note": f"max |M(t)-M(0)| over the first {c['drift_steps']} steps",
            "named": {"step_s": run.op_times}}


def apply_analytic(run: Run) -> dict:
    """One-shot applications to the rational profile through f_from_analytic."""
    from fraclap import operator, profiles, reference, spectral
    from fraclap.grid import GridSpec, output_nodes

    c = run.cfg
    g = GridSpec(N=c["N"], r=c["r"], L=c["L"])
    p = operator.FracLapParams(alpha=c["alpha"], grid=g)
    run.first_op_at = time.perf_counter()
    if run.probe:
        return {}
    deadline = run.first_op_at + run.seconds
    run.calibrate()
    exact = first_linf = None
    k = 0
    while True:
        kind = run.kind(k)
        run.enter(kind)
        t0 = time.perf_counter()
        us, uss = profiles.mapped_derivatives(profiles.RATIONAL, g.L)
        F = spectral.f_from_analytic(us, uss, g)
        values = operator.FractionalLaplacian(p, cache_kernels=False).apply(F)
        t1 = time.perf_counter()
        run.leave()
        run.calibrate()
        del F
        run.windows.append((t0, t1, kind))
        run.op_times.append(t1 - t0)
        if run.corrupt:
            values[len(values) // 2] += 1e-6
        if exact is None:
            exact = reference.exact_rational(c["alpha"], output_nodes(g))
        linf = reference.error_norms(values, exact).linf
        del values
        first_linf = linf if first_linf is None else first_linf
        run.check(linf <= c["linf_limit"] and linf == first_linf,
                  f"apply {k}: linf {linf:.3e} (first {first_linf:.3e}, "
                  f"limit {c['linf_limit']:.0e})")
        k += 1
        if k >= c["min_ops"] and t1 >= deadline:
            break
    run.snapshot_rss()
    return {"error_name": "linf", "error": first_linf,
            "error_note": "vs exact_rational",
            "named": {"apply_s": run.op_times}}


def cli_erf(run: Run) -> dict:
    """``fraclap --command apply`` on builtin erf, CSV then JSON, per operation."""
    import fraclap.cli

    c = run.cfg
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        run.first_op_at = time.perf_counter()
        if run.probe:
            return {}
        return _cli_loop(run, c, out_dir, fraclap.cli)
    finally:
        shutil.rmtree(out_dir)


def _cli_loop(run: Run, c: dict, out_dir: Path, cli) -> dict:
    argv = ["--command", "apply", "--input", "builtin:erf",
            "--alpha", repr(c["alpha"]), "--N", str(c["N"]), "--r", str(c["r"]),
            "--L", repr(c["L"])]
    deadline = run.first_op_at + run.seconds
    run.calibrate()
    digests, times = {}, {"csv": [], "json": []}
    out_bytes = []
    k = 0
    while True:
        kind = run.kind(k)
        run.enter(kind)
        calls = {}
        t_pair = time.perf_counter()
        for fmt in ("csv", "json"):
            path = out_dir / f"out.{fmt}"
            t0 = time.perf_counter()
            rc = cli.main(argv + ["--format", fmt, "--output", str(path)])
            calls[fmt] = (time.perf_counter() - t0, rc, path)
        t_end = time.perf_counter()
        run.leave()
        run.calibrate()
        run.windows.append((t_pair, t_end, kind))
        run.op_times.append(t_end - t_pair)
        size = 0
        for fmt, (dt, rc, path) in calls.items():
            times[fmt].append(dt)
            if rc == 0 and run.corrupt and k == 0 and fmt == "csv":
                _perturb_first_value(path)
            digest = _sha256(path) if rc == 0 else None
            size += path.stat().st_size if rc == 0 else 0
            if fmt not in digests:
                digests[fmt] = digest
                if rc == 0:
                    path.rename(out_dir / f"first.{fmt}")
            run.check(rc == 0 and digest == digests[fmt],
                      f"cli {fmt} call {k}: exit {rc}, output "
                      f"{'identical' if digest == digests[fmt] else 'differs'}")
        out_bytes.append(size)
        k += 1
        if k >= c["min_ops"] and t_end >= deadline:
            break
    run.snapshot_rss()
    linf = _check_cli_outputs(run, c, out_dir)
    return {"error_name": "linf", "error": linf,
            "error_note": "vs exact_erf, parsed from the CSV output",
            "named": {"cli_csv_s": times["csv"], "cli_json_s": times["json"]},
            "layer_extra": {"cli.output_bytes": float(statistics.median(out_bytes))}}


def _check_cli_outputs(run: Run, c: dict, out_dir: Path) -> float:
    """Check the first CSV and JSON outputs against the closed form."""
    from fraclap import reference
    from fraclap.grid import GridSpec, map_to_real, output_nodes

    csv_path, json_path = out_dir / "first.csv", out_dir / "first.json"
    if not (csv_path.exists() and json_path.exists()):
        run.check(False, "cli wrote no output to check")
        return math.nan
    g = GridSpec(N=c["N"], r=c["r"], L=c["L"])
    x = map_to_real(output_nodes(g), g.L)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    values = rows[:, 3] + 1j * rows[:, 4]
    linf = reference.error_norms(values, reference.exact_erf(c["alpha"], x)).linf
    written = {}
    for line in csv_path.read_text().splitlines()[-2:]:
        if line.startswith("# "):
            key, val = line[2:].split(" = ")
            written[key] = float(val)
    run.check(rows.shape == (g.N, 5)
              and np.array_equal(rows[:, 0], np.arange(g.N))
              and np.array_equal(rows[:, 2], x)
              and linf <= c["linf_limit"] and written.get("linf") == linf,
              f"cli csv: linf {linf:.3e} (limit {c['linf_limit']:.0e}, "
              f"written {written.get('linf')})")
    doc = json.loads(json_path.read_text())
    nodes = doc["nodes"]
    run.check(np.array_equal([n["re"] for n in nodes], values.real)
              and np.array_equal([n["im"] for n in nodes], values.imag)
              and doc["error"]["linf"] == linf,
              "cli json: node values or linf differ from the CSV output")
    return linf


def _perturb_first_value(path: Path):
    """Corrupt the real part of node 0 in a CSV output (self-test only)."""
    lines = path.read_text().split("\n")
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * (1.0 + 1e-6))
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


WORKLOADS = {"nls-step": nls_step, "apply-analytic": apply_analytic,
             "cli-erf": cli_erf}


def oracle_check(run: Run, alpha: float) -> float:
    """Fast convolution against the O(rN²) direct sum on seeded samples."""
    from fraclap.fastconv import fast_singular_integral
    from fraclap.grid import GridSpec
    from fraclap.quadrature import (MidpointSamples, SingularParams,
                                    singular_integral_direct)

    g = GridSpec(N=run.oracle["N"], r=run.oracle["r"], L=1.0)
    p = SingularParams(beta=alpha, gamma=1.0 - alpha)
    rng = np.random.default_rng(run.seed)
    v = rng.standard_normal(g.num_midpoints) + 1j * rng.standard_normal(g.num_midpoints)
    F = MidpointSamples(values=v, grid=g)
    direct = singular_integral_direct(F, p)
    rel = float(np.max(np.abs(fast_singular_integral(F, p) - direct))
                / np.max(np.abs(direct)))
    run.check(rel <= ORACLE_LIMIT,
              f"fast vs direct: relative deviation {rel:.3e} "
              f"(limit {ORACLE_LIMIT:.0e})")
    return rel


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_VARS},
    }


def execute(workload: str, seed: int, seconds: float, trace: bool = False,
            tiny: bool = False, probe: bool = False, corrupt: bool = False) -> dict:
    """Run one workload in this process and return its raw result.

    ``corrupt`` perturbs the workload's output before its check, so the
    benchmark's own tests can see the gate trip.
    """
    run = Run(workload, seed, seconds, trace, tiny, probe, corrupt)
    try:
        out = WORKLOADS[workload](run)
    finally:
        run.leave()
    result = {"workload": workload, "seed": seed, "first_op_at": run.first_op_at}
    if probe:
        return result
    layer_extra = out.pop("layer_extra", None)
    result.update(out, oracle_rel=oracle_check(run, run.cfg["alpha"]),
                  env=environment(), layer=None, trace_check=None)
    if run.tracer is not None:
        from tracing import summarize
        result["layer"], result["trace_check"] = summarize(
            run.tracer, run.windows, layer_extra)
        run.check(result["trace_check"] is None, f"trace: {result['trace_check']}")
        result["spans_file"] = _write_spans(run, result["env"])
    result.update(op_times=run.op_times, kernel_times=run.kernel_times,
                  peak_rss_mib=run.peak_rss_mib,
                  attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures[:10])
    return result


def _write_spans(run: Run, env: dict) -> str:
    """Write the run's spans and operation windows; return the file's path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{run.workload}-seed{run.seed}.json"
    path.write_text(json.dumps(
        {"workload": run.workload, "seed": run.seed, "env": env,
         "windows": run.windows, "spans": run.tracer.dump()}))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    import fraclap
    src = (ROOT / "src").resolve()
    if src not in Path(fraclap.__file__).resolve().parents:
        print(f"perfbench: imported fraclap from {fraclap.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tiny, args.probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
