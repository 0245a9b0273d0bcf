"""Self-tests of the benchmark, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The end-to-end metrics each workload prints under its own names.
NAMED = {
    "nls-step": ["setup_s", "step_s", "peak_rss_mb", "mass_drift"],
    "apply-analytic": ["setup_s", "apply_s", "peak_rss_mb", "linf"],
    "cli-erf": ["setup_s", "cli_csv_s", "cli_json_s", "peak_rss_mb", "linf"],
}
UNITS = {"setup_s": "s", "step_s": "s", "apply_s": "s", "cli_csv_s": "s",
         "cli_json_s": "s", "peak_rss_mb": "MiB", "mass_drift": "1", "linf": "1",
         "ops_failed": "count", "ops_attempted": "count"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_spec_matches_the_metrics_the_benchmark_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER_UNITS)
    assert all(m["unit"] == PER_LAYER_UNITS[m["name"]] for m in SPEC["per_layer"])
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    rows = {ln.split()[1]: ln.split()[3] for ln in lines[:-1]
            if ln.startswith(workload + " ") and len(ln.split()) >= 4}
    if trace:
        assert "tracing overhead" in proc.stdout
        assert all(rows[m] == u for m, u in PER_LAYER_UNITS.items())
    else:
        for name in NAMED[workload] + ["ops_failed", "ops_attempted"]:
            assert rows[name] == UNITS[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_trips_the_gate(workload):
    clean = workloads.execute(workload, seed=5, seconds=0.2, tiny=True)
    assert clean["failed"] == 0, clean["failures"]
    bad = workloads.execute(workload, seed=5, seconds=0.2, tiny=True, corrupt=True)
    assert bad["failed"] >= 1


def test_seed_drives_the_oracle_samples():
    runs = [workloads.execute("apply-analytic", seed=s, seconds=0.05, tiny=True)
            for s in (1, 1, 2)]
    assert [r["seed"] for r in runs] == [1, 1, 2]
    assert runs[0]["oracle_rel"] == runs[1]["oracle_rel"] != runs[2]["oracle_rel"]


def test_span_outside_its_operation_fails_the_trace_check():
    tracer = Tracer()
    tracer.spans = [["fastconv.apply", 1.0, 2.0, -1, 0],
                    ["dft.fft", 1.2, 2.6, 0, 8]]
    _, check = summarize(tracer, [(0.5, 3.0, "traced")])
    assert check is not None and "negative self time" in check
    tracer.spans = [["fastconv.apply", 1.0, 4.0, -1, 0]]
    _, check = summarize(tracer, [(0.5, 3.0, "traced")])
    assert check is not None and "leaves" in check


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "nls-step", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_speed_follows_the_program_not_the_machine():
    ops = [2.0, 2.2, 1.9, 2.1, 2.0]
    kernels = [0.10, 0.11, 0.10, 0.12, 0.10, 0.11]
    base = workloads.at_reference_speed(ops, kernels, "apply-analytic")
    # A machine 1.5 times slower stretches operations and kernels alike.
    slower_machine = workloads.at_reference_speed(
        [1.5 * t for t in ops], [1.5 * k for k in kernels], "apply-analytic")
    assert slower_machine == pytest.approx(base)
    # A program 1.2 times slower stretches only the operations.
    slower_program = workloads.at_reference_speed(
        [1.2 * t for t in ops], kernels, "apply-analytic")
    assert slower_program == pytest.approx(1.2 * base)
