import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from fraclap import cli
from fraclap.cli import main
from fraclap.grid import GridSpec, map_to_real, output_nodes
from fraclap.nls import simulate
from fraclap.operator import FracLapParams, FractionalLaplacian
from fraclap.profiles import builtin_profile
from fraclap.reference import error_norms


def _read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, [ln.split(",") for ln in data], comments


class TestApply:
    def test_rational_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["--command", "apply", "--alpha", "1.3", "--N", "64",
                     "--r", "2", "--L", "1.0", "--input", "builtin:rational",
                     "--output", str(out)])
        assert code == 0
        header, rows, comments = _read_csv_rows(out)
        assert header == ["j", "s_j", "x_j", "re", "im"]
        assert len(rows) == 64
        assert [c.split("=")[0].strip() for c in comments] == ["# l2", "# linf"]
        linf = float(comments[1].split("=")[1])
        assert linf < 1e-3
        # Node columns reproduce the grid.
        g = GridSpec(N=64, r=2, L=1.0)
        s = output_nodes(g)
        assert float(rows[5][1]) == s[5]
        assert float(rows[5][2]) == map_to_real(s[5], 1.0)

    def test_json_matches_csv_numbers(self, tmp_path):
        args = ["--command", "apply", "--alpha", "0.7", "--N", "16", "--r", "1",
                "--input", "builtin:erf", "--L", "2.1"]
        csv_path = tmp_path / "a.csv"
        json_path = tmp_path / "a.json"
        assert main(args + ["--output", str(csv_path)]) == 0
        assert main(args + ["--output", str(json_path), "--format", "json"]) == 0
        doc = json.loads(json_path.read_text())
        _, rows, comments = _read_csv_rows(csv_path)
        for row, node in zip(rows, doc["nodes"]):
            assert float(row[3]) == node["re"]
            assert float(row[4]) == node["im"]
        assert float(comments[0].split("=")[1]) == doc["error"]["l2"]

    def test_sample_file_equals_builtin_spectral_route(self, tmp_path):
        # builtin:erf runs the pseudospectral route from node samples, so a
        # sample file holding those very values must reproduce it exactly.
        g = GridSpec(N=32, r=1, L=2.1)
        x = map_to_real(output_nodes(g), 2.1)
        samples = tmp_path / "u.txt"
        samples.write_text("\n".join(
            f"{math.erf(t):.17g} 0" for t in x) + "\n")
        out_file = tmp_path / "file.csv"
        out_builtin = tmp_path / "builtin.csv"
        base = ["--command", "apply", "--alpha", "0.7", "--N", "32",
                "--r", "1", "--L", "2.1"]
        assert main(base + ["--input", str(samples),
                            "--output", str(out_file)]) == 0
        assert main(base + ["--input", "builtin:erf",
                            "--output", str(out_builtin)]) == 0
        _, rows_f, _ = _read_csv_rows(out_file)
        _, rows_b, _ = _read_csv_rows(out_builtin)
        assert [r[3:] for r in rows_f] == [r[3:] for r in rows_b]

    def test_rational_against_direct_quadrature_oracle(self, tmp_path):
        # The numbers in the CSV must reproduce the direct double-sum
        # evaluation of the same grid, not just the fast path's own output.
        from fraclap.operator import FracLapParams, prefactors
        from fraclap.profiles import RATIONAL, mapped_derivatives
        from fraclap.quadrature import singular_integral_direct
        from fraclap.spectral import f_from_analytic

        out = tmp_path / "golden.csv"
        code = main(["--command", "apply", "--alpha", "1.3", "--N", "1024",
                     "--r", "4", "--L", "1.0", "--input", "builtin:rational",
                     "--output", str(out)])
        assert code == 0
        _, rows, comments = _read_csv_rows(out)
        assert len(rows) == 1024 and len(comments) == 2

        g = GridSpec(N=1024, r=4, L=1.0)
        p = FracLapParams(alpha=1.3, grid=g)
        us, uss = mapped_derivatives(RATIONAL, 1.0)
        F = f_from_analytic(us, uss, g)
        oracle = prefactors(p) * singular_integral_direct(F, p.singular_params)
        got = np.array([complex(float(r[3]), float(r[4])) for r in rows])
        assert np.max(np.abs(got - oracle)) < 1e-11 * np.max(np.abs(oracle))

    def test_wrong_sample_count_exits_3(self, tmp_path):
        samples = tmp_path / "u.txt"
        samples.write_text("1 0\n2 0\n3 0\n")
        out = tmp_path / "out.csv"
        code = main(["--command", "apply", "--alpha", "0.7", "--N", "32",
                     "--r", "1", "--input", str(samples), "--output", str(out)])
        assert code == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", ["nan 0", "inf 0", "-inf 0", "0.5 -inf"])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, bad, fmt):
        # One bad sample would spread to every node of the spectral route.
        samples = tmp_path / "u.txt"
        samples.write_text(f"1 0\n0.5 0\n{bad}\n0.25 0\n")
        out = tmp_path / f"out.{fmt}"
        assert main(["--command", "apply", "--alpha", "1.3", "--N", "4",
                     "--r", "1", "--input", str(samples), "--format", fmt,
                     "--output", str(out)]) == 2
        assert f"u.txt:3: sample is not finite: {bad!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.txt"]

    @pytest.mark.parametrize("bad, message", [
        ("0.5", "u.txt:2: expected 're im'"),
        ("0.5 x", "u.txt:2: could not parse floats"),
    ])
    def test_malformed_sample_line_exits_3(self, tmp_path, capsys, bad, message):
        samples = tmp_path / "u.txt"
        samples.write_text(f"1 0\n{bad}\n0.25 0\n0.125 0\n")
        assert main(["--command", "apply", "--alpha", "1.3", "--N", "4",
                     "--r", "1", "--input", str(samples),
                     "--output", str(tmp_path / "out.csv")]) == 3
        assert message in capsys.readouterr().err

    def test_blank_sample_lines_skipped(self, tmp_path):
        dense, sparse = tmp_path / "dense.txt", tmp_path / "sparse.txt"
        dense.write_text("1 0\n0.5 0\n0.25 0\n0.125 0\n")
        sparse.write_text("1 0\n\n0.5 0\n   \n0.25 0\n0.125 0\n\n")
        outputs = []
        for source in (dense, sparse):
            out = tmp_path / f"{source.stem}.csv"
            assert main(["--command", "apply", "--alpha", "1.3", "--N", "4",
                         "--r", "1", "--input", str(source),
                         "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_determinism(self, tmp_path):
        for profile in ("rational", "erf"):
            for fmt in ("csv", "json"):
                args = ["--command", "apply", "--alpha", "1.3", "--N", "32",
                        "--r", "1", "--input", f"builtin:{profile}",
                        "--format", fmt]
                a, b = tmp_path / "a.out", tmp_path / "b.out"
                assert main(args + ["--output", str(a)]) == 0
                assert main(args + ["--output", str(b)]) == 0
                assert a.read_bytes() == b.read_bytes(), (profile, fmt)


# Reference writers: the per-node f-string loops and json.dumps over node
# dicts that the block writer replaced.  Its output must equal theirs byte
# for byte.

def _ref_fmt(x):
    return f"{x:.17g}"


def _reference_apply(argv):
    args = cli.build_parser().parse_args(argv)
    (params,) = cli._validate(args)
    alpha, n, r = params.alpha, params.grid.N, params.grid.r
    F = cli._integrand(args, params)
    values = FractionalLaplacian(params, cache_kernels=False).apply(F)
    s = output_nodes(params.grid)
    x = map_to_real(s, args.L)
    report = error_norms(values, args.profile.exact(alpha, x), r=r, alpha=alpha)
    if args.fmt == "json":
        doc = {
            "command": "apply",
            "alpha": alpha, "N": n, "r": r, "L": args.L, "input": args.input,
            "nodes": [
                {"j": j, "s": s[j], "x": x[j],
                 "re": values[j].real, "im": values[j].imag}
                for j in range(n)
            ],
            "error": {"l2": report.l2, "linf": report.linf, "N": report.N,
                      "r": report.r, "alpha": report.alpha},
        }
        return (json.dumps(doc, indent=1) + "\n").encode()
    lines = ["j,s_j,x_j,re,im"]
    for j in range(n):
        lines.append(
            f"{j},{_ref_fmt(s[j])},{_ref_fmt(x[j])},"
            f"{_ref_fmt(values[j].real)},{_ref_fmt(values[j].imag)}"
        )
    lines.append(f"# l2 = {_ref_fmt(report.l2)}")
    lines.append(f"# linf = {_ref_fmt(report.linf)}")
    return ("\n".join(lines) + "\n").encode()


def _reference_nls(argv):
    """Expected bytes: the main file, then each CSV snapshot file in order."""
    args = cli.build_parser().parse_args(argv)
    (params,) = cli._validate(args)
    alpha, n, r = params.alpha, params.grid.N, params.grid.r
    x = map_to_real(output_nodes(params.grid), args.L)
    psi0 = np.asarray(builtin_profile("gaussian").u(x), dtype=complex)
    snapshots = []
    result = simulate(psi0, params, dt=args.dt, t_end=args.t_end,
                      snapshot_every=args.snapshot_every,
                      sink=lambda *snap: snapshots.append(snap))
    m0 = result.energies[0]
    if args.fmt == "json":
        doc = {
            "command": "nls",
            "alpha": alpha, "N": n, "r": r, "L": args.L,
            "dt": args.dt, "t_end": args.t_end,
            "energy": [
                {"t": t, "M": m, "drift": abs(m - m0)}
                for t, m in zip(result.times, result.energies)
            ],
            "snapshots": [
                {
                    "t": t,
                    "nodes": [
                        {"j": j, "x": x[j], "re": psi[j].real,
                         "im": psi[j].imag, "abs": abs(psi[j])}
                        for j in range(n)
                    ],
                    "M": m,
                }
                for t, psi, m in snapshots
            ],
        }
        return [(json.dumps(doc, indent=1) + "\n").encode()]
    lines = ["t,M,drift"]
    for t, m in zip(result.times, result.energies):
        lines.append(f"{_ref_fmt(t)},{_ref_fmt(m)},{_ref_fmt(abs(m - m0))}")
    files = [("\n".join(lines) + "\n").encode()]
    for t, psi, m in snapshots:
        body = ["j,x_j,re,im,abs"]
        body.extend(
            f"{j},{_ref_fmt(x[j])},{_ref_fmt(psi[j].real)},"
            f"{_ref_fmt(psi[j].imag)},{_ref_fmt(abs(psi[j]))}"
            for j in range(n)
        )
        files.append(("\n".join(body) + "\n").encode())
    return files


def _reference_sweep(argv):
    """Expected bytes, with every runtime_ms value written as ``RUNTIME``."""
    args = cli.build_parser().parse_args(argv)
    cli._validate(args)
    rows = []
    for alpha in map(float, args.alpha.split(",")):
        for n in map(int, args.N.split(",")):
            for r in map(int, args.r.split(",")):
                params = FracLapParams(alpha=alpha,
                                       grid=GridSpec(N=n, r=r, L=args.L))
                F = cli._integrand(args, params)
                values = FractionalLaplacian(params, cache_kernels=False).apply(F)
                x = map_to_real(output_nodes(params.grid), args.L)
                exact = builtin_profile(args.input.split(":")[1]).exact
                report = error_norms(values, exact(alpha, x), r=r, alpha=alpha)
                rows.append({"alpha": alpha, "N": n, "r": r, "l2": report.l2,
                             "linf": report.linf, "runtime_ms": "RUNTIME"})
    for row in rows:
        finer = [f["l2"] for f in rows if (f["alpha"], f["N"], f["r"])
                 == (row["alpha"], row["N"], 2 * row["r"])]
        row["order_vs_r"] = (math.log2(row["l2"] / finer[0])
                             if finer and finer[0] != 0 and row["l2"] > 0
                             else None)
    if args.fmt == "json":
        return (json.dumps({"command": "sweep", "rows": rows}, indent=1)
                + "\n").encode()
    lines = ["alpha,N,r,l2,linf,runtime_ms,order_vs_r"]
    for row in rows:
        order = "" if row["order_vs_r"] is None else _ref_fmt(row["order_vs_r"])
        lines.append(f"{_ref_fmt(row['alpha'])},{row['N']},{row['r']},"
                     f"{_ref_fmt(row['l2'])},{_ref_fmt(row['linf'])},"
                     f"RUNTIME,{order}")
    return ("\n".join(lines) + "\n").encode()


def _mask_runtime(path):
    """The sweep output at ``path`` with every runtime_ms value as ``RUNTIME``."""
    text = path.read_text()
    if path.suffix == ".json":
        return re.sub(r'"runtime_ms": [^,\n]*', '"runtime_ms": "RUNTIME"',
                      text).encode()
    lines = text.splitlines()
    masked = [lines[0]] + [",".join(f[:5] + ["RUNTIME"] + f[6:])
                           for f in (ln.split(",") for ln in lines[1:])]
    return ("\n".join(masked) + "\n").encode()


class TestGoldenWriters:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("profile,alpha,L", [("erf", "0.7", "2.1"),
                                                 ("rational", "1.3", "1.0")])
    @pytest.mark.parametrize("n", [1, 37, cli._BLOCK_ROWS + 1])
    def test_apply_bytes_match_reference(self, tmp_path, n, profile, alpha, L,
                                         fmt):
        out = tmp_path / f"out.{fmt}"
        argv = ["--command", "apply", "--alpha", alpha, "--N", str(n),
                "--r", "2", "--L", L, "--input", f"builtin:{profile}",
                "--format", fmt, "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == _reference_apply(argv)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nls_bytes_match_reference(self, tmp_path, monkeypatch, fmt):
        # 37 nodes in blocks of 16: two full blocks and a partial one.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
        out = tmp_path / f"run.{fmt}"
        argv = ["--command", "nls", "--alpha", "1.3", "--N", "37", "--r", "2",
                "--L", "5.0", "--dt", "0.01", "--t-end", "0.03",
                "--snapshot-every", "2", "--format", fmt, "--output", str(out)]
        assert main(argv) == 0
        written = [out] + sorted(tmp_path.glob("run_snapshot_*"))
        assert [p.read_bytes() for p in written] == _reference_nls(argv)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("profile,L", [("rational", "1.0"), ("erf", "2.1")])
    def test_sweep_bytes_match_reference(self, tmp_path, profile, L, fmt):
        # r = 2 and r = 3 have no 2r partner, so their order_vs_r is empty.
        out = tmp_path / f"sweep.{fmt}"
        argv = ["--command", "sweep", "--alpha", "0.7,1.3", "--N", "16,24",
                "--r", "1,2,3", "--L", L, "--input", f"builtin:{profile}",
                "--format", fmt, "--output", str(out)]
        assert main(argv) == 0
        assert _mask_runtime(out) == _reference_sweep(argv)

    def test_special_values_match_json_and_fstrings(self, tmp_path,
                                                    monkeypatch):
        # Blocks of two rows: some blocks hold only finite values, others
        # hold NaN or an infinity.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
        special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300,
                            0.1, -2.5])
        columns = [np.arange(8), special, special[::-1], -special,
                   np.roll(special, 3)]
        keys = ("j", "a", "b", "c", "d")

        csv_path = tmp_path / "rows.csv"
        with open(csv_path, "w") as fh:
            cli._write_rows(fh, cli._CSV_ROW, columns)
        expected = "".join(
            f"{j}," + ",".join(_ref_fmt(c[j]) for c in columns[1:]) + "\n"
            for j in range(8))
        assert csv_path.read_text() == expected

        nodes = [{k: c[j] for k, c in zip(keys, columns)} for j in range(8)]
        nodes = [{**node, "j": int(node["j"])} for node in nodes]
        for doc, placed in [({"head": 1, "nodes": cli._NODES, "tail": None},
                             {"head": 1, "nodes": nodes, "tail": None}),
                            ({"list": [{"t": 0.5, "nodes": cli._NODES}] * 2},
                             {"list": [{"t": 0.5, "nodes": nodes}] * 2})]:
            json_path = tmp_path / "rows.json"
            cli._write_json(json_path, doc, keys, [columns] * 2)
            assert json_path.read_text() == json.dumps(placed, indent=1) + "\n"

    def test_writer_memory_does_not_grow_with_n(self, tmp_path):
        import tracemalloc

        # Four blocks of rows peak at about 2.3 MiB, as one block does; node
        # dicts and json.dumps over them peak at 22 MiB here, and a single
        # % over all rows at 9.3 MiB.
        n = 4 * cli._BLOCK_ROWS
        columns = [np.arange(n)] + [np.linspace(-1.0, 1.0, n) * k
                                    for k in (1.0, np.pi, np.e, 1e-300)]
        keys = ("j", "s", "x", "re", "im")
        tracemalloc.start()
        try:
            cli._write_json(tmp_path / "big.json", {"nodes": cli._NODES},
                            keys, [columns])
            with open(tmp_path / "big.csv", "w") as fh:
                cli._write_rows(fh, cli._CSV_ROW, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestConfigErrors:
    def test_alpha_one_rejected(self, tmp_path):
        code = main(["--command", "apply", "--alpha", "1.0", "--N", "8",
                     "--r", "1", "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_nls_requires_dt(self, tmp_path):
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--output", str(tmp_path / "o.csv")])
        assert code == 2

    # The last two ask for more steps than a float counts or memory logs.
    @pytest.mark.parametrize("dt,t_end", [("0.01", "nan"), ("nan", "0.02"),
                                          ("0.01", "inf"), ("1e-300", "1e10"),
                                          ("1e-12", "1000")])
    def test_nls_non_finite_time_exits_2(self, tmp_path, dt, t_end):
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--dt", dt, "--t-end", t_end,
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_nls_t_end_between_steps_exits_2(self, tmp_path, capsys):
        # Ran round(2.5) = 2 steps to t = 0.02 and exited 0.
        out = tmp_path / "o.csv"
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--dt", "0.01", "--t-end", "0.025",
                     "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "t_end = 0.025" in err and "dt = 0.01" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, L", [("apply", "1e-250"),
                                            ("nls", "1e-250"),
                                            ("apply", "1e300")])
    def test_prefactor_out_of_range_exits_2(self, tmp_path, capsys, command,
                                            L):
        # 1e-250 wrote inf values and exited 0 (nls: a blow-up); 1e300
        # raised a bare OverflowError.
        code = main(["--command", command, "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--L", L, "--dt", "0.01", "--t-end", "0.02",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"L = {float(L)!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["apply", "nls"])
    def test_grid_past_exact_indices_exits_2(self, tmp_path, capsys, command):
        # 4rN = 2^53: rational apply died in the weights' allocation and nls
        # in the fold twiddles, after its first snapshot (both exit 1).
        source = ["--input", "builtin:rational"] if command == "apply" else []
        code = main(["--command", command, "--alpha", "1.3", "--N", "1",
                     "--r", "2251799813685248", "--dt", "0.01",
                     "--t-end", "0.02", "--output", str(tmp_path / "o.csv")]
                    + source)
        assert code == 2
        assert "exact index" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_builtin(self, tmp_path):
        code = main(["--command", "apply", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--input", "builtin:nope",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_missing_sample_file(self, tmp_path):
        code = main(["--command", "apply", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--input", str(tmp_path / "absent.txt"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("source", ["builtin:gaussian", "file"])
    def test_sweep_without_closed_form_rejected_before_evaluation(
            self, tmp_path, monkeypatch, source):
        def evaluation_ran(*args):
            raise AssertionError("sweep evaluated before validating --input")

        monkeypatch.setattr(cli, "f_from_samples", evaluation_ran)
        if source == "file":
            source = tmp_path / "u.txt"
            source.write_text("1 0\n" * 8)
        code = main(["--command", "sweep", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--input", str(source),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_sweep_validates_every_triple_before_evaluation(self, tmp_path,
                                                            monkeypatch):
        calls = []
        f_from_analytic = cli.f_from_analytic
        monkeypatch.setattr(cli, "f_from_analytic",
                            lambda *a: calls.append(a) or f_from_analytic(*a))
        code = main(["--command", "sweep", "--alpha", "1.3,7", "--N", "8",
                     "--r", "1,2", "--input", "builtin:rational",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2 and calls == []

    def test_apply_rejects_lists(self, tmp_path):
        code = main(["--command", "apply", "--alpha", "0.5,0.7", "--N", "8",
                     "--r", "1", "--output", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("alpha, n, message", [
        ("1.3,x", "8", "could not parse --alpha"),
        ("1.3", ",", "must be nonempty"),
    ])
    def test_bad_list_exits_2(self, tmp_path, capsys, alpha, n, message):
        code = main(["--command", "apply", "--alpha", alpha, "--N", n,
                     "--r", "1", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert message in capsys.readouterr().err


class TestNumericFailure:
    def test_arithmetic_error_exits_5(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ArithmeticError("series did not converge")

        monkeypatch.setattr(cli, "error_norms", fail)
        code = main(["--command", "apply", "--alpha", "1.3", "--N", "8",
                     "--r", "1", "--input", "builtin:rational",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 5
        assert "numeric failure: series did not converge" in capsys.readouterr().err


class TestSweep:
    def test_order_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["--command", "sweep", "--alpha", "1.3", "--N", "32",
                     "--r", "2,4,8", "--input", "builtin:rational",
                     "--output", str(out)])
        assert code == 0
        header, rows, _ = _read_csv_rows(out)
        assert header == ["alpha", "N", "r", "l2", "linf", "runtime_ms",
                          "order_vs_r"]
        assert len(rows) == 3
        # Doubling pairs exist for r = 2 and r = 4 but not for r = 8.
        assert rows[0][6] != "" and rows[1][6] != ""
        assert rows[2][6] == ""
        assert float(rows[1][6]) == pytest.approx(2.0, abs=0.7)

    def test_single_triple_no_order(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["--command", "sweep", "--alpha", "1.3", "--N", "16",
                     "--r", "2", "--input", "builtin:rational",
                     "--output", str(out)]) == 0
        _, rows, _ = _read_csv_rows(out)
        assert len(rows) == 1 and rows[0][6] == ""

    def test_analytic_integrand_evaluated_once_per_grid(self, tmp_path,
                                                         monkeypatch):
        # An analytic f runs its callables whenever it is read: three α on
        # four grids read each grid's f once.  A second read would add
        # another 2rN points per callable.
        points = {}
        f_from_analytic = cli.f_from_analytic

        def counted(us, uss, g):
            def count(fn):
                def evaluate(s):
                    points[g] = points.get(g, 0) + np.size(s)
                    return fn(s)
                return evaluate
            return f_from_analytic(count(us), count(uss), g)

        monkeypatch.setattr(cli, "f_from_analytic", counted)
        assert main(["--command", "sweep", "--alpha", "0.3,0.7,1.3",
                     "--N", "16,24", "--r", "1,2", "--input", "builtin:rational",
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        assert sorted((g.N, g.r) for g in points) == [(16, 1), (16, 2),
                                                      (24, 1), (24, 2)]
        for g, evaluated in points.items():
            assert 2 * g.num_midpoints <= evaluated < 4 * g.num_midpoints

    def test_integrand_built_once_per_grid(self, tmp_path, monkeypatch):
        # Three α on four grids: one f_from_samples call per grid, and the
        # rows keep the sweep order (α, then N, then r).
        grids = []
        f_from_samples = cli.f_from_samples
        monkeypatch.setattr(cli, "f_from_samples",
                            lambda u, g: grids.append(g) or f_from_samples(u, g))
        out = tmp_path / "sweep.csv"
        assert main(["--command", "sweep", "--alpha", "0.3,0.7,1.3",
                     "--N", "16,24", "--r", "1,2", "--input", "builtin:erf",
                     "--output", str(out)]) == 0
        assert sorted((g.N, g.r) for g in grids) == [(16, 1), (16, 2),
                                                     (24, 1), (24, 2)]
        _, rows, _ = _read_csv_rows(out)
        assert [(float(row[0]), int(row[1]), int(row[2])) for row in rows] == [
            (a, n, r) for a in (0.3, 0.7, 1.3) for n in (16, 24) for r in (1, 2)]

    def test_numeric_columns_deterministic(self, tmp_path):
        args = ["--command", "sweep", "--alpha", "0.7,1.3", "--N", "16",
                "--r", "1,2", "--input", "builtin:erf"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        stripped = []
        for path in (a, b):
            _, rows, _ = _read_csv_rows(path)
            stripped.append([r[:5] + r[6:] for r in rows])
        assert stripped[0] == stripped[1]


class TestNls:
    def test_energy_log_and_snapshots(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "64",
                     "--r", "1", "--L", "10.0", "--dt", "0.01",
                     "--t-end", "0.05", "--snapshot-every", "2",
                     "--output", str(out)])
        assert code == 0
        header, rows, _ = _read_csv_rows(out)
        assert header == ["t", "M", "drift"]
        assert len(rows) == 6  # t = 0 plus five steps
        assert float(rows[0][2]) == 0.0
        snaps = sorted(tmp_path.glob("run_snapshot_*.csv"))
        assert len(snaps) == 4  # steps 0, 2, 4 and the final step 5
        s_header, s_rows, _ = _read_csv_rows(snaps[0])
        assert s_header == ["j", "x_j", "re", "im", "abs"]
        assert len(s_rows) == 64

    def test_zero_horizon(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "256",
                     "--r", "1", "--L", "10.0", "--dt", "0.5",
                     "--t-end", "0.0", "--output", str(out)])
        assert code == 0
        _, rows, _ = _read_csv_rows(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(math.sqrt(math.pi / 2),
                                                  abs=1e-9)

    @staticmethod
    def _blow_up_argv(tmp_path, scale=1e200):
        # Scaled-up focusing data overflows within a few steps; the
        # overflow itself is the behavior under test.
        g = GridSpec(N=32, r=1, L=10.0)
        x = map_to_real(output_nodes(g), 10.0)
        samples = tmp_path / "psi0.txt"
        samples.write_text("\n".join(
            f"{scale * math.exp(-t * t):.17g} 0" for t in x) + "\n")
        return ["--command", "nls", "--alpha", "1.3", "--N", "32",
                "--r", "1", "--L", "10.0", "--dt", "0.1",
                "--t-end", "1.0", "--input", str(samples),
                "--output", str(tmp_path / "o.csv")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_initial_psi_is_a_configuration_error(self, tmp_path,
                                                           capsys, fmt):
        samples = tmp_path / "psi0.txt"
        samples.write_text("1 0\n0.5 0\nnan 0\n0.25 0\n")
        out = tmp_path / f"o.{fmt}"
        assert main(["--command", "nls", "--alpha", "1.3", "--N", "4",
                     "--r", "1", "--L", "10.0", "--dt", "0.01",
                     "--t-end", "0.02", "--input", str(samples),
                     "--format", fmt, "--output", str(out)]) == 2
        # Rejected at load, as for apply: the message names the file's line.
        assert "psi0.txt:3: sample is not finite: 'nan 0'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["psi0.txt"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exit_code(self, tmp_path):
        assert main(self._blow_up_argv(tmp_path)) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_keeps_earlier_csv_snapshots(self, tmp_path):
        # CSV snapshots are written as they arrive, so an abort keeps them.
        argv = self._blow_up_argv(tmp_path) + ["--snapshot-every", "1"]
        assert main(argv) == 4
        snaps = sorted(tmp_path.glob("o_snapshot_*.csv"))
        assert snaps[0].name == "o_snapshot_000000.csv"
        header, rows, _ = _read_csv_rows(snaps[0])
        assert header == ["j", "x_j", "re", "im", "abs"] and len(rows) == 32

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_keeps_energy_log(self, tmp_path):
        # The CSV energy log keeps one line per step logged before the
        # abort: with a snapshot at every step, one line per snapshot file.
        # At amplitude 10 the first step completes and the second overflows.
        argv = self._blow_up_argv(tmp_path, scale=10.0) \
            + ["--snapshot-every", "1"]
        assert main(argv) == 4
        log = tmp_path / "o.csv"
        assert log.exists()
        lines = log.read_text().splitlines()
        assert lines[0] == "t,M,drift"
        n_snaps = len(list(tmp_path.glob("o_snapshot_*.csv")))
        assert n_snaps >= 2 and len(lines) == 1 + n_snaps
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == pytest.approx(0.1 * np.arange(n_snaps), abs=1e-12)

    @pytest.mark.slow
    def test_csv_memory_does_not_grow_with_snapshot_count(self, tmp_path):
        import tracemalloc

        # 200 steps at N = 4096: 201 snapshots or two (t = 0 and the end).
        # Holding every snapshot until the run ended peaked at 14.2 MiB
        # against 1.97 MiB; streamed, both runs peak at about 2 MiB.
        peaks = {}
        for every in (1, 1000):
            out = tmp_path / f"every{every}.csv"
            tracemalloc.start()
            try:
                assert main(["--command", "nls", "--alpha", "1.3",
                             "--N", "4096", "--r", "1", "--L", "10.0",
                             "--dt", "2e-4", "--t-end", "0.04",
                             "--snapshot-every", str(every),
                             "--output", str(out)]) == 0
                peaks[every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(list(tmp_path.glob("every1_snapshot_*.csv"))) == 201
        assert peaks[1] <= 1.25 * peaks[1000], peaks

    def test_json_document(self, tmp_path):
        out = tmp_path / "run.json"
        code = main(["--command", "nls", "--alpha", "1.3", "--N", "16",
                     "--r", "1", "--L", "5.0", "--dt", "0.01",
                     "--t-end", "0.02", "--snapshot-every", "1",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["energy"]) == 3
        assert len(doc["snapshots"]) == 3
        assert len(doc["snapshots"][0]["nodes"]) == 16


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fraclap.cli", "--command", "apply",
             "--alpha", "1.3", "--N", "8", "--r", "1",
             "--input", "builtin:rational", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
