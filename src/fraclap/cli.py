"""Command-line front end.

Three commands, selected with ``--command``:

* ``apply`` — evaluate (−Δ)^{α/2}u once and write per-node records;
* ``sweep`` — evaluate over lists of α, N, r and tabulate error norms and
  the measured doubling order in r;
* ``nls`` — evolve the focusing fractional cubic Schrödinger equation and
  write the energy log plus wavefunction snapshots.

Exit codes: 0 success, 2 configuration error, 3 input-shape error,
4 blow-up abort, 5 internal numeric failure.

CSV numbers carry 17 significant digits and JSON numbers the shortest
repr that round-trips, so both formats round-trip exactly; elapsed times
live in their own column and are the only nondeterministic field.
Per-node records are formatted from whole columns, a block of rows at a
time, and streamed to the output file, so writing needs memory
independent of N.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import BlowUpError, ParameterError, SampleShapeError
from .grid import GridSpec, map_to_real, output_nodes
from .nls import simulate
from .operator import FracLapParams, FractionalLaplacian
from .profiles import Profile, builtin_profile, mapped_derivatives
from .reference import ErrorReport, error_norms
from .spectral import f_from_analytic, f_from_samples

__all__ = ["RunConfig", "main", "cmd_apply", "cmd_sweep", "cmd_nls"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SHAPE = 3
EXIT_BLOWUP = 4
EXIT_NUMERIC = 5


@dataclass
class RunConfig:
    """Validated run description; lists are length 1 except for sweep."""

    command: str
    alphas: list
    Ns: list
    rs: list
    L: float
    input: str  # "builtin:<name>" or a samples-file path
    output: Path
    fmt: str
    dt: float | None = None
    t_end: float | None = None
    snapshot_every: int = 100


# Rows formatted per write: enough that the per-block overhead vanishes,
# few enough that a block's Python floats and text stay far below the
# memory of the computation at any N.
_BLOCK_ROWS = 4096

# Per-node CSV record: index, then four columns at 17 significant digits.
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g\n"

# json.dumps(indent=1) puts every key on a line of its own and escapes
# newlines inside strings, so a whole line matching this can only be the
# placeholder, never text from a user-supplied string.
_NODES = "<nodes>"
_NODES_LINE = re.compile(rf'^( *)"nodes": "{re.escape(_NODES)}"', re.MULTILINE)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_floats(column: np.ndarray) -> list:
    """``column.tolist()`` with NaN and ±inf as the text json.dumps writes."""
    return [v if math.isfinite(v) else
            "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
            for v in column.tolist()]


def _write_rows(fh, row: str, columns, sep: str = "",
                json_numbers: bool = False) -> None:
    """Write ``row % (c[i] for c in columns)`` for every i, ``sep`` between rows.

    ``row`` takes one value per column.  Rows are formatted ``_BLOCK_ROWS``
    at a time with one ``%`` over a repeated template.  Values arrive as
    Python ints and floats, so ``%s`` writes a float as its shortest
    ``repr``; with ``json_numbers`` a block holding NaN or ±inf gets
    json's ``NaN``/``Infinity``/``-Infinity`` in their place.
    """
    n = len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        values = [_json_floats(b) if json_numbers and not np.isfinite(b).all()
                  else b.tolist() for b in block]
        k = len(block[0])
        text = ((row + sep) * k) % tuple(chain.from_iterable(zip(*values)))
        fh.write(text if start + k < n else text[:len(text) - len(sep)])


def _json_record(keys, depth: int) -> str:
    """Template of one node dict as json.dumps(indent=1) lays it out at ``depth``."""
    outer, inner = " " * (depth + 1), " " * (depth + 2)
    fields = ",\n".join(f'{inner}"{key}": %s' for key in keys)
    return f"{outer}{{\n{fields}\n{outer}}}"


def _write_json(path: Path, doc: dict, keys, node_columns) -> None:
    """Write ``json.dumps(doc, indent=1)`` and a newline to ``path``.

    The k-th ``"nodes": _NODES`` entry of ``doc``, in document order, is
    written as the list of node dicts whose ``keys`` take their values from
    the k-th item of ``node_columns``; all other bytes come from json.dumps.
    """
    parts = _NODES_LINE.split(json.dumps(doc, indent=1))
    with open(path, "w") as fh:
        fh.write(parts[0])
        for indent, rest, columns in zip(parts[1::2], parts[2::2], node_columns):
            fh.write(f'{indent}"nodes": [\n')
            _write_rows(fh, _json_record(keys, len(indent)), columns,
                        sep=",\n", json_numbers=True)
            fh.write(f"\n{indent}]{rest}")
        fh.write("\n")


def _parse_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"could not parse {flag}={text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fraclap",
        description="Fractional Laplacian on R via mapped singular quadrature "
        "and FFT fast convolution.",
    )
    p.add_argument("--command", required=True, choices=("apply", "sweep", "nls"))
    p.add_argument("--alpha", default="1.3",
                   help="operator order in (0,1)u(1,2); comma list for sweep")
    p.add_argument("--N", default="1024", help="output nodes; comma list for sweep")
    p.add_argument("--r", default="1", help="refinement; comma list for sweep")
    p.add_argument("--L", type=float, default=1.0, help="map scale, > 0")
    p.add_argument("--input", default=None,
                   help="builtin:rational | builtin:erf | builtin:gaussian | "
                   "samples file ('re im' per line, one line per node)")
    p.add_argument("--output", required=True, help="output file path")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--dt", type=float, default=None, help="time step (nls)")
    p.add_argument("--t-end", type=float, default=None, help="final time (nls)")
    p.add_argument("--snapshot-every", type=int, default=100,
                   help="snapshot cadence in steps (nls)")
    return p


def _validate(args: argparse.Namespace) -> RunConfig:
    alphas = _parse_list(args.alpha, float, "--alpha")
    ns = _parse_list(args.N, int, "--N")
    rs = _parse_list(args.r, int, "--r")
    if not alphas or not ns or not rs:
        raise ParameterError("--alpha, --N and --r must be nonempty")
    default_input = "builtin:gaussian" if args.command == "nls" else "builtin:rational"
    cfg = RunConfig(
        command=args.command,
        alphas=alphas,
        Ns=ns,
        rs=rs,
        L=args.L,
        input=args.input or default_input,
        output=Path(args.output),
        fmt=args.fmt,
        dt=args.dt,
        t_end=args.t_end,
        snapshot_every=args.snapshot_every,
    )
    if cfg.command in ("apply", "nls"):
        if len(alphas) != 1 or len(ns) != 1 or len(rs) != 1:
            raise ParameterError(
                f"--command {cfg.command} takes single --alpha/--N/--r values"
            )
    if cfg.command == "nls":
        if cfg.dt is None or cfg.t_end is None:
            raise ParameterError("--command nls requires --dt and --t-end")
        if cfg.dt <= 0 or cfg.t_end < 0:
            raise ParameterError("need --dt > 0 and --t-end >= 0")
        if cfg.snapshot_every < 1:
            raise ParameterError("--snapshot-every must be >= 1")
    # Construct every parameter record up front: all module-level
    # validation fires before any computation starts.
    for alpha in cfg.alphas:
        for n in cfg.Ns:
            for r in cfg.rs:
                FracLapParams(alpha=alpha, grid=GridSpec(N=n, r=r, L=cfg.L))
    if not cfg.input.startswith("builtin:") and not Path(cfg.input).is_file():
        raise ParameterError(f"samples file not found: {cfg.input}")
    if cfg.input.startswith("builtin:"):
        builtin_profile(cfg.input.split(":", 1)[1])
    return cfg


def _load_samples(path: str, expected: int) -> np.ndarray:
    """Read 're im' per line; the line count must equal the node count."""
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SampleShapeError(
                    f"{path}:{line_no}: expected 're im', got {line.rstrip()!r}"
                )
            try:
                rows.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise SampleShapeError(
                    f"{path}:{line_no}: could not parse floats"
                ) from None
    if len(rows) != expected:
        raise SampleShapeError(
            f"{path}: {len(rows)} samples for a grid of N={expected} nodes"
        )
    return np.asarray(rows, dtype=complex)


def _resolve_operator_input(cfg: RunConfig, params: FracLapParams):
    """Integrand samples and exact-solution callable for one evaluation.

    Builtin rational uses the analytic derivative route; builtin erf and
    sample files use the pseudospectral route (erf mirrors the workflow of
    knowing u only through its node values).
    """
    g = params.grid
    if cfg.input.startswith("builtin:"):
        profile: Profile = builtin_profile(cfg.input.split(":", 1)[1])
        if profile.name == "rational":
            us, uss = mapped_derivatives(profile, g.L)
            return f_from_analytic(us, uss, g), profile.exact
        u_nodes = profile.u(map_to_real(output_nodes(g), g.L))
        return f_from_samples(u_nodes, g), profile.exact
    samples = _load_samples(cfg.input, g.N)
    return f_from_samples(samples, g), None


def _error_block(report: ErrorReport | None):
    if report is None:
        return None
    return {
        "l2": report.l2,
        "linf": report.linf,
        "N": report.N,
        "r": report.r,
        "alpha": report.alpha,
    }


def cmd_apply(cfg: RunConfig) -> int:
    alpha, n, r = cfg.alphas[0], cfg.Ns[0], cfg.rs[0]
    params = FracLapParams(alpha=alpha, grid=GridSpec(N=n, r=r, L=cfg.L))
    g = params.grid
    F, exact_fn = _resolve_operator_input(cfg, params)
    values = FractionalLaplacian(params, cache_kernels=False).apply(F)
    s = output_nodes(g)
    x = map_to_real(s, g.L)
    report = None
    if exact_fn is not None:
        report = error_norms(values, exact_fn(alpha, x), r=r, alpha=alpha)

    columns = [np.arange(n), s, x, values.real, values.imag]
    if cfg.fmt == "json":
        doc = {
            "command": "apply",
            "alpha": alpha, "N": n, "r": r, "L": cfg.L, "input": cfg.input,
            "nodes": _NODES,
            "error": _error_block(report),
        }
        _write_json(cfg.output, doc, ("j", "s", "x", "re", "im"), [columns])
    else:
        with open(cfg.output, "w") as fh:
            fh.write("j,s_j,x_j,re,im\n")
            _write_rows(fh, _CSV_ROW, columns)
            if report is not None:
                fh.write(f"# l2 = {_fmt(report.l2)}\n# linf = {_fmt(report.linf)}\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    rows = []
    errors: dict[tuple, float] = {}
    for alpha in cfg.alphas:
        for n in cfg.Ns:
            for r in cfg.rs:
                params = FracLapParams(alpha=alpha, grid=GridSpec(N=n, r=r, L=cfg.L))
                F, exact_fn = _resolve_operator_input(cfg, params)
                if exact_fn is None:
                    raise ParameterError(
                        "--command sweep needs a builtin input with an exact solution"
                    )
                t0 = time.perf_counter()
                values = FractionalLaplacian(params, cache_kernels=False).apply(F)
                runtime_ms = (time.perf_counter() - t0) * 1e3
                x = map_to_real(output_nodes(params.grid), cfg.L)
                rep = error_norms(values, exact_fn(alpha, x), r=r, alpha=alpha)
                errors[(alpha, n, r)] = rep.l2
                rows.append(
                    {"alpha": alpha, "N": n, "r": r, "l2": rep.l2,
                     "linf": rep.linf, "runtime_ms": runtime_ms}
                )
    for row in rows:
        finer = errors.get((row["alpha"], row["N"], 2 * row["r"]))
        row["order_vs_r"] = (
            math.log2(row["l2"] / finer)
            if finer not in (None, 0.0) and row["l2"] > 0 else None
        )

    if cfg.fmt == "json":
        cfg.output.write_text(json.dumps({"command": "sweep", "rows": rows},
                                         indent=1) + "\n")
    else:
        lines = ["alpha,N,r,l2,linf,runtime_ms,order_vs_r"]
        for row in rows:
            order = "" if row["order_vs_r"] is None else _fmt(row["order_vs_r"])
            lines.append(
                f"{_fmt(row['alpha'])},{row['N']},{row['r']},"
                f"{_fmt(row['l2'])},{_fmt(row['linf'])},"
                f"{_fmt(row['runtime_ms'])},{order}"
            )
        cfg.output.write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _snapshot_path(base: Path, index: int) -> Path:
    return base.with_name(f"{base.stem}_snapshot_{index:06d}{base.suffix}")


def cmd_nls(cfg: RunConfig) -> int:
    alpha, n, r = cfg.alphas[0], cfg.Ns[0], cfg.rs[0]
    params = FracLapParams(alpha=alpha, grid=GridSpec(N=n, r=r, L=cfg.L))
    g = params.grid
    x = map_to_real(output_nodes(g), g.L)
    if cfg.input.startswith("builtin:"):
        psi0 = np.asarray(builtin_profile(cfg.input.split(":", 1)[1]).u(x),
                          dtype=complex)
    else:
        psi0 = _load_samples(cfg.input, n)

    result = simulate(psi0, params, dt=cfg.dt, t_end=cfg.t_end,
                      snapshot_every=cfg.snapshot_every)
    m0 = result.energies[0]

    j = np.arange(n)
    # np.hypot, not np.abs: it matches the scalar abs() bit for bit.
    node_columns = ([j, x, psi.real, psi.imag, np.hypot(psi.real, psi.imag)]
                    for _, psi, _ in result.snapshots)

    if cfg.fmt == "json":
        doc = {
            "command": "nls",
            "alpha": alpha, "N": n, "r": r, "L": cfg.L,
            "dt": cfg.dt, "t_end": cfg.t_end,
            "energy": [
                {"t": t, "M": m, "drift": abs(m - m0)}
                for t, m in zip(result.times, result.energies)
            ],
            "snapshots": [
                {"t": t, "nodes": _NODES, "M": m}
                for t, _, m in result.snapshots
            ],
        }
        _write_json(cfg.output, doc, ("j", "x", "re", "im", "abs"), node_columns)
    else:
        lines = ["t,M,drift"]
        for t, m in zip(result.times, result.energies):
            lines.append(f"{_fmt(t)},{_fmt(m)},{_fmt(abs(m - m0))}")
        cfg.output.write_text("\n".join(lines) + "\n")
        for idx, columns in enumerate(node_columns):
            with open(_snapshot_path(cfg.output, idx), "w") as fh:
                fh.write("j,x_j,re,im,abs\n")
                _write_rows(fh, _CSV_ROW, columns)
    return EXIT_OK


_COMMANDS = {"apply": cmd_apply, "sweep": cmd_sweep, "nls": cmd_nls}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _validate(args)
    except ParameterError as exc:
        print(f"fraclap: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.command](cfg)
    except ParameterError as exc:
        print(f"fraclap: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SampleShapeError as exc:
        print(f"fraclap: input shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except BlowUpError as exc:
        print(f"fraclap: blow-up abort: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"fraclap: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
