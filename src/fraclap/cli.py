"""Command-line front end.

Three commands, selected with ``--command``:

* ``apply`` — evaluate (−Δ)^{α/2}u once and write per-node records;
* ``sweep`` — evaluate over lists of α, N, r and tabulate error norms and
  the measured doubling order in r;
* ``nls`` — evolve the focusing fractional cubic Schrödinger equation and
  write the energy log and wavefunction snapshots; CSV writes each
  snapshot as it is taken and, on a blow-up, the log of the steps before.

``sweep`` takes only the inputs with a closed form.  Every check of the
arguments, ``--output`` among them, runs before any computation.

Exit codes: 0 success, 2 configuration error, 3 input-shape error,
4 blow-up abort, 5 internal numeric failure.

Both formats round-trip every number exactly; elapsed times, in their own
column, are the only nondeterministic field.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from functools import partial
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import BlowUpError, ParameterError, SampleShapeError
from .grid import GridSpec, map_to_real, output_nodes
from .nls import simulate
from .operator import FracLapParams, FractionalLaplacian
from .profiles import builtin_profile, mapped_derivatives
from .quadrature import MidpointSamples
from .reference import error_norms
from .spectral import f_from_analytic, f_from_samples

__all__ = ["main", "cmd_apply", "cmd_sweep", "cmd_nls"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SHAPE = 3
EXIT_BLOWUP = 4
EXIT_NUMERIC = 5


# Rows formatted per write: the per-block overhead vanishes, and a block's
# text stays far below the computation's memory at any N.
_BLOCK_ROWS = 4096

# Per-node CSV record: index, then four columns at 17 significant digits.
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g\n"
# The same for a real result, whose im is +0.0 at every node.
_CSV_ROW_REAL = "%d,%.17g,%.17g,%.17g,0\n"

# json.dumps(indent=1) puts each key on its own line and escapes newlines in
# strings, so only the placeholder can match a whole line.
_NODES = "<nodes>"
_NODES_LINE = re.compile(rf'^( *)"nodes": "{re.escape(_NODES)}"', re.MULTILINE)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_floats(column: np.ndarray) -> list:
    """``column.tolist()`` with NaN and ±inf as the text json.dumps writes."""
    return [v if math.isfinite(v) else
            "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
            for v in column.tolist()]


def _block_text(row: str, columns, start: int, sep: str,
                json_numbers: bool) -> str:
    """The rows of the block at ``start``, each followed by ``sep`` but the
    last row of all."""
    n = len(columns[0])
    block = [c[start:start + _BLOCK_ROWS] for c in columns]
    values = [_json_floats(b) if json_numbers and not np.isfinite(b).all()
              else b.tolist() for b in block]
    k = len(block[0])
    text = ((row + sep) * k) % tuple(chain.from_iterable(zip(*values)))
    return text if start + k < n else text[:len(text) - len(sep)]


def _can_fork(fh) -> bool:
    """A forked child can format rows beside this process: the platform
    forks, a second CPU is ours, no other thread can hold a lock across the
    fork, and ``fh`` is a named file with a descriptor."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        fh.fileno()
    except (AttributeError, OSError):
        return False
    return cpus >= 2 and isinstance(getattr(fh, "name", None), str)


def _write_and_exit(out, texts) -> None:
    """Write the bytes of ``texts`` to the binary file ``out`` and flush it,
    then end the process with exit status 0, the errno of an OSError, or
    255."""
    status = 255
    try:
        out.writelines(texts)
        out.flush()
        status = 0
    except OSError as exc:
        status = exc.errno or 255
    finally:
        os._exit(status)


def _write_halves(fh, text, lower, upper) -> bool:
    """Write the blocks at ``lower`` to ``fh`` while a forked child formats
    those at ``upper`` into a spill file beside ``fh``, then append the
    child's bytes; False, with nothing written, when no spill file or child
    can be made."""
    try:
        spill = tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(fh.name)))
    except OSError:
        return False
    with spill:
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            _write_and_exit(spill, (text(start).encode(fh.encoding)
                                    for start in upper))
        try:
            for start in lower:
                fh.write(text(start))
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise OSError(status, os.strerror(status) if 0 < status < 255
                          else f"the row-formatting child exited with {status}")
        fh.flush()
        spill.seek(0)
        shutil.copyfileobj(spill, fh.buffer)
    return True


def _write_rows(fh, row: str, columns, sep: str = "",
                json_numbers: bool = False) -> None:
    """Write ``row % (c[i] for c in columns)`` for every i, ``sep`` between rows.

    ``%s`` writes a float as its shortest ``repr``; with ``json_numbers``,
    NaN and ±inf are written as json writes them.  With two blocks or more
    and :func:`_can_fork`, :func:`_write_halves` writes the lower half of
    the blocks here and the upper half from a forked child; the bytes are
    the same either way.
    """
    text = partial(_block_text, row, columns, sep=sep,
                   json_numbers=json_numbers)
    starts = range(0, len(columns[0]), _BLOCK_ROWS)
    half = len(starts) // 2
    if not (half and _can_fork(fh)
            and _write_halves(fh, text, starts[:half], starts[half:])):
        for start in starts:
            fh.write(text(start))


def _json_record(keys, depth: int, fixed: dict) -> str:
    """Template of one node dict as json.dumps(indent=1) lays it out at
    ``depth``; a key in ``fixed`` takes that text instead of ``%s``."""
    outer, inner = " " * (depth + 1), " " * (depth + 2)
    fields = ",\n".join(f'{inner}"{key}": {fixed.get(key, "%s")}'
                         for key in keys)
    return f"{outer}{{\n{fields}\n{outer}}}"


def _write_json(path: Path, doc: dict, keys, node_columns,
                fixed: dict | None = None) -> None:
    """Write ``json.dumps(doc, indent=1)`` and a newline to ``path``, with
    the k-th ``"nodes": _NODES`` entry of ``doc`` written as the node dicts
    of ``keys`` over the k-th item of ``node_columns``; ``fixed`` maps a key
    to the JSON text it has in every node, and takes no column."""
    parts = _NODES_LINE.split(json.dumps(doc, indent=1))
    with open(path, "w") as fh:
        fh.write(parts[0])
        for indent, rest, columns in zip(parts[1::2], parts[2::2], node_columns):
            fh.write(f'{indent}"nodes": [\n')
            row = _json_record(keys, len(indent), fixed or {})
            _write_rows(fh, row, columns, sep=",\n", json_numbers=True)
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
                   "samples file ('re im' per line, one line per node); sweep "
                   "takes only builtin:rational or builtin:erf; default "
                   "builtin:gaussian for nls, else builtin:rational")
    p.add_argument("--output", type=Path, required=True, help="output file path")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--dt", type=float, default=None, help="time step (nls)")
    p.add_argument("--t-end", type=float, default=None, help="final time (nls)")
    p.add_argument("--snapshot-every", type=int, default=100,
                   help="snapshot cadence in steps (nls)")
    return p


def _validate(args: argparse.Namespace) -> list[FracLapParams]:
    """Check the whole run description before any computation starts.

    Applies the ``--input`` default and sets ``args.profile`` to the builtin
    profile it names, or None for a samples file.  ``--output`` must name a
    file in an existing directory, which also holds the nls snapshots.
    Returns the parameter record of every evaluation in sweep order: α
    outermost, then N, then r.
    """
    alphas = _parse_list(args.alpha, float, "--alpha")
    ns = _parse_list(args.N, int, "--N")
    rs = _parse_list(args.r, int, "--r")
    if not alphas or not ns or not rs:
        raise ParameterError("--alpha, --N and --r must be nonempty")
    if args.command != "sweep" and len(alphas) * len(ns) * len(rs) != 1:
        raise ParameterError(
            f"--command {args.command} takes single --alpha/--N/--r values"
        )
    if args.command == "nls" and (args.dt is None or args.t_end is None):
        raise ParameterError("--command nls requires --dt and --t-end")
    if args.output.is_dir():
        raise ParameterError(f"--output is a directory: {args.output}")
    if not args.output.parent.is_dir():
        raise ParameterError(f"--output has no existing directory: {args.output}")
    params = [FracLapParams(alpha=alpha, grid=GridSpec(N=n, r=r, L=args.L))
              for alpha in alphas for n in ns for r in rs]
    args.input = args.input or (
        "builtin:gaussian" if args.command == "nls" else "builtin:rational")
    args.profile = None
    if args.input.startswith("builtin:"):
        args.profile = builtin_profile(args.input.split(":", 1)[1])
    elif not Path(args.input).is_file():
        raise ParameterError(f"samples file not found: {args.input}")
    if args.command == "sweep" and getattr(args.profile, "exact", None) is None:
        raise ParameterError(
            "--command sweep needs a builtin input with an exact solution"
        )
    return params


def _load_samples(path: str, expected: int) -> np.ndarray:
    """Read 're im' per line; the line count must equal the node count.

    An imaginary column of exact zeros loads as float.  A NaN or infinite
    sample is a ParameterError naming its line: the spectral route would
    spread it to every output node.
    """
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
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise SampleShapeError(
                    f"{path}:{line_no}: could not parse floats"
                ) from None
            if not cmath.isfinite(value):
                raise ParameterError(
                    f"{path}:{line_no}: sample is not finite: {line.strip()!r}"
                )
            rows.append(value)
    if len(rows) != expected:
        raise SampleShapeError(
            f"{path}: {len(rows)} samples for a grid of N={expected} nodes"
        )
    samples = np.asarray(rows, dtype=complex)
    return samples if samples.imag.any() else samples.real.copy()


def _integrand(args: argparse.Namespace, g: GridSpec, x: np.ndarray):
    """The integrand for one evaluation on ``g``, whose real nodes are
    ``x``: analytic for builtin rational, from the node samples for every
    other input."""
    if args.profile is None:
        return f_from_samples(_load_samples(args.input, g.N), g)
    if args.profile.name == "rational":
        us, uss = mapped_derivatives(args.profile, g.L)
        return f_from_analytic(us, uss, g)
    return f_from_samples(args.profile.u(x), g)


def cmd_apply(args: argparse.Namespace, params: list[FracLapParams]) -> int:
    (p,) = params
    alpha, g = p.alpha, p.grid
    x = map_to_real(output_nodes(g), g.L)
    values = FractionalLaplacian(p, cache_kernels=False).apply(
        _integrand(args, g, x))
    # Rebuilt, not held through the apply: 8 MiB more peak at N = 2^20.
    s = output_nodes(g)
    exact = getattr(args.profile, "exact", None)
    report = None if exact is None else error_norms(
        values, exact(alpha, x), r=g.r, alpha=alpha)

    # A real result's im is +0.0 at every node: fixed text, not a column.
    real = not np.iscomplexobj(values)
    columns = [np.arange(g.N), s, x, values.real]
    if not real:
        columns.append(values.imag)
    if args.fmt == "json":
        doc = {
            "command": "apply",
            "alpha": alpha, "N": g.N, "r": g.r, "L": g.L, "input": args.input,
            "nodes": _NODES,
            "error": None if report is None else asdict(report),
        }
        _write_json(args.output, doc, ("j", "s", "x", "re", "im"), [columns],
                    fixed={"im": "0.0"} if real else None)
    else:
        with open(args.output, "w") as fh:
            fh.write("j,s_j,x_j,re,im\n")
            _write_rows(fh, _CSV_ROW_REAL if real else _CSV_ROW, columns)
            if report is not None:
                fh.write(f"# l2 = {_fmt(report.l2)}\n# linf = {_fmt(report.linf)}\n")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, params: list[FracLapParams]) -> int:
    # The integrand depends on the grid alone: one per grid, for every α.
    by_grid = {}
    for i, p in enumerate(params):
        by_grid.setdefault(p.grid, []).append(i)
    rows = [None] * len(params)
    for g, indices in by_grid.items():
        x = map_to_real(output_nodes(g), g.L)
        F = _integrand(args, g, x)
        # Evaluated once here: an analytic f would run its callables per α.
        F = MidpointSamples(values=F.values, grid=F.grid)
        for i in indices:
            p = params[i]
            alpha, n, r = p.alpha, p.grid.N, p.grid.r
            t0 = time.perf_counter()
            values = FractionalLaplacian(p, cache_kernels=False).apply(F)
            runtime_ms = (time.perf_counter() - t0) * 1e3
            rep = error_norms(values, args.profile.exact(alpha, x), r=r,
                              alpha=alpha)
            rows[i] = {"alpha": alpha, "N": n, "r": r, "l2": rep.l2,
                       "linf": rep.linf, "runtime_ms": runtime_ms}
        del F  # before the next grid's integrand is built
    l2 = {(row["alpha"], row["N"], row["r"]): row["l2"] for row in rows}
    for row in rows:
        finer = l2.get((row["alpha"], row["N"], 2 * row["r"]))
        row["order_vs_r"] = (
            math.log2(row["l2"] / finer)
            if finer not in (None, 0.0) and row["l2"] > 0 else None
        )

    if args.fmt == "json":
        args.output.write_text(json.dumps({"command": "sweep", "rows": rows},
                                          indent=1) + "\n")
    else:
        keys = list(rows[0])
        columns = [np.array([row[k] for row in rows]) for k in keys[:-1]]
        columns.append(np.array(["" if row["order_vs_r"] is None
                                 else _fmt(row["order_vs_r"]) for row in rows]))
        with open(args.output, "w") as fh:
            fh.write(",".join(keys) + "\n")
            _write_rows(fh, "%.17g,%d,%d,%.17g,%.17g,%.17g,%s\n", columns)
    return EXIT_OK


def _snapshot_path(base: Path, index: int) -> Path:
    return base.with_name(f"{base.stem}_snapshot_{index:06d}{base.suffix}")


def cmd_nls(args: argparse.Namespace, params: list[FracLapParams]) -> int:
    (p,) = params
    g = p.grid
    x = map_to_real(output_nodes(g), g.L)
    if args.profile is None:
        psi0 = _load_samples(args.input, g.N)
    else:
        psi0 = np.asarray(args.profile.u(x), dtype=complex)

    j = np.arange(g.N)

    def node_columns(psi):
        # np.hypot, not np.abs: it matches the scalar abs() bit for bit.
        return [j, x, psi.real, psi.imag, np.hypot(psi.real, psi.imag)]

    # CSV writes each snapshot as it arrives, so a blow-up keeps the earlier
    # ones; JSON holds them, since its nodes follow the whole energy log.
    snapshots = []
    if args.fmt == "json":
        def sink(*snap):
            snapshots.append(snap)
    else:
        index = count()

        def sink(t, psi, m):
            with open(_snapshot_path(args.output, next(index)), "w") as fh:
                fh.write("j,x_j,re,im,abs\n")
                _write_rows(fh, _CSV_ROW, node_columns(psi))

    def write_csv_log(times, energies):
        with open(args.output, "w") as fh:
            fh.write("t,M,drift\n")
            _write_rows(fh, "%.17g,%.17g,%.17g\n",
                        [times, energies, np.abs(energies - energies[0])])

    try:
        result = simulate(psi0, p, dt=args.dt, t_end=args.t_end,
                          snapshot_every=args.snapshot_every, sink=sink)
    except BlowUpError as exc:
        # CSV keeps the steps logged before the abort, like its snapshots.
        if args.fmt == "csv":
            write_csv_log(exc.times, exc.energies)
        raise

    if args.fmt == "json":
        m0 = result.energies[0]
        doc = {
            "command": "nls",
            "alpha": p.alpha, "N": g.N, "r": g.r, "L": g.L,
            "dt": args.dt, "t_end": args.t_end,
            "energy": [
                {"t": t, "M": m, "drift": abs(m - m0)}
                for t, m in zip(result.times, result.energies)
            ],
            "snapshots": [
                {"t": t, "nodes": _NODES, "M": m} for t, _, m in snapshots
            ],
        }
        _write_json(args.output, doc, ("j", "x", "re", "im", "abs"),
                    (node_columns(psi) for _, psi, _ in snapshots))
    else:
        write_csv_log(result.times, result.energies)
    return EXIT_OK


_COMMANDS = {"apply": cmd_apply, "sweep": cmd_sweep, "nls": cmd_nls}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _validate(args))
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
