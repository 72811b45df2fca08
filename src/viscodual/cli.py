"""Command-line front end.

Exit codes: 0 success, 1 validation or check failure, 2 usage error,
3 numeric failure (including a singular or non-converging linear-algebra
step).  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .duality import dualize
from .kernels import (
    EigenstressBasis,
    InvalidKernel,
    NumericsError,
    UNBOUNDED,
    assemble_eigenstress,
    creep_limits,
    relaxation_limits,
)
from .matio import (
    MaterialFormatError,
    csv_rows,
    parse_material,
    sample_to_csv,
    serialize_material,
)
from .verify import (
    CheckEntry,
    CheckReport,
    StrainHistory,
    check_limit_identities,
    check_wellformed,
    duality_residual,
    respond,
    respond_creep,
)


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it is, so every :func:`run` can share it."""
    parser = argparse.ArgumentParser(
        prog="viscodual",
        description="Convert and verify viscoelastic relaxation/creep kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dualize", help="convert a kernel to its dual")
    p.add_argument("input")
    p.add_argument("-o", "--output")

    p = sub.add_parser("check", help="verify a kernel, or a claimed dual pair")
    p.add_argument("input")
    p.add_argument("--against", help="dual kernel file to check the pair")
    p.add_argument("--tol", type=float, default=None,
                   help="duality residual tolerance")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("sample", help="sample a kernel to CSV")
    p.add_argument("input")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("limits", help="print boundary values")
    p.add_argument("input")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("respond", help="closed-form response to a history")
    p.add_argument("kernel")
    p.add_argument("history")
    p.add_argument("--n", type=int, default=None,
                   help="sample count on [0, last breakpoint]")
    p.add_argument("-o", "--output")

    p = sub.add_parser("eigenstress",
                       help="assemble a 6x6 relaxation kernel from an "
                            "eigenstress basis")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    return parser


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _render(value):
    if value is UNBOUNDED:
        return "inf"
    if isinstance(value, np.ndarray):
        return [float(x) for x in value.ravel()]
    if value is None:
        return None
    return float(value)


def _cmd_dualize(args):
    kernel = parse_material(_read(args.input))
    _write(serialize_material(dualize(kernel)), args.output)
    return 0


def _cmd_check(args):
    kernel = parse_material(_read(args.input))
    entries = list(check_wellformed(kernel).entries)
    if args.against:
        other = parse_material(_read(args.against))
        relax, creep = _orient_pair(kernel, other)
        entries += list(check_wellformed(other).entries)
        scalar = np.ndim(relax.newtonian) == 0
        tol = args.tol if args.tol is not None else (1e-9 if scalar else 1e-7)
        residual = float(duality_residual(relax, creep))
        entries.append(CheckEntry("duality-residual", residual <= tol,
                                  residual, tol))
        entries += list(check_limit_identities(relax, creep).entries)
    report = CheckReport(tuple(entries))
    if args.format == "json":
        print(json.dumps({"ok": report.ok, "checks": report.as_dict()},
                         indent=2))
    else:
        for e in report.entries:
            status = "PASS" if e.passed else "FAIL"
            print(f"{status} {e.name} residual={e.residual:.3e} "
                  f"tol={e.tolerance:.1e}")
    return 0 if report.ok else 1


def _orient_pair(first, second):
    if first.relaxation != second.relaxation:
        return (first, second) if first.relaxation else (second, first)
    raise InvalidKernel(
        "a dual pair needs one relaxation and one creep kernel")


def _cmd_sample(args):
    kernel = parse_material(_read(args.input))
    text = sample_to_csv(kernel, args.t0, args.t1, args.n,
                         spacing="log" if args.log else "linear")
    _write(text, args.output)
    return 0


def _cmd_limits(args):
    kernel = parse_material(_read(args.input))
    limits = relaxation_limits if kernel.relaxation else creep_limits
    report = limits(kernel)
    fields = ["value_at_zero", "value_at_infinity", "derivative_at_zero",
              "derivative_at_infinity", "dirac"]
    payload = {name: _render(getattr(report, name)) for name in fields}
    if payload["dirac"] is None:
        del payload["dirac"]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for name, value in payload.items():
            print(f"{name}: {value}")
    return 0


def _parse_history(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise MaterialFormatError("history document must be an object")
    kind = doc.get("kind")
    if kind not in ("strain", "stress"):
        raise MaterialFormatError("history kind must be 'strain' or 'stress'")
    points = doc.get("breakpoints")
    if (not isinstance(points, list) or not points
            or not all(isinstance(p, dict) and {"t", "value"} <= set(p)
                       for p in points)):
        raise MaterialFormatError("history needs a nonempty breakpoints "
                                  "list of objects with 't' and 'value'")
    try:
        history = StrainHistory(tuple(p["t"] for p in points),
                                tuple(p["value"] for p in points),
                                initial_jump=doc.get("initial_jump"))
    except (TypeError, ValueError) as exc:
        raise MaterialFormatError(str(exc)) from None
    return kind, history


def _cmd_respond(args):
    kernel = parse_material(_read(args.kernel))
    kind, history = _parse_history(_read(args.history))
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        times = np.linspace(0.0, history.times[-1], args.n)
    else:
        times = history.times
    if kind == "strain":
        if not kernel.relaxation:
            raise InvalidKernel("a strain history needs a relaxation kernel")
        series = respond(kernel, history, times)
    else:
        if kernel.relaxation:
            raise InvalidKernel("a stress history needs a creep kernel")
        series = respond_creep(kernel, history, times)

    lines = []
    for t0, magnitude in series.impulses:
        rendered = _render(np.asarray(magnitude)) if np.ndim(magnitude) \
            else magnitude
        lines.append(f"# impulse,t={t0:.17g},magnitude={rendered}")
    rows = np.column_stack([series.times, series.values])
    lines.append("t,value" if rows.shape[1] == 2 else "t,v1,v2,v3,v4,v5,v6")
    lines += csv_rows(rows)
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_eigenstress(args):
    doc = json.loads(_read(args.input))
    try:
        vectors = doc["vectors"]
        spectra = [[(m["rate"], m["coefficient"]) for m in spectrum]
                   for spectrum in doc["spectra"]]
        mass = float(doc.get("mass", 1.0))
    except (KeyError, TypeError) as exc:
        raise MaterialFormatError(
            f"bad eigenstress document field: {exc}") from None
    basis = EigenstressBasis(tuple(map(tuple, vectors)),
                             tuple(map(tuple, spectra)), mass=mass)
    equilibrium = doc.get("equilibrium")
    if equilibrium is not None:
        equilibrium = np.asarray(equilibrium, dtype=float).reshape(6, 6)
    kernel = assemble_eigenstress(basis, equilibrium)
    _write(serialize_material(kernel), args.output)
    return 0


_COMMANDS = {
    "dualize": _cmd_dualize,
    "check": _cmd_check,
    "sample": _cmd_sample,
    "limits": _cmd_limits,
    "respond": _cmd_respond,
    "eigenstress": _cmd_eigenstress,
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught before it
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (MaterialFormatError, InvalidKernel, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
