"""Command-line front end: equations, single-point multiplicities, sweeps.

Exit status: 0 on success with all checks in agreement, 1 when a fast
path and the oracle disagree (or a sweep reports failures), 2 on invalid
input, violated preconditions or a file that cannot be read or written
(OSError), 3 when a computation cannot be trusted
(KernelInconsistencyError, OracleBudgetError or another RuntimeError of
the kernel); 2 and 3 print one ``error:`` line on stderr.  All inputs
come from flags and files so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .charts import (
    AffinePoint,
    build_chart,
    format_ideal,
    opposite_ideal,
    point_from_matrix,
    schubert_ideal,
    translate_to_origin,
)
from .engine import (
    PreconditionError,
    SweepConfig,
    SweepResult,
    build_report,
    verify_theorem,
)
from .quadric import QuadricShape, quadric_report, quadric_sweep
from .report import MultiplicityReport, reports_json
from .weyl import GrassShape, bruhat_leq, format_coset, parse_coset


class UsageError(ValueError):
    pass


def _rational(value) -> Fraction:
    """An input number as a Fraction; a value that names no rational
    number (such as "1/0" or null) is a UsageError."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {value!r}") from None


def _parse_grid(text: str) -> tuple:
    values = tuple(_rational(part.strip()) for part in text.split(",") if part.strip())
    if not values:
        raise UsageError("empty grid")
    if len(set(values)) != len(values):
        raise UsageError("grid values must be distinct")
    return values


def _load_point(path: str, shape: GrassShape, tau_text):
    """Point file: either {"coords": {"q.p": "r"}} (requires --tau) or
    {"matrix": [[...], ...]} (tau is derived from the matrix)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    if isinstance(data, list):
        if not all(isinstance(row, list) for row in data):
            raise UsageError("matrix rows must be arrays")
        rows = [[_rational(str(x)) for x in row] for row in data]
        point = point_from_matrix(shape, rows)
        if tau_text is not None:
            tau = parse_coset(shape, tau_text)
            if point.chart.tau != tau:
                raise UsageError(
                    f"point lies in the cell of {format_coset(point.chart.tau)}, not {tau_text}"
                )
        return point
    if isinstance(data, dict) and "coords" in data:
        data = data["coords"]
    if not isinstance(data, dict):
        raise UsageError("point file must hold a coordinate map or a matrix")
    if tau_text is None:
        raise UsageError("--tau is required with a coordinate-map point")
    tau = parse_coset(shape, tau_text)
    coords = {key: _rational(str(val)) for key, val in data.items()}
    return AffinePoint.from_json_dict(build_chart(shape, tau), coords)


def _point_text(point: dict) -> str:
    """A report's point as ``key=value`` pairs joined by ``;``, in the
    point's own (chart) order, as the JSON writes it."""
    return ";".join(f"{k}={v}" for k, v in point.items())


def _reports_to_csv(reports) -> str:
    buf = io.StringIO()
    fieldnames = [f.name for f in fields(MultiplicityReport)]
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        row = r.to_dict()
        row["point"] = _point_text(r.point)
        writer.writerow(row)
    return buf.getvalue()


def _emit(reports, fmt: str, out):
    if fmt == "json":
        text = reports_json(reports)
    elif fmt == "csv":
        text = _reports_to_csv(reports)
    else:
        lines = []
        for r in reports:
            point = _point_text(r.point) or "origin"
            lines.append(
                f"w={r.w} v={r.v} tau={r.tau} point[{point}] "
                f"mu_w={r.mu_w} mu_v={r.mu_v} fast={r.mu_wv_fast} "
                f"oracle={r.mu_wv_oracle} agree={r.agreement}"
            )
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out) -> None:
    """Write the text to the file ``out``, or to stdout when it is unset."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_relation(ok: bool, relation: str) -> None:
    if not ok:
        raise PreconditionError(f"violated: {relation}")


def cmd_equations(args) -> int:
    shape = GrassShape(args.d, args.n)
    point = None
    if args.point:
        point = _load_point(args.point, shape, args.tau)
        tau = point.chart.tau
    elif args.tau:
        tau = parse_coset(shape, args.tau)
    else:
        raise UsageError("--tau (or a matrix point) is required")
    chart = point.chart if point is not None else build_chart(shape, tau)

    out = []
    out.append(f"chart tau={format_coset(tau)}")
    out.append("indices: " + " ".join(str(ix) for ix in chart.indices))
    w = parse_coset(shape, args.w) if args.w else None
    v = parse_coset(shape, args.v) if args.v else None
    ideal = None
    if w is not None:
        _check_relation(bruhat_leq(tau, w), f"tau <= w ({format_coset(tau)} vs {args.w})")
        ideal = schubert_ideal(chart, w)
        out.append(f"schubert w={args.w} generators={len(ideal.gens)}")
        out.append(format_ideal(ideal).rstrip("\n"))
    if v is not None:
        _check_relation(bruhat_leq(v, tau), f"v <= tau ({args.v} vs {format_coset(tau)})")
        iv = opposite_ideal(chart, v)
        out.append(f"opposite v={args.v} generators={len(iv.gens)}")
        out.append(format_ideal(iv).rstrip("\n"))
        if ideal is None:
            ideal = iv
        else:
            ideal = ideal + iv
            out.append(f"richardson generators={len(ideal.gens)}")
            out.append(format_ideal(ideal).rstrip("\n"))
    if point is not None and ideal is not None:
        out.append("translated at point:")
        out.append(format_ideal(translate_to_origin(ideal, point)).rstrip("\n"))

    _write("\n".join(out) + "\n", args.out)
    return 0


def cmd_mult(args) -> int:
    shape = GrassShape(args.d, args.n)
    w = parse_coset(shape, args.w)
    v = parse_coset(shape, args.v)
    if args.point:
        m = _load_point(args.point, shape, args.tau)
        tau = m.chart.tau
    else:
        if not args.tau:
            raise UsageError("--tau is required without a point file")
        tau = parse_coset(shape, args.tau)
        m = None
    report = build_report(shape, w, v, tau, m)
    print(
        f"mu_w={report.mu_w} mu_v={report.mu_v} fast={report.mu_wv_fast} "
        f"oracle={report.mu_wv_oracle} agreement={report.agreement}"
    )
    _emit([report], args.format, args.out)
    return 0 if report.agreement else 1


def cmd_sweep(args) -> int:
    shape = GrassShape(args.d, args.n)
    config = SweepConfig(
        grid=_parse_grid(args.grid),
        point_cap=args.cap,
        max_instances=args.max_instances,
        workers=args.workers,
    )
    result = verify_theorem(shape, config)
    _emit(result.reports, args.format, args.out)
    print(result.summary_line())
    return 0 if result.failed == 0 else 1


def cmd_quadric(args) -> int:
    shape = QuadricShape(args.qn)
    if (args.i, args.j, args.point) == (None, None, None):
        reports = quadric_sweep(shape, grid=_parse_grid(args.grid), cap=args.cap)
    elif None in (args.i, args.j, args.point):
        raise UsageError("--i, --j and --point must be given together")
    else:
        with open(args.point, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("x")
        if not isinstance(data, list):
            raise UsageError('point file must hold a JSON array or {"x": [...]}')
        reports = [quadric_report(shape, args.i, args.j, [_rational(str(v)) for v in data])]
    result = SweepResult(reports)
    _emit(result.reports, args.format, args.out)
    print(result.summary_line())
    return 0 if result.failed == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richmult",
        description="Exact multiplicities on Grassmannian and quadric stratum varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", help="write machine output to this path")

    p_eq = sub.add_parser("equations", help="print chart index set and stratum equations")
    p_eq.add_argument("--d", type=int, required=True)
    p_eq.add_argument("--n", type=int, required=True)
    p_eq.add_argument("--tau")
    p_eq.add_argument("--w")
    p_eq.add_argument("--v")
    p_eq.add_argument("--point", help="JSON point file (coords or matrix)")
    p_eq.add_argument("--out")
    p_eq.set_defaults(func=cmd_equations)

    p_mult = sub.add_parser("mult", help="multiplicities at one point")
    p_mult.add_argument("--d", type=int, required=True)
    p_mult.add_argument("--n", type=int, required=True)
    p_mult.add_argument("--w", required=True)
    p_mult.add_argument("--v", required=True)
    p_mult.add_argument("--tau")
    p_mult.add_argument("--point", help="JSON point file; omit for the fixed point")
    add_common(p_mult)
    p_mult.set_defaults(func=cmd_mult)

    p_sweep = sub.add_parser("sweep", help="verify the product formula over a shape")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--grid", default="-2,-1,0,1,2")
    p_sweep.add_argument("--cap", type=int, default=200,
                         help="sampled cell points per instance, besides the fixed point")
    p_sweep.add_argument("--max-instances", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_quad = sub.add_parser("quadric", help="odd-quadric stratum multiplicities")
    p_quad.add_argument("--qn", type=int, required=True, help="the n of SO(2n+1)")
    p_quad.add_argument("--i", type=int)
    p_quad.add_argument("--j", type=int)
    p_quad.add_argument("--point", help="JSON array of 2n+1 rationals")
    p_quad.add_argument("--grid", default="-1,0,1")
    p_quad.add_argument("--cap", type=int, default=50, help="samples per opposite index j")
    add_common(p_quad)
    p_quad.set_defaults(func=cmd_quadric)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # UsageError, PreconditionError and MembershipError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
