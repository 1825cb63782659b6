"""Command-line front end: parse channel files, run region and converse
computations, emit CSV artifacts.

Exit codes: 0 success, 1 failed converse certification (verify only),
2 validation errors. Identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .channel import canonicalize, load_channel
from .examples import FiniteFieldSpec, blackwell_sweep_hull, dof, finite_field_region
from .outerbound import case_spanning_lambdas, converse_to_csv, verify_converse
from .regions import (
    RegionPolygon,
    capacity_polygon,
    format_number,
    make_polygon,
    polygon_to_csv,
    primed_regions,
    proposition_regions,
    support_curve,
    transpose_polygon,
)


def _parse_h(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("matrix must be 4 comma-separated integers h11,h12,h21,h22")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, so one process parses every command line
    with the same parser."""
    parser = argparse.ArgumentParser(
        prog="statebc",
        description="Capacity regions of broadcast channels with two deterministic "
        "state-switched components (rates in bits).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def channel_opts(sp, with_out=True):
        sp.add_argument("--channel", required=True, help="channel spec JSON file")
        sp.add_argument("--p1", type=float, default=None, help="override p1 from the file")
        sp.add_argument("--p2", type=float, default=None, help="override p2 from the file")
        if with_out:
            sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("region", help="capacity region polygon CSV")
    channel_opts(sp)
    sp.add_argument("--n-lambda", type=int, default=64, help="support samples per case segment")

    sp = sub.add_parser("support", help="support-function curve CSV")
    channel_opts(sp)
    sp.add_argument("--lambdas", type=int, default=64, help="number of lambda samples")

    sp = sub.add_parser("verify", help="converse certification (exit 1 on failure)")
    channel_opts(sp, with_out=False)
    sp.add_argument("--out", default=None, help="optional gap-table CSV path")
    sp.add_argument("--lambdas", type=int, default=32, help="number of lambda samples")
    sp.add_argument("--tol", type=float, default=5e-3, help="gap tolerance in bits")

    sp = sub.add_parser("regions4", help="four-region decomposition and its sweep cross-check")
    channel_opts(sp)
    sp.add_argument("--n-lambda", type=int, default=64)
    sp.add_argument("--px-grid", type=int, default=0, help="input-law lattice denominator")

    sp = sub.add_parser("example-blackwell", help="Blackwell-channel region from closed forms")
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    sp.add_argument("--alpha-grid", type=int, default=101)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("example-ff", help="finite-field channel region (analytic hull)")
    sp.add_argument("--k", type=int, default=2, help="prime field size")
    sp.add_argument("--h", type=_parse_h, default=(1, 1, 1, 0), help="h11,h12,h21,h22")
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    sp.add_argument("--normalize", action="store_true", help="divide rates by log2 K")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("dof", help="degrees of freedom p1 + (1 - p2)")
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    return parser


def _header(p1: float, p2: float, extra: str = "") -> str:
    line = f"# p1={format_number(p1)} p2={format_number(p2)}"
    if extra:
        line += f" {extra}"
    return line + "\n"


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _scale_polygon(poly: RegionPolygon, factor: float) -> RegionPolygon:
    return make_polygon([(v.r1 * factor, v.r2 * factor) for v in poly.vertices], poly.label)


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line; flags override channel-file values."""
    if args.command == "region":
        spec = load_channel(args.channel, args.p1, args.p2)
        poly = capacity_polygon(spec, n_lambda=args.n_lambda)
        _write(args.out, _header(spec.p1, spec.p2) + polygon_to_csv(poly))
        return 0

    if args.command == "support":
        spec = load_channel(args.channel, args.p1, args.p2)
        canon, swapped = canonicalize(spec)
        lambdas = case_spanning_lambdas(canon, args.lambdas)
        curve = support_curve(canon, lambdas)
        extra = "note=receivers-swapped" if swapped else ""
        lines = ["lambda,value,case"]
        for s in curve.samples:
            lines.append(f"{format_number(s.lam)},{format_number(s.value)},{s.case_id}")
        _write(args.out, _header(canon.p1, canon.p2, extra) + "\n".join(lines) + "\n")
        return 0

    if args.command == "verify":
        spec = load_channel(args.channel, args.p1, args.p2)
        canon, _ = canonicalize(spec)
        lambdas = case_spanning_lambdas(canon, args.lambdas)
        report = verify_converse(canon, lambdas, tol=args.tol)
        if args.out:
            _write(args.out, _header(canon.p1, canon.p2) + converse_to_csv(report))
        verdict = "pass" if report.passed else "fail"
        print(
            f"max_gap={format_number(report.max_gap)} "
            f"tolerance={format_number(report.tolerance)} result={verdict}"
        )
        return 0 if report.passed else 1

    if args.command == "regions4":
        spec = load_channel(args.channel, args.p1, args.p2)
        canon, _ = canonicalize(spec)
        polys = proposition_regions(canon, n_lambda=args.n_lambda)
        polys += primed_regions(canon, px_grid=args.px_grid or None)
        header = _header(canon.p1, canon.p2)
        for poly in polys:
            name = poly.label.replace("'", "p")
            _write(f"{args.out}{name}.csv", header + polygon_to_csv(poly))
        return 0

    if args.command == "example-blackwell":
        canon_p1, canon_p2 = max(args.p1, args.p2), min(args.p1, args.p2)
        poly = blackwell_sweep_hull(canon_p1, canon_p2, grid=args.alpha_grid)
        if args.p1 < args.p2:
            poly = transpose_polygon(poly)
        _write(args.out, _header(args.p1, args.p2) + polygon_to_csv(poly))
        return 0

    if args.command == "example-ff":
        ff = FiniteFieldSpec(args.k, ((args.h[0], args.h[1]), (args.h[2], args.h[3])))
        canon_p1, canon_p2 = max(args.p1, args.p2), min(args.p1, args.p2)
        poly = finite_field_region(ff, canon_p1, canon_p2)
        if args.p1 < args.p2:
            poly = transpose_polygon(poly)
        extra = f"k={args.k}"
        if args.normalize:
            poly = _scale_polygon(poly, 1.0 / math.log2(args.k))
            extra += " normalized=log2K"
        _write(args.out, _header(args.p1, args.p2, extra) + polygon_to_csv(poly))
        return 0

    if args.command == "dof":
        print(format_number(dof(args.p1, args.p2)))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
