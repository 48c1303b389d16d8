"""Command-line interface.

Subcommands: wronskian, certify, lift, exponent, count, energy, hyperplanes,
experiment, check.  Exit codes: 0 success, 1 usage errors, 2 when an
inequality campaign finds a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import pointsets, serialization as ser
from .curves import certify_nondegenerate, wronskian
from .experiments import (CAMPAIGN_KINDS, run_energy_experiment,
                          run_exponent_experiment, run_inequality_campaign)
from .lifting import exponent, lift_curve, make_Ms
from .pointsets import additive_energy
from .tube import brute_force_tube_oracle, count_in_tube
from .hyperplanes import survey_intersections

USAGE_EXIT = 1
CAMPAIGN_FAIL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, out_path):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a subparser from clobbering a value set on the root
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--config", default=argparse.SUPPRESS,
                   help="experiment config file (JSON)")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    g.add_argument("--out", default=argparse.SUPPRESS,
                   help="write output here instead of stdout")
    g.add_argument("--format", choices=("json", "csv"),
                   default=argparse.SUPPRESS)
    g.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                   help="override enumeration/energy caps")

    p = _Parser(prog="curvecount", parents=[g],
                description="lattice/GAP point counting near curves: "
                            "Wronskians, lifts, tubes, energies")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    w = sub.add_parser("wronskian", parents=[g],
                       help="evaluate W(Γ) at parameters")
    w.add_argument("--curve", required=True)
    w.add_argument("--t", help="single rational parameter p/q")
    w.add_argument("--grid", type=int, default=8, help="sample count if no --t")
    w.add_argument("--monomials", help="lift with this monomial set first")

    c = sub.add_parser("certify", parents=[g], help="non-degeneracy certificate")
    c.add_argument("--curve", required=True)
    c.add_argument("--c0", default="0")
    c.add_argument("--grid", type=int, default=256)

    lf = sub.add_parser("lift", parents=[g], help="lift a planar curve by a monomial set")
    lf.add_argument("--curve", required=True)
    lf.add_argument("--monomials", required=True)

    e = sub.add_parser("exponent", parents=[g], help="counting exponent e(M)")
    e.add_argument("--monomials")
    e.add_argument("--s", type=int, help="use the full degree-<=s set M_s")

    ct = sub.add_parser("count", parents=[g], help="points in a δ-neighborhood")
    ct.add_argument("--query", required=True, help="query JSON file")
    ct.add_argument("--oracle", action="store_true",
                    help="use the brute-force oracle instead")

    en = sub.add_parser("energy", parents=[g], help="additive m-energy of a point set")
    en.add_argument("--points", required=True, help="JSON array of points")
    en.add_argument("--m", type=int, default=2)

    hp = sub.add_parser("hyperplanes", parents=[g], help="random hyperplane intersections")
    hp.add_argument("--curve", required=True)
    hp.add_argument("--trials", type=int, default=1000)

    sub.add_parser("experiment", parents=[g], help="run an experiment config")

    ck = sub.add_parser("check", parents=[g], help="randomized inequality campaign")
    ck.add_argument("--kind", required=True,
                    help="one of " + ", ".join(CAMPAIGN_KINDS))
    ck.add_argument("--trials", type=int, default=100)
    return p


def _cmd_wronskian(args) -> int:
    curve = ser.load_curve(args.curve)
    if args.monomials:
        curve = lift_curve(curve, ser.load_monomials(args.monomials))
    lo, hi = curve.domain
    if args.t is not None:
        ts = [ser.parse_frac(args.t)]
    elif args.grid < 1:
        raise ValueError("--grid must be >= 1")
    else:
        ts = [lo + (hi - lo) * Fraction(i, args.grid) for i in range(args.grid + 1)]
    rows = [{"t": ser.frac_str(t), "wronskian": float(wronskian(curve, t))}
            for t in ts]
    _dump_json({"kind": curve.kind, "dimension": curve.dimension,
                "values": rows}, args.out)
    return 0


def _cmd_certify(args) -> int:
    curve = ser.load_curve(args.curve)
    cert = certify_nondegenerate(curve, ser.parse_frac(args.c0), args.grid)
    _dump_json(dataclasses.asdict(cert), args.out)
    return 0


def _cmd_lift(args) -> int:
    curve = ser.load_curve(args.curve)
    mset = ser.load_monomials(args.monomials)
    lifted = lift_curve(curve, mset)
    _dump_json(ser.curve_to_dict(lifted), args.out)
    return 0


def _cmd_exponent(args) -> int:
    if (args.monomials is None) == (args.s is None):
        raise ValueError("exponent needs exactly one of --monomials and --s")
    mset = make_Ms(args.s) if args.s is not None else ser.load_monomials(args.monomials)
    e = exponent(mset)
    _dump_json({"n": mset.n, "degrees": list(mset.degrees),
                "exponent": ser.frac_str(e), "exponent_float": float(e)},
               args.out)
    return 0


def _cmd_count(args) -> int:
    query = ser.load_query(args.query)
    result = (brute_force_tube_oracle if args.oracle else count_in_tube)(
        query, keep_points=False, cap=args.cap)
    _dump_json({"count": result.count, "certified": result.certified,
                "arcs_examined": result.arcs_examined}, args.out)
    return 0


def _cmd_energy(args) -> int:
    pts = pointsets.FiniteSet(json.loads(Path(args.points).read_text()))
    e = additive_energy(pts, args.m, args.cap)
    ratio = Fraction(e, len(pts) ** args.m)
    _dump_json({"size": len(pts), "m": args.m, "energy": e,
                "ratio": ser.frac_str(ratio), "ratio_float": float(ratio)},
               args.out)
    return 0


def _cmd_hyperplanes(args) -> int:
    curve = ser.load_curve(args.curve)
    s = survey_intersections(curve, args.trials, args.seed)
    _dump_json({"max_roots": s.max_roots, "trials": s.trials, "seed": s.seed,
                "histogram": {str(k): v for k, v in sorted(s.histogram.items())},
                "note": "empirical lower estimate of the uniform bound"},
               args.out)
    return 0


def _cmd_experiment(args) -> int:
    if not args.config:
        raise ValueError("experiment needs --config")
    cfg, which = ser.load_experiment(args.config)
    if which == "energy":
        _dump_json(run_energy_experiment(cfg, args.cap).to_dict(), args.out)
        return 0
    report = run_exponent_experiment(cfg, args.cap)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _dump_json(report.to_dict(), args.out)
    return 0


def _cmd_check(args) -> int:
    result = run_inequality_campaign(args.kind, args.seed, args.trials, args.cap)
    _dump_json(result.to_dict(), args.out)
    return 0 if result.ok else CAMPAIGN_FAIL_EXIT


_HANDLERS = {
    "wronskian": _cmd_wronskian,
    "certify": _cmd_certify,
    "lift": _cmd_lift,
    "exponent": _cmd_exponent,
    "count": _cmd_count,
    "energy": _cmd_energy,
    "hyperplanes": _cmd_hyperplanes,
    "experiment": _cmd_experiment,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("config", None), ("seed", 0), ("out", None),
                          ("format", "json"), ("cap", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.command is None:
        parser.print_help()
        return USAGE_EXIT
    # one --cap value bounds every capped call; 0 means the defaults
    args.cap = args.cap or None
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KeyError, pointsets.CapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
