"""Command-line front end with JSON reporting.

Three command groups: `tri` (triangulation files: parse, solve, volume,
certify), `twobridge` (exact two-bridge calculus), `surgery` (slopes and
lens spaces).  Every command prints a report with a `command` echo, the
parsed `inputs`, a `results` payload, and an `assertions` list; the exit
code is 0 exactly when every assertion passes.  Hard failures use
distinct codes: 2 for file/parse/validation trouble, 3 for solver
failures, 4 for certification failures.

The report carries a `timestamp` field; comparisons between runs must
ignore it, everything else is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import fixtures
from .dilog import volume as shape_volume
from .gluing import SolveError, build_equations, newton_solve, residual
from .krawczyk import RADIUS_LADDER, CertifyError, certify_hyperbolic
from .surgery import (Slope, bhw_example_report, double_branched_cover,
                      lens_equivalent, lens_mirror, matignon_family,
                      normalize_lens, slope_distance)
from .tangle import (check_conway, conway_expand, cosmetic_band_partner,
                     eval_conway, four_move_signature_obstruction,
                     is_unlinking_number_one, mirror_two_bridge,
                     normalize_two_bridge, signature_two_bridge,
                     two_bridge_equivalent, verify_chirally_cosmetic)
from .tri import TriParseError, parse_triangulation

EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_CERTIFY = 4

HEADER_VOLUME_TOL = 5e-7


# ---------------------------------------------------------------- helpers

def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _assertion(name, ok, detail):
    return {"name": name, "pass": bool(ok), "detail": detail}


def _report(args, results, assertions):
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "format") and v is not None}
    return {
        "command": f"{args.group} {args.subcommand}",
        "inputs": inputs,
        "results": results,
        "assertions": assertions,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(report, args):
    if getattr(args, "format", "json") == "text":
        print(report["command"])
        for key, value in report["results"].items():
            print(f"  {key} = {value}")
        for a in report["assertions"]:
            mark = "ok  " if a["pass"] else "FAIL"
            print(f"  [{mark}] {a['name']}: {a['detail']}")
    else:
        print(json.dumps(report, indent=2))
    return 0 if all(a["pass"] for a in report["assertions"]) else EXIT_ASSERTION


def _parse_ratio(text, what):
    """`p/q` or a bare integer meaning p/1."""
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError(f"cannot read {what} {text!r}; expected p/q")


def _parse_conway(text):
    try:
        entries = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"cannot read Conway form {text!r}; "
                         "expected comma-separated integers") from None
    return check_conway(entries)


def _parse_two_bridge(text):
    p, q = _parse_ratio(text, "Schubert pair")
    return normalize_two_bridge(p, q)


def _parse_slope(text):
    p, q = _parse_ratio(text, "slope")
    return Slope(p, q)


def _parse_lens(text):
    p, q = _parse_ratio(text, "lens space")
    return normalize_lens(p, q)


def _load_triangulation(args):
    if args.fixture is not None and args.path is not None:
        raise ValueError("give either a path or --fixture, not both")
    if args.fixture is not None:
        return parse_triangulation(fixtures.fixture_text(args.fixture))
    if args.path is not None:
        with open(args.path, "r", encoding="ascii") as fh:
            return parse_triangulation(fh.read())
    return parse_triangulation(sys.stdin.read())


# ---------------------------------------------------------------- tri

def cmd_tri(args):
    if getattr(args, "all_fixtures", False):
        tri = None  # the certify loop loads each fixture itself
    else:
        try:
            tri = _load_triangulation(args)
        except (TriParseError, OSError, ValueError) as exc:
            return _fail(EXIT_PARSE, exc)

    if args.subcommand == "parse":
        results = {
            "name": tri.name,
            "solution_type": tri.solution_type,
            "volume_header": tri.volume_hint,
            "orientability": tri.orientability,
            "cusp_count": tri.cusp_count,
            "tet_count": tri.tet_count,
            "fillings": [list(c.filling_ints()) if not c.is_complete()
                         else None for c in tri.cusps],
        }
        assertions = [_assertion("well_formed", True,
                                 f"{tri.tet_count} tetrahedra, "
                                 f"{tri.cusp_count} cusps")]
        return _emit(_report(args, results, assertions), args)

    if args.subcommand == "volume":
        try:
            sys_ = build_equations(tri)
            hints = [t.shape_hint for t in tri.tets]
            vol = shape_volume(hints)
            res = max(residual(sys_, hints))
        except ValueError as exc:
            return _fail(EXIT_PARSE, exc)
        results = {"volume": vol, "residual_max_at_hints": res}
        assertions = [
            _assertion("matches_header",
                       abs(vol - tri.volume_hint) <= HEADER_VOLUME_TOL,
                       f"|{vol:.10f} - {tri.volume_hint:.8f}| "
                       f"<= {HEADER_VOLUME_TOL}"),
        ]
        return _emit(_report(args, results, assertions), args)

    if args.subcommand == "solve":
        try:
            result = newton_solve(build_equations(tri),
                                  [t.shape_hint for t in tri.tets],
                                  tol=args.tol, max_iter=args.max_iter)
        except SolveError as exc:
            return _fail(EXIT_SOLVE, exc)
        except ValueError as exc:
            return _fail(EXIT_PARSE, exc)
        vol = shape_volume(result.shapes)
        results = {
            "shapes": [[z.real, z.imag] for z in result.shapes],
            "residual_max": result.residual_max,
            "volume": vol,
            "iterations": result.iterations,
        }
        assertions = [
            _assertion("residual_below_tol",
                       result.residual_max < args.tol,
                       f"{result.residual_max:.3e} < {args.tol}"),
        ]
        return _emit(_report(args, results, assertions), args)

    # certify
    labels = fixtures.fixture_labels() if args.all_fixtures else [None]
    radii = RADIUS_LADDER if args.radius is None else (args.radius,)
    results = {}
    assertions = []
    for label in labels:
        if label is not None:
            try:
                tri = parse_triangulation(fixtures.fixture_text(label))
            except (TriParseError, OSError, ValueError) as exc:
                return _fail(EXIT_PARSE, exc)
        tag = tri.name if label is None else f"{label}:{tri.name}"
        try:
            cert = certify_hyperbolic(tri, radii=radii, tol=args.tol)
        except ValueError as exc:
            return _fail(EXIT_PARSE, exc)
        except CertifyError as exc:
            code = {"validation": EXIT_PARSE, "build": EXIT_PARSE,
                    "newton": EXIT_SOLVE}.get(exc.stage, EXIT_CERTIFY)
            return _fail(code, exc)
        results[tag] = cert.to_dict()
        lo, hi = cert.volume_enclosure.lo, cert.volume_enclosure.hi
        assertions += [
            _assertion(f"{tag}:contracted", cert.contracted,
                       f"radius {cert.radius_used}"),
            _assertion(f"{tag}:all_imag_positive", cert.all_imag_positive,
                       "geometric solution"),
            _assertion(f"{tag}:volume_matches_header",
                       min(abs(lo - tri.volume_hint),
                           abs(hi - tri.volume_hint)) <= HEADER_VOLUME_TOL
                       or lo <= tri.volume_hint <= hi,
                       f"[{lo:.12f}, {hi:.12f}] vs {tri.volume_hint:.8f}"),
        ]
    return _emit(_report(args, results, assertions), args)


# ---------------------------------------------------------------- twobridge

def cmd_twobridge(args):
    try:
        if args.subcommand == "eval":
            cf = _parse_conway(args.conway)
            fr = eval_conway(cf)
            results = {"fraction": f"{fr.p}/{fr.q}"}
            try:
                results["schubert"] = str(normalize_two_bridge(fr.p, fr.q))
            except ValueError:
                results["schubert"] = None
            assertions = []

        elif args.subcommand == "expand":
            p, q = _parse_ratio(args.pair, "fraction")
            cf = conway_expand(p, q)
            back = eval_conway(cf)
            results = {"conway": list(cf)}
            assertions = [_assertion("reexpands", (back.p, back.q) == (p, q)
                                     or back.p * q == back.q * p,
                                     f"{list(cf)} evaluates to {back.p}/{back.q}")]

        elif args.subcommand == "equal":
            a = _parse_two_bridge(args.left)
            b = _parse_two_bridge(args.right)
            results = {"left": str(a), "right": str(b),
                       "equivalent": two_bridge_equivalent(a, b)}
            assertions = []

        elif args.subcommand == "mirror":
            tb = _parse_two_bridge(args.pair)
            results = {"input": str(tb), "mirror": str(mirror_two_bridge(tb))}
            assertions = []

        elif args.subcommand == "unlink1":
            tb = _parse_two_bridge(args.pair)
            witness = is_unlinking_number_one(tb)
            results = {"input": str(tb),
                       "witness": list(witness) if witness else None,
                       "unlinking_number_one": witness is not None}
            assertions = []

        elif args.subcommand == "cosmetic":
            cf = _parse_conway(args.conway)
            partner = cosmetic_band_partner(cf)
            ok = verify_chirally_cosmetic(cf)
            results = {"conway": list(cf), "partner": list(partner),
                       "chirally_cosmetic": ok}
            assertions = [_assertion("partner_is_mirror", ok,
                                     f"{list(partner)} evaluates to the mirror")]

        elif args.subcommand == "signature":
            tb = _parse_two_bridge(args.pair)
            results = {"input": str(tb),
                       "signature": signature_two_bridge(tb)}
            assertions = []

        else:  # fourmove
            a = _parse_two_bridge(args.left)
            b = _parse_two_bridge(args.right)
            sa, sb = signature_two_bridge(a), signature_two_bridge(b)
            results = {"left": str(a), "right": str(b),
                       "signature_left": sa, "signature_right": sb,
                       "signature_gap": abs(sa - sb),
                       "four_move_obstructed":
                           four_move_signature_obstruction(a, b)}
            assertions = []
    except ValueError as exc:
        return _fail(EXIT_PARSE, exc)
    return _emit(_report(args, results, assertions), args)


# ---------------------------------------------------------------- surgery

def cmd_surgery(args):
    try:
        if args.subcommand == "distance":
            a, b = _parse_slope(args.left), _parse_slope(args.right)
            results = {"left": f"{a.p}/{a.q}", "right": f"{b.p}/{b.q}",
                       "distance": slope_distance(a, b)}
            assertions = []

        elif args.subcommand == "lens-equal":
            a, b = _parse_lens(args.left), _parse_lens(args.right)
            results = {"left": str(a), "right": str(b),
                       "oriented": not args.unoriented,
                       "equivalent": lens_equivalent(
                           a, b, oriented=not args.unoriented)}
            assertions = []

        elif args.subcommand == "lens-mirror":
            a = _parse_lens(args.pair)
            results = {"input": str(a),
                       "mirror": str(lens_mirror(a))}
            assertions = []

        elif args.subcommand == "dbc":
            tb = _parse_two_bridge(args.pair)
            results = {"link": str(tb),
                       "double_branched_cover":
                           str(double_branched_cover(tb))}
            assertions = []

        elif args.subcommand == "matignon":
            lens, link = matignon_family(args.m, args.n)
            results = {"m": args.m, "n": args.n,
                       "lens_space": str(lens), "link": str(link)}
            assertions = [_assertion(
                "family_consistent", True,
                f"{lens} is the double branched cover "
                f"of {link} with an unlinking witness")]

        else:  # bhw
            triples = bhw_example_report()
            results = {"checks": [name for name, _, _ in triples]}
            assertions = [_assertion(name, ok, detail)
                          for name, ok, detail in triples]
    except ValueError as exc:
        return _fail(EXIT_PARSE, exc)
    return _emit(_report(args, results, assertions), args)


# ---------------------------------------------------------------- parser

def _add_format_flags(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const",
                     const="json", help="JSON report (default)")
    fmt.add_argument("--text", dest="format", action="store_const",
                     const="text", help="plain-text report")
    p.set_defaults(format="json")


def _add_tri_flags(p, solver=False, certifier=False):
    p.add_argument("path", nargs="?", default=None,
                   help="triangulation file (default: stdin)")
    p.add_argument("--fixture", choices=fixtures.fixture_labels(),
                   default=None, help="use an embedded reference fixture")
    if solver or certifier:
        p.add_argument("--tol", type=float, default=1e-12)
    if solver:
        p.add_argument("--max-iter", type=int, default=50)
    if certifier:
        p.add_argument("--radius", type=float, default=None,
                       help="ladder of this one Krawczyk radius")
        p.add_argument("--all-fixtures", action="store_true",
                       help="certify every embedded fixture")
    _add_format_flags(p)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bandforge",
        description="two-bridge banding calculus and certified "
                    "hyperbolicity checks")
    groups = ap.add_subparsers(dest="group", required=True)

    tri = groups.add_parser("tri", help="triangulation file commands")
    tsub = tri.add_subparsers(dest="subcommand", required=True)
    _add_tri_flags(tsub.add_parser("parse", help="parse and validate"))
    _add_tri_flags(tsub.add_parser("volume",
                                   help="volume at the file shape hints"))
    _add_tri_flags(tsub.add_parser("solve", help="Newton-solve the gluing "
                                   "equations from the file hints"),
                   solver=True)
    _add_tri_flags(tsub.add_parser("certify", help="Krawczyk certification"),
                   certifier=True)
    for sub in tsub.choices.values():
        sub.set_defaults(func=cmd_tri)

    twob = groups.add_parser("twobridge", help="two-bridge link calculus")
    bsub = twob.add_subparsers(dest="subcommand", required=True)
    for name, argspec in [
        ("eval", [("conway", "Conway form, e.g. 3,2,-3")]),
        ("expand", [("pair", "fraction p/q")]),
        ("equal", [("left", "Schubert pair"), ("right", "Schubert pair")]),
        ("mirror", [("pair", "Schubert pair")]),
        ("unlink1", [("pair", "Schubert pair")]),
        ("cosmetic", [("conway", "Conway form")]),
        ("signature", [("pair", "Schubert pair")]),
        ("fourmove", [("left", "Schubert pair"), ("right", "Schubert pair")]),
    ]:
        sp = bsub.add_parser(name)
        for arg, helptext in argspec:
            sp.add_argument(arg, help=helptext)
        _add_format_flags(sp)
        sp.set_defaults(func=cmd_twobridge)

    surg = groups.add_parser("surgery", help="slopes and lens spaces")
    ssub = surg.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("distance")
    sp.add_argument("left", help="slope p/q (1/0 allowed)")
    sp.add_argument("right", help="slope p/q")
    sp = ssub.add_parser("lens-equal")
    sp.add_argument("left", help="lens space p/q")
    sp.add_argument("right", help="lens space p/q")
    sp.add_argument("--unoriented", action="store_true")
    sp = ssub.add_parser("lens-mirror")
    sp.add_argument("pair", help="lens space p/q")
    sp = ssub.add_parser("dbc")
    sp.add_argument("pair", help="two-bridge Schubert pair")
    sp = ssub.add_parser("matignon")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    ssub.add_parser("bhw")
    for sub in ssub.choices.values():
        _add_format_flags(sub)
        sub.set_defaults(func=cmd_surgery)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
