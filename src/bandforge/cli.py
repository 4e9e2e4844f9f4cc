"""Command-line front end with JSON reporting.

Three command groups: `tri` (triangulation files: parse, solve, volume,
certify), `twobridge` (exact two-bridge calculus), `surgery` (slopes and
lens spaces).  Each subcommand is one handler, registered in this module
with `@command(group, name, *arguments)`; `build_parser` builds every
subparser from that table.  `main` prints the handler's `(results,
assertions)` as a report with a `command` echo and the parsed `inputs`;
the exit code is 0 exactly when every assertion passes.  Hard failures
get distinct codes from `exit_code`: 2 for file/parse/validation trouble,
3 for solver failures, 4 for certification failures.  `tri certify
--all-fixtures [PATH ...]` reports every entry and exits with the largest code;
a PATH given twice, named as an embedded fixture, or beginning with another
entry's label and `:`, exits 2 first, so no two results share a key.  A
reader that closes stdout early (`| head`) changes neither the exit code
nor stderr.
Each command loads only what it runs: the `twobridge` and `surgery` ones
`tangle`, `surgery` and `fixtures`; `tri` once a triangulation is read; the
numeric modules in `tri volume`, `solve` and `certify`; numpy in the last two.

The report carries a `timestamp` field; comparisons between runs must
ignore it, everything else is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone
from math import gcd

from . import CertifyError, SolveError, fixtures
from .surgery import (Slope, bhw_example_report, double_branched_cover,
                      lens_equivalent, lens_mirror, matignon_family,
                      normalize_lens, slope_distance)
from .tangle import (check_conway, conway_expand, cosmetic_band_partner,
                     eval_conway, four_move_signature_obstruction,
                     is_unlinking_number_one, mirror_two_bridge,
                     normalize_two_bridge, signature_two_bridge,
                     two_bridge_equivalent, verify_chirally_cosmetic)

EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_CERTIFY = 4

HEADER_VOLUME_TOL = 5e-7

# what a command raises on bad input; any other exception is a bug
ERRORS = (ValueError, OSError, SolveError, CertifyError)

GROUP_HELP = {"tri": "triangulation file commands",
              "twobridge": "two-bridge link calculus",
              "surgery": "slopes and lens spaces"}

# (group, name) -> (handler, argument specs), in registration order
COMMANDS = {}


def exit_code(exc):
    """The documented exit code for one of `ERRORS`."""
    if isinstance(exc, CertifyError):
        return {"validation": EXIT_PARSE,
                "newton": EXIT_SOLVE}.get(exc.stage, EXIT_CERTIFY)
    return EXIT_SOLVE if isinstance(exc, SolveError) else EXIT_PARSE


def arg(*flags, **kwargs):
    """One `add_argument` call, kept for `build_parser`."""
    return flags, kwargs


def command(group, name, *argspecs):
    """Register the decorated handler as `bandforge GROUP NAME`."""
    def register(handler):
        COMMANDS[group, name] = handler, argspecs
        return handler
    return register


def _assertion(name, ok, detail):
    return {"name": name, "pass": bool(ok), "detail": detail}


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
    return normalize_two_bridge(*_parse_ratio(text, "Schubert pair"))


def _load(path):
    """A file's triangulation; a byte that is not UTF-8 stays an escape."""
    from .tri import parse_triangulation
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_triangulation(fh.read())


def _triangulation(args):
    """The triangulation read from `path`, from `--fixture`, or from stdin."""
    if args.fixture is not None and args.path is not None:
        raise ValueError("give either a path or --fixture, not both")
    if args.fixture is not None:
        return fixtures.load_fixture(args.fixture)
    if args.path is not None:
        return _load(args.path)
    from .tri import parse_triangulation
    return parse_triangulation(sys.stdin.read())


# ---------------------------------------------------------------- tri

TOL = arg("--tol", type=float, default=1e-12)


@command("tri", "parse")
def tri_parse(args):
    """parse and validate"""
    tri = _triangulation(args)
    results = {"name": tri.name, "solution_type": tri.solution_type,
               "volume_header": tri.volume_hint,
               "orientability": "oriented_manifold",  # the one accepted
               "cusp_count": tri.cusp_count, "tet_count": tri.tet_count,
               "fillings": [list(c.filling_ints()) if not c.is_complete()
                            else None for c in tri.cusps]}
    return results, [_assertion("well_formed", True, f"{tri.tet_count} "
                                f"tetrahedra, {tri.cusp_count} cusps")]


@command("tri", "volume")
def tri_volume(args):
    """volume at the file shape hints"""
    from .dilog import volume as shape_volume
    from .gluing import build_equations, residual
    tri = _triangulation(args)
    sys_, hints = build_equations(tri), [t.shape_hint for t in tri.tets]
    vol = shape_volume(hints)
    res = max(residual(sys_, hints))
    return {"volume": vol, "residual_max_at_hints": res}, [
        _assertion("matches_header",
                   abs(vol - tri.volume_hint) <= HEADER_VOLUME_TOL,
                   f"|{vol:.10f} - {tri.volume_hint:.8f}| "
                   f"<= {HEADER_VOLUME_TOL}")]


@command("tri", "solve", TOL, arg("--max-iter", type=int, default=50))
def tri_solve(args):
    """Newton-solve the gluing equations from the file hints"""
    from .dilog import volume as shape_volume
    from .gluing import build_equations, newton_solve
    tri = _triangulation(args)
    result = newton_solve(build_equations(tri),
                          [t.shape_hint for t in tri.tets],
                          tol=args.tol, max_iter=args.max_iter)
    results = {"shapes": [[z.real, z.imag] for z in result.shapes],
               "residual_max": result.residual_max,
               "volume": shape_volume(result.shapes),
               "iterations": result.iterations}
    return results, [_assertion("residual_below_tol",
                                result.residual_max < args.tol,
                                f"{result.residual_max:.3e} < {args.tol}")]


def _certify(tri, tag, args):
    """`tri`'s certificate as results under `tag`, and its assertions."""
    from .krawczyk import RADIUS_LADDER, certify_hyperbolic
    radii = RADIUS_LADDER if args.radius is None else (args.radius,)
    cert = certify_hyperbolic(tri, radii=radii, tol=args.tol)
    lo, hi = cert.volume_enclosure
    return {tag: cert.to_dict()}, [
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


class _PathsOrTrue(argparse.Action):
    """Stores the option's values, or True when it is given none."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values or True)


@command("tri", "certify", TOL,
         arg("--radius", type=float,
             help="ladder of this one Krawczyk radius"),
         arg("--all-fixtures", nargs="*", action=_PathsOrTrue, default=False,
             metavar="PATH", help="certify A, B and each PATH as one batch"))
def tri_certify(args):
    """Krawczyk certification"""
    if args.all_fixtures is False:
        tri = _triangulation(args)
        return _certify(tri, tri.name, args)
    if args.path is not None or args.fixture is not None:
        raise ValueError("--all-fixtures takes paths after it, not --fixture")
    paths = [] if args.all_fixtures is True else args.all_fixtures
    # a result is keyed `label:name`, or `label` when it failed, so no label
    # is another's, nor another's and ':' before more
    labels = [*fixtures.EMBEDDED, *paths]
    for i, path in enumerate(paths):
        why = ("is an embedded fixture's label" if path in fixtures.EMBEDDED
               else "is given twice" if path in paths[:i]
               else next((f"begins with the label {label!r} and ':'"
                          for label in labels if path.startswith(label + ":")), ""))
        if why:
            raise ValueError(f"--all-fixtures: the path {path!r} {why}")
    # a failed entry carries its exit code; `main` exits with the largest
    results, assertions = {}, []
    sources = [(label, fixtures.load_fixture) for label in fixtures.EMBEDDED]
    sources += [(path, _load) for path in paths]
    for label, load in sources:
        try:
            tri = load(label)
            entry, checks = _certify(tri, f"{label}:{tri.name}", args)
        except ERRORS as exc:
            entry = {label: {"error": str(exc), "exit_code": exit_code(exc)}}
            checks = [_assertion(f"{label}:certified", False, str(exc))]
        results.update(entry)
        assertions += checks
    return results, assertions


# ---------------------------------------------------------------- twobridge

PAIR = arg("pair", help="Schubert pair")
LEFT_RIGHT = (arg("left", help="Schubert pair"),
              arg("right", help="Schubert pair"))


@command("twobridge", "eval", arg("conway", help="Conway form, e.g. 3,2,-3"))
def twobridge_eval(args):
    fr = eval_conway(_parse_conway(args.conway))
    try:
        schubert = str(normalize_two_bridge(fr.p, fr.q))
    except ValueError:      # the fraction presents no two-bridge link
        schubert = None
    return {"fraction": f"{fr.p}/{fr.q}", "schubert": schubert}, []


@command("twobridge", "expand", arg("pair", help="fraction p/q"))
def twobridge_expand(args):
    p, q = _parse_ratio(args.pair, "fraction")
    cf, g = conway_expand(p, q), gcd(p, q)
    tb, back = normalize_two_bridge(p // g, q // g), eval_conway(cf)
    return {"conway": list(cf)}, [
        _assertion("reexpands", (back.p, back.q) == (tb.p, tb.q),
                   f"{list(cf)} evaluates to {back.p}/{back.q}, the normal "
                   f"form {tb} of {p}/{q} in lowest terms")]


@command("twobridge", "equal", *LEFT_RIGHT)
def twobridge_equal(args):
    a, b = _parse_two_bridge(args.left), _parse_two_bridge(args.right)
    return {"left": str(a), "right": str(b),
            "equivalent": two_bridge_equivalent(a, b)}, []


@command("twobridge", "mirror", PAIR)
def twobridge_mirror(args):
    tb = _parse_two_bridge(args.pair)
    return {"input": str(tb), "mirror": str(mirror_two_bridge(tb))}, []


@command("twobridge", "unlink1", PAIR)
def twobridge_unlink1(args):
    tb = _parse_two_bridge(args.pair)
    witness = is_unlinking_number_one(tb)
    return {"input": str(tb), "witness": list(witness) if witness else None,
            "unlinking_number_one": witness is not None}, []


@command("twobridge", "cosmetic", arg("conway", help="Conway form"))
def twobridge_cosmetic(args):
    cf = _parse_conway(args.conway)
    partner = cosmetic_band_partner(cf)
    ok = verify_chirally_cosmetic(cf)
    return {"conway": list(cf), "partner": list(partner),
            "chirally_cosmetic": ok}, [
        _assertion("partner_is_mirror", ok,
                   f"{list(partner)} evaluates to the mirror")]


@command("twobridge", "signature", PAIR)
def twobridge_signature(args):
    tb = _parse_two_bridge(args.pair)
    return {"input": str(tb), "signature": signature_two_bridge(tb)}, []


@command("twobridge", "fourmove", *LEFT_RIGHT)
def twobridge_fourmove(args):
    a, b = _parse_two_bridge(args.left), _parse_two_bridge(args.right)
    sa, sb = signature_two_bridge(a), signature_two_bridge(b)
    obstructed = four_move_signature_obstruction(a, b)
    return {"left": str(a), "right": str(b), "signature_left": sa,
            "signature_right": sb, "signature_gap": abs(sa - sb),
            "four_move_obstructed": obstructed}, []


# ---------------------------------------------------------------- surgery

@command("surgery", "distance", arg("left", help="slope p/q (1/0 allowed)"),
         arg("right", help="slope p/q"))
def surgery_distance(args):
    a, b = (Slope(*_parse_ratio(t, "slope")) for t in (args.left, args.right))
    return {"left": f"{a.p}/{a.q}", "right": f"{b.p}/{b.q}",
            "distance": slope_distance(a, b)}, []


@command("surgery", "lens-equal", arg("left", help="lens space p/q"),
         arg("right", help="lens space p/q"),
         arg("--unoriented", action="store_true"))
def surgery_lens_equal(args):
    a, b = (normalize_lens(*_parse_ratio(t, "lens space"))
            for t in (args.left, args.right))
    oriented = not args.unoriented
    return {"left": str(a), "right": str(b), "oriented": oriented,
            "equivalent": lens_equivalent(a, b, oriented=oriented)}, []


@command("surgery", "lens-mirror", arg("pair", help="lens space p/q"))
def surgery_lens_mirror(args):
    a = normalize_lens(*_parse_ratio(args.pair, "lens space"))
    return {"input": str(a), "mirror": str(lens_mirror(a))}, []


@command("surgery", "dbc", arg("pair", help="two-bridge Schubert pair"))
def surgery_dbc(args):
    tb = _parse_two_bridge(args.pair)
    return {"link": str(tb),
            "double_branched_cover": str(double_branched_cover(tb))}, []


@command("surgery", "matignon", arg("m", type=int), arg("n", type=int))
def surgery_matignon(args):
    lens, link = matignon_family(args.m, args.n)
    return {"m": args.m, "n": args.n,
            "lens_space": str(lens), "link": str(link)}, [
        _assertion("family_consistent", True,
                   f"{lens} is the double branched cover "
                   f"of {link} with an unlinking witness")]


@command("surgery", "bhw")
def surgery_bhw(args):
    triples = bhw_example_report()
    return {"checks": [name for name, _, _ in triples]}, [
        _assertion(name, ok, detail) for name, ok, detail in triples]


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with `-` and a digit (`-3,2,3`, `-1/2`)
    as a value, as every option is `-h` or `--long`; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser():
    ap = _Parser(prog="bandforge", description=(
        "two-bridge banding calculus and certified hyperbolicity checks"))
    groups = ap.add_subparsers(dest="group", required=True)
    subparsers = {}
    for (group, name), (handler, argspecs) in COMMANDS.items():
        if group not in subparsers:
            subparsers[group] = groups.add_parser(
                group, help=GROUP_HELP[group]).add_subparsers(
                    dest="subcommand", required=True)
        p = subparsers[group].add_parser(name, help=handler.__doc__)
        if group == "tri":      # every tri command reads one triangulation
            p.add_argument("path", nargs="?",
                           help="triangulation file (default: stdin)")
            p.add_argument("--fixture", choices=list(fixtures.EMBEDDED),
                           help="use an embedded fixture")
        for flags, kwargs in argspecs:
            p.add_argument(*flags, **kwargs)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="format", action="store_const",
                         const="json", help="JSON report (default)")
        fmt.add_argument("--text", dest="format", action="store_const",
                         const="text", help="plain-text report")
        p.set_defaults(format="json", func=handler)
    return ap


def main(argv=None) -> int:
    """Run one command; the only place errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        results, assertions = args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    report = {"command": f"{args.group} {args.subcommand}",
              "inputs": {k: v for k, v in sorted(vars(args).items())
                         if k not in ("func", "format") and v is not None},
              "results": results, "assertions": assertions,
              "timestamp": datetime.now(timezone.utc).isoformat()}
    batch_codes = [entry["exit_code"] for entry in results.values()
                   if isinstance(entry, dict) and "exit_code" in entry]
    passed = all(a["pass"] for a in assertions)
    try:
        if args.format == "text":
            print(report["command"])
            for key, value in results.items():
                print(f"  {key} = {value}")
            for a in assertions:
                mark = "ok  " if a["pass"] else "FAIL"
                print(f"  [{mark}] {a['name']}: {a['detail']}")
        else:
            print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): stdout becomes os.devnull, so the
        # flush at exit is quiet too, and the exit code is the report's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return max([0 if passed else EXIT_ASSERTION, *batch_codes])


if __name__ == "__main__":
    sys.exit(main())
