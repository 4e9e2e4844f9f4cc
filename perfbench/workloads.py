"""The three workloads: seeded inputs, one op each, and the output checks.

Every workload has the same shape:

* `__init__(seed)` only derives inputs from the seed; nothing is imported;
* `setup()` imports the package and builds what every op shares;
* `prepare(i)` makes the input of op i (untimed, deterministic in seed, i);
* `op(inp, tracer=None)` is the timed call and never raises: an
  exception becomes part of the outcome;
* `check(outcome)` returns the list of problems, empty when the output is
  right, and `positive(outcome)` says whether the verdict was positive;
* `note(outcome)` keeps the little that `summary(notes)` reports.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import cmath
import dataclasses
import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import oracles
from spans import SPAN_MARKER

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_FILES = {"A": ROOT / "src/bandforge/data/fixture_a.tri",
                 "B": ROOT / "src/bandforge/data/fixture_b.tri"}
HEADER_VOLUME_TOL = 5e-7    # header volumes carry 8 decimals


def _rng(seed, i):
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{i}")


# ------------------------------------------------------------------ filling

FILL_CUSP = 6          # the complete cusp of fixture B
SLOPE_BOUND = 10
# verdicts at the commit that introduced the benchmark: these 19 slopes
# fail with "[newton] iterate 1 left the upper half-plane", the other 109
# certify at radius 1e-10.  A changed verdict is reported, not failed.
SEED_UNCERTIFIED = frozenset([
    (-3, 1), (-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 0), (1, 1), (1, 2),
    (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3),
    (7, 3), (7, 4)])
WARMUP_SLOPE = (-10, 1)


def primitive_slopes(bound=SLOPE_BOUND):
    """Primitive (m, l), |m|, |l| <= bound, one of each +-pair: l > 0 or (1, 0)."""
    return [(m, l) for m in range(-bound, bound + 1) for l in range(bound + 1)
            if gcd(abs(m), l) == 1 and (l > 0 or (m, l) == (1, 0))]


@dataclasses.dataclass
class FillOutcome:
    slope: tuple
    text: str = ""
    tri: object = None
    result: object = None     # Certificate or the exception raised


class FillingSweep:
    """Fill B's complete cusp with a seeded order of the 128 slopes."""

    name = "filling-sweep"
    child_process = False

    def __init__(self, seed):
        self.order = primitive_slopes()
        random.Random(f"{seed}:order").shuffle(self.order)
        self._complete = None

    def setup(self):
        import bandforge
        from bandforge import dilog, fixtures, gluing, krawczyk, tri
        self.pkg, self.T, self.G, self.K, self.D = (
            bandforge, tri, gluing, krawczyk, dilog)
        self.base = fixtures.load_fixture("B")

    def prepare(self, i):
        return self.order[i % len(self.order)]

    def warmup_input(self):
        return WARMUP_SLOPE

    def op(self, slope, tracer=None):
        out = FillOutcome(slope)
        try:
            cusps = list(self.base.cusps)
            cusps[FILL_CUSP] = dataclasses.replace(
                cusps[FILL_CUSP], filling_m=float(slope[0]),
                filling_l=float(slope[1]))
            out.text = self.T.serialize_triangulation(
                dataclasses.replace(self.base, cusps=tuple(cusps)))
            out.tri = self.T.parse_triangulation(out.text)
            out.result = self.K.certify_hyperbolic(out.tri)
        except Exception as exc:
            out.result = exc
        return out

    def positive(self, out):
        return getattr(out.result, "valid", False) is True

    def uncertified(self, out):
        return isinstance(out.result, self.pkg.CertifyError)

    def complete(self):
        """Certificate of B as shipped (cusp 6 complete), made once."""
        if self._complete is None:
            self._complete = self.K.certify_hyperbolic(self.base)
        return self._complete

    def check(self, out):
        if out.tri is None:
            return [f"{out.slope}: fill/serialize/parse raised {out.result!r}"]
        problems = []
        if self.T.serialize_triangulation(out.tri).split() != out.text.split():
            problems.append(f"{out.slope}: .tri round trip changed tokens")
        cusp = out.tri.cusps[FILL_CUSP]
        if (cusp.filling_m, cusp.filling_l) != out.slope:
            problems.append(f"{out.slope}: parsed filling is "
                            f"({cusp.filling_m}, {cusp.filling_l})")
        res = out.result
        if isinstance(res, self.pkg.CertifyError):
            if not (isinstance(getattr(res, "stage", None), str) and res.stage):
                problems.append(f"{out.slope}: CertifyError without a stage")
            return problems
        if isinstance(res, BaseException):
            return problems + [f"{out.slope}: unexpected {res!r}"]
        if not res.valid:
            return problems + [f"{out.slope}: returned an invalid certificate"]
        enc = res.volume_enclosure
        try:
            shapes = self.G.newton_solve(
                self.G.build_equations(out.tri),
                [t.shape_hint for t in out.tri.tets]).shapes
            vol = self.D.volume(shapes)
        except Exception as exc:
            return problems + [f"{out.slope}: certified, but the Newton "
                               f"oracle raised {exc!r}"]
        if not enc.lo <= vol <= enc.hi:
            problems.append(f"{out.slope}: volume {vol!r} outside "
                            f"[{enc.lo!r}, {enc.hi!r}]")
        cusped = self.complete().volume_enclosure
        if not enc.hi < cusped.lo:
            problems.append(f"{out.slope}: enclosure [{enc.lo!r}, {enc.hi!r}] "
                            f"not below the cusped {cusped.lo!r} (Thurston)")
        return problems

    def check_reference(self):
        """The cusped B must certify, near its header volume."""
        try:
            enc = self.complete().volume_enclosure
        except Exception as exc:
            return [f"complete B does not certify: {exc!r}"]
        mid = (enc.lo + enc.hi) / 2
        if abs(mid - self.base.volume_hint) > HEADER_VOLUME_TOL:
            return [f"complete B volume {mid!r} vs header "
                    f"{self.base.volume_hint!r}"]
        return []

    def note(self, out):
        if self.positive(out):
            return out.slope, "certified"
        if self.uncertified(out):
            return out.slope, f"uncertified at {out.result.stage}"
        return out.slope, "error"

    def summary(self, notes):
        verdicts = {}
        for _, v in notes:
            verdicts[v] = verdicts.get(v, 0) + 1
        changed = sorted({s for s, v in notes
                          if (v == "certified") == (s in SEED_UNCERTIFIED)})
        return {"verdicts": verdicts,
                "certified_share": verdicts.get("certified", 0) / len(notes),
                "verdicts_changed_since_seed": [list(s) for s in changed]}


# ------------------------------------------------------------------ solve

PERTURBATION = 1e-2
RECOVERY_TOL = 1e-9
SOLVE_TOL = 1e-12


class SolvePerturbed:
    """Newton on A then B from hints moved by a seeded 1e-2 offset."""

    name = "solve-perturbed"
    child_process = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        from bandforge import dilog, fixtures, gluing
        self.G, self.D = gluing, dilog
        self.cases = []
        for label in "AB":
            tri = fixtures.load_fixture(label)
            self.cases.append((label, tri, gluing.build_equations(tri),
                               [t.shape_hint for t in tri.tets]))

    def prepare(self, i):
        rng = _rng(self.seed, i)
        return [[h + PERTURBATION * cmath.exp(2j * math.pi * rng.random())
                 for h in hints] for _, _, _, hints in self.cases]

    def warmup_input(self):
        return self.prepare(-1)

    def op(self, starts, tracer=None):
        results = []
        for (_, _, system, _), start in zip(self.cases, starts):
            try:
                results.append(self.G.newton_solve(system, start,
                                                   tol=SOLVE_TOL))
            except Exception as exc:
                results.append(exc)
        return results

    def positive(self, results):
        return not any(isinstance(r, BaseException) for r in results)

    def check(self, results):
        problems = []
        for (label, tri, system, hints), res in zip(self.cases, results):
            if isinstance(res, BaseException):
                problems.append(f"{label}: newton_solve raised {res!r}")
                continue
            shapes = res.shapes
            drift = max(abs(z - h) for z, h in zip(shapes, hints))
            if drift > RECOVERY_TOL:
                problems.append(f"{label}: shapes {drift:.3e} from the hints")
            worst = max(abs(_row_defect(row, shapes)) for row in system.rows)
            if worst >= SOLVE_TOL:
                problems.append(f"{label}: full residual {worst:.3e}")
            vol = self.D.volume(shapes)
            if abs(vol - tri.volume_hint) > HEADER_VOLUME_TOL:
                problems.append(f"{label}: volume {vol!r} vs header "
                                f"{tri.volume_hint!r}")
        return problems

    def check_reference(self):
        return []

    def note(self, results):
        return None

    def summary(self, notes):
        return {}


def _row_defect(row, shapes):
    """sum A log z + sum B log(1 - z) + (k - c) i pi, recomputed here."""
    acc = complex(0.0, (row.k - row.c) * math.pi)
    for a, b, z in zip(row.A, row.B, shapes):
        if a:
            acc += a * cmath.log(z)
        if b:
            acc += b * cmath.log(1 - z)
    return acc


# ------------------------------------------------------------------ cli

# One cycle of 20 processes: 12 integer (I), 4 `tri volume` (V), 2 `tri
# parse` (P), 2 malformed (M).  Any split of the classes into a fast and
# a slow group puts the boundary at a multiple of 0.1 among 0.1 .. 0.4
# or 0.6 .. 0.8 with the volume class slowest, never at 0.5 or 0.9.
CLI_CYCLE = "IVIIPIIVIMIIVIPIIVIM"
INTEGER_COMMANDS = ("eval", "expand", "signature", "unlink1", "cosmetic",
                    "fourmove", "distance", "lens-equal", "dbc", "matignon",
                    "signature", "lens-equal")


@dataclasses.dataclass
class CliInput:
    argv: list
    check: object             # f(code, report, stderr) -> list of problems
    stdin: str = ""


@dataclasses.dataclass
class CliOutcome:
    inp: CliInput
    code: int
    stdout: str
    stderr: str
    spans: dict = None


class CliCold:
    """One fresh `python -m bandforge.cli ...` process per op."""

    name = "cli-cold"
    child_process = True

    def __init__(self, seed):
        self.seed = seed
        self.texts = {k: p.read_text() for k, p in FIXTURE_FILES.items()}
        self.headers = {k: oracles.tri_header(t) for k, t in self.texts.items()}

    def setup(self):
        pass

    def prepare(self, i):
        rng = _rng(self.seed, i)
        slot = CLI_CYCLE[i % len(CLI_CYCLE)]
        if slot == "I":
            k = CLI_CYCLE[:i % len(CLI_CYCLE)].count("I")
            return _INTEGER[INTEGER_COMMANDS[k]](rng)
        label = rng.choice("AB")
        if slot == "P":
            return CliInput(["tri", "parse", "--fixture", label],
                            self._check_parse(label))
        if slot == "V":
            return CliInput(["tri", "volume", "--fixture", label],
                            self._check_volume(label))
        return self._malformed(rng, label)

    def warmup_input(self):
        return self.prepare(0)

    def op(self, inp, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "bandforge.cli", *inp.argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   *inp.argv]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, input=inp.stdin, text=True,
                              capture_output=True)
        out = CliOutcome(inp, proc.returncode, proc.stdout, proc.stderr)
        if tracer is not None:
            head, sep, tail = out.stderr.rpartition(SPAN_MARKER)
            if sep:
                out.stderr = head
                out.spans = json.loads(tail)
                out.spans["spawn"] = start
        return out

    def positive(self, out):
        return out.code == 0

    def check(self, out):
        report = None
        if out.stdout.strip():
            try:
                report = json.loads(out.stdout)
            except ValueError:
                return [f"{out.inp.argv}: stdout is not a JSON report"]
        if report is not None:
            failed = [a["name"] for a in report.get("assertions", ())
                      if not a["pass"]]
            if failed:
                return [f"{out.inp.argv}: failed assertions {failed}"]
        try:
            problems = out.inp.check(out.code, report, out.stderr)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        return [f"{out.inp.argv}: {p}" for p in problems]

    def check_reference(self):
        return []

    def note(self, out):
        return out.code

    def summary(self, notes):
        return {"exit_codes": sorted(set(notes))}

    def inprocess(self, inp):
        """Run the op's command inside this process (counting pass)."""
        import bandforge.cli
        stdin, sys.stdin = sys.stdin, io.StringIO(inp.stdin)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    return bandforge.cli.main(inp.argv)
                except SystemExit as exc:
                    return exc.code
        finally:
            sys.stdin = stdin

    # -------------------------------------------------- tri classes
    def _check_parse(self, label):
        header = self.headers[label]

        def check(code, report, stderr):
            if code != 0:
                return [f"exit {code}"]
            res = report["results"]
            got = (res["name"], res["tet_count"], res["cusp_count"],
                   res["fillings"])
            want = (header["name"], header["tet_count"],
                    len(header["fillings"]), header["fillings"])
            return [] if got == want else [f"parsed {got}, file says {want}"]
        return check

    def _check_volume(self, label):
        header = self.headers[label]

        def check(code, report, stderr):
            if code != 0:
                return [f"exit {code}"]
            res = report["results"]
            problems = []
            if abs(res["volume"] - header["volume"]) > HEADER_VOLUME_TOL:
                problems.append(f"volume {res['volume']} vs header "
                                f"{header['volume']}")
            if not res["residual_max_at_hints"] < 1e-8:
                problems.append(f"residual {res['residual_max_at_hints']}")
            return problems
        return check

    def _malformed(self, rng, label):
        """Corrupt one token, or cut the file, inside the tetrahedron block."""
        lines = self.texts[label].splitlines()
        first = lines.index(str(self.headers[label]["tet_count"])) + 1
        body = [n for n in range(first, len(lines) - 1) if lines[n].split()]
        n = rng.choice(body)                     # 0-based line index
        if rng.random() < 0.5:
            tokens = lines[n].split()
            j = rng.randrange(len(tokens))
            tokens[j] = "x" + tokens[j]
            lines[n] = " ".join(tokens)
            text, line = "\n".join(lines) + "\n", n + 1
        else:
            text, line = "\n".join(lines[:n + 1]) + "\n", n + 1

        def check(code, report, stderr):
            if code != 2:
                return [f"malformed input exited {code}, expected 2"]
            if f"line {line}:" not in stderr:
                return [f"diagnostic lacks 'line {line}:': {stderr.strip()!r}"]
            return []
        return CliInput(["tri", "parse"], check, stdin=text)


def _pair(rng, lo, hi, odd=False):
    while True:
        p = rng.randint(lo, hi)
        if odd and p % 2 == 0:
            continue
        q = rng.randint(1, p - 1)
        if gcd(p, q) == 1:
            return p, q


def _expect(code, want, got):
    """Problems when the exit code is nonzero or fields differ."""
    if code != 0:
        return [f"exit {code}"]
    return [f"{k}: got {got[k]!r}, want {v!r}" for k, v in want.items()
            if got.get(k) != v]


def _cmd_eval(rng):
    entries = [rng.randint(1, 6)] + [rng.choice([-1, 1]) * rng.randint(1, 6)
                                     for _ in range(rng.randint(0, 4))]
    p, q = oracles.conway_value(entries)
    tb = oracles.schubert(p, q)
    want = {"fraction": f"{p}/{q}",
            "schubert": None if tb is None else "S(%d,%d)" % tb}
    return CliInput(["twobridge", "eval", ",".join(map(str, entries))],
                    lambda c, r, e: _expect(c, want, r["results"]))


def _cmd_expand(rng):
    p, q = _pair(rng, 2, 300)

    def check(code, report, stderr):
        if code != 0:
            return [f"exit {code}"]
        cf = report["results"]["conway"]
        if 0 in cf or oracles.conway_value(cf) != (p, q):
            return [f"{cf} does not evaluate to {p}/{q}"]
        return []
    return CliInput(["twobridge", "expand", f"{p}/{q}"], check)


def _cmd_signature(rng):
    p, q = _pair(rng, 3, 151, odd=True)
    want = {"input": f"S({p},{q})",
            "signature": oracles.murasugi_signature(p, q)}
    return CliInput(["twobridge", "signature", f"{p}/{q}"],
                    lambda c, r, e: _expect(c, want, r["results"]))


def _cmd_unlink1(rng):
    n = rng.randint(2, 8)
    m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1])
    p = 2 * n * n
    q = (2 * n * m + rng.choice([-1, 1])) % p
    if rng.random() < 0.5:
        q = pow(q, -1, p)                    # the same link, other name

    def check(code, report, stderr):
        if code != 0:
            return [f"exit {code}"]
        w = report["results"]["witness"]
        if not report["results"]["unlinking_number_one"] or w is None:
            return [f"S({p},{q}) = S({p},{2 * n * m}+-1) has no witness"]
        wn, wm = w
        ok = (2 * wn * wn == p and gcd(wn, wm) == 1 and any(
            oracles.same_two_bridge(p, q, 2 * wn * wm + s) for s in (1, -1)))
        return [] if ok else [f"witness {w} is wrong for S({p},{q})"]
    return CliInput(["twobridge", "unlink1", f"{p}/{q}"], check)


def _cmd_cosmetic(rng):
    half = [rng.randint(1, 4)] + [rng.choice([-1, 1]) * rng.randint(1, 4)
                                  for _ in range(rng.randint(0, 3))]
    half = half[:rng.randint(0, len(half))]
    form = half + [rng.choice([-2, 2])] + [-a for a in reversed(half)]
    mid = len(half)
    partner = form[:mid] + [-form[mid]] + form[mid + 1:]
    p, q = oracles.conway_value(form)
    p2, q2 = oracles.conway_value(partner)

    def check(code, report, stderr):
        if code != 0:
            return [f"exit {code}"]
        res = report["results"]
        if res["partner"] != partner or res["chirally_cosmetic"] is not True:
            return [f"partner {res['partner']} / {res['chirally_cosmetic']}, "
                    f"want {partner} / True"]
        if p == 0 or p2 == 0:                # the two-component unlink
            return [] if p == p2 == 0 else [f"{p}/{q} vs {p2}/{q2}"]
        a, b = oracles.schubert(p, q), oracles.schubert(p2, q2)
        if a and b and not (a[0] == b[0] and oracles.same_two_bridge(
                a[0], a[0] - a[1], b[1])):
            return [f"S{b} is not the mirror of S{a}"]
        return []
    return CliInput(["twobridge", "cosmetic", ",".join(map(str, form))], check)


def _cmd_fourmove(rng):
    (p, q), (p2, q2) = _pair(rng, 3, 99, True), _pair(rng, 3, 99, True)
    s, s2 = oracles.murasugi_signature(p, q), oracles.murasugi_signature(p2, q2)
    want = {"signature_left": s, "signature_right": s2,
            "signature_gap": abs(s - s2),
            "four_move_obstructed": abs(s - s2) > 4}
    return CliInput(["twobridge", "fourmove", f"{p}/{q}", f"{p2}/{q2}"],
                    lambda c, r, e: _expect(c, want, r["results"]))


def _slope(rng):
    while True:
        p, q = rng.randint(0, 20), rng.randint(-20, 20)
        if gcd(p, abs(q)) == 1 and not (p == 0 and q < 0):
            return p, q


def _cmd_distance(rng):
    (p, q), (r, s) = _slope(rng), _slope(rng)
    want = {"distance": abs(p * s - r * q)}
    return CliInput(["surgery", "distance", f"{p}/{q}", f"{r}/{s}"],
                    lambda c, rep, e: _expect(c, want, rep["results"]))


def _cmd_lens_equal(rng):
    p, q = _pair(rng, 3, 100)
    inv = pow(q, -1, p)
    q2 = rng.choice([q, inv, -q % p, -inv % p, _pair(rng, p, p)[1]])
    unoriented = rng.random() < 0.5
    want = {"equivalent": oracles.lens_equal(p, q, q2, not unoriented)}
    return CliInput(["surgery", "lens-equal", f"{p}/{q}", f"{p}/{q2}"]
                    + (["--unoriented"] if unoriented else []),
                    lambda c, r, e: _expect(c, want, r["results"]))


def _cmd_dbc(rng):
    p, q = _pair(rng, 2, 200)
    shown = q - p if rng.random() < 0.5 else q    # negative q normalizes too
    want = {"link": f"S({p},{q})", "double_branched_cover": f"L({p},{q})"}
    return CliInput(["surgery", "dbc", f"{p}/{shown}"],
                    lambda c, r, e: _expect(c, want, r["results"]))


def _cmd_matignon(rng):
    m = rng.randint(2, 12)
    n = rng.choice([n for n in range(1, m // 2 + 1) if gcd(m, n) == 1])
    p, q = 2 * m * m, (2 * m * n - 1) % (2 * m * m)
    want = {"lens_space": f"L({p},{q})", "link": f"S({p},{q})"}
    return CliInput(["surgery", "matignon", str(m), str(n)],
                    lambda c, r, e: _expect(c, want, r["results"]))


_INTEGER = {"eval": _cmd_eval, "expand": _cmd_expand,
            "signature": _cmd_signature, "unlink1": _cmd_unlink1,
            "cosmetic": _cmd_cosmetic, "fourmove": _cmd_fourmove,
            "distance": _cmd_distance, "lens-equal": _cmd_lens_equal,
            "dbc": _cmd_dbc, "matignon": _cmd_matignon}

WORKLOADS = {w.name: w for w in (FillingSweep, SolvePerturbed, CliCold)}
