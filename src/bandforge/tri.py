"""Reader and writer for the plain-text ideal triangulation format.

The format is ASCII, whitespace-tokenized, with a fixed field order:

    name
    solution_type  volume_hint
    oriented_manifold
    CS_known cs_value  |  CS_unknown
    cusp_count 0
    one line per cusp:  torus  filling_m  filling_l
    tet_count
    per tetrahedron: 4 neighbor indices, 4 gluing permutations as digit
    strings, 4 vertex cusp indices, 4 rows of 16 peripheral-curve
    integers (meridian sheets 0/1, longitude sheets 0/1; columns
    vertex*4 + face), and the shape hint as two reals.

Exactly 4 + 4 + 4 + 64 + 2 tokens per tetrahedron, read as one record:
one slice of the tokens, its 72 integers read from a table of -99..99
(`int` converts a record with a token outside it), and the record's
checks at once.  Parsing is strict: a number holds no `_`
(which `int` and `float` would take as a digit separator), and every
token diagnostic carries the offending line number, worked out only when
the error is raised (a failed record is walked token by token to find
its first error); `validate`'s name the cusp or tetrahedron instead.
Serialization writes each tetrahedron with one template in SnapPea's
field widths, its gluings and peripheral entries read from tables of
their written cells (formatted when outside them), and reproduces the
token stream exactly (token-level, not byte-level, round-trip identity).

The reader refuses, on its line, an orientability, CS flag, second count
or cusp topology other than those above, and a nonzero sheet-1 entry;
the writer writes those constants.  So a `Triangulation` holds only what
a file varies: a CS value of None for `CS_unknown`, and per tetrahedron
the sheet-0 meridian and longitude.  `validate` holds
every other rule, and constructing a `Triangulation` runs it, so none
breaks a rule and no later stage checks one again.  Each field has its
type (str, float, complex, int; containers are tuples); a filling of
(0, 0) means the cusp is complete, anything else must be an exactly
integral coprime pair below 2^53 in modulus (the format stores a real);
the volume hint, and the CS value when there is one, must be finite; a
shape hint of 0, 1 or a non-finite value is degenerate, a negatively
oriented one legal; each cusp's curves are closed, matched and a basis.

A `Tetrahedron` finds its own faults once, when built (`_faults`: its
containers, counts, int entries and complex hint), and copies keep them;
any are the only tetrahedron diagnostics.  Without them every tetrahedron
holds only ints and a complex, so `(tets, cusp_count)` is a type-exact
key, on which `_verdict` memoizes every other rule on the tetrahedra,
the degenerate shape hint among them, the FRAMES (8) most recent kept.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
from dataclasses import dataclass, field
from math import gcd, isfinite

from . import CertifyError, SolveError

__all__ = [
    "TriParseError", "SolveError", "CertifyError", "CuspInfo", "Tetrahedron",
    "Triangulation", "parse_triangulation", "serialize_triangulation",
    "validate", "combinatorial_isomorphic",
]


class TriParseError(ValueError):
    """Malformed text (.line: its 1-based line) or a broken rule (.line None)."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CuspInfo:
    """A torus cusp: complete at (0, 0), else filled along (m, l)."""
    filling_m: float
    filling_l: float

    def is_complete(self) -> bool:
        return self.filling_m == 0.0 and self.filling_l == 0.0

    def filling_ints(self) -> tuple:
        return (int(round(self.filling_m)), int(round(self.filling_l)))


@dataclass(frozen=True)
class Tetrahedron:
    neighbors: tuple       # 4 tet indices
    gluings: tuple         # 4 permutations of {0,1,2,3} as 4-tuples
    vertex_cusp: tuple     # 4 cusp indices
    peripheral: tuple      # sheet-0 meridian and longitude: 2 rows x 16 ints
    shape_hint: complex
    faults: tuple = field(init=False, repr=False, compare=False)  # _faults

    def __post_init__(self):
        object.__setattr__(self, "faults", _faults(self))


@dataclass(frozen=True)
class Triangulation:
    name: str
    solution_type: str
    volume_hint: float
    cs_value: float | None     # None for CS_unknown
    cusps: tuple
    tets: tuple
    tet_count = property(lambda self: len(self.tets))
    cusp_count = property(lambda self: len(self.cusps))

    def __post_init__(self):
        if problems := validate(self):
            raise TriParseError("; ".join(problems))


class _TokenReader:
    def __init__(self, text):
        self.text, self.tokens, self.pos = text, text.split(), 0

    def line(self, index):
        """The 1-based line of token index, worked out only for an error;
        a line ends at each `\\n`, as in `sed` and editors."""
        for lineno, line in enumerate(self.text.split("\n"), start=1):
            index -= len(line.split())
            if index < 0:
                return lineno

    @property
    def last_line(self):
        return self.line(self.pos - 1)

    def next(self, what):
        if self.pos >= len(self.tokens):
            raise TriParseError(f"unexpected end of input while reading {what}",
                                self.line(len(self.tokens) - 1))
        self.pos += 1
        return self.tokens[self.pos - 1]

    def next_number(self, what, kind=int):
        tok = self.next(what)
        try:
            if "_" not in tok:  # int and float take PEP 515 separators
                return kind(tok)
        except ValueError:
            pass
        name = "integer" if kind is int else "real"
        raise TriParseError(f"expected {name} for {what}, got {tok!r}",
                            self.last_line)

    def next_tet(self, t, tet_count):
        """Tetrahedron t, read as one record of 78 tokens.

        A record that fails is walked token by token, only to raise its
        first error with its line; that walk never returns a tetrahedron.
        """
        rec = self.tokens[self.pos:self.pos + 78]
        if len(rec) == 78 and "_" not in "".join(rec):
            nums = rec[:4] + rec[8:76]
            try:
                try:
                    ints = tuple(map(_SMALL.__getitem__, nums))
                except KeyError:        # a token outside the table
                    ints = tuple(map(int, nums))
                hint = complex(float(rec[76]), float(rec[77]))
            except ValueError:
                ints = ()
            glu = tuple(map(_PERMUTATION.get, rec[4:8]))
            nbr = ints[:4]
            if (ints and None not in glu and 0 <= min(nbr) and max(nbr) < tet_count
                    and not any(ints[24:40] + ints[56:72])    # sheet 1
                    and hint not in (0, 1) and cmath.isfinite(hint)):
                self.pos += 78
                return Tetrahedron(nbr, glu, ints[4:8], (ints[8:24], ints[40:56]), hint)
        for f in range(4):
            v = self.next_number(f"tet {t} neighbor {f}")
            if not 0 <= v < tet_count:
                raise TriParseError(
                    f"tet {t} face {f}: neighbor index {v} out of range "
                    f"[0, {tet_count})", self.last_line)
        for f in range(4):
            tok = self.next(f"tet {t} gluing {f}")
            if tok not in _PERMUTATION:
                raise TriParseError(f"malformed gluing permutation {tok!r}",
                                    self.last_line)
        for v in range(4):
            self.next_number(f"tet {t} vertex {v} cusp")
        for r in range(64):
            if self.next_number(f"tet {t} peripheral row {r // 16}") and r // 16 % 2:
                raise TriParseError(f"tet {t}: peripheral sheet row {r // 16} is "
                                    "nonzero (unexpected for an oriented manifold)",
                                    self.last_line)
        hint = complex(self.next_number(f"tet {t} shape re", float),
                       self.next_number(f"tet {t} shape im", float))
        # every other way the record can fail raised above
        raise TriParseError(f"tet {t}: shape hint {hint} is degenerate "
                            "(0, 1 or not finite)", self.last_line)


def parse_triangulation(text: str) -> Triangulation:
    """Parse and validate; raises TriParseError with line context on failure."""
    if not text.isascii():      # the format is ASCII, whatever the source
        at, char = next((i, c) for i, c in enumerate(text) if not c.isascii())
        raise TriParseError(f"non-ASCII character {char!r}",
                            text.count("\n", 0, at) + 1)
    rd = _TokenReader(text)
    if not rd.tokens:
        raise TriParseError("missing header")
    name = rd.next("name")
    solution_type = rd.next("solution type")
    volume_hint = rd.next_number("volume hint", float)
    orientability = rd.next("orientability")
    if orientability != "oriented_manifold":
        raise TriParseError(
            f"unsupported orientability {orientability!r} "
            "(only oriented_manifold is accepted)", rd.last_line)
    cs_flag = rd.next("CS flag")
    if cs_flag not in ("CS_known", "CS_unknown"):
        raise TriParseError(f"unrecognized CS flag {cs_flag!r}", rd.last_line)
    cs_value = rd.next_number("CS value", float) if cs_flag == "CS_known" else None
    cusp_count = rd.next_number("cusp count")
    if cusp_count < 1:
        raise TriParseError("cusp count must be positive", rd.last_line)
    second = rd.next_number("second cusp count")
    if second:
        raise TriParseError(f"second header count {second} is nonzero "
                            "(uninterpreted; only 0 is supported)", rd.last_line)

    cusps = []
    for c in range(cusp_count):
        topology = rd.next(f"cusp {c} topology")
        if topology != "torus":
            raise TriParseError(f"cusp {c}: topology {topology!r} is not supported "
                                "(only torus cusps are)", rd.last_line)
        m = rd.next_number(f"cusp {c} filling m", float)
        l = rd.next_number(f"cusp {c} filling l", float)
        cusps.append(CuspInfo(m + 0.0, l + 0.0))  # normalize -0.0

    tet_count = rd.next_number("tetrahedron count")
    if tet_count < 1:
        raise TriParseError("tetrahedron count must be positive", rd.last_line)
    tets = tuple(rd.next_tet(t, tet_count) for t in range(tet_count))
    if rd.pos != len(rd.tokens):
        raise TriParseError(
            f"trailing tokens after tetrahedron {tet_count - 1} "
            f"({len(rd.tokens) - rd.pos} extra)", rd.line(rd.pos))
    return Triangulation(name, solution_type, volume_hint, cs_value, tuple(cusps), tets)


def validate(tri: Triangulation) -> list:
    """The diagnostics of every rule, empty when clean; construction runs it."""
    cusps, tets = tri.cusps, tri.tets
    if type(cusps) is not tuple or type(tets) is not tuple:
        return ["cusps and tets must be tuples"]
    # a header field, cusp or tetrahedron of the wrong type gets no other check
    typed = [("name", tri.name, str), ("solution type", tri.solution_type, str),
             ("volume hint", tri.volume_hint, float),
             ("CS value", tri.cs_value, type(None) if tri.cs_value is None else float),
             *((f"cusp {c}", x, CuspInfo) for c, x in enumerate(cusps)),
             *((f"tet {t}", x, Tetrahedron) for t, x in enumerate(tets))]
    if out := [f"{what} is {x!r}, not a {kind.__name__}" for what, x, kind in typed
               if type(x) is not kind]:
        return out
    for what, token in (("name", tri.name), ("solution type", tri.solution_type)):
        if token.split() != [token]:
            out.append(f"{what} {token!r} is not one token free of whitespace")
        elif not token.isascii():       # the writer's text must parse
            out.append(f"{what} {token!r} is not ASCII")
    for what, value in (("volume hint", tri.volume_hint), ("CS value", tri.cs_value)):
        if value is not None and not isfinite(value):
            out.append(f"{what} {value} is not finite")
    if not (tets and cusps):
        out.append("a triangulation needs a tetrahedron and a cusp")
    for c, cusp in enumerate(cusps):
        m, l = cusp.filling_m, cusp.filling_l
        if {type(m), type(l)} != {float}:
            out.append(f"cusp {c}: filling ({m!r}, {l!r}) is not two floats")
        elif cusp.is_complete():
            continue
        elif not (isfinite(m) and isfinite(l)) or m != round(m) or l != round(l):
            out.append(f"cusp {c}: filling ({m}, {l}) is not integral")
        elif max(abs(m), abs(l)) >= 2 ** 53:
            out.append(f"cusp {c}: filling ({m}, {l}) is not exactly "
                       "representable (|m| and |l| must be below 2^53)")
        elif gcd(*map(abs, cusp.filling_ints())) != 1:
            out.append(f"cusp {c}: filling {cusp.filling_ints()} is not coprime")
    # a tetrahedron's own faults are the only tetrahedron diagnostics; with
    # none, every tetrahedron holds only ints and a complex: a type-exact key
    if faults := [f"tet {t}: {fault}" for t, tet in enumerate(tets)
                  for fault in tet.faults]:
        return out + faults
    problems, curves = _verdict(tets, len(cusps))
    return out + [*problems] or [*curves]


FRAMES = 8      # per-triangulation results kept, most recently used first

# the tetrahedron verdict of the FRAMES most recent (tets, cusp_count);
# `_tet_problems` is looked up on each miss, so a wrapper on it sees misses only
_verdict = functools.lru_cache(FRAMES)(lambda tets, c: _tet_problems(tets, c))


def _faults(tet):
    """A tetrahedron's own faults, found once, when it is built: a field,
    gluing or peripheral row not a tuple, the wrong counts, or entries that
    are not ints, each of which leaves no other rule on it to check; and a
    shape hint not a complex."""
    fields = (tet.neighbors, tet.gluings, tet.vertex_cusp, tet.peripheral)
    out = []
    if {*map(type, fields)} != {tuple} or not {
            *map(type, (*tet.gluings, *tet.peripheral))} <= {tuple}:
        out.append("a field, gluing or peripheral row is not a tuple")
    elif (rows := tuple(map(len, tet.peripheral))) != (16, 16) or {
            *map(len, fields[:3])} != {4}:
        out.append(f"{len(tet.neighbors)} neighbors, {len(tet.gluings)} gluings, "
                   f"{len(tet.vertex_cusp)} vertex cusps and peripheral rows of "
                   f"{rows} entries; expected 4, 4, 4 and 2 rows of 16")
    elif {*map(type, itertools.chain(tet.neighbors, tet.vertex_cusp,
                                     *tet.gluings, *tet.peripheral))} != {int}:
        out += [f"{what} {i} is {x!r}, not an int" for what, xs in (
            ("neighbor", tet.neighbors),
            ("gluing entry", itertools.chain(*tet.gluings)),
            ("vertex cusp", tet.vertex_cusp),
            ("peripheral entry", itertools.chain(*tet.peripheral)))
            for i, x in enumerate(xs) if type(x) is not int]
    if type(tet.shape_hint) is not complex:
        out.append(f"shape hint {tet.shape_hint!r} is not a complex")
    return tuple(out)


def _tet_problems(tets, cusp_count):
    """The diagnostics of each tetrahedron's shape hint, face pairings and
    vertex cusps, in order, and, when there are none, the curves'; no
    tetrahedron has a fault of its own."""
    n, found = len(tets), []
    for t, tet in enumerate(tets):
        if (z := tet.shape_hint) in (0, 1) or not cmath.isfinite(z):
            found.append(f"tet {t}: shape hint {z} is degenerate")
        for f, t2 in enumerate(tet.neighbors):
            if not 0 <= t2 < n:
                found.append(f"tet {t} face {f}: neighbor {t2} out of range")
                continue
            sigma = tet.gluings[f]
            if sigma not in _SIGN:
                found.append(f"tet {t} face {f}: gluing {sigma} is not a permutation")
                continue
            # coherent orientation forces orientation-reversing face maps
            if _SIGN[sigma] != -1:
                found.append(f"tet {t} face {f}: gluing {sigma} is an even "
                             "permutation (orientation not coherent)")
            back, f2 = tets[t2], sigma[f]
            if back.neighbors[f2] != t or back.gluings[f2] != _INVERSE[sigma]:
                found.append(f"tet {t} face {f}: face pairing with tet {t2} "
                             f"face {f2} is not involutive")
            # glued vertices lie on one cusp, checked once per face pair
            if t < t2 or t == t2 and f <= f2:
                found += [f"tet {t} face {f}: vertex {v} on cusp {c} is glued to "
                          f"tet {t2} vertex {sigma[v]} on cusp {back.vertex_cusp[sigma[v]]}"
                          for v, c in enumerate(tet.vertex_cusp)
                          if v != f and c != back.vertex_cusp[sigma[v]]]
        for v, c in enumerate(tet.vertex_cusp):
            if not 0 <= c < cusp_count:
                found.append(f"tet {t} vertex {v}: cusp index {c} out of range "
                             f"[0, {cusp_count})")
    return tuple(found), () if found else tuple(_curve_problems(tets, cusp_count))


def _curve_problems(tets, cusp_count):
    """Each cusp's meridian and longitude are closed (a cusp triangle's 4
    entries sum to 0), matched and a basis: meridian . longitude, half a
    sum over the sides, is +-1 (see README)."""
    if out := [f"cusp {tet.vertex_cusp[v]}: the {name} is not closed in tet {t} "
               f"vertex {v}" for t, tet in enumerate(tets)
               for name, x in zip(("meridian", "longitude"), tet.peripheral)
               for v in range(4) if x[5 * v] or sum(x[4 * v:4 * v + 4])]:
        return out
    twice = [0] * cusp_count
    for t, tet in enumerate(tets):
        (mu, lam), cusp = tet.peripheral, tet.vertex_cusp
        for i, iq, f, sign in itertools.compress(_SIDES, map(operator.or_, mu, lam)):
            a, b, c = mu[i], lam[i], cusp[i // 4]
            moved, u = _MOVED[tet.gluings[f]], tets[tet.neighbors[f]]
            j, (mu2, lam2) = moved[i], u.peripheral
            if mu2[j] != -a or lam2[j] != -b:
                out.append(f"cusp {c}: the curves of tet {t} vertex {i // 4} do "
                           f"not match across face {f}")
            elif a and b:   # meridian strands (sign s) rounding p: n here, n2 glued
                s = 1 if a > 0 else -1
                n = min(s * a, max(0, -s * mu[iq]))
                n2 = min(s * a, max(0, s * mu2[moved[iq]]))
                twice[c] += (n - n2) * s * b * sign
    return out or [f"cusp {c}: meridian . longitude is {k // 2}, not 1 or -1 (the "
                   "curves are not a basis)" for c, k in enumerate(twice) if k * k != 4]


# every permutation of {0, 1, 2, 3}: its sign (-1 for an odd number of
# inversions), its inverse, and the digit string that spells it in the file
_SIGN = {p: (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
         for p in itertools.permutations(range(4))}
_INVERSE = {p: tuple(p.index(i) for i in range(4)) for p in _SIGN}
_PERMUTATION = {"".join(map(str, p)): p for p in _SIGN}
# peripheral entry 4 v + f: its side (4 v + f, 4 v + q, f, the sign of (v, f,
# p, q)) for corners p < q, None at f = v, which a closed curve leaves 0;
# and where each gluing moves the entry
_SIDES = [(4 * v + f, 4 * v + pq[1], f, _SIGN[(v, f, *pq)]) if v != f else None
          for v in range(4) for f in range(4) for pq in [sorted({0, 1, 2, 3} - {v, f})]]
_MOVED = {g: [4 * g[i // 4] + g[i % 4] for i in range(16)] for g in _SIGN}
# -99..99 by its decimal string, and as a written peripheral entry; each
# permutation as a written gluing
_SMALL = {str(i): i for i in range(-99, 100)}
_ENTRY = {i: " %2d" % i for i in _SMALL.values()}
_GLUING = {p: " " + s for s, p in _PERMUTATION.items()}
# one tetrahedron as written, SnapPea's field widths, the gluings and
# sheet-0 entries as cells, sheet 1 as zeros; a space before each entry
# keeps wide ones apart
_TET_FORMAT = "\n".join(["%4d " * 4, "%s" * 4, "%4d " * 4]
                        + ["%s" * 16, _ENTRY[0] * 16] * 2 + ["%16.12f %16.12f\n"])


def serialize_triangulation(tri: Triangulation) -> str:
    """Emit the format; round-trips through parse_triangulation token-exactly."""
    cs = "CS_unknown" if tri.cs_value is None else f"CS_known  {tri.cs_value:.16f}"
    lines = [tri.name, f"{tri.solution_type}  {tri.volume_hint:.8f}",
             "oriented_manifold", cs, "", f"{len(tri.cusps)} 0"]
    lines += [f"    torus {cusp.filling_m:16.12f} {cusp.filling_l:16.12f}"
              for cusp in tri.cusps]
    lines += ["", str(len(tri.tets))]
    return "\n".join(lines) + "\n" + "\n".join(map(_tet_text, tri.tets))


def _tet_text(tet):
    try:
        cells = [*map(_ENTRY.__getitem__, itertools.chain(*tet.peripheral))]
    except KeyError:    # an entry outside the table
        cells = [" %2d" % x for x in itertools.chain(*tet.peripheral)]
    return _TET_FORMAT % (*tet.neighbors, *map(_GLUING.__getitem__, tet.gluings),
                          *tet.vertex_cusp, *cells, tet.shape_hint.real,
                          tet.shape_hint.imag)


def combinatorial_isomorphic(a: Triangulation, b: Triangulation) -> bool:
    """Gluing-preserving bijection test.

    Anchors tetrahedron 0 of a to every (tetrahedron, vertex permutation)
    of b and propagates across faces; succeeds iff some anchor extends to
    a full bijection.
    """
    n = len(a.tets)
    return n == len(b.tets) and any(
        _extends(a, b, t0, sigma0, n)
        for t0 in range(n) for sigma0 in itertools.permutations(range(4)))


def _extends(a, b, t0, sigma0, n):
    mapping = {0: (t0, sigma0)}
    used = {t0: 0}
    stack = [0]
    while stack:
        t = stack.pop()
        bt, sigma = mapping[t]
        for f in range(4):
            t2 = a.tets[t].neighbors[f]
            tau = a.tets[t].gluings[f]
            bt2 = b.tets[bt].neighbors[sigma[f]]
            tau_b = b.tets[bt].gluings[sigma[f]]
            sigma2 = tuple(tau_b[sigma[v]] for v in _INVERSE[tau])
            if t2 in mapping:
                if mapping[t2] != (bt2, sigma2):
                    return False
            elif bt2 in used:
                return False
            else:
                mapping[t2] = (bt2, sigma2)
                used[bt2] = t2
                stack.append(t2)
    return len(mapping) == n
