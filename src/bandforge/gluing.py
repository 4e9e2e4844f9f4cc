"""Edge/cusp gluing equations of an ideal triangulation and their Newton solver.

Shape parameter conventions, for positively oriented tetrahedra:

    z   on the edge pairs (01) and (23)
    z'  = 1/(1 - z)   on (02) and (13)
    z'' = 1 - 1/z     on (03) and (12)

With Im z > 0 the principal logarithms satisfy

    log z'  = -log(1 - z)
    log z'' =  log(1 - z) - log z + i*pi

so every equation row folds into integer vectors A (coefficients of
log z_j), B (coefficients of log(1 - z_j)) and an integer branch offset k
on i*pi, with right-hand side c*i*pi:

    sum_j A_j log z_j + sum_j B_j log(1 - z_j) + k*i*pi = c*i*pi.

Edge rows have c = 2 (total dihedral angle 2*pi); the branch offset k is
the number of z'' incidences of the edge class.  Cusp rows encode the
log-derivative of the peripheral holonomy: c = 0 for a complete cusp
(meridian row) and c = 2 for a filled cusp (the filling curve bounds a
disk, so its holonomy is a full rotation).  Peripheral-curve corner
contributions are assembled with the fixed orientation convention below
(_TURNS, with the log terms taken at sign +1); the convention is pinned
by the requirement that both shipped fixtures have residual < 1e-8 at
their stored shape hints, and is frozen by the test suite.

One walk of the edge ids folds the edge rows; `edge_classes` labels it.
A `GluingSystem` walks its rows once into one flat list [A | B | k - c],
refuses an A or B without `tet_count` entries and an entry floats do not
hold (the 2^53 rule), and the numeric stages read that list as one exact
integer matrix, `GluingSystem.matrix`; `jacobian` is the one Jacobian
builder, Krawczyk's midpoint included.  Newton needs no square
subsystem: Gauss-Newton steps on all rows.  The one row choice is the
proof's: `GluingSystem.kept_rows`, n rows of which every
other row is an exact rational combination, chosen once per system from
the cusp relations (Neumann-Zagier) by exact elimination, independent of
the shapes.  The rows, the 2^53 rule and `residual` are plain Python;
`matrix`, `kept_rows` and `newton_solve` import numpy.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .tri import _SIGN, SolveError, Triangulation

__all__ = [
    "GluingRow", "GluingSystem", "NewtonResult",
    "SolveError", "SingularJacobianError", "DivergenceError",
    "HalfPlaneExitError",
    "edge_classes", "build_equations", "residual", "jacobian", "newton_solve",
    "pivot_columns",
]

# parameter type of an unordered vertex pair: 0 -> z, 1 -> z', 2 -> z''
PAIR_TYPE = {
    (0, 1): 0, (2, 3): 0,
    (0, 2): 1, (1, 3): 1,
    (0, 3): 2, (1, 2): 2,
}

# (A, B, k) of log z, log z' = -log(1 - z) and log z'' = log(1 - z) - log z
# + i pi, indexed by parameter type.  Peripheral rows take these terms with
# sign +1: the opposite sign sends every filled-cusp row to -2*pi*i and
# fails the fixture residual oracle.
_LOG_TERMS = ((1, 0, 0), (0, -1, 0), (-1, 1, 1))

# _TURNS[v]: (a, b, ptype) for each ordered face pair (a, b) around vertex v
# with positive turning: a peripheral strand entering a cusp triangle through
# the side in face a and leaving through face b wraps the corner at the edge
# {v, w}, w = 6 - v - a - b, of parameter type ptype.  For a positively
# oriented tetrahedron the turn is counterclockwise iff (v, w, a, b) is odd.
_TURNS = tuple(tuple((a, b, PAIR_TYPE[tuple(sorted((v, 6 - v - a - b)))])
                     for a in range(4) for b in range(4)
                     if len({v, a, b}) == 3 and _SIGN[v, 6 - v - a - b, a, b] < 0)
               for v in range(4))
# edge j of a tetrahedron is the j-th vertex pair in sorted order; the two
# faces that hold it, its (A, B, k) log terms, and for each gluing the edge
# j goes to
_PAIRS = sorted(PAIR_TYPE)
_FACES = tuple(tuple(f for f in range(4) if f not in e) for e in _PAIRS)
_EDGE_TERMS = tuple(_LOG_TERMS[PAIR_TYPE[e]] for e in _PAIRS)
_EDGE_MOVE = {s: tuple(_PAIRS.index(tuple(sorted((s[a], s[b])))) for a, b in _PAIRS)
              for s in itertools.permutations(range(4))}


class SingularJacobianError(SolveError):
    pass


class DivergenceError(SolveError):
    pass


class HalfPlaneExitError(SolveError):
    pass


@dataclass(frozen=True)
class GluingRow:
    kind: str              # "edge" | "cusp_complete" | "cusp_filled"
    A: tuple               # int coefficients of log z_j
    B: tuple               # int coefficients of log(1 - z_j)
    k: int                 # branch offset on i*pi
    c: int                 # RHS multiplier: RHS = c*i*pi
    cusp: Optional[int] = None
    filling: Optional[tuple] = None


@dataclass(frozen=True)
class GluingSystem:
    """Rows floats hold: an A or B without `tet_count` entries, or an entry
    of [A | B | k - c] whose type is not int (a float, a bool) or of modulus
    2^53 or more, raises ValueError.  Per cusp, `relations` lists the edge
    rows with an end there, once per end; so weighted, a torus cusp's edge
    rows sum to zero (Neumann-Zagier: each cusp triangle adds A = B = 0 and
    k = 1, two triangles per end)."""
    name: str
    tet_count: int
    rows: tuple
    relations: tuple = ()

    def __post_init__(self):
        # one walk into the flat [A | B | k - c], then its set of types and
        # the min and max of its values; walk again only to name a bad row
        n, rows, flat = self.tet_count, self.rows, []
        for r in rows:
            flat += r.A
            flat += r.B
            flat.append(r.k - r.c)
        if all(len(r.A) == n == len(r.B) for r in rows) and {
                *map(type, flat)} <= {int}:
            values = {*flat} or {0}
            if -2 ** 53 < min(values) and max(values) < 2 ** 53:
                object.__setattr__(self, "_flat", flat)
                return
        for i, r in enumerate(rows):
            if len(r.A) != n or len(r.B) != n:
                raise ValueError(f"{r.kind} row {i} has {len(r.A)} A and "
                                 f"{len(r.B)} B entries, not {n} each")
            for x in (*r.A, *r.B, r.k - r.c):
                if type(x) is not int or abs(x) >= 2 ** 53:
                    raise ValueError(f"{r.kind} row {i} has " + (
                        f"the entry {x!r}, which is not an int"
                        if type(x) is not int else "an entry of modulus "
                        "2^53 or more, which floats do not hold"))

    @functools.cached_property
    def matrix(self):
        """[A | B | k - c] as int64, one read-only row per equation row."""
        import numpy as np
        m = np.fromiter(self._flat, np.int64, len(self._flat))
        m = m.reshape(len(self.rows), 2 * self.tet_count + 1)
        m.flags.writeable = False
        return m

    @functools.cached_property
    def kept_rows(self):
        """Rows whose common zeros solve every row, chosen exactly, once.

        With the relations W (W M = 0, checked in int64: M's entries are
        below 2^53 and no cusp lists 2^10 ends), W is eliminated taking the
        rows densest first (most non-zero entries of [A | B], ties by lowest
        index), and each pivot row is dropped.  W on the dropped rows is then
        nonsingular, so each dropped row is an exact rational combination of
        the kept ones.  When that keeps other than n rows, the kept rows are
        the pivot rows of M itself, as many as its rank.
        """
        import numpy as np
        M, R, rels = self.matrix, len(self.rows), self.relations
        if rels and max(map(len, rels)) < 2 ** 10 and all(
                0 <= i < R for rel in rels for i in rel):
            W = np.array([np.bincount(np.asarray(r, np.intp), minlength=R)
                          for r in rels])
            if not (W @ M).any():
                dense = (-np.count_nonzero(M[:, :-1], axis=1)).tolist()
                dropped = set(pivot_columns(W, sorted(range(R), key=dense.__getitem__)))
                if R - len(dropped) == self.tet_count:
                    return tuple(i for i in range(R) if i not in dropped)
        return tuple(pivot_columns(M.T))


def _edge_walk(tets):
    """Per edge class, in increasing order of its least member, the edge ids
    6 t + j of its members (the least first) and its row [A | B | k], folded
    as the walk visits each edge once, from every id not yet seen in
    increasing order; crossing a face is one `_EDGE_MOVE` lookup."""
    n = len(tets)
    seen = [False] * (6 * n)
    for start in range(6 * n):
        if seen[start]:
            continue
        seen[start] = True
        members, row = [start], [0] * (2 * n + 1)
        for i in members:               # members grows as the walk goes
            t, j = divmod(i, 6)
            da, db, dk = _EDGE_TERMS[j]
            row[t] += da
            row[n + t] += db
            row[-1] += dk
            tet = tets[t]
            for f in _FACES[j]:
                k = 6 * tet.neighbors[f] + _EDGE_MOVE[tet.gluings[f]][j]
                if not seen[k]:
                    seen[k] = True
                    members.append(k)
        yield members, row


def edge_classes(tri: Triangulation) -> list:
    """The orbits of the 6T tetrahedron edges under the face gluings, each a
    sorted tuple of (tet, vertex pair, parameter type): the labelled view of
    the walk whose rows `build_equations` keeps, ordered by least member."""
    return [tuple((i // 6, _PAIRS[i % 6], PAIR_TYPE[_PAIRS[i % 6]])
                  for i in sorted(members)) for members, _ in _edge_walk(tri.tets)]


def _fold(n, terms):
    """[A | B | k] of the sum of mult * log(parameter ptype at tet t) over
    the (t, ptype, mult) terms."""
    row = [0] * (2 * n + 1)
    for t, ptype, mult in terms:
        a, b, k = _LOG_TERMS[ptype]
        row[t] += mult * a
        row[n + t] += mult * b
        row[2 * n] += mult * k
    return row


def build_equations(tri: Triangulation) -> GluingSystem:
    """One row per edge class, then one row per cusp (complete or filled).

    A `Triangulation` is valid by construction (`tri.validate`), so nothing
    is checked here.  A row floats cannot hold raises ValueError.
    """
    n = len(tri.tets)
    # (kind, [A | B | k], c, cusp, filling) per row: one per edge class,
    # and the cusps of its ends, read at its least member
    rows, relations = [], [[] for _ in tri.cusps]
    for i, (members, row) in enumerate(_edge_walk(tri.tets)):
        rows.append(("edge", row, 2, None, None))
        t, j = divmod(members[0], 6)
        for v in _PAIRS[j]:
            relations[tri.tets[t].vertex_cusp[v]].append(i)

    # peripheral holonomy terms: terms[cusp][curve] as (t, ptype, mult)
    terms = [([], []) for _ in tri.cusps]
    for t, tet in enumerate(tri.tets):
        for curve, row in enumerate(tet.peripheral):
            for v, turns in enumerate(_TURNS):
                corner = row[4 * v:4 * v + 4]
                for a, b, ptype in turns if any(corner) else ():
                    x, y = corner[a], corner[b]  # net strands from a to b
                    mult = (min(x, -y) if x > 0 > y
                            else -min(-x, y) if y > 0 > x else 0)
                    if mult:
                        terms[tet.vertex_cusp[v]][curve].append((t, ptype, mult))

    for cusp, info in enumerate(tri.cusps):
        mer, lon = (_fold(n, curve) for curve in terms[cusp])
        if info.is_complete():
            rows.append(("cusp_complete", mer, 0, cusp, None))
        else:
            m, l = info.filling_ints()
            rows.append(("cusp_filled", [m * x + l * y for x, y in zip(mer, lon)],
                         2, cusp, (m, l)))
    return GluingSystem(tri.name, n, tuple(
        GluingRow(kind, tuple(r[:n]), tuple(r[n:2 * n]), r[2 * n], c, cusp, filling)
        for kind, r, c, cusp, filling in rows), tuple(map(tuple, relations)))


def _rows_at(M, u, w):
    """sum A u + sum B w + (k - c) i pi for each row of M = [A | B | k - c]."""
    n = M.shape[1] // 2
    return M[:, :n] @ u + M[:, n:2 * n] @ w + 1j * math.pi * M[:, 2 * n]


def residual(sys: GluingSystem, shapes) -> list:
    """Per-row defect |sum A log z + sum B log(1-z) + (k - c) i pi|."""
    z = [complex(v) for v in shapes]
    bad = [j for j, v in enumerate(z) if v in (0, 1)]
    if bad:
        raise ValueError(f"shape {bad[0]} = {z[bad[0]]} is degenerate")
    if len(z) != sys.tet_count:
        raise ValueError(f"expected {sys.tet_count} shapes, got {len(z)}")
    logs = [*map(cmath.log, z), *(cmath.log(1 - v) for v in z)]
    return [abs(sum(a * x for a, x in zip((*r.A, *r.B), logs) if a)
                + 1j * math.pi * (r.k - r.c)) for r in sys.rows]


def pivot_columns(M, order=None) -> list:
    """The pivot columns of an exact elimination of the integer matrix M,
    taking its columns in `order` (default left to right); their count is
    the rank of M.  The transpose gives pivot rows.

    Fraction-free elimination over Python ints, so no product overflows:
    a row with entry a != 0 under the pivot p becomes p row - a pivot row,
    over its content; other rows are skipped.  A primitive row is the
    Bareiss row up to a factor, so entries stay bounded by minors of M.
    """
    order = range(M.shape[1]) if order is None else order
    m, found = [[row[c] for c in order] for row in M.tolist()], []
    for col in range(len(order)):
        rank = len(found)
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank][col:]
        for r in m[rank + 1:]:
            a = r[col]
            if a:
                row = [top[0] * x - a * y for x, y in zip(r[col:], top)]
                g = math.gcd(*row)
                r[col:] = [x // g for x in row] if g > 1 else row
        found.append(order[col])
    return found


def jacobian(M, dlog_z, dlog_w):
    """A dlog_z + B dlog_w, column by column, for the rows M = [A | B | k - c].

    dlog_z and dlog_w are the derivatives of log z_j and log(1 - z_j) in
    the chosen coordinate: (1, -z / (1 - z)) in u = log z, (1 / z,
    -1 / (1 - z)) in the shapes themselves.
    """
    n = M.shape[1] // 2
    return M[:, :n] * dlog_z + M[:, n:2 * n] * dlog_w


@dataclass(frozen=True)
class NewtonResult:
    shapes: tuple          # solved shape parameters, one per tetrahedron
    iterations: int
    residual_max: float    # over all rows


def newton_solve(sys: GluingSystem, initial, tol: float = 1e-12,
                 max_iter: int = 50) -> NewtonResult:
    """Gauss-Newton iteration in log-shape coordinates on all rows.

    Iterates u_j = log z_j, requiring Im u_j in (0, pi), i.e. shapes stay
    in the upper half-plane; the branch offsets recorded in the rows are
    constant along such a path.  Each step is the least-squares solution
    of the full Jacobian system, and the iteration stops when every row's
    residual is below tol.  A system whose rows have exact rank above n
    (`GluingSystem.kept_rows`) has no common zero and is refused first.
    """
    if not (0 < tol < math.inf and max_iter >= 0):  # also rejects NaN
        raise ValueError(f"need 0 < tol < inf and max_iter >= 0, got tol={tol}, "
                         f"max_iter={max_iter}")
    import numpy as np
    n = sys.tet_count
    z0 = np.asarray(initial, dtype=complex)
    if len(z0) != n:
        raise ValueError(f"expected {n} shapes, got {len(z0)}")
    if np.any(z0.imag <= 0):
        raise HalfPlaneExitError("initial shapes must have Im z > 0")
    if len(sys.kept_rows) > n:
        raise DivergenceError(f"rows [A | B | k - c] have rank {len(sys.kept_rows)} "
                              f"> {n}: inconsistent rows")
    M = sys.matrix.astype(float)

    u = np.log(z0)
    # the checks below turn every non-finite value into a typed error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(max_iter + 1):
            z = np.exp(u)
            f = _rows_at(M, u, np.log(1 - z))
            res = float(np.max(np.abs(f)))
            if not np.isfinite(res):
                raise DivergenceError("iteration produced a non-finite residual")
            if res < tol:
                return NewtonResult(tuple(complex(v) for v in z), iterations, res)
            if iterations >= max_iter:
                break
            jac = jacobian(M, 1.0, -z / (1 - z))
            if not np.isfinite(jac).all():      # least squares would not return
                raise DivergenceError(f"iterate {iterations} has a non-finite Jacobian")
            step, _, rank, _ = np.linalg.lstsq(jac, f, rcond=None)
            if rank < n:
                raise SingularJacobianError(f"Jacobian rank {rank} < {n}")
            u = u - step
            if np.any(u.imag <= 0) or np.any(u.imag >= math.pi):
                raise HalfPlaneExitError(
                    f"iterate {iterations + 1} left the upper half-plane")
    raise DivergenceError(f"no convergence to {tol:g} in {max_iter} iterations")
