"""Edge classes, gluing rows, the residual oracle, and Newton solving."""

import cmath
import dataclasses
import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from bandforge import gluing, tri as tri_module
from bandforge.gluing import (DivergenceError, GluingRow, GluingSystem,
                              HalfPlaneExitError, SingularJacobianError,
                              build_equations, edge_classes, newton_solve,
                              pivot_columns, residual, _rows_at)
from bandforge.tri import parse_triangulation, serialize_triangulation
from conftest import filled, forget_frames

# the 128 primitive slopes of B's complete cusp 6: m ascending, then l
B_SLOPES = [(m, l) for m in range(-10, 11) for l in range(11)
            if math.gcd(abs(m), l) == 1 and (l > 0 or (m, l) == (1, 0))]


# ------------------------------------------------------------ structure

def test_edge_class_count_matches_tet_count(tri_a, tri_b):
    # an ideal triangulation of a cusped 3-manifold has #edges = #tets
    assert len(edge_classes(tri_a)) == 12
    assert len(edge_classes(tri_b)) == 26


def test_edge_orbits_partition_corner_pairs(tri_a):
    total = sum(map(len, edge_classes(tri_a)))
    assert total == 6 * tri_a.tet_count


# SHA-256 of the edge orbits and rows of A and B, then the rows of B's 128
# fillings: any change to an orbit, a row or their order moves it
ROW_DIGEST = "be48f78cf1435b3411351b28d9b8fee3da32a3f26af2d58ef876f9706c3fe6fb"


def test_rows_match_the_pinned_digest(tri_a, tri_b):
    digest = hashlib.sha256()
    for tri in (tri_a, tri_b):
        digest.update(repr(edge_classes(tri)).encode())
        digest.update(repr(build_equations(tri).rows).encode())
    for m, l in B_SLOPES:
        digest.update(repr(build_equations(filled(tri_b, 6, m, l)).rows).encode())
    assert digest.hexdigest() == ROW_DIGEST


def test_matrix_is_the_read_only_rows(tri_a, tri_b):
    # built from the rows the construction checks, on A, B and every
    # filling of B's cusp 6, it is the rows, row for row
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        sys_ = build_equations(tri)
        M = sys_.matrix
        assert M is sys_.matrix and M.dtype == np.int64 and not M.flags.writeable
        assert M.shape == (len(sys_.rows), 2 * len(tri.tets) + 1)
        assert M.tolist() == [[*r.A, *r.B, r.k - r.c] for r in sys_.rows]
        with pytest.raises(ValueError):
            M[0, 0] = 1
    # a row int64 cannot hold is refused at construction, so no other dtype
    with pytest.raises(ValueError, match="modulus 2\\^53"):
        GluingSystem("big", 1, (GluingRow("edge", (2 ** 64,), (0,), 1, 0),))


def test_memoized_systems_are_built_afresh_alike(tri_a, tri_b):
    # every system after the first of its triangulation reads the memoized
    # frame and eliminations; built again from nothing, each has the same
    # rows, relations and kept rows
    tris = [tri_a, tri_b] + [filled(tri_b, 6, s * m, s * l)
                             for m, l in B_SLOPES for s in (1, -1)]
    build_equations(tri_a).kept_rows
    build_equations(tri_b).kept_rows
    memoized = [build_equations(tri) for tri in tris]
    kept = [sys_.kept_rows for sys_ in memoized]
    for tri, sys_, rows in zip(tris, memoized, kept):
        forget_frames()
        fresh = build_equations(tri)
        assert fresh.rows == sys_.rows and fresh.relations == sys_.relations
        assert fresh.kept_rows == rows and len(rows) == len(tri.tets)


def test_a_second_filling_walks_nothing_again(tri_b, monkeypatch):
    # the edge walk, the curve folding, the tetrahedron rules and the
    # relation elimination run once per triangulation, not once per slope
    forget_frames()
    assert len(build_equations(filled(tri_b, 6, 1, 2)).kept_rows) == 26
    calls = []
    for module, name in [(gluing, "_edge_walk"), (gluing, "pivot_columns"),
                         (tri_module, "_tet_problems"),
                         (tri_module, "_curve_problems")]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    text = serialize_triangulation(filled(tri_b, 6, 3, 1))
    sys_ = build_equations(parse_triangulation(text))
    assert sys_.rows[-1].filling == (3, 1) and len(sys_.kept_rows) == 26
    assert calls == []


def test_each_tetrahedron_and_row_is_checked_once_when_built(text_b, tri_b,
                                                            monkeypatch):
    # a tetrahedron checks itself when parsed, a filled row when folded;
    # filling, validating and a warm frame check neither again
    forget_frames()
    build_equations(filled(tri_b, 6, 1, 2))
    calls = []
    for module, name in [(tri_module, "_faults"), (gluing, "_row_fault")]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, fn=fn, name=name:
                            calls.append(name) or fn(x))
    assert parse_triangulation(text_b) == tri_b and calls == ["_faults"] * 26
    calls.clear()
    tri = filled(tri_b, 6, 3, 1)
    assert calls == [] and tri_module.validate(tri) == [] and calls == []
    assert build_equations(tri).rows[-1].filling == (3, 1)
    assert calls == ["_row_fault"]


@pytest.mark.parametrize("tet_count", [12.0, True, 0, -1],
                         ids=["float", "bool", "zero", "negative"])
def test_a_tet_count_that_is_not_a_positive_int_is_refused(tri_a, tet_count):
    # 12.0 once built, and matrix, kept_rows and newton_solve raised a raw
    # TypeError; an empty system of 0 tetrahedra reached numpy's reduction
    refusal = f"^{re.escape(f'tet_count {tet_count!r} is not a positive int')}$"
    with pytest.raises(ValueError, match=refusal):
        dataclasses.replace(build_equations(tri_a), tet_count=tet_count)
    with pytest.raises(ValueError, match=refusal):
        GluingSystem("x", tet_count, ())


def test_a_system_without_rows_is_refused(tri_a):
    # such a system once built, and newton_solve then raised numpy's raw
    # zero-size reduction error
    with pytest.raises(ValueError, match="^system 'x' has no rows$"):
        GluingSystem("x", 1, ())
    with pytest.raises(ValueError, match="^system 'A' has no rows$"):
        dataclasses.replace(build_equations(tri_a), name="A", rows=())


def test_cusp_relations_vanish_and_bound_the_rank(tri_a, tri_b):
    # per cusp, the edge rows weighted by their ends there sum to the zero
    # row, and the cusps' relations are independent, so [A | B | k - c]
    # has rank at most rows - cusps = n
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        sys_, n = build_equations(tri), len(tri.tets)
        ends = sorted(i for rel in sys_.relations for i in rel)
        assert ends == sorted(2 * list(range(n)))  # two ends per edge row
        W = np.zeros((len(tri.cusps), len(sys_.rows)), dtype=np.int64)
        for cusp, rel in enumerate(sys_.relations):
            for i in rel:
                W[cusp, i] += 1
        assert not (W @ sys_.matrix).any()
        assert _fraction_rank(W.tolist()) == len(tri.cusps)
        assert len(sys_.rows) - len(tri.cusps) == n


def test_kept_rows_never_trust_a_wrapped_product():
    # W M = 2^12 * 2^52 = 2^64 wraps to 0 in int64 and would let row 1 alone
    # imply row 0; a cusp listing 2^10 ends or more makes M itself be
    # eliminated, and its rank is 2
    rows = (GluingRow("edge", (2 ** 52,), (0,), 0, 0),
            GluingRow("edge", (0,), (1,), 0, 0))
    assert GluingSystem("wrap", 1, rows, ((0,) * 2 ** 12,)).kept_rows == (0, 1)


def test_dropped_rows_are_exact_combinations_of_the_kept_rows(tri_a, tri_b):
    # W M = 0 for the relations W, so with W_D, W on the dropped rows D,
    # invertible, M_D = -W_D^-1 W_K M_K: each dropped row is rebuilt over
    # Fractions from the kept rows K with those coefficients
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        sys_, n = build_equations(tri), len(tri.tets)
        M, kept = sys_.matrix.tolist(), sys_.kept_rows
        dropped = [i for i in range(len(M)) if i not in kept]
        assert len(kept) == n and len(dropped) == len(tri.cusps)
        W = [[rel.count(i) for i in range(len(M))] for rel in sys_.relations]
        inverse = _fraction_inverse([[w[d] for d in dropped] for w in W])
        for d, row in zip(dropped, inverse):
            rebuilt = [Fraction(0)] * len(M[d])
            for k in kept:
                a = -sum(x * w[k] for x, w in zip(row, W))
                for j, v in enumerate(M[k]):
                    if a and v:
                        rebuilt[j] += a * v
            assert rebuilt == M[d], (tri.cusps, d)


def test_kept_rows_drop_the_densest_rows(tri_a, tri_b):
    # the relations are eliminated densest row first, and each pivot row is
    # dropped: on A, with one cusp, that is the first of the densest edge
    # rows, as the relations list no cusp row
    sys_ = build_equations(tri_a)
    dense = [sum(map(bool, r.A + r.B)) if r.kind == "edge" else -1
             for r in sys_.rows]
    assert sys_.kept_rows == tuple(
        i for i in range(len(dense)) if i != dense.index(max(dense)))
    assert build_equations(tri_b).kept_rows == (
        1, 2, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24,
        26, 27, 28, 29, 30, 31, 32)


NOT_INT = "the entry .*, which is not an int"
WIDE = "an entry of modulus 2\\^53 or more, which floats do not hold"
RAGGED = "{} A and {} B entries, not 2 each"


@pytest.mark.parametrize("field, entry, refusal", [
    ("A", 2 ** 53 - 1, None), ("B", 1 - 2 ** 53, None), ("k", 2 ** 53 - 1, None),
    ("A", 0.5, NOT_INT), ("A", True, NOT_INT), ("B", 2.0, NOT_INT),
    ("A", np.int64(1), NOT_INT), ("k", 0.5, NOT_INT),
    ("A", 2 ** 53, WIDE), ("B", -2 ** 53, WIDE), ("A", -2 ** 63, WIDE),
    ("B", 10 ** 400, WIDE), ("k", -2 ** 53, WIDE),
    # a tuple is the whole field: A or B of other than tet_count entries,
    # which `residual` once zipped with the shapes misaligned
    ("A", (1,), RAGGED.format(1, 2)), ("B", (0, 1, 2), RAGGED.format(2, 3)),
    ("B", (), RAGGED.format(2, 0))],
    ids=["A_top", "B_bottom", "k_top", "half", "bool", "float", "numpy", "k_half",
         "A_2_53", "B_minus_2_53", "minus_2_63", "10_400", "k_minus_2_53",
         "A_short", "B_long", "B_empty"])
def test_construction_refuses_entries_floats_do_not_hold(field, entry, refusal):
    # the entry goes into row 1 of [A | B | k - c], after a clean row 0
    clean = GluingRow("edge", (1, -1), (0, 2), 1, 2)
    bad = (dataclasses.replace(clean, k=entry, c=0) if field == "k"
           else dataclasses.replace(clean, **{field: entry if isinstance(
               entry, tuple) else (0, entry)}))
    if refusal is None:
        sys_ = GluingSystem("edge", 2, (clean, bad))
        assert sys_.matrix.tolist()[1] == [*bad.A, *bad.B, bad.k - bad.c]
        return
    # the first bad row is named, whatever the rule a later row breaks
    later = (dataclasses.replace(clean, A=(0.5, 0)),
             dataclasses.replace(clean, B=(2 ** 53, 0)),
             dataclasses.replace(clean, A=(1,)))
    for rows in [(clean, bad)] + [(clean, bad, row) for row in later]:
        with pytest.raises(ValueError, match=f"^edge row 1 has {refusal}$"):
            GluingSystem("edge", 2, rows)


def test_row_inventory_a(tri_a):
    sys_ = build_equations(tri_a)
    kinds = [row.kind for row in sys_.rows]
    assert kinds.count("edge") == 12
    # the single cusp carries the filling (1, 0)
    assert kinds.count("cusp_filled") == 1
    assert kinds.count("cusp_complete") == 0
    assert len(sys_.rows) == 13


def test_row_inventory_b(tri_b):
    sys_ = build_equations(tri_b)
    kinds = [row.kind for row in sys_.rows]
    assert kinds.count("edge") == 26
    assert kinds.count("cusp_filled") == 6
    assert kinds.count("cusp_complete") == 1
    assert len(sys_.rows) == 33


def test_edge_rows_sum_to_zero(tri_a, tri_b):
    # every corner pair lies in exactly one edge class, so the edge rows
    # add up to the zero functional (including the pi offsets)
    for tri in (tri_a, tri_b):
        sys_ = build_equations(tri)
        edge = [r for r in sys_.rows if r.kind == "edge"]
        n = sys_.tet_count
        assert [sum(r.A[j] for r in edge) for j in range(n)] == [0] * n
        assert [sum(r.B[j] for r in edge) for j in range(n)] == [0] * n
        assert sum(r.k - r.c for r in edge) == 0


def test_filled_rows_use_the_filling(tri_b):
    sys_ = build_equations(tri_b)
    filled = [r for r in sys_.rows if r.kind == "cusp_filled"]
    assert all(r.filling is not None for r in filled)
    assert all(r.c == 2 for r in filled)
    complete = [r for r in sys_.rows if r.kind == "cusp_complete"]
    assert complete[0].c == 0


# ------------------------------------------------------------ the oracle

def test_residual_oracle_at_file_hints(tri_a, tri_b):
    # binding test for every sign and branch convention
    for tri in (tri_a, tri_b):
        sys_ = build_equations(tri)
        hints = [t.shape_hint for t in tri.tets]
        assert max(residual(sys_, hints)) < 1e-8


def test_residual_detects_wrong_shapes(tri_a):
    sys_ = build_equations(tri_a)
    hints = [t.shape_hint for t in tri_a.tets]
    wrong = [z * cmath.exp(0.3j) for z in hints]
    assert max(residual(sys_, wrong)) > 1e-3


def test_residual_matches_a_row_loop(tri_a, tri_b):
    # the residual sums each row in cmath; an independent row loop over the
    # GluingRow fields is the reference
    for tri in (tri_a, tri_b):
        sys_ = build_equations(tri)
        shapes = [z * cmath.exp(0.01j) for z in (t.shape_hint for t in tri.tets)]
        us = [cmath.log(z) for z in shapes]
        ws = [cmath.log(1 - z) for z in shapes]
        for row, r in zip(sys_.rows, residual(sys_, shapes)):
            ref = (sum(a * u for a, u in zip(row.A, us))
                   + sum(b * w for b, w in zip(row.B, ws))
                   + complex(0, (row.k - row.c) * math.pi))
            assert r == pytest.approx(abs(ref), rel=1e-12, abs=1e-13)


def test_residual_matches_the_float_matrix_product(tri_a, tri_b):
    # the numpy product over the full float matrix, which Newton's residual
    # uses, agrees with the cmath residual row by row
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        sys_ = build_equations(tri)
        z = np.array([h * cmath.exp(0.01j) for h in (t.shape_hint for t in tri.tets)])
        ref = np.abs(_rows_at(sys_.matrix.astype(float), np.log(z), np.log(1 - z)))
        assert residual(sys_, z.tolist()) == pytest.approx(ref.tolist(),
                                                           rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("shapes, message", [
    ([0j] + [0.5 + 0.5j] * 11, "shape 0 = 0j is degenerate"),
    ([0.5 + 0.5j] * 3 + [1] + [0.5 + 0.5j] * 8, r"shape 3 = \(1\+0j\) is degenerate"),
    ([0.5 + 0.5j] * 11, "expected 12 shapes, got 11"),
    ([0.5 + 0.5j] * 13, "expected 12 shapes, got 13")],
    ids=["zero", "one", "short", "long"])
def test_residual_rejects_degenerate_and_miscounted_shapes(tri_a, shapes, message):
    with pytest.raises(ValueError, match=message):
        residual(build_equations(tri_a), shapes)


# ------------------------------------------------------------ selection

def test_selection_is_deterministic(tri_a):
    # the kept rows are the system's, chosen once and without the shapes
    sys_ = build_equations(tri_a)
    assert sys_.kept_rows is sys_.kept_rows
    assert sys_.kept_rows == build_equations(tri_a).kept_rows


def test_selection_rejects_too_few_edge_rows(tri_a):
    # n - 1 rows keep rank n - 1, and Newton's least-squares step names it
    sys_ = build_equations(tri_a)
    edge = [r for r in sys_.rows if r.kind == "edge"]
    cusp = [r for r in sys_.rows if r.kind != "edge"]
    short = GluingSystem(sys_.name, sys_.tet_count,
                         tuple(edge[:sys_.tet_count - len(cusp) - 1] + cusp))
    assert short.kept_rows == tuple(range(sys_.tet_count - 1))
    with pytest.raises(SingularJacobianError, match="rank 11 < 12"):
        newton_solve(short, [t.shape_hint for t in tri_a.tets])


# ------------------------------------------------------------ newton

def test_newton_from_exact_hints(solved_a, solved_b):
    for sys_, result in (solved_a, solved_b):
        assert result.residual_max < 1e-12
        assert result.iterations <= 2
        assert all(z.imag > 0 for z in result.shapes)


def test_newton_recovers_from_perturbation(tri_a, solved_a):
    sys_, clean = solved_a
    rng = random.Random(7)
    start = [z + 1e-3 * cmath.exp(2j * math.pi * rng.random())
             for z in clean.shapes]
    result = newton_solve(sys_, start)
    assert result.iterations <= 10
    err = max(abs(a - b) for a, b in zip(result.shapes, clean.shapes))
    assert err < 1e-9


def test_newton_rejects_lower_half_plane(tri_a):
    sys_ = build_equations(tri_a)
    hints = [t.shape_hint for t in tri_a.tets]
    bad = list(hints)
    bad[3] = bad[3].conjugate()
    with pytest.raises(HalfPlaneExitError):
        newton_solve(sys_, bad)


def test_newton_rejects_wrong_length(tri_a):
    sys_ = build_equations(tri_a)
    with pytest.raises(ValueError):
        newton_solve(sys_, [0.5 + 0.8j])


def test_newton_divergence_is_reported(tri_a):
    sys_ = build_equations(tri_a)
    hints = [t.shape_hint for t in tri_a.tets]
    with pytest.raises(DivergenceError):
        newton_solve(sys_, hints, tol=1e-16, max_iter=0)


def test_newton_reports_a_non_finite_residual(tri_a):
    hints = [t.shape_hint for t in tri_a.tets]
    with pytest.raises(DivergenceError, match="non-finite residual"):
        newton_solve(build_equations(tri_a), [complex(math.nan, 1.0)] + hints[1:])


def test_newton_reports_a_non_finite_jacobian(tri_a):
    # at 1 + 1e-320 i the residual is finite, but z / (1 - z) overflows,
    # and least squares is never handed an infinite matrix
    hints = [t.shape_hint for t in tri_a.tets]
    with pytest.raises(DivergenceError,
                       match="^iterate 0 has a non-finite Jacobian$"):
        newton_solve(build_equations(tri_a), [1 + 1e-320j] + hints[1:])


@pytest.mark.parametrize("label", ["A", "B"])
def test_newton_reports_inconsistent_rows(label, request):
    # a copy of edge row 0 with c + 2 shares its Jacobian row, so it is
    # never selected, and the full residual check catches the 2 pi i gap
    tri = request.getfixturevalue(f"tri_{label.lower()}")
    sys_ = build_equations(tri)
    copy = dataclasses.replace(sys_.rows[0], c=sys_.rows[0].c + 2)
    bad = dataclasses.replace(sys_, rows=sys_.rows + (copy,))
    with pytest.raises(DivergenceError, match="inconsistent rows"):
        newton_solve(bad, [t.shape_hint for t in tri.tets])


def test_newton_far_start_fails_controlled(tri_a):
    # all-i start: either converges to the geometric solution or raises a
    # typed solver error; both are acceptable, crashes are not
    sys_ = build_equations(tri_a)
    hints = [t.shape_hint for t in tri_a.tets]
    try:
        result = newton_solve(sys_, [1j] * 12)
    except (DivergenceError, HalfPlaneExitError):
        return
    err = max(abs(a - b) for a, b in zip(result.shapes, hints))
    assert result.residual_max < 1e-12
    # if it converged, it found a genuine solution of the system
    assert err < 1e-6 or all(z.imag > 0 for z in result.shapes)

def _fraction_rank(matrix):
    """Reference rank: Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fraction_inverse(matrix):
    """Inverse of a nonsingular square matrix, by Gauss-Jordan over Fractions."""
    k = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(matrix)]
    for col in range(k):
        piv = next(i for i in range(col, k) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(k):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[k:] for row in m]


def test_augmented_rank_matches_rational_elimination(tri_a, tri_b):
    rng = random.Random(8)
    for case in range(300):
        n = rng.randint(1, 5)
        base = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(2 * n + 1)]
                for _ in range(rng.randint(1, 2 * n + 2))]
        rows = list(base)
        for _ in range(rng.randint(0, 3)):  # integer combinations of rows
            a, b = rng.choice(base), rng.choice(base)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        sys_ = GluingSystem("random", n, tuple(
            GluingRow("edge", tuple(r[:n]), tuple(r[n:2 * n]), r[2 * n], 0)
            for r in rows))
        assert len(pivot_columns(sys_.matrix)) == _fraction_rank(rows), rows
        if case % 5:
            continue
        # in any order, a column is a pivot when it is independent of the
        # columns before it: when it raises the rank of the prefix
        order = random.Random(case).sample(range(2 * n + 1), 2 * n + 1)
        ranks = [0] + [_fraction_rank([[r[c] for c in order[:k]] for r in rows])
                       for k in range(1, 2 * n + 2)]
        assert pivot_columns(sys_.matrix, order) == [
            c for c, a, b in zip(order, ranks, ranks[1:]) if b > a], (rows, order)
    for tri in (tri_a, tri_b):
        assert len(pivot_columns(build_equations(tri).matrix)) == len(tri.tets)


def _rank_system(rows, n):
    return GluingSystem("random", n, tuple(
        GluingRow("edge", tuple(r[:n]), tuple(r[n:2 * n]), r[2 * n], 0)
        for r in rows))


def _dependent_rows(rng, n, entry):
    """A few random rows of width 2n + 1 and integer combinations of them."""
    base = [[entry() for _ in range(2 * n + 1)] for _ in range(rng.randint(1, 2 * n))]
    rows = list(base)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(base), rng.choice(base)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_augmented_rank_beyond_int64_starts_as_object():
    # entries of 2^63 and more do not fit int64; -2^63 fits, but its
    # modulus does not, so it must not stay in int64 either: here
    # (-2^63)(-2) would wrap to 0 and hide the second pivot.  No
    # GluingSystem holds such rows, so the matrices are built directly.
    rows = [[-2 ** 63, 0, 0], [0, -2, 0]]
    assert len(pivot_columns(np.array(rows, dtype=object))) == _fraction_rank(rows) == 2
    rng = random.Random(63)
    for big in (2 ** 63, -2 ** 63, 2 ** 64 + 1, -3 ** 50, 2 ** 62 + 7):
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = _dependent_rows(
                rng, n, lambda: rng.choice((0, 1, -2, 3, big)))
            assert (len(pivot_columns(np.array(rows, dtype=object)))
                    == _fraction_rank(rows)), rows


def test_augmented_rank_promotes_growing_minors():
    # every entry is below 2^21, so the matrix starts as int64, but the
    # Bareiss minors of order 2 reach 2^41 and those of order 3 pass 2^63
    rng = random.Random(30)
    for _ in range(100):
        n = rng.randint(2, 5)
        rows = _dependent_rows(
            rng, n, lambda: rng.randint(-2 ** 20, 2 ** 20))
        assert max(abs(x) for r in rows for x in r) < 2 ** 30
        assert (len(pivot_columns(_rank_system(rows, n).matrix))
                == _fraction_rank(rows)), rows


def test_augmented_rank_on_every_filling_of_b(tri_b):
    assert len(B_SLOPES) == 128
    for m, l in B_SLOPES:
        sys_ = build_equations(filled(tri_b, 6, m, l))
        matrix = [r.A + r.B + (r.k - r.c,) for r in sys_.rows]
        assert len(pivot_columns(sys_.matrix)) == _fraction_rank(matrix) == 26, (m, l)
