"""Certified enclosures: operator contraction and interval volume."""

import cmath
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from bandforge import _ball, cli, dilog, gluing, krawczyk
from bandforge.dilog import (EnclosureDomainError, bloch_wigner,
                             volume as point_volume)
from bandforge.fixtures import load_fixture
from bandforge.gluing import GluingSystem, build_equations, newton_solve
from bandforge.krawczyk import (RADIUS_LADDER, Certificate, CertifyError,
                                KrawczykError, certify_hyperbolic,
                                interval_volume, krawczyk_test)
from bandforge.tri import (SolveError, TriParseError, serialize_triangulation,
                           validate)
from conftest import box_row, filled, holds, meet, sheared

# ------------------------------------------------- interval Bloch-Wigner


def test_box_holds_its_exact_corners():
    # z +- r is computed in floats, so each corner must be rounded outward
    rng = random.Random(41)
    for _ in range(4000):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(1e-12, 1e-3)
        row = box_row(z, r)
        for part, lo, hi in ((z.real, *row[:2]), (z.imag, *row[2:])):
            assert Fraction(lo) <= Fraction(part) - Fraction(r)
            assert Fraction(part) + Fraction(r) <= Fraction(hi)
        assert holds(row, z) and not holds(row, z + 2 * r)


def test_interval_bw_contains_point_values():
    rng = random.Random(41)
    for _ in range(400):
        z = complex(rng.uniform(-1.5, 2.5), rng.uniform(0.05, 2.0))
        if abs(z) < 0.05 or abs(z - 1) < 0.05:
            continue
        enc = interval_volume([box_row(z, rng.uniform(1e-12, 1e-4))])
        assert enc.contains(bloch_wigner(z)), z
        assert enc.width < 1e-2


def test_interval_bw_tight_on_small_boxes():
    z = 0.5 + 0.8660254037844j
    enc = interval_volume([box_row(z, 1e-12)])
    assert enc.width < 1e-10
    assert enc.contains(bloch_wigner(z))


def test_interval_bw_rejects_singular_points():
    # boxes touching 0 or 1 hit the log domain errors
    with pytest.raises(EnclosureDomainError):
        interval_volume([box_row(0j, 1e-3)])
    with pytest.raises(EnclosureDomainError):
        interval_volume([box_row(1 + 0j, 1e-3)])
    # a box across the real axis away from the singularities is harmless
    enc = interval_volume([box_row(0.5 + 0j, 1e-3)])
    assert enc.contains(0.0)


def test_interval_bw_rejects_wide_boxes():
    # series domain: rho must stay under the convergence radius margin
    with pytest.raises(EnclosureDomainError):
        interval_volume([box_row(0.5 + 0.5j, 20.0)])


def test_interval_volume_sums(solved_a):
    _, result = solved_a
    encs = [box_row(z, 1e-10) for z in result.shapes]
    vol = interval_volume(encs)
    assert vol.contains(point_volume(result.shapes))
    assert vol.width < 1e-7


def test_interval_volume_refuses_input_that_is_not_rows():
    row = box_row(0.5 + 0.8j, 1e-10)
    # the 4 x 1 column of one box is not a row, nor is a bare box
    for bad in (np.array([row]).T, row, [], [row[:3]], [row + (0.9,)],
                [[1j, 1.0, 1.0, 1.0]], [["0.5"] * 4], {},
                np.array([row]) * (1 + 0j), np.array([row], dtype=object)):
        with pytest.raises(ValueError, match="^boxes are not n x 4 rows "):
            interval_volume(bad)
    with pytest.raises(ValueError):         # numpy refuses ragged rows
        interval_volume([row, row[:3]])


def test_interval_volume_refuses_nan_and_reversed_rows():
    row = box_row(0.5 + 0.8j, 1e-10)
    with pytest.raises(ValueError, match=r"^box 0 \[0.6, 0.4, 0.9, 0.7\] "):
        interval_volume([(0.6, 0.4, 0.9, 0.7)])
    for k in range(4):
        nan = row[:k] + (math.nan,) + row[k + 1:]
        with pytest.raises(ValueError, match="^box 1 .* has NaN or lo > hi$"):
            interval_volume([row, nan])
    for flipped in ((row[1], row[0], *row[2:]), (*row[:2], row[3], row[2])):
        with pytest.raises(ValueError, match="^box 1 .* has NaN or lo > hi$"):
            interval_volume([row, flipped])
    # a point is a box, and rows from JSON are lists
    assert interval_volume([list(row), [0.5, 0.5, 0.8, 0.8]]).width < 1e-9


def test_interval_volume_refuses_ints_beyond_2_53():
    # numpy reads such an int as the float nearest it, which does not hold it
    row = box_row(0.5 + 0.8j, 1e-10)
    big = 2 ** 53 + 1
    for rows, entry in (([row, [big, big, 1.0, 1.0]], big),
                        ([row, [2 ** 63 - 1, 2 ** 63 - 1, 1, 1]], 2 ** 63 - 1),
                        (np.array([[0, 0, 1, 1], [1, 1, -big, 1]]), -big),
                        ([row, [0.5, 0.5, 1.0, np.int64(big)]], big)):
        with pytest.raises(ValueError, match=(
                rf"^box 1 has the entry {entry}, of modulus above 2\^53, "
                r"which floats do not hold$")):
            interval_volume(rows)
    # 2^53 itself is a float, so its row is read as the point 2^53 + i
    for rows in ([[2 ** 53, 2 ** 53, 1, 1]], np.array([[2 ** 53] * 2 + [1] * 2]),
                 [[2.0 ** 53, 2.0 ** 53, 1.0, 1.0]]):
        vol = interval_volume(rows)
        assert vol == interval_volume([[2.0 ** 53, 2.0 ** 53, 1.0, 1.0]])
        assert vol.contains(bloch_wigner(2 ** 53 + 1j)) and vol.width < 1e-13


@pytest.mark.parametrize("case", ["A", "B", "B(6, 1)"])
def test_volume_replays_from_the_json_rows(case, tri_b, tmp_path, capsys):
    # a reader checks the volume again from the printed rows alone (the
    # filling misses B's header volume, so only its exit code differs)
    if case == "B(6, 1)":
        path = tmp_path / "filled.tri"
        path.write_text(serialize_triangulation(filled(tri_b, 6, 6, 1)))
        argv = [str(path)]
    else:
        argv = ["--fixture", case]
    assert cli.main(["tri", "certify", *argv]) == (case == "B(6, 1)")
    (out,) = json.loads(capsys.readouterr().out)["results"].values()
    vol = interval_volume(out["enclosures"])
    assert out["valid"] and [vol.lo, vol.hi] == out["volume_enclosure"]


# ------------------------------------------------------- krawczyk_test


def test_certificate_fixture_a(tri_a, solved_a):
    sys_, result = solved_a
    cert = krawczyk_test(sys_, result.shapes, 1e-8)
    assert cert.contracted and cert.all_imag_positive and cert.valid
    assert cert.radius_used == 1e-8
    assert len(cert.enclosures) == len(tri_a.tets)
    for enc, z in zip(cert.enclosures, result.shapes):
        assert holds(enc, z)
        assert max(enc[1] - enc[0], enc[3] - enc[2]) < 1e-8
    vol = cert.volume_enclosure
    assert vol.contains(point_volume(result.shapes))
    # the header volume carries only 8 printed decimals
    assert abs(0.5 * (vol.lo + vol.hi) - tri_a.volume_hint) < 5e-7
    assert vol.width < 1e-6


def test_certificate_fixture_b(tri_b, solved_b):
    sys_, result = solved_b
    cert = krawczyk_test(sys_, result.shapes, 1e-8)
    assert cert.valid
    vol = cert.volume_enclosure
    assert abs(0.5 * (vol.lo + vol.hi) - tri_b.volume_hint) < 5e-7
    assert vol.width < 1e-6


def test_bad_approximation_yields_invalid_not_raise(solved_a):
    sys_, result = solved_a
    # reflected shapes solve nothing and lie in the lower half-plane
    conj = [z.conjugate() for z in result.shapes]
    cert = krawczyk_test(sys_, conj, 1e-8)
    assert not cert.contracted
    assert not cert.all_imag_positive
    assert not cert.valid
    # no exception: a bad approximation is an answer, not an error


def test_perturbed_approximation_still_certifies(solved_a):
    sys_, result = solved_a
    rng = random.Random(2)
    fuzz = [z + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-11
            for z in result.shapes]
    cert = krawczyk_test(sys_, fuzz, 1e-8)
    assert cert.valid


def test_invalid_inputs(solved_a):
    sys_, result = solved_a
    with pytest.raises(ValueError):
        krawczyk_test(sys_, result.shapes, 0.0)
    with pytest.raises(ValueError):
        krawczyk_test(sys_, result.shapes, -1e-9)
    with pytest.raises(ValueError):
        krawczyk_test(sys_, result.shapes[:-1], 1e-8)


def test_volume_domain_error_is_raised_only_for_a_valid_box(solved_a, monkeypatch):
    # a box that certifies must have its volume; any other gets (-inf, inf)
    sys_, result = solved_a

    def refuse(ends):
        raise EnclosureDomainError("refused")
    monkeypatch.setattr(krawczyk, "interval_volume", refuse)
    with pytest.raises(KrawczykError, match="^volume enclosure failed: refused$"):
        krawczyk_test(sys_, result.shapes, 1e-8)
    cert = krawczyk_test(sys_, [z.conjugate() for z in result.shapes], 1e-8)
    assert not cert.valid
    assert (cert.volume_enclosure.lo, cert.volume_enclosure.hi) == (-math.inf, math.inf)


def test_certify_selects_rows_once(tri_a, monkeypatch):
    # Newton and every rung read the one exact row choice of the system
    calls = _spied(monkeypatch, gluing, "pivot_columns")
    assert certify_hyperbolic(tri_a, radii=(1e-16, 1e-8)).valid
    assert len(calls) == 1


def test_unusable_radius_raises_typed_error(solved_a):
    sys_, result = solved_a
    # boxes this fat reach the real axis / violate interval domains
    with pytest.raises(KrawczykError):
        krawczyk_test(sys_, result.shapes, 0.5)


def test_certificate_serializes():
    tri = load_fixture("A")
    cert = certify_hyperbolic(tri)
    d = cert.to_dict()
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["manifold"] == tri.name
    assert back["contracted"] is True
    assert back["all_imag_positive"] is True
    assert back["valid"] is True
    assert len(back["enclosures"]) == len(tri.tets)
    lo, hi = back["volume_enclosure"]
    assert abs(0.5 * (lo + hi) - tri.volume_hint) < 5e-7


# -------------------------------------------------- certify_hyperbolic


@pytest.mark.parametrize("label", ["A", "B"])
def test_certify_pipeline(label):
    tri = load_fixture(label)
    cert = certify_hyperbolic(tri)
    assert cert.valid
    assert cert.radius_used in RADIUS_LADDER
    vol = cert.volume_enclosure
    assert abs(0.5 * (vol.lo + vol.hi) - tri.volume_hint) < 5e-7


# no invalid triangulation reaches certify: building one raises the
# diagnostics that certify once reported at stage `validation`

def test_certify_rejects_invalid_triangulation(tri_a):
    bad_tet = dataclasses.replace(tri_a.tets[0], neighbors=(0, 0, 0, 0))
    with pytest.raises(TriParseError) as err:
        dataclasses.replace(tri_a, tets=(bad_tet,) + tri_a.tets[1:])
    assert err.value.line is None and str(err.value) == "; ".join(
        f"tet {t} face {f}: face pairing with tet {u} face {g} is not involutive"
        for t, f, u, g in ((0, 1, 0, 0), (0, 3, 0, 1), (1, 2, 0, 2), (2, 1, 0, 3),
                           (7, 0, 0, 1), (9, 0, 0, 0)))


@pytest.mark.parametrize("field, cut, counts", [
    ("gluings", lambda g: g[:3], "4 neighbors, 3 gluings, 4 vertex cusps and "
     "peripheral rows of (16, 16)"),
    ("vertex_cusp", lambda v: v[:3], "4 neighbors, 4 gluings, 3 vertex cusps "
     "and peripheral rows of (16, 16)"),
    ("peripheral", lambda p: p + p[:1], "4 neighbors, 4 gluings, 4 vertex cusps "
     "and peripheral rows of (16, 16, 16)"),
    ("peripheral", lambda p: (p[0][:15],) + tuple(p[1:]), "4 neighbors, 4 "
     "gluings, 4 vertex cusps and peripheral rows of (15, 16)"),
], ids=["3 gluings", "3 vertex cusps", "3 peripheral rows", "15-entry row"])
def test_certify_rejects_misshapen_tetrahedron(tri_a, field, cut, counts):
    bad_tet = dataclasses.replace(
        tri_a.tets[0], **{field: cut(getattr(tri_a.tets[0], field))})
    with pytest.raises(TriParseError) as err:
        dataclasses.replace(tri_a, tets=(bad_tet,) + tri_a.tets[1:])
    assert str(err.value) == (f"tet 0: {counts} entries; expected 4, 4, 4 and "
                              "2 rows of 16")


@pytest.mark.parametrize("label, cusp, m, l, message", [
    ("A", 0, 2, 0, "filling (2, 0) is not coprime"),
    ("B", 6, -2, 2, "filling (-2, 2) is not coprime"),
    ("A", 0, 1.5, 0, "filling (1.5, 0.0) is not integral"),
], ids=["A at (2,0)", "B at (-2,2)", "(1.5,0)"])
def test_certify_rejects_unsupported_cusp(label, cusp, m, l, message):
    # a non-coprime filling is an orbifold, not a manifold: never `valid`
    with pytest.raises(TriParseError) as err:
        filled(load_fixture(label), cusp, m, l)
    assert str(err.value) == f"cusp {cusp}: {message}"


@pytest.mark.parametrize("radii", [(), (-1.0,), (1e-8, math.nan), (math.inf,)])
def test_certify_checks_the_ladder_first(tri_a, radii):
    # before Newton, which refuses this hint and would be reported first
    tets = list(tri_a.tets)
    tets[0] = dataclasses.replace(tets[0], shape_hint=0.5 - 0.5j)
    for tri in (tri_a, dataclasses.replace(tri_a, tets=tuple(tets))):
        with pytest.raises(ValueError, match="radius must be positive"):
            certify_hyperbolic(tri, radii=radii)


def test_certify_ladder_respects_explicit_radii(tri_a):
    cert = certify_hyperbolic(tri_a, radii=(1e-8,))
    assert cert.valid and cert.radius_used == 1e-8
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri_a, radii=(0.5,))
    assert err.value.stage == "krawczyk"


def test_certify_error_lists_the_failed_rungs(tri_a):
    radii = (0.5, 1e-20, 0.01)
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri_a, radii=radii)
    attempts = err.value.attempts
    assert tuple(radius for radius, _ in attempts) == radii
    assert attempts[0][1].endswith("reaches 0, 1 or a cut")
    assert [outcome for _, outcome in attempts[1:]] == ["not contracted"] * 2
    # the message spells the same rungs, as before the field existed
    assert str(err.value) == ("[krawczyk] no radius produced a valid "
                              "certificate (" + "; ".join(
                                  f"{r}: {o}" for r, o in attempts) + ")")
    # a valid filling whose row floats do not hold fails before any rung
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(filled(load_fixture("B"), 6, 1, 2 ** 52 + 1))
    assert err.value.stage == "validation" and err.value.attempts == ()


def test_certify_error_names_a_non_geometric_rung(tri_a, monkeypatch):
    # no shipped input reaches it: a contracted box with Im <= 0 somewhere
    def contracted_below(sys_, approx, radius):
        box = box_row(0.5 - 1j, radius)
        return Certificate(sys_.name, True, False, (box,) * sys_.tet_count,
                           interval_volume([box]), radius)
    monkeypatch.setattr(krawczyk, "krawczyk_test", contracted_below)
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri_a)
    assert err.value.stage == "krawczyk"
    assert err.value.attempts == tuple(
        (radius, "Im not positive") for radius in RADIUS_LADDER)


def test_volume_outside_enclosure_is_certify_error(tri_a, monkeypatch):
    monkeypatch.setattr(krawczyk, "point_volume", lambda shapes: 1.0)
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri_a)
    assert err.value.stage == "volume"


def test_enclosure_widths_scale_with_radius(solved_b):
    sys_, result = solved_b
    tight = krawczyk_test(sys_, result.shapes, 1e-10)
    loose = krawczyk_test(sys_, result.shapes, 1e-6)
    assert tight.valid and loose.valid
    assert tight.volume_enclosure.width < loose.volume_enclosure.width


# ------------------------------------------------- dropped-row rank check


def _append_row(sys_, c_shift):
    edge = next(r for r in sys_.rows if r.kind == "edge")
    extra = dataclasses.replace(edge, c=edge.c + c_shift)
    return dataclasses.replace(sys_, rows=sys_.rows + (extra,))


@pytest.mark.parametrize("solved", ["solved_a", "solved_b"])
def test_inconsistent_appended_row_is_never_valid(solved, request):
    sys_, result = request.getfixturevalue(solved)
    # a copy of an edge row with c raised by 2 has no common solution; the
    # cusp relations leave n + 1 rows, so M is eliminated: rank n + 1
    assert len(_append_row(sys_, 2).kept_rows) == sys_.tet_count + 1
    with pytest.raises(KrawczykError, match="rank"):
        krawczyk_test(_append_row(sys_, 2), result.shapes, 1e-8)


def test_too_few_rows_are_a_rank_error(solved_a):
    # n - 1 rows keep rank n - 1: no n rows imply the others, so the box is
    # refused before any ball arithmetic, not returned as invalid
    sys_, result = solved_a
    edge = [r for r in sys_.rows if r.kind == "edge"]
    cusp = [r for r in sys_.rows if r.kind != "edge"]
    short = GluingSystem(sys_.name, sys_.tet_count,
                         tuple(edge[:sys_.tet_count - len(cusp) - 1] + cusp))
    with pytest.raises(KrawczykError) as err:
        krawczyk_test(short, result.shapes, 1e-8)
    assert str(err.value) == ("rows [A | B | k - c] have rank 11, not 12: no n "
                              "rows imply the others")


@pytest.mark.parametrize("solved", ["solved_a", "solved_b"])
def test_redundant_appended_row_still_certifies(solved, request):
    sys_, result = request.getfixturevalue(solved)
    cert = krawczyk_test(_append_row(sys_, 0), result.shapes, 1e-8)
    assert cert.valid


def _record_ranks(monkeypatch):
    """The shape of every matrix `GluingSystem.kept_rows` passes to
    pivot_columns."""
    shapes, pivots = [], gluing.pivot_columns

    def recording(M, *order):
        shapes.append(M.shape)
        return pivots(M, *order)

    monkeypatch.setattr(gluing, "pivot_columns", recording)
    return shapes


def test_certify_never_eliminates_the_full_matrix(tri_a, tri_b, monkeypatch):
    # the cusp relations choose the rows: only W, one row per cusp, is
    # eliminated, before Newton, so also where Newton fails
    shapes = _record_ranks(monkeypatch)
    certified = 0
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        shapes.clear()
        cusps = len(tri.cusps)
        try:
            certify_hyperbolic(tri)
        except CertifyError as exc:
            assert exc.stage == "newton"
            continue
        finally:
            assert shapes == [(cusps, len(tri.tets) + cusps)]
        certified += 1
    assert certified == 2 + len(B_SLOPES) - len(SEED_UNCERTIFIED)


def test_relations_are_eliminated_once_per_system(tri_b, monkeypatch):
    # the rungs 1e-16 and 1e-15 do not certify and 1e-10 does; the row
    # choice is the system's, so W is eliminated once, for Newton
    shapes = _record_ranks(monkeypatch)
    cert = certify_hyperbolic(tri_b, radii=(1e-16, 1e-15, 1e-10))
    assert cert.valid and cert.radius_used == 1e-10
    assert shapes == [(len(tri_b.cusps), len(tri_b.tets) + len(tri_b.cusps))]


@pytest.mark.parametrize("solved", ["solved_a", "solved_b"])
def test_system_without_relations_certifies_by_elimination(
        solved, request, monkeypatch):
    # the kept rows are then M's pivot rows, the first n independent ones
    sys_, result = request.getfixturevalue(solved)
    cert = krawczyk_test(sys_, result.shapes, 1e-8)
    shapes = _record_ranks(monkeypatch)
    bare_sys = dataclasses.replace(sys_, relations=())
    bare = krawczyk_test(bare_sys, result.shapes, 1e-8)
    assert shapes == [sys_.matrix.T.shape]
    assert len(bare_sys.kept_rows) == sys_.tet_count
    assert bare_sys.kept_rows != sys_.kept_rows
    assert bare.valid and all(meet(a, b) is not None
                              for a, b in zip(bare.enclosures, cert.enclosures))


def _bad_relations(sys_, case):
    """`sys_` with its last cusp's relation spoiled."""
    *rels, rel = sys_.relations
    extra = {"repeated": rel[:1],       # W M is then that edge row, not 0
             "past": (len(sys_.rows),), "negative": (-1,)}[case]
    return dataclasses.replace(sys_, relations=(*rels, rel + extra))


@pytest.mark.parametrize("case", ["repeated", "past", "negative"])
@pytest.mark.parametrize("solved", ["solved_a", "solved_b"])
def test_bad_relations_fall_back_to_elimination(solved, case, request,
                                                monkeypatch):
    sys_, result = request.getfixturevalue(solved)
    bare = krawczyk_test(dataclasses.replace(sys_, relations=()), result.shapes, 1e-8)
    bad = _bad_relations(sys_, case)
    shapes = _record_ranks(monkeypatch)
    assert krawczyk_test(bad, result.shapes, 1e-8).to_dict() == bare.to_dict()
    assert shapes == [sys_.matrix.T.shape] and len(bad.kept_rows) == sys_.tet_count


def _renumbered(tri, seed):
    """`tri` with tetrahedron t renumbered perm[t], neighbours remapped."""
    perm = list(range(len(tri.tets)))
    random.Random(seed).shuffle(perm)
    tets = [None] * len(perm)
    for t, tet in enumerate(tri.tets):
        tets[perm[t]] = dataclasses.replace(
            tet, neighbors=tuple(perm[x] for x in tet.neighbors))
    return dataclasses.replace(tri, tets=tuple(tets)), perm


@pytest.mark.parametrize("label", ["A", "B"])
def test_renumbered_tetrahedra_keep_the_bound(label, monkeypatch):
    tri = load_fixture(label)
    cert = certify_hyperbolic(tri)
    shapes = _record_ranks(monkeypatch)
    for seed in (1, 2, 3):
        other, perm = _renumbered(tri, seed)
        assert validate(other) == []
        shapes.clear()      # the relations choose the rows: only W is eliminated
        assert len(build_equations(other).kept_rows) == len(tri.tets)
        assert shapes == [(len(tri.cusps), len(tri.tets) + len(tri.cusps))]
        moved = certify_hyperbolic(other)
        assert moved.valid
        for t, enc in enumerate(cert.enclosures):
            assert meet(enc, moved.enclosures[perm[t]]) is not None, t


# ------------------------------------------- rows that floats cannot hold


def _b_wide(case):
    tri = load_fixture("B")
    if case == "filling":       # a valid filling, (1, 2^52 + 1)
        return filled(tri, 6, 1, 2 ** 52 + 1)
    return sheared(tri, 10 ** 400)      # meridians + 10^400 longitudes


@pytest.mark.parametrize("case, row", [("filling", "cusp_filled row 32"),
                                       ("meridians", "cusp_filled row 26")])
def test_rows_beyond_floats_fail_validation(case, row):
    tri = _b_wide(case)
    assert validate(tri) == []
    with pytest.raises(ValueError, match=f"{row} has an entry of modulus"):
        build_equations(tri)
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri)
    assert err.value.stage == "validation" and row in str(err.value)


def test_the_2_53_rule_runs_once_per_system(tri_b, monkeypatch):
    # the rule is GluingSystem's construction check, and a certify run
    # builds one system
    calls, check = [], gluing.GluingSystem.__post_init__
    monkeypatch.setattr(gluing.GluingSystem, "__post_init__",
                        lambda sys_: calls.append(1) or check(sys_))
    assert certify_hyperbolic(tri_b).valid
    assert calls == [1]


def test_half_scaled_peripheral_rows_fail_validation(tri_a):
    # tet 0's peripheral rows times 0.5: the int64 matrix once truncated
    # the entry 3.5 of cusp_filled row 12 to 3, and A certified anyway;
    # now no such triangulation can be built
    tet = tri_a.tets[0]
    half = dataclasses.replace(tet, peripheral=tuple(
        tuple(0.5 * x for x in row) for row in tet.peripheral))
    with pytest.raises(TriParseError) as err:
        dataclasses.replace(tri_a, tets=(half,) + tri_a.tets[1:])
    assert str(err.value).startswith("tet 0: peripheral entry 0 is 0.0, not an "
                                     "int; tet 0: peripheral entry 1 is -2.5, ")


# ------------------------------------------------ ball operator domain


def test_disc_reaching_one_raises(solved_a):
    sys_, result = solved_a
    shapes = [1 + 1e-11j] + list(result.shapes[1:])
    with pytest.raises(KrawczykError, match="reaches 0, 1"):
        krawczyk_test(sys_, shapes, 1e-10)


def test_nan_shape_raises(solved_a):
    sys_, result = solved_a
    shapes = [complex(math.nan, 1.0)] + list(result.shapes[1:])
    with pytest.raises(KrawczykError, match="finite"):
        krawczyk_test(sys_, shapes, 1e-10)


# ------------------------------------------- ball operator vs mpmath


def _oracle_points(mpmath, z, radius, rng, count=4):
    """The four common corners of the boxes, then seeded points of X."""
    r = mpmath.mpf(radius)
    pts = [[mpmath.mpc(v) + r * mpmath.mpc(a, b) for v in z]
           for a in (-1, 1) for b in (-1, 1)]
    for _ in range(count):
        pts.append([mpmath.mpc(v) + r * mpmath.mpc(rng.uniform(-1, 1),
                                                    rng.uniform(-1, 1))
                    for v in z])
    return pts


@pytest.mark.parametrize("radius", [1e-10, 1e-6])
@pytest.mark.parametrize("solved", ["solved_a", "solved_b"])
def test_ball_operator_holds_mpmath_values(solved, radius, request):
    mpmath = pytest.importorskip("mpmath")

    def inside(x, centre, rad):
        return abs(x - mpmath.mpc(complex(centre))) <= mpmath.mpf(float(rad))

    sys_, result = request.getfixturevalue(solved)
    z = np.array(result.shapes)
    Y, (E_c, E_rad), (K_c, K_rad) = krawczyk._operator(sys_, z, radius)
    n = len(z)
    M = sys_.matrix[list(sys_.kept_rows)]
    MA, MB, off = M[:, :n], M[:, n:2 * n], M[:, 2 * n]
    rng = random.Random(f"{solved}:{radius}")
    with mpmath.workdps(50):
        Ymp = [[mpmath.mpc(complex(c)) for c in row] for row in Y]
        # Y A and Y B at 50 digits; A and B are small integer matrices
        YA, YB = ([[mpmath.fsum(Ymp[i][m] * int(c)
                                for m, c in enumerate(M[:, j]) if c)
                    for j in range(n)] for i in range(n)] for M in (MA, MB))
        y = [mpmath.mpc(v) for v in z]
        f = [mpmath.fsum([int(MA[m, j]) * mpmath.log(y[j])
                          + int(MB[m, j]) * mpmath.log(1 - y[j])
                          for j in range(n)])
             + 1j * mpmath.pi * int(off[m]) for m in range(n)]
        newton = [y[i] - mpmath.fsum(Ymp[i][m] * f[m] for m in range(n))
                  for i in range(n)]
        for x in _oracle_points(mpmath, z, radius, rng):
            # I - Y J(x) with J(x) = A / x - B / (1 - x)
            E = [[int(i == j) - YA[i][j] / x[j] + YB[i][j] / (1 - x[j])
                  for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    assert inside(E[i][j], E_c[i, j], E_rad[i, j]), (i, j)
                k = newton[i] + mpmath.fsum(E[i][j] * (x[j] - y[j])
                                            for j in range(n))
                assert inside(k, K_c[i], K_rad[i]), i


# ------------------------------------------ floored products, exactly


def _mod_up(z):
    """An upper bound on |z| as a Fraction, within 2^-1100 of it."""
    s = 2 ** 1100      # turns every float, subnormals included, into an int
    re, im = int(Fraction(z.real) * s), int(Fraction(z.imag) * s)
    return Fraction(math.isqrt(re * re + im * im) + 1, s)


def _float_pool(rng):
    """Zeros, the smallest subnormal, _TINY and floats from 2^-600 to 2^60."""
    return (0.0, 5e-324, krawczyk._TINY,
            rng.random() * 2.0 ** rng.randint(-600, 60))


def _matrix(rng, shape, value):
    return np.array([value() for _ in range(math.prod(shape))]).reshape(shape)


def test_floored_matmul_bounds_the_exact_product():
    rng = random.Random(500)
    for _ in range(150):
        k, m = rng.randint(1, 4), rng.randint(1, 7)
        shape = rng.choice([(m,), (m, rng.randint(1, 4))])
        P, Q = (_matrix(rng, s, lambda: rng.choice(_float_pool(rng)))
                for s in ((k, m), shape))
        up = krawczyk._matmul_up(P, Q)
        for i in np.ndindex(up.shape):
            exact = sum(Fraction(P[i[0], j]) * Fraction(Q[(j, *i[1:])])
                        for j in range(m))
            assert Fraction(up[i]) >= exact, (P, Q, i)


def test_ball_matmul_radius_bounds_the_exact_error():
    # |A| Brad + |fl(A Bc) - A Bc| <= rad, the modulus compared squared
    rng = random.Random(501)

    def complex_entry():
        return complex(*(rng.choice((-1, 1)) * rng.choice(_float_pool(rng))
                         for _ in range(2)))

    def check(A, Bc, Brad):
        m = A.shape[-1]
        centre, rad = krawczyk._ball_matmul(A, Bc, Brad)
        for i in np.ndindex(rad.shape):
            b = [(j, *i[1:]) for j in range(m)]
            slack = Fraction(rad[i]) - sum(
                _mod_up(A[i[0], j]) * Fraction(Brad[b[j]]) for j in range(m))
            re = Fraction(centre[i].real) - sum(
                Fraction(A[i[0], j].real) * Fraction(Bc[b[j]].real)
                - Fraction(A[i[0], j].imag) * Fraction(Bc[b[j]].imag)
                for j in range(m))
            im = Fraction(centre[i].imag) - sum(
                Fraction(A[i[0], j].real) * Fraction(Bc[b[j]].imag)
                + Fraction(A[i[0], j].imag) * Fraction(Bc[b[j]].real)
                for j in range(m))
            assert slack >= 0 and re * re + im * im <= slack * slack, (A, Bc, i)

    for _ in range(150):
        k, m = rng.randint(1, 4), rng.randint(1, 7)
        shape = rng.choice([(m,), (m, rng.randint(1, 4))])
        check(_matrix(rng, (k, m), complex_entry), _matrix(rng, shape, complex_entry),
              _matrix(rng, shape, lambda: rng.choice(_float_pool(rng))))
    # the 2 m eta term: each real product of a * b (about 2^-1074) rounds by
    # nearly eta / 2 and the m equal terms add up, so the centre is off by
    # about 1.37 m eta, beyond the m eta of `_matmul_up`, while |A| _TINY
    # (|A| about 2^-578.6, |Bc| about 2^-495.4) underflows to 0
    a, b = complex(-29, 30) * 2.0 ** -584, complex(33, -35) * 2.0 ** -501
    check(np.full((1, 8), a), np.full(8, b), np.zeros(8))


# -------------------------------------------- operator radii, exactly


def _mod_dn(z):
    """A lower bound on |z| as a Fraction, within 2^-1100 of it."""
    s = 2 ** 1100
    re, im = int(Fraction(z.real) * s), int(Fraction(z.imag) * s)
    return Fraction(math.isqrt(re * re + im * im), s)


def _cx(z):
    return Fraction(z.real), Fraction(z.imag)


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return a[0] / d, -a[1] / d


def _within(x, centre, rad):
    """|x - centre| <= rad exactly, x a pair of Fractions."""
    re, im = x[0] - Fraction(centre.real), x[1] - Fraction(centre.imag)
    return re * re + im * im <= Fraction(rad) ** 2


def _operator_parts(sys_, z, radius, monkeypatch):
    """`_operator`'s output, with the leaves and balls it passes on."""
    seen = {}

    def spy(name):
        fn = getattr(krawczyk, name)

        def wrapped(*args):
            seen[name] = args, fn(*args)
            return seen[name][1]
        monkeypatch.setattr(krawczyk, name, wrapped)
    spy("_recip")
    spy("_ball_matmul")
    return krawczyk._operator(sys_, z, radius), seen


def test_operator_radii_hold_their_exact_values(solved_a, monkeypatch):
    # each radius on A at r = 1e-10 is at least the exact value of the bound
    # it sums from its float leaves, which only its scaling by 1 + 2 gamma
    # covers; J_rad and E_rad also hold J(x) - J_c and E(x) - E_c exactly at
    # the corners x of X
    sys_, result = solved_a
    radius, z = 1e-10, np.array(result.shapes)
    n, F, U = len(z), Fraction, Fraction(2) ** -53
    ((Y, (E_c, E_rad), (K_c, K_rad)), seen) = _operator_parts(
        sys_, z, radius, monkeypatch)
    (v, rv, lo, gap, _), (recip, rad) = seen["_recip"]
    (_, Bc, Brad), (YB_c, YB_rad) = seen["_ball_matmul"]
    J_c, J_rad, S, f_rad = Bc[:, :n], Brad[:, :n], Bc[:, n], Brad[:, n]
    C = [[int(c) for c in row] for row in sys_.matrix[list(sys_.kept_rows)]]

    # the discs, the ball of 1/x and the log allowance that they start from
    assert F(rv[0, 0]) ** 2 >= 2 * F(radius) ** 2 and (rv[0] == rv[0, 0]).all()
    for j in range(n):
        assert F(rv[1, j]) >= F(rv[0, j]) + U * abs(F(v[1, j].real))
        for p in range(2):
            assert F(rad[p, j]) >= (F(rv[p, j]) / (F(lo[p, j]) * F(gap[p, j]))
                                    + F(krawczyk._gamma(8)) * _mod_dn(recip[p, j]))
    V = np.append(np.log(v).ravel(), 1j * np.pi)
    V_rad = krawczyk._log_rad(V)
    for x, x_rad in zip(V, V_rad):
        assert F(x_rad) >= 8 * U * (1 + abs(F(x.real)) + abs(F(x.imag)))
    for i, j in np.ndindex(n, n):
        assert F(J_rad[i, j]) >= (abs(C[i][j]) * F(rad[0, j])
                                  + abs(C[i][n + j]) * F(rad[1, j])), (i, j)
    for i in range(n):
        g = F(krawczyk._gamma(sum(map(bool, C[i]))))
        assert F(f_rad[i]) >= sum(abs(c) * (F(V_rad[j]) + g * _mod_dn(V[j]))
                                  for j, c in enumerate(C[i]) if c), i
    g = F(krawczyk._gamma(3 * n))
    for i, k in np.ndindex(YB_rad.shape):
        assert F(YB_rad[i, k]) >= sum(
            _mod_dn(Y[i, j]) * (F(Brad[j, k]) + g * _mod_dn(Bc[j, k]))
            for j in range(n)) + 2 * n * F(2) ** -1074, (i, k)
    for i, j in np.ndindex(n, n):
        assert F(E_rad[i, j]) >= F(YB_rad[i, j]) + U * _mod_dn(E_c[i, j]), (i, j)
    s = 2 ** 80
    rho = F(radius) * F(math.isqrt(2 * s * s), s)       # below r sqrt 2
    for i in range(n):
        assert F(K_rad[i]) >= (F(YB_rad[i, n]) + 2 * U * _mod_dn(K_c[i]) + rho * sum(
            _mod_dn(E_c[i, j]) + F(E_rad[i, j]) for j in range(n))), i

    # at the corners of X: J(x) = A / x - B / (1 - x), E(x) = I - Y J(x)
    Ymp = [[_cx(y) for y in row] for row in Y]
    for a, b in ((-1, -1), (1, 1)):
        x = [(F(w.real) + a * F(radius), F(w.imag) + b * F(radius)) for w in z]
        inv = [(_cinv(p), _cinv((1 - p[0], -p[1]))) for p in x]
        J = [[(C[i][j] * inv[j][0][0] - C[i][n + j] * inv[j][1][0],
               C[i][j] * inv[j][0][1] - C[i][n + j] * inv[j][1][1])
              for j in range(n)] for i in range(n)]
        for i, j in np.ndindex(n, n):
            assert _within(J[i][j], J_c[i, j], J_rad[i, j]), (a, b, i, j)
            terms = [_cmul(Ymp[i][k], J[k][j]) for k in range(n)]
            e = (int(i == j) - sum(t[0] for t in terms), -sum(t[1] for t in terms))
            assert _within(e, E_c[i, j], E_rad[i, j]), (a, b, i, j)


def test_contraction_radii_hold_their_exact_values(solved_a, solved_b,
                                                   monkeypatch):
    # rho, the disc radius that `_operator` takes for the box, is at least
    # radius sqrt 2, and the margin `reach` that `krawczyk_test` compares
    # with the radius is at least max(|Re d|, |Im d|) + K_rad, d = K_c - z,
    # both exactly from their float leaves, which only their scaling by
    # 1 + 2 gamma covers
    F, rng = Fraction, random.Random(56)
    discs = _spied(monkeypatch, krawczyk, "_discs")
    volumes = _spied(monkeypatch, krawczyk, "interval_volume")
    for sys_, result in (solved_a, solved_b):
        for radius in (1e-10, 1e-8, 1e-6,
                       *(10 ** rng.uniform(-12, -5) for _ in range(40))):
            discs.clear()
            volumes.clear()
            krawczyk_test(sys_, result.shapes, radius)
            (((_, rho), _, _),) = discs
            assert (rho == rho[0]).all(), radius
            assert F(rho[0]) ** 2 >= 2 * F(radius) ** 2, radius
            ((_, _, (_, own)),) = volumes
            K_c, K_rad, z, reach = own["K_c"], own["K_rad"], own["z"], own["reach"]
            for j in range(len(z)):
                d = (F(K_c[j].real) - F(z[j].real), F(K_c[j].imag) - F(z[j].imag))
                assert F(reach[j]) >= max(map(abs, d)) + F(K_rad[j]), (radius, j)


@pytest.mark.parametrize("case", ["A", "B", (-7, 3), (9, 4)],
                         ids=["A", "B", "-7/3", "9/4"])
def test_residual_ball_holds_the_mpmath_residual(case, tri_a, tri_b, monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    tri = tri_a if case == "A" else tri_b if case == "B" else filled(tri_b, 6, *case)
    sys_ = build_equations(tri)
    result = newton_solve(sys_, [t.shape_hint for t in tri.tets])
    z = np.array(result.shapes)
    n = len(z)
    _, seen = _operator_parts(sys_, z, 1e-10, monkeypatch)
    (_, Bc, Brad), _ = seen["_ball_matmul"]
    M = sys_.matrix[list(sys_.kept_rows)]
    with mpmath.workdps(50):
        y = [mpmath.mpc(w) for w in z]
        logs = [mpmath.log(w) for w in y] + [mpmath.log(1 - w) for w in y]
        for i, row in enumerate(M):
            f = mpmath.fsum(int(c) * x for c, x in zip(row, logs) if c)
            f += 1j * mpmath.pi * int(row[2 * n])
            assert abs(f - mpmath.mpc(complex(Bc[i, n]))) <= mpmath.mpf(
                float(Brad[i, n])), (case, i)


# -------------------------------------------- filling sweep parity

# the 128 primitive slopes of B's complete cusp 6: m ascending, then l
B_SLOPES = [(m, l) for m in range(-10, 11) for l in range(11)
            if math.gcd(abs(m), l) == 1 and (l > 0 or (m, l) == (1, 0))]

# slopes of fixture B's cusp 6 whose Newton solve fails from the file hints
SEED_UNCERTIFIED = frozenset([
    (-3, 1), (-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 0), (1, 1), (1, 2),
    (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3),
    (7, 3), (7, 4)])


@pytest.fixture(scope="module")
def sweep(tri_b):
    """Slope -> (filled B, its r = 1e-10 certificate or CertifyError)."""
    out = {}
    for m, l in B_SLOPES:
        tri = filled(tri_b, 6, m, l)
        try:
            out[m, l] = tri, certify_hyperbolic(tri, radii=(1e-10,))
        except CertifyError as exc:
            out[m, l] = tri, exc
    return out


def test_filling_sweep_verdicts(tri_b, sweep):
    cusped = certify_hyperbolic(tri_b).volume_enclosure
    assert len(sweep) == 128
    for (m, l), (tri, cert) in sweep.items():
        if (m, l) in SEED_UNCERTIFIED:
            assert isinstance(cert, CertifyError), (m, l)
            assert cert.stage == "newton", (m, l)
            continue
        assert isinstance(cert, Certificate), (m, l, cert)
        shapes = newton_solve(build_equations(tri),
                              [t.shape_hint for t in tri.tets]).shapes
        assert cert.volume_enclosure.contains(point_volume(shapes)), (m, l)
        assert cert.volume_enclosure.hi < cusped.lo, (m, l)


# ---------------------------------------- enclosures from K & X arrays


def _reference_enclosures(sys_, z, radius):
    """K & X built row by row from `_operator` in Python floats, or X when
    one part is empty."""
    _, _, (K_c, K_rad) = krawczyk._operator(sys_, np.array(z), radius)
    X = [box_row(v, radius) for v in z]
    inters = [meet(box_row(k, r), x) for k, r, x in zip(K_c, K_rad, X)]
    return X if None in inters else inters


def test_array_enclosures_match_the_scalar_reference(tri_a, tri_b):
    checked = 0
    for tri in [tri_a, tri_b] + [filled(tri_b, 6, m, l) for m, l in B_SLOPES]:
        sys_ = build_equations(tri)
        try:
            result = newton_solve(sys_, [t.shape_hint for t in tri.tets])
        except SolveError:
            continue
        cert = krawczyk_test(sys_, result.shapes, 1e-10)
        expected = _reference_enclosures(sys_, result.shapes, 1e-10)
        assert cert.valid and list(cert.enclosures) == expected
        # krawczyk_test hands the volume its endpoint array: the same bits
        # as the volume read from the reference rows
        vol = interval_volume(expected)
        assert (cert.volume_enclosure.lo, cert.volume_enclosure.hi) == (vol.lo, vol.hi)
        checked += 1
    assert checked == 2 + len(B_SLOPES) - len(SEED_UNCERTIFIED)


def test_x_stands_where_k_misses_it(solved_b):
    sys_, result = solved_b
    radius = 1e-8
    moved = list(result.shapes)
    moved[0] += 100 * radius
    _, _, (K_c, K_rad) = krawczyk._operator(sys_, np.array(moved), radius)
    X = [box_row(v, radius) for v in moved]
    assert meet(box_row(K_c[0], K_rad[0]), X[0]) is None
    cert = krawczyk_test(sys_, moved, radius)
    assert not cert.contracted and not cert.valid
    assert list(cert.enclosures) == X
    assert _reference_enclosures(sys_, moved, radius) == X


# --------------------------------------------- volume radii, exactly


def _volume_boxes(shapes, rng, count):
    """The n x 4 rows of `count` boxes around the shapes, each part of each
    box with its own half-widths on either side, from 1e-16 to 1e-6."""
    z = np.array(shapes)
    for _ in range(count):
        wide = [np.array([10 ** rng.uniform(-16, -6) for _ in z]) for _ in range(4)]
        yield np.array([z.real - wide[0], z.real + wide[1],
                        z.imag - wide[2], z.imag + wide[3]]).T


def _spied(monkeypatch, module, name):
    """Calls of module.name, each as (args, result, (the caller's name, its
    locals then)), as they happen."""
    calls, fn = [], getattr(module, name)

    def wrapped(*args):
        frame = sys._getframe(1)
        calls.append((args, fn(*args),
                      (frame.f_code.co_name, dict(frame.f_locals))))
        return calls[-1][1]
    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_volume_radii_hold_their_exact_values(solved_b, monkeypatch):
    # `interval_volume` bounds each box's half-diagonal from its ends and
    # centre, and the error of the sum of the balls from their centres and
    # radii; the kernel bounds |w| by W and W^2 / (2 pi)^2 by t.  Each is at
    # least the exact value of its formula from those float leaves, which
    # only its scaling by 1 + 2 gamma covers
    sys_, result = solved_b
    F, rng = Fraction, random.Random(55)
    boxes = [np.array(krawczyk_test(sys_, result.shapes, 1e-10).enclosures),
             *_volume_boxes(result.shapes, rng, 40)]
    kernel = _spied(monkeypatch, dilog, "_ball_bloch_wigner")
    sums = _spied(monkeypatch, _ball, "_ball_sum")
    series = _spied(monkeypatch, dilog, "_series_bounds")
    for rows in boxes:
        interval_volume(rows)
    assert len(kernel) == len(sums) == len(boxes) == len(series)
    for rows, ((c, half), _, _) in zip(boxes, kernel):
        for j, x in enumerate(c.tolist()):
            d = [max(F(rows[j, 2 * p + 1]) - F(mid), F(mid) - F(rows[j, 2 * p]))
                 for p, mid in enumerate((x.real, x.imag))]
            assert F(half[j]) ** 2 >= d[0] ** 2 + d[1] ** 2, j
    for (centres, radii), (total, err), _ in sums:
        exact = sum(map(F, centres.tolist()))
        spread = sum(map(F, radii.tolist()))
        g = F(_ball._gamma(len(centres)))
        assert F(err) >= spread + g * sum(abs(F(x)) for x in centres.tolist())
        assert abs(F(total) - exact) + spread <= F(err)
    # and W and t on random w too, up to the series domain's edge |w| = 6
    w = np.array([cmath.rect(rng.uniform(0, 6), rng.uniform(-4, 4)) for _ in range(400)])
    w_rad = np.array([10 ** rng.uniform(-17, -8) for _ in w])
    dilog._series_bounds(w, w_rad)
    c2 = F(dilog._TWO_PI_DN ** 2)
    for (w, w_rad), (W, _, t), _ in series:
        for x, x_rad, b, b_t in zip(w.tolist(), w_rad.tolist(), W.tolist(), t.tolist()):
            above = F(b) - F(x_rad)
            assert above >= 0 and above ** 2 >= F(x.real) ** 2 + F(x.imag) ** 2, x
            assert F(b_t) >= F(b) ** 2 / c2, b


def test_kernel_radii_hold_their_exact_values(solved_b, monkeypatch):
    # `_ball_bloch_wigner` bounds |x| on each disc by hi >= |v| + rv, and
    # its radius by the sum of its terms, with X = W^2 and G and G' at t
    # exact.  Each is at least the exact value of its formula from its float
    # leaves, which only its scaling by 1 + 2 gamma covers
    sys_, result = solved_b
    F, rng = Fraction, random.Random(57)
    boxes = [np.array(krawczyk_test(sys_, result.shapes, 1e-10).enclosures),
             *_volume_boxes(result.shapes, rng, 20)]
    kernel = _spied(monkeypatch, dilog, "_ball_bloch_wigner")
    # the kernel's second log is of (gap, hi), after every other leaf is set
    logs = _spied(monkeypatch, np, "log")
    for rows in boxes:
        interval_volume(rows)
    own = [c for c in logs if c[2][0] == "_ball_bloch_wigner"][1::2]
    assert len(own) == len(kernel) == len(boxes)
    g1, c2 = F(_ball._gamma(1)), F(dilog._TWO_PI_DN) ** 2
    for (((gap, hi),), log, (_, k)), (_, (_, rad), _) in zip(own, kernel):
        v, rv = k["v"], k["rv"]
        for p, j in np.ndindex(v.shape):
            above = F(hi[p, j]) - F(rv[p, j])
            assert above >= 0 and above ** 2 >= (F(v[p, j].real) ** 2
                                                 + F(v[p, j].imag) ** 2), (p, j)
        L, L_rad = k["L"], k["L_rad"]
        log_rad = _ball._log_rad(log).max(axis=0)
        N, tail = F(k["N"]), F(k["tail"])
        for j in range(len(rad)):
            W, t = F(k["W"][j]), F(k["t"][j])
            X, s = W * W, 1 / (1 - t)
            G, dG = 1 + 4 * t * s, 4 / c2 * s * s
            sup = [max(-F(log[0, p, j]), F(log[1, p, j])) + F(log_rad[p, j])
                   for p in range(2)]
            grad = sup[0] / F(gap[1, j]) + sup[1] / F(gap[0, j])
            r0, r1 = F(L_rad[0, j]), F(L_rad[1, j])
            exact = (g1 * (6 * W * X * dG + (N + 5) * (W * G + X / 4)) + tail
                     + r1 * (G + 2 * X * dG + W / 2)
                     + abs(F(L[1, j].imag)) * r0
                     + r1 * (abs(F(L[0, j].real)) + r0)
                     + g1 * (abs(F(k["ab"][j])) + abs(F(k["centre"][j])))
                     + F(rv[0, j]) * grad + F(_ball._TINY))
            assert F(rad[j]) >= exact, j


def test_series_terms_refuse_bounds_outside_the_domain():
    for rho in (dilog._W_MAX, 7.0, math.inf, math.nan):
        with pytest.raises(EnclosureDomainError, match="outside the series domain"):
            dilog._series_terms(rho)
    terms, tail = dilog._series_terms(math.nextafter(dilog._W_MAX, 0.0))
    assert terms <= dilog._SERIES_LEN and 0 < tail < math.inf


# ------------------------------------------------ ball volume vs mpmath


def _bw_mp(mpmath, z):
    """D(z) at mpmath's working precision."""
    z = mpmath.mpc(z)
    return (mpmath.im(mpmath.polylog(2, z))
            + mpmath.arg(1 - z) * mpmath.log(abs(z)))


def test_volume_enclosures_narrower_than_3e_11(tri_a, tri_b, sweep):
    certs = [certify_hyperbolic(tri, radii=(1e-10,)) for tri in (tri_a, tri_b)]
    certs += [c for _, c in sweep.values() if isinstance(c, Certificate)]
    assert len(certs) == 2 + 109
    assert max(c.volume_enclosure.width for c in certs) < 3e-11


@pytest.mark.parametrize("case", ["A", "B", (-10, 1), (6, 1), (7, 2)],
                         ids=["A", "B", "-10/1", "6/1", "7/2"])
def test_volume_enclosure_holds_mpmath_sums(case, tri_a, tri_b, sweep):
    mpmath = pytest.importorskip("mpmath")
    if isinstance(case, tuple):
        cert = sweep[case][1]
    else:
        cert = certify_hyperbolic(tri_a if case == "A" else tri_b)
    boxes = cert.enclosures
    rng = random.Random(f"volume:{case}")
    points = [[complex(b[a], b[c]) for b in boxes] for a in (0, 1) for c in (2, 3)]
    points += [[complex(rng.uniform(b[0], b[1]), rng.uniform(b[2], b[3]))
                for b in boxes] for _ in range(4)]
    vol = cert.volume_enclosure
    with mpmath.workdps(50):
        for zs in points:
            total = mpmath.fsum(_bw_mp(mpmath, z) for z in zs)
            assert vol.lo <= total <= vol.hi, case


def test_point_enclosures_hold_mpmath_values():
    # rho = 0: the radius is the rounding of D at the centre alone, plus
    # the rounding of the moves that carry far points into the series domain
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(43)
    points = []
    for _ in range(80):
        r, t = 10 ** rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi)
        points += [complex(rng.uniform(-3, 4), rng.uniform(-3, 3)),
                   cmath.rect(r, t),
                   1 + cmath.rect(10 ** rng.uniform(-6, 0), t)]
    with mpmath.workdps(50):
        for z in points:
            enc = interval_volume([(z.real, z.real, z.imag, z.imag)])
            assert enc.lo <= _bw_mp(mpmath, z) <= enc.hi, z
            assert enc.width < 1e-12, z


# --------------------------------------------------- staged failures


def test_krawczyk_failure_names_each_rung(tri_a):
    radii = (0.05, 0.1, 0.5)
    with pytest.raises(CertifyError) as err:
        certify_hyperbolic(tri_a, radii=radii)
    message = str(err.value)
    assert err.value.stage == "krawczyk"
    assert all(f"{r}: " in message for r in radii)
    assert "not contracted" in message and "reaches 0, 1" in message
    assert len(message) < 400
