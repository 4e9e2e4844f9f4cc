"""Parsing, validation, serialization, and isomorphism of .tri files."""

import dataclasses
import hashlib
import itertools
import random
import re

import pytest
from conftest import sheared

from bandforge import gluing, krawczyk, tri as tri_module
from bandforge.gluing import PAIR_TYPE, edge_classes
from bandforge.krawczyk import certify_hyperbolic
from bandforge.tri import (CuspInfo, TriParseError, Triangulation, Tetrahedron,
                           combinatorial_isomorphic, parse_triangulation,
                           serialize_triangulation, validate)


# ------------------------------------------------------------ basic parsing

def test_parse_fixture_a(tri_a):
    assert tri_a.name == "positive_NewExDoubleBranchedCover.tri"
    assert tri_a.solution_type == "geometric_solution"
    assert tri_a.volume_hint == pytest.approx(10.01776364)
    assert tri_a.cs_value is None       # CS_unknown
    assert tri_a.tet_count == 12 and len(tri_a.tets) == 12
    assert tri_a.cusp_count == 1
    # the single cusp is Dehn filled along (1, 0)
    cusp = tri_a.cusps[0]
    assert not cusp.is_complete()
    assert cusp.filling_ints() == (1, 0)


def test_parse_fixture_b(tri_b):
    assert tri_b.tet_count == 26
    assert tri_b.cusp_count == 7
    complete = [c for c in tri_b.cusps if c.is_complete()]
    assert len(complete) == 1
    filled = [c.filling_ints() for c in tri_b.cusps if not c.is_complete()]
    assert len(filled) == 6
    assert all(f != (0, 0) for f in filled)


def test_parse_shape_hints_in_upper_half_plane(tri_a, tri_b):
    for tri in (tri_a, tri_b):
        assert all(t.shape_hint.imag > 0 for t in tri.tets)


def test_validate_clean(tri_a, tri_b):
    assert validate(tri_a) == []
    assert validate(tri_b) == []


# ------------------------------------------------------------ round trips

def test_round_trip_tokens(text_a, text_b):
    for text in (text_a, text_b):
        out = serialize_triangulation(parse_triangulation(text))
        assert out.split() == text.split()


def test_round_trip_bytes(text_a, text_b):
    # stronger than required: the serializer reproduces the layout exactly
    for text in (text_a, text_b):
        assert serialize_triangulation(parse_triangulation(text)) == text


def test_round_trip_is_stable(text_a):
    once = serialize_triangulation(parse_triangulation(text_a))
    twice = serialize_triangulation(parse_triangulation(once))
    assert once == twice


def test_round_trip_cs_known(tri_a):
    tri = dataclasses.replace(tri_a, cs_value=-0.0123456789012345)
    text = serialize_triangulation(tri)
    assert text.splitlines()[3].split() == ["CS_known", "-0.0123456789012345"]
    assert parse_triangulation(text) == tri


def test_writer_refuses_an_entry_that_is_not_an_int(tri_a):
    # `%d` once wrote the 0.5 as 0, text that parses to another, valid
    # triangulation; no triangulation holding it, or a bool, can be built
    # for the writer to see
    for value, seen in ((0.5, "0.5"), (False, "False")):
        with pytest.raises(TriParseError, match=f"^tet 0: vertex cusp 0 is {seen}, "
                           "not an int$"):
            _tet0(tri_a, vertex_cusp=(value, 0, 0, 0))
    tets = list(tri_a.tets)
    tets[5] = dataclasses.replace(tets[5], peripheral=(
        (1.0,) + tets[5].peripheral[0][1:], *tets[5].peripheral[1:]))
    with pytest.raises(TriParseError, match="^tet 5: peripheral entry 0 is 1.0"):
        dataclasses.replace(tri_a, tets=tuple(tets))


@pytest.mark.parametrize("k", [-10, 100, 10 ** 30])
def test_wide_peripheral_entries_round_trip(tri_b, k):
    # every entry keeps a space before it, however many digits it has
    wide = sheared(tri_b, k)
    text = serialize_triangulation(wide)
    back = parse_triangulation(text)
    assert back == wide
    assert serialize_triangulation(back).split() == text.split()


# each tetrahedron as the writer formatted it before its cells came from
# tables: % on every entry, sheet 1 as zeros, the reference for the tables
# and their fallback
_REFERENCE_TET = "\n".join(["%4d " * 4, " %d%d%d%d" * 4, "%4d " * 4]
                           + [" %2d" * 16] * 4 + ["%16.12f %16.12f\n"])


def _reference_text(tri):
    # the header, through the tetrahedron count, as the writer wrote it
    lines = serialize_triangulation(tri).split("\n")
    head = "\n".join(lines[:8 + len(tri.cusps)]) + "\n"
    return head + "\n".join(_REFERENCE_TET % (
        *t.neighbors, *itertools.chain(*t.gluings), *t.vertex_cusp,
        *_with_sheet_one(t), t.shape_hint.real, t.shape_hint.imag)
        for t in tri.tets)


def _with_sheet_one(tet):
    """The 64 peripheral integers of `tet` in file order, sheet 1 zero."""
    return [*itertools.chain(*(row + (0,) * 16 for row in tet.peripheral))]


def _shear_to(tri, value):
    """`tri` sheared until a meridian entry is `value`, and so its glued
    side's -value: at the first side whose longitude entry is +-1."""
    x, y = next((x, y) for t in tri.tets
                for x, y in zip(*t.peripheral) if y * y == 1)
    return sheared(tri, (value - x) * y)


@pytest.mark.parametrize("edit, hits", [
    (lambda t: t, set()),
    (lambda t: _shear_to(t, 99), {99, -99}),        # the ends of the table
    (lambda t: _shear_to(t, 100), {100, -100}),     # just outside it
    (lambda t: _shear_to(t, 10 ** 400), {10 ** 400, -10 ** 400}),
    (lambda t: sheared(t, 1000), set()),            # tets in and out of it
], ids=["fixture", "table_ends", "hundreds", "huge", "scaled"])
def test_writer_tables_agree_with_formatting(tri_a, tri_b, edit, hits):
    for tri in (tri_a, tri_b):
        built = edit(tri)
        entries = [set(itertools.chain(*t.peripheral)) for t in built.tets]
        assert hits <= set().union(*entries)
        if built is not tri:    # some tetrahedron is written from the table, some not
            assert {max(map(abs, e)) < 100 for e in entries} == {True, False}
        text = serialize_triangulation(built)
        assert text == _reference_text(built)
        back = parse_triangulation(text)
        assert back == built
        assert serialize_triangulation(back) == text


@pytest.mark.parametrize("spell", [
    lambda v: f"{v:+03d}", lambda v: f"{v:04d}",
    lambda v: f"-{v}" if v == 0 else str(v),
], ids=["signed_padded", "padded", "minus_zero"])
def test_reader_reads_spellings_outside_its_table(text_a, tri_a, spell):
    # every integer token of tet 2 of A, spelled as int() reads it but the
    # table of -99..99 does not hold it, one at a time and all at once
    tokens = text_a.split()
    start = len(tokens) - 78 * (tri_a.tet_count - 2)    # where tet 2 opens
    ints = [start + i for i in range(78) if not 4 <= i < 8 and i < 76]
    assert [int(tokens[i]) for i in ints] == [
        *tri_a.tets[2].neighbors, *tri_a.tets[2].vertex_cusp,
        *_with_sheet_one(tri_a.tets[2])]
    spans = [m.span() for m in re.finditer(r"\S+", text_a)]
    for chosen in [[i] for i in ints[::7]] + [ints]:
        text = text_a
        for i in reversed(chosen):
            a, b = spans[i]
            text = text[:a] + spell(int(tokens[i])) + text[b:]
        assert parse_triangulation(text) == tri_a


# ------------------------------------------------------------ diagnostics

def test_empty_input():
    with pytest.raises(TriParseError, match="missing header"):
        parse_triangulation("")


def test_truncated_file_reports_line(text_a):
    lines = text_a.splitlines()[:20]
    with pytest.raises(TriParseError, match="line"):
        parse_triangulation("\n".join(lines) + "\n")


def test_nonorientable_rejected(text_a):
    bad = text_a.replace("oriented_manifold", "nonorientable_manifold")
    with pytest.raises(TriParseError, match="oriented_manifold"):
        parse_triangulation(bad)


def test_klein_cusp_rejected(text_a):
    bad = text_a.replace("    torus ", "    Klein ", 1)
    with pytest.raises(TriParseError, match="Klein|torus"):
        parse_triangulation(bad)


def test_bad_permutation_digits(text_a):
    bad = text_a.replace(" 0132 2031 3120 2031", " 0132 2031 3121 2031", 1)
    with pytest.raises(TriParseError, match="permutation"):
        parse_triangulation(bad)


def test_neighbor_out_of_range(text_a):
    bad = text_a.replace("   9    7    1    2 ", "  99    7    1    2 ", 1)
    with pytest.raises(TriParseError):
        parse_triangulation(bad)


def test_noninteger_filling(text_a):
    bad = text_a.replace("   1.000000000000   0.000000000000",
                         "   1.500000000000   0.000000000000", 1)
    with pytest.raises(TriParseError, match="filling"):
        parse_triangulation(bad)


@pytest.mark.parametrize("m, l, shown", [
    ("1.000000000500", "0.000000000000", "(1.0000000005, 0.0)"),
    ("1.000000000000", "-0.000000000001", "(1.0, -1e-12)")], ids=["m", "l"])
def test_nearly_integral_filling_is_refused(text_a, m, l, shown):
    # a filling within 1e-9 of (1, 0) once passed, and A certified as the
    # (1, 0) filling of a text that names no manifold
    bad = text_a.replace("   1.000000000000   0.000000000000", f"   {m}   {l}", 1)
    with pytest.raises(TriParseError) as err:
        parse_triangulation(bad)
    assert str(err.value) == f"cusp 0: filling {shown} is not integral"


def test_noncoprime_filling(text_a):
    bad = text_a.replace("   1.000000000000   0.000000000000",
                         "   2.000000000000   4.000000000000", 1)
    with pytest.raises(TriParseError, match="filling"):
        parse_triangulation(bad)


def test_broken_involution_detected(tri_a):
    # retarget one neighbor so face pairings no longer match up
    t0 = tri_a.tets[0]
    swapped = (t0.neighbors[1], t0.neighbors[0]) + t0.neighbors[2:]
    with pytest.raises(TriParseError) as info:
        _tet0(tri_a, neighbors=swapped)
    assert info.value.line is None and str(info.value) == "; ".join(
        f"tet {t} face {f}: face pairing with tet {u} face {g} is not involutive"
        for t, f, u, g in ((0, 0, 7, 0), (0, 1, 9, 0), (7, 0, 0, 1), (9, 0, 0, 0)))


def test_even_permutation_diagnostic(text_a):
    # an even gluing permutation breaks the coherent orientation
    bad = text_a.replace(" 0132 2031 3120 2031", " 0123 2031 3120 2031", 1)
    with pytest.raises(TriParseError, match="orientation|even|permutation"):
        parse_triangulation(bad)


def test_trailing_garbage(text_a):
    with pytest.raises(TriParseError, match="trailing"):
        parse_triangulation(text_a + "\n17\n")


def test_cusp_index_out_of_range(text_a):
    bad = text_a.replace("   0    0    0    0 \n  0 -5",
                         "   3    0    0    0 \n  0 -5", 1)
    with pytest.raises(TriParseError):
        parse_triangulation(bad)


# ------------------------------------------------------------ isomorphism

def _relabel(tri, perm):
    """Relabel tetrahedra by perm (new index of old tet i is perm[i])."""
    new_tets = [None] * tri.tet_count
    for i, tet in enumerate(tri.tets):
        new_tets[perm[i]] = Tetrahedron(
            tuple(perm[n] for n in tet.neighbors),
            tet.gluings, tet.vertex_cusp, tet.peripheral, tet.shape_hint)
    return dataclasses.replace(tri, tets=tuple(new_tets))


def test_isomorphic_to_itself(tri_a, tri_b):
    assert combinatorial_isomorphic(tri_a, tri_a)
    assert combinatorial_isomorphic(tri_b, tri_b)


def test_isomorphic_after_relabeling(tri_a):
    perm = [(i + 5) % 12 for i in range(12)]
    relabeled = _relabel(tri_a, perm)
    assert validate(relabeled) == []
    assert combinatorial_isomorphic(tri_a, relabeled)


def test_isomorphic_after_vertex_relabeling(tri_a):
    # relabel the vertices of tet 0 by an even permutation; gluings stay
    # odd and the result is the same triangulation up to isomorphism
    rho = (1, 2, 0, 3)
    rho_inv = (2, 0, 1, 3)
    tets = list(tri_a.tets)     # edited in place, then built once
    t = 0
    old = tri_a.tets[t]
    new_neighbors = tuple(old.neighbors[rho_inv[f]] for f in range(4))
    new_gluings = []
    for f in range(4):
        g = old.gluings[rho_inv[f]]
        g = tuple(g[rho_inv[v]] for v in range(4))
        if new_neighbors[f] == t:
            g = tuple(rho[x] for x in g)
        new_gluings.append(g)
    new_cusp = tuple(old.vertex_cusp[rho_inv[v]] for v in range(4))
    new_per = tuple(
        tuple(row[rho_inv[v] * 4 + rho_inv[f]] for v in range(4)
              for f in range(4))
        for row in old.peripheral)
    tets[t] = Tetrahedron(new_neighbors, tuple(new_gluings), new_cusp, new_per,
                          old.shape_hint)
    for u in range(tri_a.tet_count):
        if u == t:
            continue
        tu = tets[u]
        if t not in tu.neighbors:
            continue
        fixed = tuple(
            tuple(rho[x] for x in g) if tu.neighbors[f] == t else g
            for f, g in enumerate(tu.gluings))
        tets[u] = Tetrahedron(tu.neighbors, fixed, tu.vertex_cusp, tu.peripheral,
                              tu.shape_hint)
    twisted = dataclasses.replace(tri_a, tets=tuple(tets))
    assert twisted != tri_a and validate(twisted) == []
    assert combinatorial_isomorphic(tri_a, twisted)


def _relabel_vertices(tri, rhos):
    """Relabel the vertices of tet t by rhos[t] (vertex v becomes rhos[t][v])."""
    tets = []
    for t, tet in enumerate(tri.tets):
        old = [rhos[t].index(v) for v in range(4)]      # old label of v
        tets.append(Tetrahedron(
            tuple(tet.neighbors[old[f]] for f in range(4)),
            tuple(tuple(rhos[tet.neighbors[old[f]]][tet.gluings[old[f]][old[v]]]
                        for v in range(4)) for f in range(4)),
            tuple(tet.vertex_cusp[old[v]] for v in range(4)),
            tuple(tuple(row[4 * old[v] + old[f]] for v in range(4)
                        for f in range(4)) for row in tet.peripheral),
            tet.shape_hint))
    return dataclasses.replace(tri, tets=tuple(tets))


def _reference_edge_classes(tri):
    """The orbit walk over (tet, vertex pair) tuples that `edge_classes`
    ran before it walked integer edge ids."""
    image = {(s, e): tuple(sorted((s[e[0]], s[e[1]])))
             for s in itertools.permutations(range(4)) for e in PAIR_TYPE}
    seen, classes = set(), []
    for start in itertools.product(range(len(tri.tets)), sorted(PAIR_TYPE)):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for t, e in members:
            tet = tri.tets[t]
            for f in set(range(4)) - set(e):
                img = (tet.neighbors[f], image[tuple(tet.gluings[f]), e])
                if img not in seen:
                    seen.add(img)
                    members.append(img)
        classes.append(tuple((t, e, PAIR_TYPE[e]) for t, e in sorted(members)))
    return classes


def test_edge_classes_match_the_reference_walk(tri_a, tri_b):
    # vertices relabelled by permutations of one parity keep every gluing
    # odd, as a triangulation's must be
    rng = random.Random(19)
    perms = list(itertools.permutations(range(4)))
    cases = [(tri_a, tri_a), (tri_b, tri_b)]
    for tri in (tri_a, tri_b):
        for parity in (1, -1, 1):
            moved = _relabel(tri, rng.sample(range(tri.tet_count), tri.tet_count))
            same = [p for p in perms if tri_module._SIGN[p] == parity]
            cases.append((tri, _relabel_vertices(
                moved, [rng.choice(same) for _ in tri.tets])))
    used = set()
    for tri, relabeled in cases:
        used.update(itertools.chain(*(t.gluings for t in relabeled.tets)))
        classes = edge_classes(relabeled)
        assert classes == _reference_edge_classes(relabeled)
        assert sorted(map(len, classes)) == sorted(map(len, edge_classes(tri)))
    assert len(used) == 12      # the walk met every odd permutation


def test_vertex_relabeling_keeps_the_triangulation(tri_a):
    # the helper above is sound: an even relabeling of every tetrahedron
    # validates and is isomorphic to A
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    rng = random.Random(5)
    relabeled = _relabel_vertices(tri_a, [rng.choice(even) for _ in tri_a.tets])
    assert validate(relabeled) == []
    assert combinatorial_isomorphic(tri_a, relabeled)


def test_not_isomorphic_different_sizes(tri_a, tri_b):
    assert not combinatorial_isomorphic(tri_a, tri_b)


def _rewire(tri, pair_one, pair_two):
    """Cross-wire two face pairings (t1,f1)<->(u1,e1) and (t2,f2)<->(u2,e2)
    into (t1,f1)<->(u2,e2) and (u1,e1)<->(t2,f2), with fresh odd gluings."""
    (t1, f1), (u1, e1) = pair_one
    (t2, f2), (u2, e2) = pair_two

    def odd_perm_sending(a, b):
        for perm in itertools.permutations(range(4)):
            sign = sum(1 for i in range(4) for j in range(i + 1, 4)
                       if perm[i] > perm[j]) % 2
            if sign == 1 and perm[a] == b:
                return perm
        raise AssertionError

    def inv(p):
        out = [0] * 4
        for i, v in enumerate(p):
            out[p[i]] = i
        return tuple(out)

    sigma = odd_perm_sending(f1, e2)
    tau = odd_perm_sending(e1, f2)
    tets = list(tri.tets)       # edited in place, then built once
    edits = {
        (t1, f1): (u2, sigma),
        (u2, e2): (t1, inv(sigma)),
        (u1, e1): (t2, tau),
        (t2, f2): (u1, inv(tau)),
    }
    for (t, f), (nbr, g) in edits.items():
        tet = tets[t]
        neighbors = tet.neighbors[:f] + (nbr,) + tet.neighbors[f + 1:]
        gluings = tet.gluings[:f] + (g,) + tet.gluings[f + 1:]
        tets[t] = Tetrahedron(neighbors, gluings, tet.vertex_cusp, tet.peripheral,
                              tet.shape_hint)
    return dataclasses.replace(tri, tets=tuple(tets))


def test_not_isomorphic_same_size(tri_a):
    # rewire two face pairings of A into a valid but combinatorially
    # different triangulation, witnessed by a changed edge-valence profile
    def valences(tri):
        return sorted(map(len, edge_classes(tri)))

    base = valences(tri_a)
    pairs = []
    seen = set()
    for t, tet in enumerate(tri_a.tets):
        for f in range(4):
            u, e = tet.neighbors[f], tet.gluings[f][f]
            if (u, e) not in seen:
                seen.add((t, f))
                pairs.append(((t, f), (u, e)))
    for one, two in itertools.combinations(pairs, 2):
        tets_involved = {one[0][0], one[1][0], two[0][0], two[1][0]}
        if len(tets_involved) != 4:
            continue
        try:    # most rewirings cut a peripheral curve, which is refused
            candidate = _rewire(tri_a, one, two)
        except TriParseError:
            continue
        if valences(candidate) != base:
            assert not combinatorial_isomorphic(tri_a, candidate)
            return
    pytest.skip("no rewiring with a distinct edge profile found")


# ------------------------------------------------ diagnostic line numbers

def _edit_line(text, lineno, new):
    lines = text.splitlines()
    lines[lineno - 1] = new
    return "\n".join(lines) + "\n"


def _parse_error(text):
    with pytest.raises(TriParseError) as info:
        parse_triangulation(text)
    return info.value


@pytest.mark.parametrize("lineno, new, words", [
    (3, "nonorientable_manifold", "orientability"),
    (4, "CS_maybe", "CS flag"),
    (6, "0 0", "cusp count"),
    (9, "0", "tetrahedron count"),
])
def test_header_diagnostic_names_its_own_line(text_a, lineno, new, words):
    err = _parse_error(_edit_line(text_a, lineno, new))
    assert err.line == lineno, str(err)
    assert str(err).startswith(f"line {lineno}: ") and words in str(err)


def test_cs_unknown_value_is_refused(tri_a, text_a):
    # a CS value is always written as CS_known, so CS_unknown with a value
    # can only come from a text, and the reader refuses it on its own line
    line = serialize_triangulation(dataclasses.replace(tri_a, cs_value=1.5))
    assert line.splitlines()[3].split()[0] == "CS_known"
    err = _parse_error(_edit_line(text_a, 4, "CS_unknown  1.5"))
    assert err.line == 4, str(err)
    assert str(err) == "line 4: expected integer for cusp count, got '1.5'"


SECOND = ("second header count 1 is nonzero (uninterpreted; only 0 is "
          "supported)")
KLEIN = "cusp 0: topology 'Klein' is not supported (only torus cusps are)"


@pytest.mark.parametrize("edits, lineno, message", [
    ({7: "    Klein   1.000000000000   0.000000000000"}, 7, KLEIN),
    ({6: "1 1"}, 6, SECOND),
    # the first refusal in text order, before validate sees the volume hint
    ({2: "geometric_solution  nan", 6: "1 1",
      7: "    Klein   1.500000000000   0.000000000000"}, 6, SECOND),
], ids=["klein_cusp", "second_count", "with_validate"])
def test_reader_refuses_header_values(text_a, edits, lineno, message):
    # no Triangulation holds them, so the reader refuses them itself, on
    # their line, as it does the orientability and the CS flag
    text = text_a
    for n, new in edits.items():
        text = _edit_line(text, n, new)
    err = _parse_error(text)
    assert str(err) == f"line {lineno}: {message}" and err.line == lineno


# tet 2 of fixture A: its sheet-1 rows 1 and 3 are lines 32 and 34
@pytest.mark.parametrize("row", [1, 3])
@pytest.mark.parametrize("value", [1, -1])
def test_nonzero_sheet_one_entry_is_refused_on_its_line(text_a, row, value):
    # no Tetrahedron holds sheet 1, so the reader refuses each nonzero
    # entry at its token; validate once did, with no line
    lineno = 31 + row
    for col in range(16):
        tokens = text_a.splitlines()[lineno - 1].split()
        assert tokens[col] == "0"
        tokens[col] = str(value)
        err = _parse_error(_edit_line(text_a, lineno, " ".join(tokens)))
        assert err.line == lineno
        assert str(err) == (f"line {lineno}: tet 2: peripheral sheet row {row} "
                            "is nonzero (unexpected for an oriented manifold)")


# tet 2 of fixture A: its peripheral row 1 is line 10 + 9 * 2 + 3 + 1
TET, ROW, ROW_LINE = 2, 1, 32


@pytest.mark.parametrize("col", range(16))
def test_corrupt_peripheral_entry_is_named(text_a, col):
    tokens = text_a.splitlines()[ROW_LINE - 1].split()
    assert len(tokens) == 16
    tokens[col] = f"x{col}"
    err = _parse_error(_edit_line(text_a, ROW_LINE, " ".join(tokens)))
    assert str(err) == (f"line {ROW_LINE}: expected integer for tet {TET} "
                        f"peripheral row {ROW}, got 'x{col}'")


# SHA-256 of (message, line) for every variant of A with one token replaced
# by "x", A cut after each token, and A with one trailing token (None for a
# variant that parses): any change to the reader's errors moves it
ERROR_DIGEST = "593130f6fabf2799be3cfd7726bee2f2cc7f17d89cc04ce4d34067a176800159"


def _error_variants(text):
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    yield from (text[:a] + "x" + text[b:] for a, b in spans)
    yield from (text[:b] for _, b in spans)
    yield text + "x\n"


def test_reader_errors_match_the_pinned_digest(text_a):
    digest = hashlib.sha256()
    for text in _error_variants(text_a):
        try:
            parse_triangulation(text)
            outcome = None
        except TriParseError as err:
            outcome = (str(err), err.line)
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == ERROR_DIGEST


def test_file_cut_inside_peripheral_row(text_a):
    lines = text_a.splitlines()
    cut = lines[:ROW_LINE - 1] + [" ".join(lines[ROW_LINE - 1].split()[:7])]
    err = _parse_error("\n".join(cut) + "\n")
    assert str(err) == (f"line {ROW_LINE}: unexpected end of input while "
                        f"reading tet {TET} peripheral row {ROW}")


@pytest.mark.parametrize("lineno, index, token, what", [
    (2, 1, "1_0.01776364", "real for volume hint"),
    (10, 0, "0_9", "integer for tet 0 neighbor 0"),
    (13, 3, "0_5", "integer for tet 0 peripheral row 0"),
    (17, 0, "0.331_423656275", "real for tet 0 shape re"),
], ids=["header real", "neighbor", "peripheral", "shape hint"])
def test_digit_separator_is_a_parse_error(text_a, lineno, index, token, what):
    # int and float read "0_9" as 9; the format has no digit separators
    tokens = text_a.splitlines()[lineno - 1].split()
    assert float(token) == float(tokens[index])
    tokens[index] = token
    err = _parse_error(_edit_line(text_a, lineno, " ".join(tokens)))
    assert str(err) == f"line {lineno}: expected {what}, got {token!r}"


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


@pytest.mark.parametrize("lineno, edit, char", [
    (1, lambda line: line + "\u03a9", "\u03a9"),
    # int() reads these digits, so "\u0661\u0662" would pass as 12 tetrahedra
    (9, lambda line: line.translate(ARABIC_INDIC), "\u0661"),
    # a separator that splitlines() drops, so only its line can name it
    (ROW_LINE, lambda line: line + "\u2028", "\u2028"),
], ids=["name", "digits", "separator"])
def test_non_ascii_text_names_its_first_line(text_a, lineno, edit, char):
    lines = text_a.splitlines()
    text = _edit_line(text_a, lineno, edit(lines[lineno - 1]))
    err = _parse_error(text + "\u00e9\n")
    assert err.line == lineno
    assert str(err) == f"line {lineno}: non-ASCII character {char!r}"


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"],
                         ids=["VT", "FF", "FS", "GS", "RS", "CR"])
@pytest.mark.parametrize("bad, message", [
    ("x", "expected integer for tet 0 neighbor 0, got 'x'"),
    ("\u00e9", "non-ASCII character '\u00e9'"),
], ids=["token", "non_ascii"])
def test_line_numbers_count_only_newlines(text_a, space, bad, message):
    # str.splitlines() also breaks at these; `sed` and editors do not
    lines = text_a.splitlines()
    assert lines[1].split() == ["geometric_solution", "10.01776364"]
    lines[1] = f"geometric_solution {space} 10.01776364"
    lines[9] = lines[9].replace("9", bad, 1)
    err = _parse_error("\n".join(lines) + "\n")
    assert (err.line, str(err)) == (10, f"line 10: {message}")


# ------------------------------------------------ validate, built directly

def _tet0(tri, **changes):
    tet = dataclasses.replace(tri.tets[0], **changes)
    return dataclasses.replace(tri, tets=(tet,) + tri.tets[1:])


def _last(tri, **changes):
    """`tri` with its last tetrahedron edited: a fault there is found by the
    one pass over every tetrahedron that `validate` makes first."""
    tet = dataclasses.replace(tri.tets[-1], **changes)
    return dataclasses.replace(tri, tets=tri.tets[:-1] + (tet,))


UNPAIRED = "tet 9 face 0: face pairing with tet 0 face 0 is not involutive"
SPACED = "is not one token free of whitespace"


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: _tet0(t, neighbors=(12,) + t.tets[0].neighbors[1:]),
     f"tet 0 face 0: neighbor 12 out of range; {UNPAIRED}"),
    (lambda t: _tet0(t, gluings=((0, 0, 1, 2),) + t.tets[0].gluings[1:]),
     f"tet 0 face 0: gluing (0, 0, 1, 2) is not a permutation; {UNPAIRED}"),
    # the four rows of the file, sheet 1 included: only the reader sees sheet 1
    (lambda t: _tet0(t, peripheral=(t.tets[0].peripheral[0], (1,) + (0,) * 15,
                                    t.tets[0].peripheral[1], (0,) * 16)),
     "tet 0: 4 neighbors, 4 gluings, 4 vertex cusps and peripheral rows of "
     "(16, 16, 16, 16) entries; expected 4, 4, 4 and 2 rows of 16"),
    (lambda t: dataclasses.replace(t, name="fixture a"),
     f"name 'fixture a' {SPACED}"),
    (lambda t: dataclasses.replace(t, name=""), f"name '' {SPACED}"),
    (lambda t: dataclasses.replace(t, solution_type="geometric solution"),
     f"solution type 'geometric solution' {SPACED}"),
    # one token, but the parser refuses the text it is written to
    (lambda t: dataclasses.replace(t, name="\u03a9"), "name '\u03a9' is not ASCII"),
    (lambda t: dataclasses.replace(t, solution_type="g\u00e9om\u00e9trique"),
     "solution type 'g\u00e9om\u00e9trique' is not ASCII"),
    (lambda t: Triangulation(t.name, t.solution_type, t.volume_hint, t.cs_value,
                             t.cusps, ()),
     "a triangulation needs a tetrahedron and a cusp"),
    (lambda t: dataclasses.replace(t, volume_hint=float("nan")),
     "volume hint nan is not finite"),
    (lambda t: dataclasses.replace(t, cs_value=float("-inf")),
     "CS value -inf is not finite"),
    (lambda t: _tet0(t, shape_hint=0j), "tet 0: shape hint 0j is degenerate"),
    (lambda t: _tet0(t, shape_hint=1 + 0j),
     "tet 0: shape hint (1+0j) is degenerate"),
    (lambda t: _tet0(t, shape_hint=complex(float("nan"), 1)),
     "tet 0: shape hint (nan+1j) is degenerate"),
    (lambda t: _tet0(t, shape_hint=complex(0.5, float("inf"))),
     "tet 0: shape hint (0.5+infj) is degenerate"),
    # entries that are not ints, each written as an int the parser refuses
    (lambda t: _tet0(t, neighbors=(0.5,) + t.tets[0].neighbors[1:]),
     "tet 0: neighbor 0 is 0.5, not an int"),
    (lambda t: _tet0(t, gluings=((0.0, 2, 1, 3),) + t.tets[0].gluings[1:]),
     "tet 0: gluing entry 0 is 0.0, not an int"),
    (lambda t: _tet0(t, vertex_cusp=(1.0, 0, 0, 0)),
     "tet 0: vertex cusp 0 is 1.0, not an int"),
    (lambda t: _tet0(t, peripheral=(t.tets[0].peripheral[0],
                                    (1.5,) + t.tets[0].peripheral[1][1:])),
     "tet 0: peripheral entry 16 is 1.5, not an int"),
    # of the wrong length, but tuples of ints: only the gluing's own rule
    # refuses a 3-entry gluing
    (lambda t: _tet0(t, gluings=((1, 0, 2),) + t.tets[0].gluings[1:]),
     f"tet 0 face 0: gluing (1, 0, 2) is not a permutation; {UNPAIRED}"),
    (lambda t: _last(t, peripheral=(t.tets[-1].peripheral[0],
                                    t.tets[-1].peripheral[1][:15])),
     "tet 11: 4 neighbors, 4 gluings, 4 vertex cusps and peripheral rows of "
     "(16, 15) entries; expected 4, 4, 4 and 2 rows of 16"),
    (lambda t: _last(t, neighbors=t.tets[-1].neighbors[:3]),
     "tet 11: 3 neighbors, 4 gluings, 4 vertex cusps and peripheral rows of "
     "(16, 16) entries; expected 4, 4, 4 and 2 rows of 16"),
], ids=["neighbor", "gluing", "sheet_row", "name_space", "name_empty",
        "solution_type", "name_non_ascii", "solution_type_non_ascii",
        "no_tets", "volume_nan", "cs_inf", "hint_0", "hint_1", "hint_nan", "hint_inf",
        "neighbor_float", "gluing_float", "vertex_cusp_float", "peripheral_float",
        "gluing_three", "peripheral_fifteen", "neighbors_three"])
def test_validate_diagnostic_fails_certify(tri_a, corrupt, message):
    # no such triangulation reaches certify, or the writer: building it,
    # whether by the constructor or by dataclasses.replace, raises the
    # diagnostics validate once returned, joined, with no line
    with pytest.raises(TriParseError) as info:
        corrupt(tri_a)
    assert str(info.value) == message and info.value.line is None


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: dataclasses.replace(t, name=None), "name is None, not a str"),
    (lambda t: dataclasses.replace(t, solution_type=b"geometric_solution"),
     "solution type is b'geometric_solution', not a str"),
    (lambda t: dataclasses.replace(t, volume_hint="x"),
     "volume hint is 'x', not a float"),
    (lambda t: dataclasses.replace(t, volume_hint=10), "volume hint is 10, not a float"),
    (lambda t: dataclasses.replace(t, cs_value="x"), "CS value is 'x', not a float"),
    (lambda t: dataclasses.replace(t, cusps=(CuspInfo("1", 0.0),)),
     "cusp 0: filling ('1', 0.0) is not two floats"),
    (lambda t: dataclasses.replace(t, cusps=(CuspInfo(1.0, None),)),
     "cusp 0: filling (1.0, None) is not two floats"),
    (lambda t: dataclasses.replace(t, cusps=(None,)), "cusp 0 is None, not a CuspInfo"),
    (lambda t: dataclasses.replace(t, tets=(None,) + t.tets[1:]),
     "tet 0 is None, not a Tetrahedron"),
    (lambda t: _tet0(t, shape_hint="x"), "tet 0: shape hint 'x' is not a complex"),
    (lambda t: _tet0(t, neighbors=None),
     "tet 0: a field, gluing or peripheral row is not a tuple"),
], ids=["name_none", "solution_type_bytes", "volume_str", "volume_int", "cs_str",
        "filling_str", "filling_none", "cusp_none", "tet_none", "hint_str",
        "neighbors_none"])
def test_mistyped_fields_are_diagnostics(tri_a, corrupt, message):
    # each once raised AttributeError or TypeError out of validate (an int
    # volume hint passed); a field of the wrong type gets no other check
    with pytest.raises(TriParseError) as info:
        corrupt(tri_a)
    assert str(info.value) == message and info.value.line is None


@pytest.mark.parametrize("field, value", [
    ("orientability", "nonorientable_manifold"), ("cs_flag", "CS_maybe"),
    ("cs_flag", "CS_known"), ("fake_cusp_count", 1), ("tet_count", 13),
    ("cusp_count", 2), ("topology", "Klein"),
], ids=["orientability", "cs_flag", "cs_known_no_value", "second_count",
        "tet_count", "cusp_count", "topology"])
def test_header_constants_cannot_be_built(tri_a, field, value):
    # the format fixes these values or restates them, so no field holds them
    assert [f.name for f in dataclasses.fields(tri_a)] == [
        "name", "solution_type", "volume_hint", "cs_value", "cusps", "tets"]
    assert [f.name for f in dataclasses.fields(CuspInfo)] == [
        "filling_m", "filling_l"]
    assert (tri_a.tet_count, tri_a.cusp_count) == (12, 1)
    with pytest.raises(TypeError):
        if field == "topology":
            CuspInfo(value, 1.0, 0.0)
        else:
            dataclasses.replace(tri_a, **{field: value})


def _as(kind, tet, fields):
    """`tet` with every entry of the named fields converted by `kind`."""
    def conv(value):
        return kind(value) if isinstance(value, int) else tuple(map(conv, value))
    return dataclasses.replace(tet, **{f: conv(getattr(tet, f)) for f in fields})


@pytest.mark.parametrize("kind", [float, bool, str])
@pytest.mark.parametrize("fields", [("neighbors",), ("gluings",), ("vertex_cusp",),
                                    ("peripheral",),
                                    ("neighbors", "gluings", "vertex_cusp", "peripheral")])
def test_entries_that_are_not_ints_are_diagnostics(tri_a, kind, fields):
    # built in code, equal in value or not: tri.tets[7.0] and relations[0.0]
    # once raised TypeError out of validate and build_equations
    tet = _as(kind, tri_a.tets[0], fields)
    # field, diagnostic name, and the field's entries in order
    entries = [("neighbors", "neighbor", tet.neighbors),
               ("gluings", "gluing entry", itertools.chain(*tet.gluings)),
               ("vertex_cusp", "vertex cusp", tet.vertex_cusp),
               ("peripheral", "peripheral entry", itertools.chain(*tet.peripheral))]
    expected = [f"tet 0: {name} {i} is {x!r}, not an int"
                for field, name, xs in entries if field in fields
                for i, x in enumerate(xs)]
    # the other tetrahedra check no face pairing against tet 0
    with pytest.raises(TriParseError) as info:
        dataclasses.replace(tri_a, tets=(tet,) + tri_a.tets[1:])
    assert str(info.value) == "; ".join(expected) and info.value.line is None


def _with_last(value, x):
    """`value`, a tuple of ints or of tuples of them, with its last int x."""
    last = value[-1]
    return value[:-1] + (_with_last(last, x) if type(last) is tuple else x,)


@pytest.mark.parametrize("kind", [float, bool, str])
@pytest.mark.parametrize("field, name, index", [
    ("neighbors", "neighbor", 3), ("gluings", "gluing entry", 15),
    ("vertex_cusp", "vertex cusp", 3), ("peripheral", "peripheral entry", 31)])
def test_one_entry_that_is_not_an_int_is_named(tri_a, kind, field, name, index):
    # the last int of a field of the last tetrahedron: the one pass over
    # every tetrahedron finds it, and the loop over each names it as before
    value = getattr(tri_a.tets[-1], field)
    x = kind(value[-1][-1] if field in ("gluings", "peripheral") else value[-1])
    with pytest.raises(TriParseError) as info:
        _last(tri_a, **{field: _with_last(value, x)})
    assert str(info.value) == f"tet 11: {name} {index} is {x!r}, not an int"


NOT_A_TUPLE = "a field, gluing or peripheral row is not a tuple"


@pytest.mark.parametrize("edit, message", [
    (lambda t: dataclasses.replace(t, tets=list(t.tets)),
     "cusps and tets must be tuples"),
    (lambda t: dataclasses.replace(t, cusps=list(t.cusps)),
     "cusps and tets must be tuples"),
    (lambda t: dataclasses.replace(t, tets=tuple(dataclasses.replace(
        x, gluings=tuple(map(list, x.gluings))) for x in t.tets)),
     "; ".join(f"tet {i}: {NOT_A_TUPLE}" for i in range(12))),
    (lambda t: _tet0(t, gluings=list(t.tets[0].gluings)), f"tet 0: {NOT_A_TUPLE}"),
    (lambda t: _tet0(t, neighbors=list(t.tets[0].neighbors)),
     f"tet 0: {NOT_A_TUPLE}"),
    (lambda t: _tet0(t, peripheral=(list(t.tets[0].peripheral[0]),
                                    *t.tets[0].peripheral[1:])),
     f"tet 0: {NOT_A_TUPLE}"),
    (lambda t: _last(t, vertex_cusp=list(t.tets[-1].vertex_cusp)),
     f"tet 11: {NOT_A_TUPLE}"),
], ids=["tets", "cusps", "list_gluings", "gluings", "neighbors", "peripheral_row",
        "vertex_cusp_last"])
def test_containers_must_be_tuples(tri_a, edit, message):
    # a list inside a valid triangulation could be changed after the check
    with pytest.raises(TriParseError) as info:
        edit(tri_a)
    assert str(info.value) == message and info.value.line is None


def test_a_triangulation_is_validated_once(text_b, tri_b, monkeypatch):
    # construction is the one check: no later stage holds validate
    assert all(v is not validate for module in (gluing, krawczyk)
               for v in vars(module).values())
    calls = []
    monkeypatch.setattr(tri_module, "validate",
                        lambda t: calls.append(t) or validate(t))
    assert parse_triangulation(text_b) == tri_b and len(calls) == 1
    calls.clear()
    assert certify_hyperbolic(tri_b).valid
    serialize_triangulation(tri_b)
    assert calls == []


# ------------------------------------------------ peripheral curves

def _curves(tri, meridian, longitude):
    """`tri` with the curves made from each tetrahedron's (mu, lam) rows."""
    return dataclasses.replace(tri, tets=tuple(dataclasses.replace(t, peripheral=(
        meridian(*t.peripheral), longitude(*t.peripheral))) for t in tri.tets))


def _meet(tri, value):
    """The refusal of `tri` when meridian . longitude is `value` on every cusp."""
    return "; ".join(f"cusp {c}: meridian . longitude is {value}, not 1 or -1 "
                     "(the curves are not a basis)" for c in range(tri.cusp_count))


def _twice(row):
    return tuple(2 * x for x in row)


@pytest.mark.parametrize("meridian, longitude, value", [
    (lambda mu, lam: _twice(mu), lambda mu, lam: lam, 2),   # so mu . lam = 1
    (lambda mu, lam: mu, lambda mu, lam: _twice(lam), 2),
    (lambda mu, lam: lam, lambda mu, lam: _twice(mu), -2),  # antisymmetric
    (lambda mu, lam: mu, lambda mu, lam: mu, 0),
    (lambda mu, lam: lam, lambda mu, lam: lam, 0),
], ids=["meridian_doubled", "longitude_doubled", "swapped", "meridian_twice",
        "longitude_twice"])
@pytest.mark.parametrize("shear", [0, 5, 10 ** 30])
def test_curves_that_are_no_basis_are_refused(tri_a, tri_b, meridian, longitude,
                                              value, shear):
    # mu -> mu + k lam keeps mu . lam; B doubled once certified at 19.2863
    # and A doubled at 10.3953, the volume of its (2, 0) orbifold filling
    for tri in (tri_a, tri_b):
        base = sheared(tri, shear)
        with pytest.raises(TriParseError) as info:
            _curves(base, meridian, longitude)
        assert str(info.value) == _meet(tri, value) and info.value.line is None
    swapped = _curves(tri_b, lambda mu, lam: lam, lambda mu, lam: mu)
    assert validate(swapped) == []      # lam . mu = -1 is a basis too


def test_relabelling_keeps_meridian_dot_longitude(tri_a, tri_b):
    # 40 orientation-preserving relabellings: tetrahedra shuffled, each
    # one's vertices by an even permutation, so every gluing stays odd
    rng = random.Random(23)
    even = [p for p in itertools.permutations(range(4)) if tri_module._SIGN[p] == 1]
    for i in range(40):
        tri = (tri_a, tri_b)[i % 2]
        moved = _relabel_vertices(
            _relabel(tri, rng.sample(range(tri.tet_count), tri.tet_count)),
            [rng.choice(even) for _ in tri.tets])
        with pytest.raises(TriParseError) as info:
            _curves(moved, lambda mu, lam: _twice(mu), lambda mu, lam: lam)
        assert str(info.value) == _meet(tri, 2)


def test_glued_vertices_on_different_cusps_are_refused(tri_b, text_b):
    # tet 0's vertex 3 carries no curve, so only the vertex rule sees it
    # moved from cusp 6 to cusp 0; once it certified with B's certificate
    message = (
        "tet 0 face 0: vertex 3 on cusp 0 is glued to tet 7 vertex 3 on cusp 6; "
        "tet 0 face 1: vertex 3 on cusp 0 is glued to tet 21 vertex 0 on cusp 6; "
        "tet 0 face 2: vertex 3 on cusp 0 is glued to tet 2 vertex 3 on cusp 6")
    assert tri_b.tets[0].vertex_cusp == (6, 5, 4, 6)
    with pytest.raises(TriParseError) as info:
        _tet0(tri_b, vertex_cusp=(6, 5, 4, 0))
    assert str(info.value) == message and info.value.line is None
    assert text_b.splitlines()[17] == "   6    5    4    6 "
    assert str(_parse_error(_edit_line(text_b, 18, "   6    5    4    0 "))) == message


def test_every_single_entry_edit_is_refused(tri_a):
    # each sheet-0 entry of A moved by +-1: 12 tets x 2 rows x 16 entries
    # x 2 signs, each of which once passed validate and certified
    refused = 0
    for t, tet in enumerate(tri_a.tets):
        for r, i, d in itertools.product((0, 1), range(16), (1, -1)):
            row = list(tet.peripheral[r])
            row[i] += d
            rows = list(tet.peripheral)
            rows[r] = tuple(row)
            tets = list(tri_a.tets)
            tets[t] = dataclasses.replace(tet, peripheral=tuple(rows))
            with pytest.raises(TriParseError, match="is not closed"):
                dataclasses.replace(tri_a, tets=tuple(tets))
            refused += 1
    assert refused == 768


def test_a_curve_not_closed_is_named(text_a):
    # the entry at f = v of tet 0's meridian, which is unused and must be 0
    text = _edit_line(text_a, 13, text_a.splitlines()[12].replace("  0 ", "  1 ", 1))
    err = _parse_error(text)
    assert str(err) == "cusp 0: the meridian is not closed in tet 0 vertex 0"
    assert err.line is None
    # with the side in face 1 moved by -1 the triangle's sum is 0 again,
    # but the unused entry is still not 0
    text = _edit_line(text_a, 13, text_a.splitlines()[12].replace(
        "  0 -5 ", "  1 -6 ", 1))
    assert str(_parse_error(text)) == str(err)


def test_curves_must_match_across_faces(tri_a, tri_b):
    # one strand of tet 0's meridian moved from its side in face 1 to that
    # in face 3: the triangle stays closed, but neither side matches its
    # glued side
    mu = list(tri_a.tets[0].peripheral[0])
    mu[1], mu[3] = mu[1] + 1, mu[3] - 1
    with pytest.raises(TriParseError) as info:
        _tet0(tri_a, peripheral=(tuple(mu), *tri_a.tets[0].peripheral[1:]))
    assert str(info.value) == (
        "cusp 0: the curves of tet 0 vertex 0 do not match across face 1; "
        "cusp 0: the curves of tet 0 vertex 0 do not match across face 3; "
        "cusp 0: the curves of tet 2 vertex 2 do not match across face 1; "
        "cusp 0: the curves of tet 7 vertex 2 do not match across face 0")
    # a vertex that carries a curve, put on another cusp: the glued vertices
    # disagree before the curves are read
    t, v = next((t, v) for t, tet in enumerate(tri_b.tets) for v in range(4)
                if any(tet.peripheral[0][4 * v:4 * v + 4]))
    cusps = list(tri_b.tets[t].vertex_cusp)
    cusps[v] = (cusps[v] + 1) % tri_b.cusp_count
    tets = list(tri_b.tets)
    tets[t] = dataclasses.replace(tets[t], vertex_cusp=tuple(cusps))
    with pytest.raises(TriParseError, match=f"^tet {t} face [0-3]: vertex {v} on "
                       f"cusp {cusps[v]} is glued to tet"):
        dataclasses.replace(tri_b, tets=tuple(tets))
