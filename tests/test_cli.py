"""End-to-end command-line checks, run in process."""

import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import bandforge
from bandforge import cli, gluing, krawczyk
from bandforge.fixtures import fixture_text, load_fixture
from bandforge.krawczyk import certify_hyperbolic
from bandforge.tri import (TriParseError, parse_triangulation,
                           serialize_triangulation)
from conftest import filled, sheared


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# ------------------------------------------------------------ reports


def test_report_shape_and_determinism(capsys):
    code, rep, _ = run_json(capsys, ["twobridge", "eval", "3,2,-3"])
    assert code == 0
    assert set(rep) == {"command", "inputs", "results", "assertions",
                        "timestamp"}
    assert rep["command"] == "twobridge eval"
    assert rep["inputs"]["conway"] == "3,2,-3"
    assert rep["results"]["fraction"] == "18/5"

    code2, rep2, _ = run_json(capsys, ["twobridge", "eval", "3,2,-3"])
    rep.pop("timestamp"), rep2.pop("timestamp")
    assert rep == rep2


def test_text_mode(capsys):
    code, out, _ = run(capsys, ["twobridge", "cosmetic", "3,2,-3", "--text"])
    assert code == 0
    assert "[ok  ]" in out
    assert "partner_is_mirror" in out


def test_failed_assertion_text_mode(capsys, tmp_path):
    doctored = fixture_text("A").replace("10.01776364", "10.11776364")
    path = tmp_path / "doctored.tri"
    path.write_text(doctored)
    code, out, _ = run(capsys, ["tri", "volume", str(path), "--text"])
    assert code == 1
    assert "[FAIL]" in out


# ---------------------------------------------------------- twobridge


def test_twobridge_commands(capsys):
    code, rep, _ = run_json(capsys, ["twobridge", "expand", "18/5"])
    assert code == 0
    assert rep["results"]["conway"] == [4, -3, 2]

    code, rep, _ = run_json(capsys, ["twobridge", "equal", "5/2", "5/3"])
    assert code == 0 and rep["results"]["equivalent"] is True

    code, rep, _ = run_json(capsys, ["twobridge", "mirror", "18/5"])
    assert code == 0 and rep["results"]["mirror"] == "S(18,13)"

    code, rep, _ = run_json(capsys, ["twobridge", "unlink1", "18/5"])
    assert code == 0 and rep["results"]["witness"] == [3, 1]

    code, rep, _ = run_json(capsys, ["twobridge", "signature", "5/1"])
    assert code == 0 and rep["results"]["signature"] == -4

    code, rep, _ = run_json(capsys, ["twobridge", "fourmove", "5/1", "5/4"])
    assert code == 0 and rep["results"]["four_move_obstructed"] is True


@pytest.mark.parametrize("pair, conway, normal", [
    ("3/10", [3], "S(3,1)"),
    ("-7/3", [2, -4], "S(7,4)"),
    ("7/-3", [2, -4], "S(7,4)"),
    ("7/10", [2, 3], "S(7,3)"),
    ("-18/-10", [2, -5], "S(9,5)"),
])
def test_expand_evaluates_to_the_normal_form(capsys, pair, conway, normal):
    # the form presents the link of p/q, not the fraction p/q itself
    code, rep, _ = run_json(capsys, ["twobridge", "expand", pair])
    assert code == 0 and rep["results"]["conway"] == conway
    (check,) = rep["assertions"]
    assert check["pass"]
    assert f"the normal form {normal} of {pair}" in check["detail"]


def test_eval_of_a_fraction_without_a_link(capsys):
    code, rep, _ = run_json(capsys, ["twobridge", "eval", "1"])
    assert code == 0
    assert rep["results"] == {"fraction": "1/1", "schubert": None}


def test_twobridge_parse_errors(capsys):
    for argv in [["twobridge", "eval", "3,x"],
                 ["twobridge", "expand", "abc"],
                 ["twobridge", "signature", "18/5"],   # link, not a knot
                 ["twobridge", "expand", "4/2"]]:      # reduces to 2/1, fine
        code, _, err = run(capsys, argv)
        if argv[-1] == "4/2":
            assert code == 0
        else:
            assert code == 2
            assert err.startswith("error:")


# ------------------------------------------------------------ surgery


def test_surgery_commands(capsys):
    code, rep, _ = run_json(capsys, ["surgery", "distance", "19/1", "18/1"])
    assert code == 0 and rep["results"]["distance"] == 1

    code, rep, _ = run_json(capsys, ["surgery", "distance", "1/0", "3/1"])
    assert code == 0 and rep["results"]["distance"] == 1

    code, rep, _ = run_json(capsys, ["surgery", "lens-equal", "7/2", "7/4"])
    assert code == 0 and rep["results"]["equivalent"] is True

    code, rep, _ = run_json(
        capsys, ["surgery", "lens-equal", "7/2", "7/3", "--unoriented"])
    assert code == 0 and rep["results"]["equivalent"] is True

    code, rep, _ = run_json(capsys, ["surgery", "lens-mirror", "49/30"])
    assert code == 0 and rep["results"]["mirror"] == "L(49,19)"

    code, rep, _ = run_json(capsys, ["surgery", "dbc", "18/5"])
    assert code == 0
    assert rep["results"]["double_branched_cover"] == "L(18,5)"

    code, rep, _ = run_json(capsys, ["surgery", "matignon", "3", "1"])
    assert code == 0
    assert rep["results"]["lens_space"] == "L(18,5)"
    assert all(a["pass"] for a in rep["assertions"])


def test_surgery_bhw(capsys):
    code, rep, _ = run_json(capsys, ["surgery", "bhw"])
    assert code == 0
    assert len(rep["assertions"]) == 4
    assert all(a["pass"] for a in rep["assertions"])


@pytest.mark.parametrize("argv, results", [
    (["twobridge", "cosmetic", "-3,2,3"],
     {"conway": [-3, 2, 3], "partner": [-3, -2, 3], "chirally_cosmetic": True}),
    (["surgery", "distance", "-1/2", "1/0"],
     {"left": "1/-2", "right": "1/0", "distance": 2}),
])
def test_value_with_a_negative_lead_is_not_an_option(capsys, argv, results):
    for words in (argv, [*argv[:2], "--", *argv[2:]]):
        code, rep, err = run_json(capsys, words)
        assert code == 0 and err == "" and rep["results"] == results


def test_surgery_parse_error(capsys):
    code, _, err = run(capsys, ["surgery", "distance", "19/1", "0/0"])
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------- tri


def test_tri_parse_fixture(capsys):
    code, rep, _ = run_json(capsys, ["tri", "parse", "--fixture", "B"])
    assert code == 0
    assert rep["results"]["tet_count"] == 26
    assert rep["results"]["cusp_count"] == 7
    assert rep["assertions"][0]["name"] == "well_formed"
    assert rep["assertions"][0]["pass"] is True


def test_tri_volume_matches_header(capsys):
    code, rep, _ = run_json(capsys, ["tri", "volume", "--fixture", "A"])
    assert code == 0
    assert abs(rep["results"]["volume"] - 10.01776364) < 5e-7
    assert rep["results"]["residual_max_at_hints"] < 1e-8


def test_tri_solve(capsys):
    code, rep, _ = run_json(capsys, ["tri", "solve", "--fixture", "B"])
    assert code == 0
    assert rep["results"]["residual_max"] < 1e-12
    assert len(rep["results"]["shapes"]) == 26
    assert all(im > 0 for _, im in rep["results"]["shapes"])


def test_tri_certify(capsys):
    code, rep, _ = run_json(capsys, ["tri", "certify", "--fixture", "A"])
    assert code == 0
    names = [a["name"] for a in rep["assertions"]]
    assert any("contracted" in n for n in names)
    assert all(a["pass"] for a in rep["assertions"])


def test_tri_certify_radius_is_one_rung_ladder(capsys):
    code, rep, _ = run_json(capsys, ["tri", "certify", "--fixture", "A",
                                     "--radius", "1e-8"])
    assert code == 0
    tri = load_fixture("A")
    cert = certify_hyperbolic(tri, radii=(1e-8,))
    assert rep["results"] == {tri.name: cert.to_dict()}


def test_tri_certify_has_no_max_iter(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tri", "certify", "--fixture", "A", "--max-iter", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_tri_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(fixture_text("A")))
    code, rep, _ = run_json(capsys, ["tri", "parse"])
    assert code == 0
    assert rep["results"]["tet_count"] == 12


# ----------------------------------------------------------- failures


def test_non_ascii_file_fails_alike_from_every_source(capsys, monkeypatch,
                                                       tmp_path):
    lines = fixture_text("A").splitlines(keepends=True)
    text = lines[0].rstrip("\n") + "\u03a9\n" + "".join(lines[1:])
    path = str(tmp_path / "uni.tri")
    (tmp_path / "uni.tri").write_text(text, encoding="utf-8")
    message = "line 1: non-ASCII character '\u03a9'"
    with pytest.raises(TriParseError) as info:
        parse_triangulation(text)
    assert str(info.value) == message
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    for source in ([path], []):
        code, out, err = run(capsys, ["tri", "parse", *source])
        assert (code, out, err) == (2, "", f"error: {message}\n"), source
    # a byte that is not UTF-8 is named too, not reported by the codec
    (tmp_path / "byte.tri").write_bytes(
        fixture_text("A").encode().replace(b"\n", b"\xe9\n", 1))
    code, out, err = run(capsys, ["tri", "parse", str(tmp_path / "byte.tri")])
    assert (code, err) == (2, "error: line 1: non-ASCII character "
                              "'\\udce9'\n")
    # a batch reads each path through the same function
    code, rep, _ = run_json(capsys, ["tri", "certify", "--all-fixtures", path,
                                     str(tmp_path / "byte.tri")])
    assert code == 2
    assert rep["results"][path] == {"error": message, "exit_code": 2}
    assert rep["results"][str(tmp_path / "byte.tri")]["error"] == (
        "line 1: non-ASCII character '\\udce9'")


def test_empty_stdin_is_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, _, err = run(capsys, ["tri", "parse"])
    assert code == 2
    assert "missing header" in err


def test_corrupt_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "junk.tri"
    path.write_text("not a triangulation\n1 2 3\n")
    code, _, err = run(capsys, ["tri", "parse", str(path)])
    assert code == 2


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, ["tri", "volume", str(tmp_path / "no.tri")])
    assert code == 2


def test_solver_failure_exit_code(capsys):
    code, _, err = run(capsys, ["tri", "solve", "--fixture", "A",
                                "--max-iter", "0"])
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("command,message", [
    ("solve", "iterate 0 has a non-finite Jacobian"),
    ("certify", "[newton] iterate 0 has a non-finite Jacobian")],
    ids=["solve", "certify"])
def test_overflowing_hint_is_one_error_line_under_warnings_as_errors(
        command, message, tmp_path):
    # tet 0's hint, on line 17, at 1 + 1e-320 i: z / (1 - z) overflows in
    # Newton's first Jacobian, and no numpy warning may reach stderr
    lines = fixture_text("A").splitlines(keepends=True)
    assert lines[16].split() == ["0.331423656275", "0.162341774025"]
    lines[16] = "1.000000000000 1e-320\n"
    path = tmp_path / "a.tri"
    path.write_text("".join(lines))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bandforge.cli", "tri", command,
         str(path)], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.splitlines() == [f"error: {message}"]


def test_certify_failure_exit_code(capsys):
    code, _, err = run(capsys, ["tri", "certify", "--fixture", "A",
                                "--radius", "0.5"])
    assert code == 4


def test_doctored_header_fails_assertion(capsys, tmp_path):
    doctored = fixture_text("A").replace("10.01776364", "10.11776364")
    path = tmp_path / "doctored.tri"
    path.write_text(doctored)
    code, rep, _ = run_json(capsys, ["tri", "volume", str(path)])
    assert code == 1
    assert rep["assertions"][0]["name"] == "matches_header"
    assert rep["assertions"][0]["pass"] is False


def test_path_and_fixture_conflict(capsys, tmp_path):
    path = tmp_path / "a.tri"
    path.write_text(fixture_text("A"))
    code, _, err = run(capsys, ["tri", "parse", str(path), "--fixture", "A"])
    assert code == 2


def test_unknown_fixture_label(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tri", "parse", "--fixture", "Z"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fixture_dir_variable_is_ignored(capsys, monkeypatch, tmp_path):
    # a path names every other triangulation; the environment names none
    (tmp_path / "A.tri").write_text(fixture_text("B"))
    (tmp_path / "C.tri").write_text(fixture_text("A"))
    monkeypatch.setenv("BANDFORGE_FIXTURE_DIR", str(tmp_path))
    code, rep, _ = run_json(capsys, ["tri", "parse", "--fixture", "A"])
    assert code == 0 and rep["results"]["tet_count"] == 12
    with pytest.raises(SystemExit) as exc:
        cli.main(["tri", "parse", "--fixture", "C"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_all_fixtures_certify(capsys):
    code, rep, _ = run_json(capsys, ["tri", "certify", "--all-fixtures"])
    assert code == 0
    names = [a["name"] for a in rep["assertions"]]
    assert any(n.startswith("A:") for n in names)
    assert any(n.startswith("B:") for n in names)
    assert all(a["pass"] for a in rep["assertions"])


# ------------------------------------------------------ batch and errors


def _short_b(path):
    """Fixture B with its complete cusp 6 filled at (1,0): Newton fails."""
    path.write_text(serialize_triangulation(filled(load_fixture("B"), 6, 1, 0)))


def _hint_a(re, im):
    """Fixture A's text with tet 0's shape hint (line 17) at re + im i."""
    lines = fixture_text("A").splitlines(keepends=True)
    lines[16] = "%16.12f %16.12f\n" % (re, im)
    return "".join(lines)


def _zero_hint_a(path):
    """Fixture A with its first shape hint at the degenerate 0."""
    path.write_text(_hint_a(0.0, 0.0))


def _lower_hint_b(path):
    """Fixture B with tet 0's hint moved to 0.5 - 0.5i, which Newton refuses."""
    tri = load_fixture("B")
    tets = list(tri.tets)
    tets[0] = dataclasses.replace(tets[0], shape_hint=0.5 - 0.5j)
    path.write_text(serialize_triangulation(
        dataclasses.replace(tri, tets=tuple(tets))))


def _huge_filling_a(path):
    """Fixture A filled at (1e300, 1): integral and coprime as read, but
    far beyond the integers a real holds exactly."""
    path.write_text(fixture_text("A").replace(
        "torus   1.000000000000   0.000000000000", "torus 1e300 1", 1))


def _wide_filling_b(path):
    """Fixture B with cusp 6 filled at (1, 2^52 + 1): a valid filling whose
    row has entries of modulus 2^53 or more."""
    path.write_text(serialize_triangulation(
        filled(load_fixture("B"), 6, 1, 2 ** 52 + 1)))


def _wide_meridians_b(path):
    """Fixture B with every meridian moved by 10^400 longitudes."""
    path.write_text(serialize_triangulation(sheared(load_fixture("B"), 10 ** 400)))


def test_all_fixtures_reports_every_fixture(capsys, monkeypatch, tmp_path):
    (tmp_path / "bad.tri").write_text("not a triangulation\n1 2 3\n")
    _short_b(tmp_path / "short.tri")
    monkeypatch.chdir(tmp_path)
    code, rep, _ = run_json(capsys, ["tri", "certify", "--all-fixtures",
                                     "bad.tri", "short.tri"])
    assert code == 3
    results = rep["results"]
    assert rep["inputs"]["all_fixtures"] == ["bad.tri", "short.tri"]
    assert results["bad.tri"]["exit_code"] == 2
    assert results["short.tri"]["exit_code"] == 3
    assert "[newton]" in results["short.tri"]["error"]
    for label in ("A", "B"):
        tag = f"{label}:{load_fixture(label).name}"
        assert results[tag]["valid"] is True
        assert all(a["pass"] for a in rep["assertions"]
                   if a["name"].startswith(tag))
    failed = [a["name"] for a in rep["assertions"] if not a["pass"]]
    assert failed == ["bad.tri:certified", "short.tri:certified"]


@pytest.mark.parametrize("paths, message", [
    (["a.tri", "a.tri"], "the path 'a.tri' is given twice"),
    (["a.tri", "B"], "the path 'B' is an embedded fixture's label")],
    ids=["twice", "label"])
def test_all_fixtures_refuses_a_label_used_twice(capsys, monkeypatch, tmp_path,
                                                 paths, message):
    # results are keyed by label, so two entries under one label once kept
    # one result and both sets of assertions; refused before any certifies
    (tmp_path / "a.tri").write_text(fixture_text("A"))
    (tmp_path / "B").write_text(fixture_text("B"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(krawczyk, "certify_hyperbolic",
                        lambda *args, **kwargs: pytest.fail("certification ran"))
    code, out, err = run(capsys, ["tri", "certify", "--all-fixtures", *paths])
    assert (code, out, err) == (2, "", f"error: --all-fixtures: {message}\n")


@pytest.mark.parametrize("extra", [["PATH"], ["--fixture", "A"]])
def test_all_fixtures_rejects_a_named_input(capsys, tmp_path, extra):
    path = tmp_path / "a.tri"
    path.write_text(fixture_text("A"))
    argv = [str(path) if a == "PATH" else a for a in extra]
    code, out, err = run(capsys, ["tri", "certify", *argv, "--all-fixtures"])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv, write, code, message", [
    (["tri", "certify", "FILE"], _short_b, 3, "[newton]"),
    (["tri", "certify", "--fixture", "A", "--radius", "-1"], None, 2,
     "radius must be positive"),
    (["tri", "volume", "FILE"], _zero_hint_a, 2, "degenerate"),
    (["tri", "certify", "--fixture", "A", "--radius", "nan"], None, 2,
     "radius must be positive"),
    (["tri", "certify", "--fixture", "A", "--radius", "inf"], None, 2,
     "radius must be positive"),
    (["tri", "certify", "FILE"], _huge_filling_a, 2,
     "not exactly representable"),
    (["tri", "certify", "FILE"], _wide_filling_b, 2, "[validation]"),
    (["tri", "certify", "FILE"], _wide_meridians_b, 2, "[validation]"),
    (["tri", "solve", "FILE"], _wide_meridians_b, 2, "2^53"),
    (["tri", "volume", "FILE"], _wide_meridians_b, 2, "2^53"),
    *((["tri", "solve", "--fixture", "A", "--tol", tol], None, 2,
       "need 0 < tol < inf") for tol in ("nan", "0", "-1", "inf")),
    (["tri", "solve", "--fixture", "A", "--max-iter", "-3"], None, 2,
     "max_iter >= 0"),
    *((["tri", "certify", "--fixture", "A", "--tol", tol], None, 2,
       "need 0 < tol < inf") for tol in ("0", "nan")),
    (["tri", "solve", "--fixture", "A", "--max-iter", "0"], None, 3,
     "no convergence"),
    *((["tri", "certify", "FILE", "--radius", radius], _lower_hint_b, 2,
       "radius must be positive") for radius in ("-1", "nan")),
])
def test_error_exit_codes(capsys, tmp_path, argv, write, code, message):
    path = tmp_path / "case.tri"
    if write is not None:
        write(path)
    argv = [str(path) if a == "FILE" else a for a in argv]
    got, out, err = run(capsys, argv)
    assert got == code
    assert out == "" and err.startswith("error:") and message in err


def test_nearly_integral_filling_does_not_certify(capsys, tmp_path):
    path = tmp_path / "near.tri"
    path.write_text(fixture_text("A").replace(
        "torus   1.000000000000   0.000000000000",
        "torus   1.000000000500   0.000000000000", 1))
    code, out, err = run(capsys, ["tri", "certify", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: cusp 0: filling (1.0000000005, 0.0) is not integral\n"


@pytest.mark.parametrize("command", ["parse", "volume", "solve", "certify"])
@pytest.mark.parametrize("hint", ["0 0", "1 0", "nan 1"])
def test_degenerate_hint_is_a_parse_error(capsys, tmp_path, command, hint):
    path = tmp_path / "hint.tri"
    path.write_text(_hint_a(*map(float, hint.split())))
    code, out, err = run(capsys, ["tri", command, str(path)])
    assert code == 2
    assert out == "" and err.startswith("error: line ") and "degenerate" in err


@pytest.mark.parametrize("lineno, new, message", [
    (6, "1 1", "second header count 1 is nonzero"),
    (7, "    Klein   1.000000000000   0.000000000000", "cusp 0: topology 'Klein'"),
    (32, "  1" + "  0" * 15, "tet 2: peripheral sheet row 1 is nonzero"),
], ids=["second_count", "klein_cusp", "sheet_one"])
def test_reader_refusals_name_their_line(capsys, tmp_path, lineno, new, message):
    # values no Triangulation holds: the reader refuses each on its line
    lines = fixture_text("A").splitlines()
    lines[lineno - 1] = new
    path = tmp_path / "refused.tri"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["tri", "parse", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {lineno}: {message}")


def _strict_json(out):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("volume, message", [
    ("10.01776364", None),
    ("nan", "volume hint nan is not finite"),
    ("inf", "volume hint inf is not finite"),
    ("-inf", "volume hint -inf is not finite"),
    ("1_0.5", "expected real for volume hint, got '1_0.5'"),
], ids=["finite", "nan", "inf", "-inf", "separator"])
def test_tri_parse_prints_only_strict_json(capsys, tmp_path, volume, message):
    # json.dumps writes a non-finite float as NaN or Infinity, not JSON
    path = tmp_path / "volume.tri"
    path.write_text(fixture_text("A").replace("10.01776364", volume, 1))
    code, out, err = run(capsys, ["tri", "parse", str(path)])
    if message is None:
        assert code == 0
        assert _strict_json(out)["results"]["volume_header"] == float(volume)
    else:
        assert (code, out) == (2, "") and message in err


# ------------------------------------------------------ documented commands


def _readme_commands():
    """Each `bandforge ...` line of the README's command block, as argv."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0].split() for line in
             readme.read_text(encoding="utf-8").splitlines()]
    return [words[1:] for words in lines
            if words[:1] == ["bandforge"] and "file.tri" not in words]


def test_readme_lists_the_commands():
    assert len(_readme_commands()) == 20


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert err == "" and json.loads(out)["command"] == " ".join(argv[:2])


# ------------------------------------------------------------ cold start

# every public name `bandforge` exports, the numeric ones through `_LAZY`
EXPORTED = """
    Certificate CertifyError ConwayForm CuspInfo
    DivergenceError Enclosure EnclosureDomainError Fraction GluingRow
    GluingSystem HalfPlaneExitError KrawczykError LensSpace NewtonResult
    SingularJacobianError Slope SolveError Tetrahedron TriParseError
    Triangulation TwoBridge amphicheiral_pair_distance bhw_example_report
    bloch_wigner build_equations certify_hyperbolic
    check_conway combinatorial_isomorphic conway_expand cosmetic_band_partner
    dilog double_branched_cover edge_classes eval_conway fixture_text
    fixtures four_move_signature_obstruction gluing
    interval_volume is_unlinking_number_one krawczyk krawczyk_test
    lens_equivalent lens_mirror load_fixture matignon_family mirror_two_bridge
    newton_solve normalize_lens normalize_two_bridge parse_triangulation
    residual serialize_triangulation signature_two_bridge
    slope_distance surgery tangle tri two_bridge_equivalent
    two_bridge_from_fraction validate verify_chirally_cosmetic volume
""".split()


def _fresh(code):
    """The JSON that `code` prints last, run in a new interpreter."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_integer_and_parse_commands_do_not_import_numpy():
    codes, numpy = _fresh(
        "import io, json, sys\n"
        "from bandforge.cli import main\n"
        "from bandforge.fixtures import fixture_text\n"
        "codes = [main(['twobridge', 'signature', '5/1']),\n"
        "         main(['surgery', 'bhw']),\n"
        "         main(['tri', 'parse', '--fixture', 'A'])]\n"
        "sys.stdin = io.StringIO(fixture_text('A')[:500])\n"
        "codes.append(main(['tri', 'parse']))\n"
        "codes += [main(['tri', 'volume', '--fixture', f]) for f in 'AB']\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    assert codes == [0, 0, 0, 2, 0, 0] and not numpy


HEAVY = ("dataclasses", "inspect", "bandforge.tri", "bandforge.dilog",
         "numpy")


def test_integer_commands_load_neither_dataclasses_nor_tri():
    argvs = [argv for argv in _readme_commands()
             if argv[0] in ("twobridge", "surgery")]
    assert ["surgery", "bhw"] in argvs and len(argvs) == 16
    codes, loaded, bare, resources = _fresh(
        "import sys\n"
        "startup = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "import bandforge\n"
        "bare = sorted(m for m in sys.modules if m.startswith('bandforge.'))\n"
        "from bandforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        f"print(json.dumps([codes, [m for m in {HEAVY!r}\n"
        "                           if m in sys.modules], bare,\n"
        "                   'importlib.resources' in set(sys.modules) - startup]))\n")
    assert codes == [0] * len(argvs)
    assert loaded == [] and bare == []
    # from CPython 3.12 on `importlib.resources` imports `inspect`; some site
    # hooks load it at startup, so only an import by the commands counts
    assert not resources


def test_tri_parse_loads_tri_and_dataclasses():
    # the positive control of the test above
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from bandforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['tri', 'parse', '--fixture', 'A'])\n"
        f"print(json.dumps([code, [m for m in {HEAVY!r}\n"
        "                          if m in sys.modules]]))\n")
    assert code == 0 and loaded == ["dataclasses", "inspect", "bandforge.tri"]


def test_numeric_command_imports_numpy_when_run():
    # the positive control of the test above
    code, numpy = _fresh(
        "import json, sys\n"
        "from bandforge.cli import main\n"
        "code = main(['tri', 'solve', '--fixture', 'A'])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n")
    assert code == 0 and numpy


def test_package_exports_resolve_to_the_module_objects():
    report = _fresh(
        "import importlib, json, sys\n"
        "import bandforge\n"
        "listed = sorted(dir(bandforge))\n"
        "try:\n"
        "    bandforge.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "numpy = 'numpy' in sys.modules\n"
        f"names = {EXPORTED!r}\n"
        "ns = {}\n"
        "exec('from bandforge import ' + ', '.join(names), ns)\n"
        "same = [n for n, m in bandforge._LAZY.items() if ns[n] is getattr(\n"
        "    importlib.import_module('bandforge.' + m), n)]\n"
        "print(json.dumps([listed, unknown, numpy, same]))\n")
    listed, unknown, numpy, same = report
    assert set(EXPORTED) <= set(listed) and not numpy
    assert not {"ComplexInterval", "bloch_wigner_interval", "RealInterval",
                "intervals"} & set(listed)
    assert unknown == "module 'bandforge' has no attribute 'no_such_name'"
    assert sorted(same) == sorted(bandforge._LAZY)
    # every submodule but `cli` (and the private `_ball`) is lazy
    assert {getattr(bandforge, m) for m in bandforge._LAZY.values()} == {
        sys.modules[f"bandforge.{m}"] for m in (
            "tangle surgery tri fixtures gluing dilog krawczyk"
            .split())}
    assert bandforge.SolveError is gluing.SolveError is cli.SolveError
    assert bandforge.CertifyError is krawczyk.CertifyError is cli.CertifyError


def test_star_import_binds_every_export_outside_the_numeric_modules():
    names, numpy = _fresh(
        "import json, sys\n"
        "ns = {}\n"
        "exec('from bandforge import *', ns)\n"
        "print(json.dumps([sorted(ns), 'numpy' in sys.modules]))\n")
    numeric = ("gluing", "dilog", "krawczyk")
    assert set(names) - {"__builtins__"} == {
        n for n in EXPORTED
        if n not in numeric and bandforge._LAZY.get(n) not in numeric}
    assert not numpy
