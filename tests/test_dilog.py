"""Bloch-Wigner evaluation against independent oracles."""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bandforge
from bandforge import dilog
from bandforge.dilog import (_SERIES_LEN, Enclosure, EnclosureDomainError,
                             _coefficient_table, bloch_wigner, interval_volume,
                             li2_series_coefficients, volume)
from conftest import box_row

mpmath = pytest.importorskip("mpmath")

# volume of the regular ideal tetrahedron, D(exp(i pi/3))
V3 = 1.0149416064096536


def oracle(z: complex) -> float:
    """D(z) via mpmath's dilogarithm at high precision."""
    with mpmath.workdps(40):
        li2 = mpmath.polylog(2, mpmath.mpc(z))
        out = mpmath.im(li2) + mpmath.arg(1 - mpmath.mpc(z)) * mpmath.log(abs(mpmath.mpc(z)))
        return float(out)


def test_series_coefficients_are_bernoulli():
    coeffs = li2_series_coefficients()
    assert coeffs[0] == 1
    assert float(coeffs[1]) == -0.25
    # B_2 / 3! = (1/6) / 6
    assert float(coeffs[2]) == pytest.approx(1 / 36)
    # odd Bernoulli numbers beyond B_1 vanish
    assert all(c == 0 for c in coeffs[3::2])
    assert len(coeffs) >= 100


def reference_coefficients():
    """B_k/(k+1)!, k < _SERIES_LEN, from the defining recurrence of B_m:
    sum_{j=0}^{m} C(m+1, j) B_j = 0, in exact rationals."""
    bern, coeffs, fact = [], [], 1
    for m in range(_SERIES_LEN):
        acc, binom = Fraction(0), 1
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / binom if m else Fraction(1))
        fact *= m + 1
        coeffs.append(bern[m] / fact)
    return tuple(coeffs)


def test_tangent_number_table_matches_the_bernoulli_recurrence():
    reference = reference_coefficients()
    exact = li2_series_coefficients()
    assert len(exact) == len(reference) == _SERIES_LEN
    for k, (got, want) in enumerate(zip(exact, reference)):
        assert type(got) is Fraction and got == want, k
    floats = _coefficient_table()
    assert all(type(x) is float for x in floats)
    # bit for bit, so 0.0 and -0.0 differ
    assert [x.hex() for x in floats] == [float(c).hex() for c in reference]


def test_regular_ideal_tetrahedron():
    z = cmath.exp(1j * math.pi / 3)
    assert bloch_wigner(z) == pytest.approx(V3, abs=1e-14)
    # the maximum of D over the upper half-plane
    assert bloch_wigner(z) >= bloch_wigner(0.3 + 0.4j)


def test_lobachevsky_integral_anchor():
    # D(e^{i pi/3}) = 3 * Lambda(pi/3) with Lambda the Lobachevsky function
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def lam(theta):
        val, err = scipy_integrate.quad(
            lambda t: -math.log(abs(2 * math.sin(t))), 0, theta,
            epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        return val

    assert bloch_wigner(cmath.exp(1j * math.pi / 3)) == pytest.approx(
        3 * lam(math.pi / 3), abs=1e-9)


def test_against_mpmath_oracle():
    rng = random.Random(11)
    for _ in range(250):
        z = complex(4 * rng.random() - 2, 4 * rng.random() - 2)
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3 or abs(z.imag) < 1e-6:
            continue
        assert bloch_wigner(z) == pytest.approx(oracle(z), abs=5e-14), z


def test_large_and_tiny_arguments():
    # the inversion/reflection transforms must kick in well outside |w| < 2 pi
    for z in [50 + 3j, -40 + 0.5j, 0.001 + 0.002j, -0.97 + 0.01j,
              1e-8 + 1e-8j, 200j, 0.5 + 1e-7j]:
        assert bloch_wigner(z) == pytest.approx(oracle(z), abs=5e-13), z


def test_real_arguments_vanish():
    for x in [-3.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 17.0]:
        assert bloch_wigner(complex(x, 0.0)) == 0.0


def test_symmetries():
    rng = random.Random(5)
    for _ in range(60):
        z = complex(3 * rng.random() - 1.5, 2.5 * rng.random() + 1e-3)
        if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
            continue
        d = bloch_wigner(z)
        assert bloch_wigner(z.conjugate()) == pytest.approx(-d, abs=1e-13)
        assert bloch_wigner(1 / z) == pytest.approx(-d, abs=1e-13)
        assert bloch_wigner(1 - z) == pytest.approx(-d, abs=1e-13)
        # the shape companions share the tetrahedron volume
        assert bloch_wigner(1 / (1 - z)) == pytest.approx(d, abs=1e-13)
        assert bloch_wigner(1 - 1 / z) == pytest.approx(d, abs=1e-13)


def test_volume_sums_tetrahedra(tri_a, solved_a):
    _, result = solved_a
    total = volume(result.shapes)
    assert total == pytest.approx(sum(bloch_wigner(z) for z in result.shapes))
    assert total == pytest.approx(tri_a.volume_hint, abs=5e-7)


def test_five_term_relation():
    # D(x) + D(y) + D((1-x)/(1-xy)) + D(1-xy) + D((1-y)/(1-xy)) = 0
    # for suitable x, y; a strong independent consistency check
    rng = random.Random(3)
    for _ in range(40):
        x = complex(rng.uniform(-1, 1), rng.uniform(0.05, 1.2))
        y = complex(rng.uniform(-1, 1), rng.uniform(0.05, 1.2))
        xy = x * y
        if min(abs(1 - xy), abs(x), abs(y), abs(1 - x), abs(1 - y)) < 1e-2:
            continue
        terms = [x, y, (1 - x) / (1 - xy), 1 - xy, (1 - y) / (1 - xy)]
        total = sum(bloch_wigner(t) for t in terms)
        assert total == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------ the volume enclosure


def test_point_constructor_and_repr():
    iv = Enclosure(1.5, 1.5)
    assert iv.lo == iv.hi == 1.5
    assert iv.width == 0.0
    assert "1.5" in repr(iv)
    # two floats: what `to_dict` prints, and what a copy is built from
    assert list(iv) == [1.5, 1.5] and type(iv)(*iv) == iv


def test_infinite_endpoints_allowed():
    iv = Enclosure(-math.inf, math.inf)
    assert iv.contains(0.0) and iv.contains(1e300)
    assert iv.width == math.inf


def test_immutable():
    iv = Enclosure(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.lo = 5.0
    with pytest.raises(AttributeError):
        iv.hi = 5.0


def test_set_predicates():
    a = Enclosure(0.0, 1.0)
    assert a.contains(0.0) and a.contains(0.5) and a.contains(1.0)
    assert not a.contains(-1e-300) and not a.contains(1.5)
    assert not a.contains(math.nan)


def test_mid_width_mag():
    iv = Enclosure(-4.0, 2.0)
    assert iv.width == 6.0
    assert Enclosure(-math.inf, 0.0).width == math.inf


# ------------------------------------- interval D: range reduction, lazy tables


def oracle_mp(z: complex):
    """D(z) as a 50-digit mpmath number, for exact containment checks."""
    with mpmath.workdps(50):
        w = mpmath.mpc(z)
        return mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w))


@pytest.mark.parametrize("z", [
    1 + 0.002j, 800 + 3j, 0.999 + 1e-4j,             # |log(1 - z)| >= 6
    1 - 0.002j, 1.001 + 1e-3j, 1 + 1e-8j, 0.98 + 0.05j,  # near 1
    -800 + 3j, 1e6 + 1j, 0.5 + 300j, -40 + 0.5j,     # large |z|
    1e-6 + 1e-6j,                                    # near 0
])
def test_interval_bw_range_reduction_contains_mpmath(z):
    exact = oracle_mp(z)
    for radius in (1e-12, 1e-9):
        enc = interval_volume([box_row(z, radius)])
        assert enc.lo <= exact <= enc.hi, (z, radius, enc)
        assert enc.width < 1e-6
    assert bloch_wigner(z) == pytest.approx(float(exact), abs=5e-13)


@pytest.mark.parametrize("size", [3.899, 5.9])
def test_ball_holds_mpmath_where_the_g_bounds_are_loosest(size, monkeypatch):
    # the closed forms of G(X) and G'(X) loosen as |w| grows: at the
    # range-reduction target 3.9 and, with no move made, at |w| = 5.9, next
    # to the edge 6 of the series domain
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(dilog, "_W_SAFE", max(dilog._W_SAFE, size + 0.01))
    c = np.array([1 - cmath.exp(-size * cmath.exp(1j * phi))
                  for phi in (0.0, 0.3, -0.5, 2.9, -2.7)])
    assert all(dilog._moves(z, ValueError) == () for z in c.tolist())
    for rho in (0.0, 1e-9, 1e-6):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            centre, rad = dilog._ball_bloch_wigner(c, np.full(len(c), rho))
        for z, m, r in zip(c.tolist(), centre.tolist(), rad.tolist()):
            for p in [z] + [z + rho * cmath.exp(1j * t) for t in (0.0, 2.0, 4.0)]:
                with mpmath.workdps(50):
                    assert abs(oracle_mp(p) - mpmath.mpf(m)) <= mpmath.mpf(r), (z, p)


def test_interval_bw_unmovable_boxes_raise_domain_error():
    # the move picked at the midpoint is fine, but the box reaches 0 or 1
    for z, radius in [(1 + 0.002j, 0.01), (800 + 3j, 1000.0)]:
        with pytest.raises(EnclosureDomainError) as err:
            interval_volume([box_row(z, radius)])
        assert not isinstance(err.value, ValueError)


def test_cli_import_builds_no_coefficient_table():
    src = os.path.dirname(os.path.dirname(bandforge.__file__))
    code = ("import bandforge.cli\n"
            "from bandforge.dilog import li2_series_coefficients as f\n"
            "print(f.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_numeric_command_builds_only_the_float_table():
    src = os.path.dirname(os.path.dirname(bandforge.__file__))
    code = ("import contextlib, io, sys\n"
            "from bandforge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['tri', 'volume', '--fixture', 'A'])\n"
            "from bandforge.dilog import _coefficient_table as t\n"
            "from bandforge.dilog import li2_series_coefficients as f\n"
            "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules,\n"
            "      f.cache_info().currsize, t.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False", "False", "0", "1"]
