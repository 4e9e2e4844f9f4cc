"""Krawczyk containment certificates for gluing-equation solutions.

Given a numeric solution z of the selected square subsystem, the box
X = z +- radius is tested with the Krawczyk operator

    K(X) = y - Y f(y) + (I - Y Df(X)) (X - y),    y = mid X,

evaluated in rectangular complex interval arithmetic, with the
preconditioner Y an ordinary floating-point inverse of the midpoint
Jacobian treated as an exact constant.  K(X) strictly inside X proves
that the subsystem has exactly one zero in X; if moreover every
component of the enclosure K(X) & X has strictly positive imaginary
part, that zero is a geometric solution and the underlying manifold is
hyperbolic.  The discarded edge rows are integer-linear combinations of
the retained ones (their total is the zero row), so a zero of the square
subsystem solves the full system.

The certified volume is the interval Bloch-Wigner sum over the final
enclosures, using the same exact rational series coefficients as the
floating-point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilog import li2_series_coefficients, volume as point_volume
from .gluing import (GluingSystem, SolveError, build_equations, log_jacobian,
                     newton_solve, select_square_rows, system_matrices)
from .intervals import (PI, ComplexInterval, EnclosureDomainError,
                        RealInterval, _dn, _up)
from .tri import Triangulation, validate as validate_triangulation

__all__ = ["Certificate", "KrawczykError", "CertifyError",
           "bloch_wigner_interval", "interval_volume",
           "krawczyk_test", "certify_hyperbolic"]


class KrawczykError(RuntimeError):
    pass


class CertifyError(RuntimeError):
    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class Certificate:
    manifold_name: str
    contracted: bool
    all_imag_positive: bool
    enclosures: tuple          # ComplexInterval per tetrahedron
    volume_enclosure: RealInterval
    radius_used: float

    @property
    def valid(self) -> bool:
        return self.contracted and self.all_imag_positive

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold_name,
            "contracted": self.contracted,
            "all_imag_positive": self.all_imag_positive,
            "valid": self.valid,
            "radius": self.radius_used,
            "volume_enclosure": [self.volume_enclosure.lo,
                                 self.volume_enclosure.hi],
            "enclosures": [[e.re.lo, e.re.hi, e.im.lo, e.im.hi]
                           for e in self.enclosures],
        }


# the exact series table, rounded outward to float endpoints
_COEFF_IV = [RealInterval(c) for c in li2_series_coefficients()]


def _series_tail_bound(rho: float) -> float:
    """Upper bound for the truncated Bernoulli-series tail at |w| <= rho.

    Even-index coefficients satisfy |B_2n|/(2n+1)! <= 4 (2 pi)^(-2n), so
    the terms beyond the table are dominated by 4 rho t^K (1 + t^2 + ...)
    with t = rho / (2 pi) and K the first omitted even power.
    """
    if rho >= 6.0:
        raise EnclosureDomainError(
            f"|log(1-z)| bound {rho:.3f} outside the series domain")
    t = _up(_up(rho) / 6.283185)  # divisor strictly below 2 pi: t is an upper bound
    p = 1.0
    for _ in range(len(_COEFF_IV) + 1):
        p = _up(p * t)
    denom = _dn(1.0 - _up(t * t))
    return _up(4.0 * _up(rho * p) / denom)


def bloch_wigner_interval(z: ComplexInterval) -> RealInterval:
    """Enclosure of D over a rectangle off the real axis and away from 0, 1."""
    log_one_minus = z.one_minus().log()
    w = -log_one_minus
    tail = _series_tail_bound(w.mag)
    acc = ComplexInterval(RealInterval(0.0), RealInterval(0.0))
    wp = w
    for c in _COEFF_IV:
        if c.lo != 0.0 or c.hi != 0.0:
            acc = acc + c * wp
        wp = wp * w
    im_li2 = acc.im + RealInterval(-tail, tail)
    log_abs_z = z.abs_sqr().log().half()
    return im_li2 + log_one_minus.im * log_abs_z


def interval_volume(enclosures) -> RealInterval:
    total = RealInterval(0.0)
    for e in enclosures:
        total = total + bloch_wigner_interval(e)
    return total


def _civ_zero():
    return ComplexInterval(RealInterval(0.0), RealInterval(0.0))


def krawczyk_test(sys: GluingSystem, approx, radius: float) -> Certificate:
    """Containment test on the box approx +- radius.

    The caller should provide approx with residual well below the box
    scale (the Newton output); a poor approx simply comes back with
    contracted = False.  Raises KrawczykError when the box itself is
    unusable: midpoint Jacobian not invertible, or the radius pushes an
    enclosure into a log/division singularity.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    z0 = [complex(z) for z in approx]
    n = sys.tet_count
    if len(z0) != n:
        raise ValueError(f"expected {n} shapes, got {len(z0)}")

    rows = select_square_rows(sys, z0)
    selected = [sys.rows[i] for i in rows]

    # midpoint Jacobian in z: the log-shape Jacobian with column j over z_j
    MA, MB, _ = system_matrices(sys, rows)
    jac_mid = log_jacobian(MA, MB, z0) / np.asarray(z0)[None, :]
    try:
        Y = np.linalg.inv(jac_mid)
    except np.linalg.LinAlgError as exc:
        raise KrawczykError(f"midpoint Jacobian inversion failed: {exc}") from None

    try:
        X = [ComplexInterval.box(z, radius) for z in z0]
        y = [ComplexInterval.point(z) for z in z0]

        ylog = [p.log() for p in y]
        ylog1 = [p.one_minus().log() for p in y]
        f_y = []
        for row in selected:
            acc = ComplexInterval(RealInterval(0.0), PI * (row.k - row.c))
            for j in range(n):
                if row.A[j]:
                    acc = acc + row.A[j] * ylog[j]
                if row.B[j]:
                    acc = acc + row.B[j] * ylog1[j]
            f_y.append(acc)

        recip_x = [x.recip() for x in X]
        recip_1x = [x.one_minus().recip() for x in X]
        jac_cols = []  # per selected row: list of (j, ComplexInterval)
        for row in selected:
            cols = []
            for j in range(n):
                entry = None
                if row.A[j]:
                    entry = row.A[j] * recip_x[j]
                if row.B[j]:
                    term = (-row.B[j]) * recip_1x[j]
                    entry = term if entry is None else entry + term
                if entry is not None:
                    cols.append((j, entry))
            jac_cols.append(cols)

        # E = I - Y * J(X), built column-sparse
        E = [[_civ_zero() for _ in range(n)] for _ in range(n)]
        for m in range(n):
            for j, entry in jac_cols[m]:
                for r in range(n):
                    E[r][j] = E[r][j] + complex(Y[r, m]) * entry
        for r in range(n):
            for j in range(n):
                E[r][j] = (1.0 if r == j else 0.0) - E[r][j]

        d = [X[j] - y[j] for j in range(n)]
        K = []
        for r in range(n):
            acc = y[r] - _dot_const(Y[r], f_y)
            for j in range(n):
                acc = acc + E[r][j] * d[j]
            K.append(acc)
    except EnclosureDomainError as exc:
        raise KrawczykError(f"interval evaluation failed: {exc}") from None

    contracted = all(K[j].strictly_inside(X[j]) for j in range(n))
    enclosures = []
    for j in range(n):
        inter = K[j].intersect(X[j])
        if inter is None:
            contracted = False
            enclosures = list(X)
            break
        enclosures.append(inter)
    all_imag_positive = all(e.im.lo > 0.0 for e in enclosures)

    try:
        vol = interval_volume(enclosures)
    except EnclosureDomainError as exc:
        if contracted and all_imag_positive:
            raise KrawczykError(f"volume enclosure failed: {exc}") from None
        vol = RealInterval(-math.inf, math.inf)

    return Certificate(sys.name, contracted, all_imag_positive,
                       tuple(enclosures), vol, float(radius))


def _dot_const(coeffs, vec):
    acc = _civ_zero()
    for c, v in zip(coeffs, vec):
        acc = acc + complex(c) * v
    return acc


RADIUS_LADDER = (1e-10, 1e-8, 1e-6)


def certify_hyperbolic(tri: Triangulation, radii=RADIUS_LADDER,
                       tol: float = 1e-12) -> Certificate:
    """Full pipeline: validate, build, Newton from the file hints, certify.

    Tries the radii in order and returns the first valid certificate;
    every stage failure is wrapped in CertifyError with a stage tag.
    """
    problems = validate_triangulation(tri)
    if problems:
        raise CertifyError("validation", "; ".join(problems))
    try:
        sys = build_equations(tri)
    except ValueError as exc:
        raise CertifyError("build", str(exc)) from None
    hints = [tet.shape_hint for tet in tri.tets]
    try:
        result = newton_solve(sys, hints, tol=tol)
    except (SolveError, ValueError) as exc:
        raise CertifyError("newton", str(exc)) from None
    last = None
    for radius in radii:
        try:
            cert = krawczyk_test(sys, result.shapes, radius)
        except KrawczykError as exc:
            last = exc
            continue
        if cert.valid:
            vol = point_volume(result.shapes)
            if not cert.volume_enclosure.contains(vol):
                raise CertifyError(
                    "volume", f"enclosure {cert.volume_enclosure} misses "
                    f"the floating-point volume {vol!r}")
            return cert
        last = cert
    raise CertifyError(
        "krawczyk",
        f"no radius in {tuple(radii)} produced a valid certificate "
        f"(last outcome: {last})")
