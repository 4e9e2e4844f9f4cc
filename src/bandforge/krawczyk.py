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
hyperbolic.  The discarded rows are checked exactly: the integer matrix
[A | B | k - c] over all rows must have rank n.  Contraction proves the
n retained rows independent, so every discarded row is then a rational
combination of them, and a zero of the square subsystem solves the full
system.

The certified volume is `dilog.interval_volume` over the final
enclosures; this module holds no part of the dilogarithm series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilog import bloch_wigner_interval, interval_volume, volume as point_volume
from .gluing import (GluingSystem, SolveError, augmented_rank, build_equations,
                     log_jacobian, newton_solve, select_square_rows,
                     system_matrices)
from .intervals import PI, ComplexInterval, EnclosureDomainError, RealInterval
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


def krawczyk_test(sys: GluingSystem, approx, radius: float) -> Certificate:
    """Containment test on the box approx +- radius.

    The caller should provide approx with residual well below the box
    scale (the Newton output); a poor approx simply comes back with
    contracted = False.  Raises KrawczykError when the box itself is
    unusable: the rows [A | B | k - c] do not have rank n, the midpoint
    Jacobian is not invertible, or the radius pushes an enclosure into a
    log/division singularity.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    z0 = [complex(z) for z in approx]
    n = sys.tet_count
    if len(z0) != n:
        raise ValueError(f"expected {n} shapes, got {len(z0)}")
    rank = augmented_rank(sys)
    if rank != n:
        raise KrawczykError(f"rows [A | B | k - c] have rank {rank}, not {n}: "
                            "the kept rows do not imply the dropped ones")

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
        E = [[ComplexInterval(0.0) for _ in range(n)] for _ in range(n)]
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
            acc = y[r] - sum((complex(c) * v for c, v in zip(Y[r], f_y)),
                               ComplexInterval(0.0))
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
