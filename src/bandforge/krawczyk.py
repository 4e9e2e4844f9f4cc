"""Krawczyk containment certificates for gluing-equation solutions.

Given a numeric solution z of the gluing equations, the box X = z +- radius
is tested, on the n rows `GluingSystem.kept_rows`, with the Krawczyk operator

    K(X) = y - Y f(y) + (I - Y J(X)) (X - y),    y = z = mid X,

evaluated in midpoint-radius ("ball") arithmetic on numpy arrays, with
the preconditioner Y a floating-point inverse of the midpoint Jacobian
treated as an exact constant.  Rounding is bounded a priori, without
touching the rounding mode (Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999): each radius is summed in round-to-nearest
and bounded once (`_ball`), and `_operator` takes its midpoint Jacobian
from `gluing.jacobian`.  Strict inclusion,
|Re(K_c - z)| + K_rad < radius and the same for Im for every shape,
proves that the kept rows have exactly one zero in X; if moreover every
outward-rounded box of K(X) & X has strictly positive imaginary part,
that zero is a geometric solution and the manifold is hyperbolic.  Every
dropped row is an exact rational combination of the kept rows, by the
exact elimination that chose them (`GluingSystem.kept_rows`, once per
system), so a zero of the kept rows solves every row.  K(X) & X is formed
as one row of floats (re.lo, re.hi, im.lo, im.hi) per shape: the rows are
the certificate's enclosures, and `dilog.interval_volume` reads them for
the certified volume, a `dilog.Enclosure` (lo, hi) of two floats.  This
module holds no part of the dilogarithm series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ball import _TINY, _U, _bound, _discs, _gamma, _log_rad, _recip
from .dilog import (Enclosure, EnclosureDomainError, interval_volume,
                    volume as point_volume)
from .gluing import GluingSystem, build_equations, jacobian, newton_solve
from .tri import CertifyError, SolveError, Triangulation

__all__ = ["Certificate", "KrawczykError", "CertifyError", "interval_volume",
           "krawczyk_test", "certify_hyperbolic"]


class KrawczykError(RuntimeError):
    pass


@dataclass(frozen=True)
class Certificate:
    manifold_name: str
    contracted: bool
    all_imag_positive: bool
    enclosures: tuple          # (re.lo, re.hi, im.lo, im.hi) per tetrahedron
    volume_enclosure: Enclosure
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
            "volume_enclosure": list(self.volume_enclosure),
            "enclosures": [list(e) for e in self.enclosures],
        }


def _matmul_up(P, Q, k=0):
    """Upper bound on P @ Q for non-negative P, Q, in any summation order.

    A term is a product, the k roundings its factors carry and at most
    m - 1 sums; an underflowing product loses eta/2 and is only summed
    afterwards.  Q is raised to at least _TINY first (see `_ball`).
    """
    m = P.shape[-1]
    return _bound(P @ np.maximum(Q, _TINY), m + k)


def _ball_matmul(A, Bc, Brad):
    """Centre and radius of A @ (Bc +- Brad), A exact.

    A real part of the centre is a length-2m real dot product (four real
    products per complex one, as zgemm forms them), so in any order its
    error is at most gamma_2m |A| |Bc| + m eta; gamma_3m >= sqrt(2)
    gamma_2m and 2 m eta bound the complex error.  Raised to _TINY, |A| Q
    is above 2^-1000 and 2 m eta one rounding; the factors carry 8 in all.
    """
    m = A.shape[-1]
    Q = Brad + _gamma(3 * m) * np.abs(Bc)
    return A @ Bc, _matmul_up(np.maximum(np.abs(A), _TINY), Q, 8)


def _operator(sys, z, radius):
    """Preconditioner Y and the balls of E and K on X = z +- radius.

    On the rows `sys.kept_rows`, returns (Y, (E_c, E_rad), (K_c, K_rad)):
    E_c +- E_rad holds I - Y J(x) for every x in X, and
    K_c +- K_rad holds y - Y f(y) + (I - Y J(X))(X - y), entry by entry.
    Each radius bounds the enclosure plus every rounding made in computing
    its centre, summed in round-to-nearest and bounded once (`_ball`).
    """
    n = len(z)
    # the discs |x - v| <= rv around v = (z, fl(1 - z)) hold X and 1 - X
    rho = _bound(radius * math.sqrt(2.0), 2)
    v, rv, lo, gap = _discs(z, np.full(n, rho))
    # a disc across the real axis outside (0, 1) meets a branch cut of log
    cut = (np.abs(z.imag) <= rho) & ((z.real <= 0.0) | (z.real >= 1.0))
    bad = np.flatnonzero(~(gap.min(axis=0) > _TINY) | cut)
    if bad.size:
        raise KrawczykError(f"the disc of radius {radius} around shape "
                            f"{bad[0]} = {z[bad[0]]} reaches 0, 1 or a cut")

    C = sys.matrix[list(sys.kept_rows)].astype(float)      # [A | B | k - c]
    absC = np.abs(C)
    # J(X) = A/x - B/(1 - x); J_c rounds fl(1/x) three times more, and a
    # product by an integer does not underflow
    recip, rad = _recip(v, rv, lo, gap, 8)
    J_c = jacobian(C, recip[0], -recip[1])
    J_rad = _bound(jacobian(absC, rad[0], rad[1]), 2)
    try:
        Y = np.linalg.inv(J_c)                 # an exact constant from here on
    except np.linalg.LinAlgError as exc:
        raise KrawczykError(f"midpoint Jacobian inversion failed: {exc}") from None

    # f(y), y = z: [A | B | k - c] times V = (log z, log(1 - z), i pi); the
    # rounding of pi is within the log allowance too.  A part of row i is a
    # real dot product of its k_i non-zero terms, within gamma_k_i |C| |V|,
    # and a term of f_rad carries k_i + 4 <= 2 n + 5 roundings
    V = np.append(np.log(v).ravel(), 1j * np.pi)
    k = (C != 0).sum(axis=1)
    sums = absC @ np.array([_log_rad(V), np.abs(V)]).T
    f_rad = _bound(sums[:, 0] + _gamma(k) * sums[:, 1], 2 * n + 5)
    # Y J and Y f as one product
    YB_c, YB_rad = _ball_matmul(Y, np.concatenate([J_c, (C @ V)[:, None]], 1),
                                np.concatenate([J_rad, f_rad[:, None]], 1))
    E_c = np.eye(n) - YB_c[:, :n]              # only the diagonal rounds
    absE = np.abs(E_c)
    E_rad = _bound(YB_rad[:, :n] + _U * absE, 4)

    # K = y - Y f(y) + E (X - y), with X - y in the disc |d| <= rho; E_rad
    # is at least _TINY^2, so an underflow of |E_c| is one rounding more
    K_c = z - YB_c[:, n]
    K_rad = _bound(YB_rad[:, n] + 2 * _U * np.abs(K_c)
                   + rho * (absE + E_rad).sum(axis=1), n + 5)
    if not (np.isfinite(K_c).all() and np.isfinite(K_rad).all()):
        raise KrawczykError("the Krawczyk operator is not finite")
    return Y, (E_c, E_rad), (K_c, K_rad)


def krawczyk_test(sys: GluingSystem, approx, radius: float) -> Certificate:
    """Containment test on the box approx +- radius.

    The caller should provide approx with residual well below the box
    scale (the Newton output); a poor approx simply comes back with
    contracted = False.  Raises KrawczykError when the box itself is
    unusable: a shape is not finite, `sys.kept_rows` are not n rows, the
    midpoint Jacobian is not invertible, or the disc around a shape
    reaches 0, 1 or a branch cut.
    """
    if not 0 < radius < math.inf:  # also rejects NaN
        raise ValueError("radius must be positive and finite")
    z = np.array([complex(v) for v in approx])
    n = sys.tet_count
    if len(z) != n:
        raise ValueError(f"expected {n} shapes, got {len(z)}")
    if not np.isfinite(z).all():
        raise KrawczykError(f"shapes are not all finite: {z}")
    if len(sys.kept_rows) != n:
        raise KrawczykError(f"rows [A | B | k - c] have rank {len(sys.kept_rows)}, "
                            f"not {n}: no n rows imply the others")

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, _, (K_c, K_rad) = _operator(sys, z, radius)
            # strictly inside the exact box z +- radius, part by part
            d = K_c - z
            reach = _bound(np.maximum(np.abs(d.real), np.abs(d.imag)) + K_rad, 2)
            contracted = bool((reach < radius).all())
            # re.lo, re.hi, im.lo, im.hi of c +- r, each a float outward
            K, X = (np.nextafter(np.array([c.real - r, c.real + r, c.imag - r, c.imag + r]),
                                 [[-np.inf], [np.inf], [-np.inf], [np.inf]])
                    for c, r in ((K_c, K_rad), (z, radius)))
    except FloatingPointError as exc:
        raise KrawczykError(f"ball arithmetic overflowed: {exc}") from None

    # an empty K & X leaves contracted False; X then stands as the enclosure
    lo, hi = np.maximum(K[0::2], X[0::2]), np.minimum(K[1::2], X[1::2])
    ends = X if (lo > hi).any() else np.array([lo[0], hi[0], lo[1], hi[1]])
    all_imag_positive = bool((ends[2] > 0.0).all())

    try:
        vol = interval_volume(ends.T)
    except EnclosureDomainError as exc:
        if contracted and all_imag_positive:
            raise KrawczykError(f"volume enclosure failed: {exc}") from None
        vol = Enclosure(-math.inf, math.inf)

    return Certificate(sys.name, contracted, all_imag_positive,
                       tuple(map(tuple, ends.T.tolist())), vol, float(radius))


RADIUS_LADDER = (1e-10, 1e-8, 1e-6)


def certify_hyperbolic(tri: Triangulation, radii=RADIUS_LADDER,
                       tol: float = 1e-12) -> Certificate:
    """Full pipeline: build, Newton from the file hints, certify.

    `tri` is valid by construction, so nothing here checks it again.
    Tries the radii in order and returns the first valid certificate;
    every stage failure is wrapped in CertifyError with a stage tag; rows
    beyond floats fail `validation`.
    A `krawczyk` failure lists each rung tried as `attempts`.
    """
    radii = tuple(radii)
    if not 0 < tol < math.inf:  # before Newton, which would tag it `newton`
        raise ValueError(f"need 0 < tol < inf, got tol={tol}")
    if not (radii and all(0 < r < math.inf for r in radii)):
        raise ValueError(f"radius must be positive and finite, got radii={radii}")
    try:
        sys = build_equations(tri)
    except ValueError as exc:
        raise CertifyError("validation", str(exc)) from None
    hints = [tet.shape_hint for tet in tri.tets]
    try:
        result = newton_solve(sys, hints, tol=tol)
    except (SolveError, ValueError) as exc:
        raise CertifyError("newton", str(exc)) from None
    attempts = []
    for radius in radii:
        try:
            cert = krawczyk_test(sys, result.shapes, radius)
        except KrawczykError as exc:
            attempts.append((radius, str(exc)))
            continue
        if cert.valid:
            vol = point_volume(result.shapes)
            if not cert.volume_enclosure.contains(vol):
                raise CertifyError(
                    "volume", f"enclosure {list(cert.volume_enclosure)} misses "
                    f"the floating-point volume {vol!r}")
            return cert
        attempts.append((radius, "not contracted" if not cert.contracted
                         else "Im not positive"))
    raise CertifyError("krawczyk", "no radius produced a valid certificate ("
                       + "; ".join(f"{r}: {o}" for r, o in attempts) + ")",
                       attempts)
