"""Singular harmonic solutions on plane sectors with mixed boundary data.

For an aperture alpha in [pi, 2*pi) the function

    b = r**beta * sin(beta * theta),    beta = pi / (2 * alpha),

is harmonic in the sector 0 < theta < alpha (coordinates y = r*cos(theta),
t = r*sin(theta), crease along the x-axis), vanishes on the Dirichlet
half-plane theta = 0, and has vanishing angular derivative on the Neumann
half-plane theta = alpha.  Its gradient magnitude beta * r**(beta-1) is
not square integrable up to the crease: the truncated boundary energy
I(eps) = integral_eps^1 beta^2 r^(2*beta-2) dr blows up as eps -> 0 with
exponent 2*beta - 1 (a log law at alpha = pi).  This module evaluates b,
quantifies the blow-up in closed form and by independent quadrature, and
estimates the nontangential maximal gradient over approach cones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class SectorDomainError(ValueError):
    """Point outside the closed sector, or gradient requested on the crease."""


class SectorSolution:
    """Mixed-data singular solution on the sector of aperture alpha.

    alpha must lie in [pi, 2*pi); below pi the mixed problem is well posed
    and this function is no counterexample, so the constructor rejects it.
    """

    def __init__(self, aperture):
        aperture = float(aperture)
        if not math.pi <= aperture < TWO_PI:
            raise ValueError("aperture must lie in [pi, 2*pi), got %g" % aperture)
        self.aperture = aperture
        self.exponent = math.pi / (2.0 * aperture)  # in (1/4, 1/2]

    def polar(self, points):
        """(r, theta) with theta wrapped into [0, 2*pi); x is ignored."""
        pts = np.asarray(points, dtype=float)
        y, t = pts[..., 1], pts[..., 2]
        r = np.hypot(y, t)
        theta = np.arctan2(t, y)
        theta = np.where(theta < 0.0, theta + TWO_PI, theta)
        return r, theta

    def _check_domain(self, r, theta):
        # closed sector; the wrap seam theta ~ 2*pi counts as theta = 0
        tol = 1e-12
        theta = np.where(theta >= TWO_PI - tol, 0.0, theta)
        if np.any((theta > self.aperture + tol) & (r > 0)):
            raise SectorDomainError("point outside the sector of aperture %g" % self.aperture)
        return np.minimum(theta, self.aperture)

    def value(self, points):
        r, theta = self.polar(points)
        theta = self._check_domain(r, theta)
        b = self.exponent
        return r ** b * np.sin(b * theta)

    def gradient(self, points):
        """Cartesian gradient (0, db/dy, db/dt); |grad| = beta * r**(beta-1)."""
        r, theta = self.polar(points)
        theta = self._check_domain(r, theta)
        if np.any(r == 0.0):
            raise SectorDomainError("gradient is singular on the crease r = 0")
        b = self.exponent
        mag = b * r ** (b - 1.0)
        gy = -mag * np.sin((1.0 - b) * theta)
        gt = mag * np.cos((1.0 - b) * theta)
        out = np.zeros(np.shape(gy) + (3,))
        out[..., 1] = gy
        out[..., 2] = gt
        return out

    def gradient_magnitude(self, r):
        b = self.exponent
        return b * np.asarray(r, dtype=float) ** (b - 1.0)

    def boundary_distance(self, points):
        """Distance to the sector boundary D union N (x-extent ignored)."""
        pts = np.asarray(points, dtype=float)
        y, t = pts[..., 1], pts[..., 2]
        r = np.hypot(y, t)
        dist_d = np.where(y >= 0.0, np.abs(t), r)
        ca, sa = math.cos(self.aperture), math.sin(self.aperture)
        yn = y * ca + t * sa
        tn = -y * sa + t * ca
        dist_n = np.where(yn >= 0.0, np.abs(tn), r)
        return np.minimum(dist_d, dist_n)


def eval_b(solution, point):
    return float(solution.value(np.asarray(point, dtype=float)))


def eval_grad_b(solution, point):
    return solution.gradient(np.asarray(point, dtype=float))


# ----------------------------------------------------------------------
# harmonicity probes


def discrete_laplacian(fn, point, h):
    """7-point central-difference Laplacian of a scalar callable."""
    p = np.asarray(point, dtype=float)
    total = -6.0 * fn(p)
    for axis in range(3):
        for sgn in (-1.0, 1.0):
            q = p.copy()
            q[axis] += sgn * h
            total += fn(q)
    return total / (h * h)


def check_harmonic(solution, point, h):
    """Discrete Laplacian of b at an interior point; O(h^2) small.

    Raises :class:`SectorDomainError` when any stencil point leaves the
    open sector.
    """
    p = np.asarray(point, dtype=float)
    stencil = [p]
    for axis in range(3):
        for sgn in (-1.0, 1.0):
            q = p.copy()
            q[axis] += sgn * h
            stencil.append(q)
    r, theta = solution.polar(np.asarray(stencil))
    if np.any(r <= 0.0) or np.any(theta >= solution.aperture) or np.any(theta <= 0.0):
        raise SectorDomainError("stencil leaves the open sector")
    return discrete_laplacian(lambda q: eval_b(solution, q), p, h)


# ----------------------------------------------------------------------
# truncated boundary energy


@dataclass(frozen=True)
class TruncatedEnergy:
    epsilon: float
    closed_form: float
    quadrature: float
    quadrature_error: float


def truncated_energy(solution, epsilon):
    """I(eps) = integral_eps^1 of |grad b|^2 along the Dirichlet ray.

    Returns the closed form together with an independent numeric
    quadrature of the same integrand (per unit crease length).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    b = solution.exponent
    if epsilon == 1.0:
        closed = 0.0
    elif abs(2.0 * b - 1.0) < 1e-15:
        closed = 0.25 * math.log(1.0 / epsilon)
    else:
        closed = b * b * (epsilon ** (2.0 * b - 1.0) - 1.0) / (1.0 - 2.0 * b)
    from scipy import integrate  # here, so that only its callers pay for the import

    quad, err = integrate.quad(
        lambda r: (b * r ** (b - 1.0)) ** 2, epsilon, 1.0, limit=200
    )
    return TruncatedEnergy(
        epsilon=float(epsilon),
        closed_form=float(closed),
        quadrature=float(quad),
        quadrature_error=float(err),
    )


@dataclass
class BlowupReport:
    aperture: float
    exponent: float
    epsilons: tuple
    closed_form: tuple
    quadrature: tuple
    quadrature_errors: tuple
    fitted_exponent: float
    closed_form_exponent: float
    log_law: bool
    log_law_coefficient: float | None

    def csv_rows(self):
        return [
            (e, c, q, s)
            for e, c, q, s in zip(
                self.epsilons, self.closed_form, self.quadrature, self.quadrature_errors
            )
        ]

    def to_json_dict(self):
        return {
            "aperture": self.aperture,
            "exponent": self.exponent,
            "epsilons": list(self.epsilons),
            "closed_form": list(self.closed_form),
            "quadrature": list(self.quadrature),
            "quadrature_errors": list(self.quadrature_errors),
            "fitted_exponent": self.fitted_exponent,
            "closed_form_exponent": self.closed_form_exponent,
            "log_law": self.log_law,
            "log_law_coefficient": self.log_law_coefficient,
        }


def fit_blowup_exponent(epsilons, values):
    """Slope of log(increments of I) against log(eps) on a geometric ladder.

    For I(eps) = c * (eps**s - 1) the increments between consecutive rungs
    satisfy log(dI_k) = s * log(eps_k) + const exactly, so the least-squares
    slope recovers s; a direct log-log fit of I itself cannot, because of
    the additive constant.  Requires eps decreasing with a fixed ratio.
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(eps) < 3:
        raise ValueError("need at least 3 truncation radii")
    ratios = eps[1:] / eps[:-1]
    if np.any(ratios >= 1.0) or np.ptp(ratios) > 1e-9 * ratios[0]:
        raise ValueError("epsilons must decrease geometrically")
    inc = vals[1:] - vals[:-1]
    if np.any(inc <= 0.0):
        raise ValueError("truncated energies must increase as eps shrinks")
    slope, _ = np.polyfit(np.log(eps[:-1]), np.log(inc), 1)
    return float(slope)


def blowup_report(solution, epsilons=DEFAULT_EPSILONS):
    """Blow-up study: per-eps energies plus the fitted exponent.

    The fit runs on the quadrature values so the closed form and the fit
    stay independent routes to the same law.
    """
    energies = [truncated_energy(solution, e) for e in epsilons]
    quad = tuple(t.quadrature for t in energies)
    fitted = fit_blowup_exponent(epsilons, quad)
    b = solution.exponent
    log_law = abs(2.0 * b - 1.0) < 1e-15
    coeff = None
    if log_law:
        e_min = min(epsilons)
        coeff = quad[list(epsilons).index(e_min)] / math.log(1.0 / e_min)
    return BlowupReport(
        aperture=solution.aperture,
        exponent=b,
        epsilons=tuple(float(e) for e in epsilons),
        closed_form=tuple(t.closed_form for t in energies),
        quadrature=quad,
        quadrature_errors=tuple(t.quadrature_error for t in energies),
        fitted_exponent=fitted,
        closed_form_exponent=2.0 * b - 1.0,
        log_law=log_law,
        log_law_coefficient=coeff,
    )


# ----------------------------------------------------------------------
# nontangential maximal function


@dataclass(frozen=True)
class NtCone:
    """Truncated nontangential approach region over a Dirichlet base point.

    The base point sits on D at `distance` from the crease (at x =
    `along_crease`); the region is {X : |X - P| < (1 + aperture) *
    dist(X, boundary)} cut to the ball |X - P| < height.
    """

    distance: float
    aperture: float
    height: float
    along_crease: float = 0.0

    def __post_init__(self):
        if self.distance <= 0.0:
            raise ValueError("base point must sit at positive distance from the crease")
        if self.aperture <= 0.0:
            raise ValueError("cone aperture must be positive")
        if self.height <= 0.0:
            raise ValueError("truncation height must be positive")

    @property
    def base_point(self):
        return np.array([self.along_crease, self.distance, 0.0])


def cone_membership(solution, cone, points):
    """Boolean mask of points inside the open truncated approach region."""
    pts = np.asarray(points, dtype=float)
    p = cone.base_point
    d = np.linalg.norm(pts - p, axis=-1)
    r, theta = solution.polar(pts)
    inside_sector = (r > 0.0) & (theta > 0.0) & (theta < solution.aperture)
    bd = solution.boundary_distance(pts)
    return inside_sector & (d < cone.height) & (d < (1.0 + cone.aperture) * bd)


def estimate_ntmax(solution, cone, n, seed):
    """Sup of |grad b| over n quasi-random points of the approach cone.

    |grad b| decreases in the crease distance r, so the estimate converges
    to beta * r_min**(beta - 1) with r_min the minimal crease distance over
    the cone closure.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    from scipy.stats import qmc  # here, so that only its callers pay for the import

    sob = qmc.Sobol(d=3, scramble=True, seed=np.random.default_rng(
        np.random.SeedSequence((int(seed), 0x7C0))))
    p = cone.base_point
    lo = p - cone.height
    span = 2.0 * cone.height
    best = -math.inf
    accepted = 0
    proposals = 0
    while accepted < n:
        unit = sob.random(8192)
        pts = lo + span * unit
        proposals += len(pts)
        keep = cone_membership(solution, cone, pts)
        if np.any(keep):
            r, _ = solution.polar(pts[keep])
            best = max(best, float(solution.gradient_magnitude(r).max()))
            accepted += int(keep.sum())
        if proposals > max(4_000_000, 10_000 * n) and accepted == 0:
            raise ValueError("approach cone appears empty at this aperture/height")
    return best
