"""Monte Carlo verification of the vertex-arch Rellich identity.

With the vertex at the origin and W = X/|X|, a function u harmonic on an
arch A = A(v, r, R) satisfies

    2 * int_A (W . grad u)^2 dX/|X|
        = int_{dA} (nu . W) |grad u|^2 - 2 (du/dnu) (W . grad u) ds.

On the inner base the outward normal is -W, on the outer base +W, and on
the lateral faces through the vertex nu . W = 0, which also yields the
one-sided estimate

    lhs <= int_{B(v,R)} |grad u|^2 + 2 int_{B(v,r)} (W . grad u)^2
           + 2 int_{lateral} |du/dnu| |grad_t u| ds.

Both sides are integrated by Monte Carlo on shared samples: one stream
of n >= 2 points per region (volume, inner and outer base, lateral
faces), drawn directly and carrying the region's exact measure (see the
geometry module's docstring).  Each integral is that measure times the
integrand's mean, with the standard error of the mean from the sample
variance.  The 1/|X| volume weight is bounded on the arch (|X| >= r), so
plain sampling needs no singularity handling.

Homogeneous harmonic polynomials up to degree 3 supply the test functions,
each an exact integer coefficient table over the monomials.  The suite has
one path: it streams the samplers' shards (at most 4096 points each)
through one kernel, and the command line reports on the same streams
without drawing them twice.  The kernel (:func:`_evaluate`) adds each
polynomial's terms ``coefficient * monomial`` in table order with
elementwise numpy, never a matrix product, and Euler's identity
X . grad u = degree * u gives W . grad u without a dot product.
Elementwise operations round each point on its own, so a point's integrand
bits depend on the point and the function alone: not on the BLAS build,
the SIMD width, the shard's width or the other functions.  Per shard, each
integrand's mean and centred sum of squares are numpy's pairwise sums over
a contiguous row, whose order depends on the shard's width alone; the
shards merge in draw order by Chan, Golub & LeVeque (1979), so a constant
integrand's stderr stays at its rounding size.  No per-point array
outgrows a shard.  The sampled points come from numpy's transcendental
functions, whose kernels may differ by CPU, so report bytes hold per
machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ArchRegion,
    arch_stream,
    base_stream,
    lateral_stream,
    mc_estimate,
)


# the monomials x^a y^b z^c through degree 4, graded, so that polynomials of
# low degree read only the first rows of a monomial basis
_MONOMIALS = tuple((a, b, d - a - b) for d in range(5)
                   for a in range(d, -1, -1) for b in range(d - a, -1, -1))
_INDEX = {e: k for k, e in enumerate(_MONOMIALS)}
# each monomial past the first is a lower one times a coordinate: lower the
# first nonzero exponent
_AXIS = tuple(next(i for i in range(3) if e[i]) for e in _MONOMIALS[1:])
_PARENT = tuple(_INDEX[tuple(x - (i == k) for i, x in enumerate(e))]
                for e, k in zip(_MONOMIALS[1:], _AXIS))


def _monomial_basis(coords, count):
    """The first `count` monomials at the points ``coords`` (3, m), one row
    each, in the order of ``_MONOMIALS``."""
    basis = np.empty((count, coords.shape[1]))
    basis[0] = 1.0
    for k in range(1, count):
        np.multiply(basis[_PARENT[k - 1]], coords[_AXIS[k - 1]], out=basis[k])
    return basis


def _evaluate(rows, coords):
    """Polynomials at the points ``coords`` (3, m), one output row per entry
    of ``rows``, each a tuple of ``(monomial, coefficient)`` terms.  Every
    row is its first term's ``coefficient * basis[monomial]``, plus each
    further term's in its tuple's order, so a value's bits depend only on
    its point and its own terms."""
    basis = _monomial_basis(coords, 1 + max((k for terms in rows for k, _ in terms), default=0))
    out = np.empty((len(rows), basis.shape[1]))
    for acc, terms in zip(out, rows):
        (k, c), *rest = terms or ((0, 0.0),)  # an empty row is 0 times the monomial 1
        np.multiply(basis[k], c, out=acc)
        for k, c in rest:
            acc += c * basis[k]
    return out


class HarmonicTestFunction:
    """Named homogeneous harmonic polynomial from its exact integer terms.

    ``terms`` are ``(coefficient, a, b, c)`` for ``coefficient x^a y^b z^c``.
    ``table`` holds integer coefficients over ``_MONOMIALS`` in five rows:
    the value (degree d), the three gradient components (degree d - 1) and
    ``|grad u|^2`` (degree 2d - 2).  ``rows`` holds each row's nonzero
    ``(monomial, coefficient)`` entries in monomial order, as
    :func:`_evaluate` takes them.  Being homogeneous, u satisfies Euler's
    identity ``X . grad u = d * u``.
    """

    def __init__(self, name, *terms):
        degrees = {a + b + c for _, a, b, c in terms}
        if len(degrees) != 1:
            raise ValueError("%s: terms must share one degree" % name)
        self.name = name
        self.degree = d = degrees.pop()
        value = [(c, tuple(p)) for c, *p in terms]
        gradient = [[(c * p[axis], tuple(x - (i == axis) for i, x in enumerate(p)))
                     for c, p in value if p[axis]] for axis in range(3)]
        square = [(c * c2, tuple(map(sum, zip(p, p2))))
                  for g in gradient for c, p in g for c2, p2 in g]
        table = np.zeros((5, len(_MONOMIALS)))
        for row, polynomial in enumerate([value] + gradient + [square]):
            for c, p in polynomial:
                table[row, _INDEX[p]] += c
        table.flags.writeable = False
        self.table = table
        self.rows = tuple(tuple((k, c) for k, c in enumerate(row.tolist()) if c) for row in table)

    def __repr__(self):
        return "HarmonicTestFunction(%r)" % self.name

    def _rows(self, pts, rows):
        pts = np.asarray(pts, dtype=float)
        return _evaluate(self.rows[rows], pts.reshape(-1, 3).T).T.reshape(pts.shape[:-1] + (-1,))

    def value(self, pts):
        return self._rows(pts, slice(0, 1))[..., 0]

    def gradient(self, pts):
        return self._rows(pts, slice(1, 4))


CATALOG = (
    HarmonicTestFunction("1", (1, 0, 0, 0)),
    HarmonicTestFunction("x", (1, 1, 0, 0)),
    HarmonicTestFunction("y", (1, 0, 1, 0)),
    HarmonicTestFunction("z", (1, 0, 0, 1)),
    HarmonicTestFunction("xy", (1, 1, 1, 0)),
    HarmonicTestFunction("yz", (1, 0, 1, 1)),
    HarmonicTestFunction("zx", (1, 1, 0, 1)),
    HarmonicTestFunction("x^2-y^2", (1, 2, 0, 0), (-1, 0, 2, 0)),
    HarmonicTestFunction("2z^2-x^2-y^2", (2, 0, 0, 2), (-1, 2, 0, 0), (-1, 0, 2, 0)),
    HarmonicTestFunction("x^3-3xy^2", (1, 3, 0, 0), (-3, 1, 2, 0)),
    HarmonicTestFunction("3x^2y-y^3", (3, 2, 1, 0), (-1, 0, 3, 0)),
    HarmonicTestFunction("xyz", (1, 1, 1, 1)),
    HarmonicTestFunction("z(x^2-y^2)", (1, 2, 0, 1), (-1, 0, 2, 1)),
    HarmonicTestFunction("x(4z^2-x^2-y^2)", (4, 1, 0, 2), (-1, 3, 0, 0), (-1, 1, 2, 0)),
    HarmonicTestFunction("y(4z^2-x^2-y^2)", (4, 0, 1, 2), (-1, 2, 1, 0), (-1, 0, 3, 0)),
    HarmonicTestFunction("z(2z^2-3x^2-3y^2)", (2, 0, 0, 3), (-3, 2, 0, 1), (-3, 0, 2, 1)),
)


def catalog(max_degree=3):
    return tuple(u for u in CATALOG if u.degree <= max_degree)


def catalog_entry(name):
    for u in CATALOG:
        if u.name == name:
            return u
    raise KeyError("no harmonic test function named %r" % (name,))


@dataclass
class RellichResult:
    vertex: int
    r_inner: float
    r_outer: float
    u_name: str
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    rhs_inner: float
    rhs_outer: float
    rhs_lateral: float

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def combined_stderr(self):
        return math.hypot(self.lhs_stderr, self.rhs_stderr)

    @property
    def relative_residual(self):
        if self.residual == 0.0:
            return 0.0
        return abs(self.residual) / max(abs(self.lhs), abs(self.rhs))

    def to_json_dict(self):
        return {
            "vertex": self.vertex,
            "r_inner": self.r_inner,
            "r_outer": self.r_outer,
            "u": self.u_name,
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs,
            "rhs_stderr": self.rhs_stderr,
            "rhs_parts": {
                "inner_base": self.rhs_inner,
                "outer_base": self.rhs_outer,
                "lateral": self.rhs_lateral,
            },
            "residual": self.residual,
            "combined_stderr": self.combined_stderr,
            "relative_residual": self.relative_residual,
        }


@dataclass
class EstimateResult:
    vertex: int
    r_inner: float
    r_outer: float
    u_name: str
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def combined_stderr(self):
        return math.hypot(self.lhs_stderr, self.rhs_stderr)

    def to_json_dict(self):
        return {
            "vertex": self.vertex,
            "r_inner": self.r_inner,
            "r_outer": self.r_outer,
            "u": self.u_name,
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs,
            "rhs_stderr": self.rhs_stderr,
            "slack": self.slack,
            "combined_stderr": self.combined_stderr,
        }


REGIONS = ("volume", "inner", "outer", "lateral")


def arch_streams(arch, n, seed):
    """One stream of n points per region, in the order of ``REGIONS``; seeds
    derive from (seed, region index)."""
    seed = int(seed)
    return (arch_stream(arch, n, seed), base_stream(arch.inner_base, n, (seed << 2) + 1),
            base_stream(arch.outer_base, n, (seed << 2) + 2),
            lateral_stream(arch, n, (seed << 2) + 3))


def sampling_report(streams):
    """Per region of the four streams, the exact measure it carries.  The
    streams draw nothing here."""
    return {region: {"measure": s.measure} for region, s in zip(REGIONS, streams)}


# the rows of each function's table a region's integrands read; the lateral
# estimate takes |grad u|^2 - (du/dnu)^2, which vanishes where grad u is
# normal to the face, so there |grad u|^2 is summed from the same gradient
# rows as du/dnu and cancels to the rounding of those rows alone
_REGION_ROWS = {"volume": [0], "inner": [0, 4], "outer": [0, 4], "lateral": [0, 1, 2, 3]}


def _region_rows(region, test_functions):
    """The rows of every function the region's integrands read, as
    :func:`_evaluate` takes them, row-major over (``_REGION_ROWS[region]``,
    functions); the value row is times the degree, so that by Euler's
    identity it evaluates to ``|X| W . grad u``."""
    return [u.rows[i] if i else tuple((k, u.degree * c) for k, c in u.rows[0] if u.degree)
            for i in _REGION_ROWS[region] for u in test_functions]


def _integrands(region, rows, pts, normals):
    """The region's integrands at one shard of points relative to the
    vertex, one (functions, points) array each: for the volume the lhs
    integrand, for each boundary region the identity's then the estimate's.
    ``rows`` are the region's from :func:`_region_rows`; ``normals``
    (3, points) are the lateral points' outward unit normals.  Every step
    is elementwise, so a point's integrands are the same bits whatever
    shares its shard.
    """
    x, y, z = coords = np.ascontiguousarray(pts.T)
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    values = _evaluate(rows, coords).reshape(len(_REGION_ROWS[region]), -1, len(r))
    rwg = values[0]  # |X| W . grad u
    if region == "volume":
        return (rwg * rwg * (2.0 / (r2 * r)),)
    if region != "lateral":
        g2 = values[1]  # the table's |grad u|^2 row
        twice_wg2 = rwg * rwg * (2.0 / r2)
        if region == "inner":  # outward normal -W
            return twice_wg2 - g2, twice_wg2
        return g2 - twice_wg2, g2  # outer base, outward normal +W
    # lateral faces: nu . W vanishes on faces through the vertex up to
    # round-off but is kept in the integrand
    gx, gy, gz = values[1:]
    nx, ny, nz = normals
    g2 = gx * gx + gy * gy + gz * gz
    dn = nx * gx + ny * gy + nz * gz
    nuw = (nx * x + ny * y + nz * z) / r
    dn2 = dn * dn
    # the estimate's 2 |du/dnu| |grad_t u|, with |grad_t u|^2 = |grad u|^2 - dn^2
    return (nuw * g2 - dn * rwg * (2.0 / r),
            2.0 * np.sqrt(np.maximum(dn2 * (g2 - dn2), 0.0)))


def _region_estimates(arch, test_functions, n, seed):
    """Per region of ``REGIONS``, the estimates and standard errors of its
    integrands, two (integrands, functions) arrays, on the points of
    ``arch_streams(arch, n, seed)`` taken shard by shard: each shard's mean
    and centred sum of squares merge into the running ones in draw order by
    Chan, Golub & LeVeque."""
    v = arch.surface.vertices[arch.vertex]
    normal_table = np.ascontiguousarray(arch.surface.face_normals.T)
    out = {}
    for region, stream in zip(REGIONS, arch_streams(arch, n, seed)):
        rows = _region_rows(region, test_functions)
        mean, m2 = np.zeros((2, 1 if region == "volume" else 2, len(test_functions)))
        count = 0
        for pts, face_ids in stream:
            normals = None if face_ids is None else np.take(normal_table, face_ids, axis=1)
            m = len(pts)
            share = m / (count + m)
            for i, x in enumerate(_integrands(region, rows, pts - v, normals)):
                shard_mean = x.sum(axis=1) / m
                delta = shard_mean - mean[i]
                x -= shard_mean[:, None]  # each integrand array is the merge's own
                x *= x
                m2[i] += x.sum(axis=1) + delta * delta * (count * share)
                mean[i] += delta * share
            count += m
        out[region] = mc_estimate(mean, m2, count, stream.measure)
    return out


def rellich_suite(arch, test_functions, n, seed):
    """Identity and estimate reports for many u on shared samples.

    Coordinates are translated so the arch vertex sits at the origin
    before evaluating u, which makes results invariant under rigid
    translation of the fixture.  The suite walks the points of
    ``arch_streams(arch, n, seed)`` shard by shard and never holds a whole
    batch: each integrand keeps only its running mean and centred sum of
    squares per test function, merged shard by shard in draw order.  A
    standard error needs a sample variance, so ``n`` must be at least 2.
    """
    if not isinstance(arch, ArchRegion):
        raise TypeError("arch must be an ArchRegion")
    if n < 2:
        raise ValueError("need n >= 2 samples per region: one point gives no standard error")
    test_functions = tuple(test_functions)
    if not test_functions:
        return [], []
    acc = _region_estimates(arch, test_functions, n, seed)
    (lhs, lhs_se), (inner, inner_se), (outer, outer_se), (lat, lat_se) = (
        (est.tolist(), se.tolist()) for est, se in (acc[region] for region in REGIONS))
    identities, estimates = [], []
    for f, u in enumerate(test_functions):
        common = dict(vertex=arch.vertex, r_inner=arch.r_inner, r_outer=arch.r_outer,
                      u_name=u.name, lhs=lhs[0][f], lhs_stderr=lhs_se[0][f])
        identities.append(RellichResult(
            **common,
            rhs=inner[0][f] + outer[0][f] + lat[0][f],
            rhs_stderr=math.sqrt(inner_se[0][f] ** 2 + outer_se[0][f] ** 2 + lat_se[0][f] ** 2),
            rhs_inner=inner[0][f], rhs_outer=outer[0][f], rhs_lateral=lat[0][f],
        ))
        # the 2x factors already sit inside the inner and lateral integrands
        estimates.append(EstimateResult(
            **common,
            rhs=outer[1][f] + inner[1][f] + lat[1][f],
            rhs_stderr=math.sqrt(outer_se[1][f] ** 2 + inner_se[1][f] ** 2 + lat_se[1][f] ** 2),
        ))
    return identities, estimates


def rellich_identity(arch, u, n, seed):
    """Both sides of the identity for one test function; see rellich_suite."""
    ids, _ = rellich_suite(arch, [u], n, seed)
    return ids[0]


def rellich_estimate(arch, u, n, seed):
    """The one-sided estimate for one test function; see rellich_suite."""
    _, ests = rellich_suite(arch, [u], n, seed)
    return ests[0]


def identity_csv_rows(fixture_name, results):
    """Rows (fixture, vertex, r, R, u_name, lhs, lhs_stderr, rhs, rhs_stderr, residual)."""
    return [
        (
            fixture_name, res.vertex, res.r_inner, res.r_outer, res.u_name,
            res.lhs, res.lhs_stderr, res.rhs, res.rhs_stderr, res.residual,
        )
        for res in results
    ]
