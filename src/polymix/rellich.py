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

Every test function u is a homogeneous harmonic polynomial of degree p,
so by Euler's identity X . grad u = p u, W . grad u = p u(W) |X|^(p-1),
and each volume and base integrand is a power of |X| times a function of
the direction alone.  The radial integrals then have closed forms, and
only the link needs sampling.  With Omega the cone's solid angle and the
means over n >= 2 unit directions drawn directly from the link (see the
geometry module's docstring) of U = (p u)^2 and G = |grad u|^2:

    lhs        = (R^2p - r^2p) / p * Omega * mean(U)
    inner base =            r^2p * Omega * mean(2 U - G)
    outer base =            R^2p * Omega * mean(G - 2 U)

and the estimate's inner and outer rows are 2 U and G.  On each lateral
face wedge both integrands are rho^(2p-2) times a function of the polar
angle, so one stream of n polar angles at unit radius, of measure
sum theta (the wedges' corner angles), gives

    lateral    = (R^2p - r^2p) / 2p * sum(theta) * mean(integrand).

The radial powers are formed by multiplication, so a power-of-two scale
of the mesh and radii scales every number by a power of two exactly.  At
degree 0 every integrand is 0, and so is every estimate: such functions
never enter the kernel, and a suite of them alone walks neither stream.

Each estimate is a weighted sum of its stream's means, and its standard
error comes from the centred co-moments of (U, G) on the link, and of
the identity's and the estimate's integrands on the lateral, where no
estimate weighs both, so that their cross co-moment is never formed.  The
volume and both bases share their directions, so their errors are
correlated: the rhs standard errors and ``combined_stderr`` (of the
identity's residual, and of the estimate's slack) are those of the paired
per-direction sums, combined in quadrature with the lateral's, not a
root-sum-square over the parts.

Homogeneous harmonic polynomials up to degree 3 supply the test functions,
each an exact integer coefficient table over the monomials.  The suite
streams the shards (at most 4096 points each) of the link and the lateral
through one kernel, and the command line reports on the same streams
without drawing them.  Each stream's shards reuse one workspace of flat
buffers as wide as its widest shard, which the kernel writes in place.
The kernel (:func:`_evaluate`) adds each polynomial's terms
``coefficient * monomial`` in table order with elementwise numpy, never a
matrix product, and Euler's identity X . grad u = degree * u gives
W . grad u without a dot product.
Elementwise operations round each point on its own, so a point's integrand
bits depend on the point and the function alone: not on the BLAS build,
the SIMD width, the shard's width or the other functions.  Per shard, each
integrand's mean and centred co-moments are numpy's pairwise sums over
a contiguous row, whose order depends on the shard's width alone; the
shards merge in draw order by Chan, Golub & LeVeque (1979), so a constant
integrand's stderr stays at its rounding size.  No per-point array
outgrows a shard.  The sampled points come from numpy's transcendental
functions, whose kernels may differ by CPU, so report bytes hold per
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _DIRECT_CHUNK, ArchRegion, lateral_stream, link_stream


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


def _monomial_basis(coords, out):
    """The first ``len(out)`` monomials at the points ``coords`` (3, m), one
    row of ``out`` each, in the order of ``_MONOMIALS``."""
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[_PARENT[k - 1]], coords[_AXIS[k - 1]], out=out[k])
    return out


def _take(work, name, rows, m):
    """Buffer ``name`` of the workspace ``work`` (see :func:`_workspace`) as
    a (rows, m) array: its first ``rows * m`` entries, the layout a fresh
    array of that shape has, so a reduction over it takes the same order.
    Without a workspace, a fresh array."""
    if work is None:
        return np.empty((rows, m))
    return work[name][:rows * m].reshape(rows, m)


def _basis_size(rows):
    """The number of leading monomials the rows' terms read."""
    return 1 + max((k for terms in rows for k, _ in terms), default=0)


def _evaluate(rows, coords, work=None):
    """Polynomials at the points ``coords`` (3, m), one output row per entry
    of ``rows``, each a tuple of ``(monomial, coefficient)`` terms.  Every
    row is its first term's ``coefficient * basis[monomial]``, plus each
    further term's in its tuple's order, so a value's bits depend only on
    its point and its own terms.  The basis and the output are the
    workspace ``work``'s ``"basis"`` and ``"values"`` rows, or fresh arrays
    without one."""
    m = coords.shape[1]
    basis = _monomial_basis(coords, _take(work, "basis", _basis_size(rows), m))
    out = _take(work, "values", len(rows), m)
    term = np.empty(m)
    for acc, terms in zip(out, rows):
        (k, c), *rest = terms or ((0, 0.0),)  # an empty row is 0 times the monomial 1
        np.multiply(basis[k], c, out=acc)
        for k, c in rest:
            acc += np.multiply(basis[k], c, out=term)
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
    combined_stderr: float  # of the residual

    @property
    def residual(self):
        return self.lhs - self.rhs

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
    combined_stderr: float  # of the slack

    @property
    def slack(self):
        return self.rhs - self.lhs

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

# the rows of each function's table a stream's integrands read; the lateral
# estimate takes |grad u|^2 - (du/dnu)^2, which vanishes where grad u is
# normal to the face, so there |grad u|^2 is summed from the same gradient
# rows as du/dnu and cancels to the rounding of those rows alone
_STREAM_ROWS = {"link": [0, 4], "lateral": [0, 1, 2, 3]}


def _streams(arch, n, seed):
    """The suite's two streams of n draws: unit directions on the link, and
    polar angles of the lateral faces at unit radius; seeds derive from
    ``seed``, the link's being ``seed`` itself."""
    seed = int(seed)
    return (link_stream(arch.surface, arch.vertex, n, seed),
            lateral_stream(arch.surface, arch.vertex, n, (seed << 2) + 3))


def _radial_factors(arch, degree):
    """Per region of ``REGIONS``, the radial factor a degree-p function's
    estimates carry: ``(R^2p - r^2p) / p``, ``r^2p``, ``R^2p`` and
    ``(R^2p - r^2p) / 2p``.  The powers are products of ``r * r``, so a
    power-of-two scale of the radii scales them exactly.  At degree 0 the
    volume and lateral factors are 0, since every integrand vanishes."""
    r2, R2 = arch.r_inner * arch.r_inner, arch.r_outer * arch.r_outer
    r2p = R2p = 1.0
    for _ in range(degree):
        r2p *= r2
        R2p *= R2
    shell = (R2p - r2p) / degree if degree else 0.0
    return shell, r2p, R2p, 0.5 * shell


def sampling_report(arch, test_functions, n, seed):
    """What the suite draws, and the radial factor each region's estimates
    carry per degree; draws nothing."""
    link, lateral = _streams(arch, n, seed)
    degrees = sorted({u.degree for u in test_functions})
    factors = {p: _radial_factors(arch, p) for p in degrees}
    return {
        "link": {"measure": link.measure, "draws": link.n},
        "lateral": {"measure": lateral.measure, "draws": lateral.n},
        "regions": {region: {"stream": "lateral" if region == "lateral" else "link",
                             "radial_factor": {str(p): factors[p][i] for p in degrees}}
                    for i, region in enumerate(REGIONS)},
    }


def _stream_rows(stream, test_functions):
    """The rows of every function the stream's integrands read, as
    :func:`_evaluate` takes them, row-major over (``_STREAM_ROWS[stream]``,
    functions); the value row is times the degree, so that by Euler's
    identity it evaluates to ``|X| W . grad u``."""
    return [u.rows[i] if i else tuple((k, u.degree * c) for k, c in u.rows[0] if u.degree)
            for i in _STREAM_ROWS[stream] for u in test_functions]


def _workspace(stream, rows, width):
    """The buffers of the stream's kernel and co-moments at shards of at
    most ``width`` points: the monomial basis, the :func:`_evaluate` output,
    and one scratch row per function, which holds the lateral kernel's
    partial sums and then each co-moment's products; the lateral kernel's
    ``|grad u|^2`` and ``du/dnu`` rows besides."""
    count = len(rows) // len(_STREAM_ROWS[stream])
    sizes = {"basis": _basis_size(rows), "values": len(rows), "scratch": count}
    if stream == "lateral":
        sizes.update(g2=count, dn=count)
    return {name: np.empty(k * width) for name, k in sizes.items()}


def _integrands(stream, rows, pts, normals=None, work=None):
    """The stream's two integrands at one shard of points relative to the
    vertex, a (2, functions, points) array: on the link, at unit
    directions, ``U = (p u)^2`` and ``G = |grad u|^2``; on the lateral faces,
    at unit radius, the identity's integrand then the estimate's.  ``rows``
    are the stream's from :func:`_stream_rows`; ``normals`` (3, points) are
    the lateral points' outward unit normals; ``work`` is the stream's
    :func:`_workspace`, which the result lives in until its next shard, or
    by default fresh arrays.  Every step is elementwise, so a point's
    integrands are the same bits whatever shares its shard.
    """
    x, y, z = coords = np.ascontiguousarray(pts.T)
    m = len(x)
    values = _evaluate(rows, coords, work).reshape(len(_STREAM_ROWS[stream]), -1, m)
    rwg = values[0]  # |X| W . grad u
    if stream == "link":
        rwg *= rwg
        return values
    # lateral faces: nu . W vanishes on faces through the vertex up to
    # round-off but is kept in the integrand
    r = np.sqrt(x * x + y * y + z * z)
    gx, gy, gz = values[1:]
    nx, ny, nz = normals
    count = len(rwg)
    g2, dn, scratch = (_take(work, name, count, m) for name in ("g2", "dn", "scratch"))
    np.multiply(gx, gx, out=g2)
    g2 += np.multiply(gy, gy, out=scratch)
    g2 += np.multiply(gz, gz, out=scratch)
    np.multiply(nx, gx, out=dn)
    dn += np.multiply(ny, gy, out=scratch)
    dn += np.multiply(nz, gz, out=scratch)
    nuw = (nx * x + ny * y + nz * z) / r
    # the gradient rows are spent: the integrands take their place
    out = values[1:3]
    np.multiply(np.multiply(dn, rwg, out=scratch), 2.0 / r, out=scratch)
    np.subtract(np.multiply(nuw, g2, out=out[0]), scratch, out=out[0])
    # the estimate's 2 |du/dnu| |grad_t u|, with |grad_t u|^2 = |grad u|^2 - dn^2
    dn2 = np.multiply(dn, dn, out=dn)
    tangent = np.multiply(dn2, np.subtract(g2, dn2, out=g2), out=g2)
    np.multiply(2.0, np.sqrt(np.maximum(tangent, 0.0, out=tangent), out=tangent), out=out[1])
    return out


def _moments(stream, rows, normal_table, count):
    """The means (2, functions) of the stream's two integrands and their
    centred co-moments, the sums of ``(x - mean) (y - mean)`` over (x, x),
    (x, y) and (y, y), a (3, functions) array, taken shard by shard: each
    shard's merge into the running ones in draw order by Chan, Golub &
    LeVeque.  No lateral estimate weighs both lateral integrands, so there
    the (x, y) co-moment is left 0.  One :func:`_workspace` as wide as the
    stream's widest shard serves every shard."""
    work = _workspace(stream.tag, rows, min(stream.n, _DIRECT_CHUNK))
    pairs = ((0, 0), (0, 1), (1, 1)) if stream.tag == "link" else ((0, 0), (1, 1))
    mean, co = np.zeros((2, count)), np.zeros((3, count))
    seen = 0
    for pts, face_ids in stream:
        normals = None if face_ids is None else np.take(normal_table, face_ids, axis=1)
        x = _integrands(stream.tag, rows, pts, normals, work)
        m = x.shape[2]
        share = m / (seen + m)
        shard_mean = x.sum(axis=2) / m
        delta = shard_mean - mean
        x -= shard_mean[:, :, None]  # the integrand array is the merge's own
        weight = seen * share
        product = _take(work, "scratch", count, m)
        for i, j in pairs:
            co[i + j] += (np.multiply(x[i], x[j], out=product).sum(axis=1)
                          + delta[i] * delta[j] * weight)
        mean += delta * share
        seen += m
    return mean, co


def _weighted(weights, moments):
    """The integral ``a mean_x + b mean_y`` of weights ``(a, b)`` on a
    stream's two means, and the variance of that estimate."""
    (a, b), ((mx, my), (cxx, cxy, cyy), n) = weights, moments
    q = a * a * cxx + 2.0 * a * b * cxy + b * b * cyy
    return a * mx + b * my, np.maximum(q, 0.0) / (n - 1) / n


def _region_estimates(arch, test_functions, n, seed):
    """Per region of ``REGIONS``, the estimates and standard errors of its
    integrals, two (integrals, functions) arrays: for the volume the lhs,
    for each boundary region the identity's part then the estimate's.
    Under ``"paired"``, a (4, functions) array of the standard errors of
    sums whose parts share the link's directions: the identity's rhs and
    residual, then the estimate's rhs and slack.  The points are those of
    ``_streams(arch, n, seed)``, taken shard by shard."""
    link, lateral = streams = _streams(arch, n, seed)
    normal_table = np.ascontiguousarray(arch.surface.face_normals.T)
    count = len(test_functions)
    # every integrand of a degree-0 function is 0: only the others enter the
    # kernel, and with none left neither stream is walked
    live = [f for f, u in enumerate(test_functions) if u.degree]
    link_moments, lateral_moments = stats = [
        (np.zeros((2, count)), np.zeros((3, count)), s.n) for s in streams]
    if live:
        for s, (mean, co, _) in zip(streams, stats):
            rows = _stream_rows(s.tag, [test_functions[f] for f in live])
            mean[:, live], co[:, live] = _moments(s, rows, normal_table, len(live))
    shell, r2p, R2p, side = np.array([_radial_factors(arch, u.degree)
                                      for u in test_functions]).T
    zero = np.zeros(count)
    # weights on the link's means of (U, G), then on the lateral's of its
    # (identity, estimate) integrands
    volume = np.array([shell * link.measure, zero])
    inner = np.array([2.0 * r2p * link.measure, -r2p * link.measure])
    inner_estimate = np.array([2.0 * r2p * link.measure, zero])
    outer = np.array([-2.0 * R2p * link.measure, R2p * link.measure])
    outer_estimate = np.array([zero, R2p * link.measure])
    lat = np.array([side * lateral.measure, zero])
    lat_estimate = np.array([zero, side * lateral.measure])
    out = {}
    for region, integrals, moments in (("volume", [volume], link_moments),
                                       ("inner", [inner, inner_estimate], link_moments),
                                       ("outer", [outer, outer_estimate], link_moments),
                                       ("lateral", [lat, lat_estimate], lateral_moments)):
        values, variances = zip(*(_weighted(w, moments) for w in integrals))
        out[region] = np.array(values), np.sqrt(variances)

    def paired(link_weights, lateral_weights):
        return np.sqrt(_weighted(link_weights, link_moments)[1]
                       + _weighted(lateral_weights, lateral_moments)[1])

    base, base_estimate = inner + outer, inner_estimate + outer_estimate
    out["paired"] = np.array([paired(base, lat), paired(volume - base, lat),
                              paired(base_estimate, lat_estimate),
                              paired(base_estimate - volume, lat_estimate)])
    return out


def rellich_suite(arch, test_functions, n, seed):
    """Identity and estimate reports for many u on shared samples.

    Points are drawn relative to the arch vertex, which makes results
    invariant under rigid translation of the fixture.  The suite walks the
    points of ``_streams(arch, n, seed)`` shard by shard and never holds a
    whole batch: each stream keeps only its running means and centred
    co-moments per test function, merged shard by shard in draw order.  A
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
    (lhs, lhs_se), (inner, _), (outer, _), (lat, _) = (
        (est.tolist(), se.tolist()) for est, se in (acc[region] for region in REGIONS))
    rhs_se, residual_se, estimate_se, slack_se = acc["paired"].tolist()
    identities, estimates = [], []
    for f, u in enumerate(test_functions):
        common = dict(vertex=arch.vertex, r_inner=arch.r_inner, r_outer=arch.r_outer,
                      u_name=u.name, lhs=lhs[0][f], lhs_stderr=lhs_se[0][f])
        identities.append(RellichResult(
            **common,
            rhs=inner[0][f] + outer[0][f] + lat[0][f], rhs_stderr=rhs_se[f],
            rhs_inner=inner[0][f], rhs_outer=outer[0][f], rhs_lateral=lat[0][f],
            combined_stderr=residual_se[f],
        ))
        # the 2x factors already sit inside the inner and lateral estimates
        estimates.append(EstimateResult(
            **common,
            rhs=outer[1][f] + inner[1][f] + lat[1][f], rhs_stderr=estimate_se[f],
            combined_stderr=slack_se[f],
        ))
    return identities, estimates


def identity_csv_rows(fixture_name, results):
    """Rows (fixture, vertex, r, R, u_name, lhs, lhs_stderr, rhs, rhs_stderr, residual)."""
    return [
        (
            fixture_name, res.vertex, res.r_inner, res.r_outer, res.u_name,
            res.lhs, res.lhs_stderr, res.rhs, res.rhs_stderr, res.residual,
        )
        for res in results
    ]
