"""Reference implementations for the Rellich tests.

The catalog with hand-written value and gradient lambdas, the whole-array
suite that integrates each stream's full batch at once, and the shard
kernel's integrands point by point in plain Python floats.  The library
evaluates the catalog from exact coefficient tables and streams the suite
shard by shard, with standard errors from merged co-moments; these give
the tests something independent to agree with.
"""

import math

import numpy as np

from polymix.geometry import ArchRegion
from polymix.rellich import _MONOMIALS, EstimateResult, RellichResult, _streams

from sampling_reference import collect


class LambdaTestFunction:
    """Named harmonic polynomial with a hand-coded value and gradient."""

    def __init__(self, name, degree, value_fn, grad_fn):
        self.name = name
        self.degree = degree
        self._value = value_fn
        self._grad = grad_fn

    def __repr__(self):
        return "LambdaTestFunction(%r)" % self.name

    def value(self, pts):
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        return self._value(x, y, z) + np.zeros(np.shape(x))

    def gradient(self, pts):
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        gx, gy, gz = self._grad(x, y, z)
        out = np.zeros(np.shape(x) + (3,))
        out[..., 0] = gx
        out[..., 1] = gy
        out[..., 2] = gz
        return out


REFERENCE_CATALOG = (
    LambdaTestFunction("1", 0, lambda x, y, z: 1.0, lambda x, y, z: (0.0, 0.0, 0.0)),
    LambdaTestFunction("x", 1, lambda x, y, z: x, lambda x, y, z: (1.0, 0.0, 0.0)),
    LambdaTestFunction("y", 1, lambda x, y, z: y, lambda x, y, z: (0.0, 1.0, 0.0)),
    LambdaTestFunction("z", 1, lambda x, y, z: z, lambda x, y, z: (0.0, 0.0, 1.0)),
    LambdaTestFunction("xy", 2, lambda x, y, z: x * y, lambda x, y, z: (y, x, 0.0)),
    LambdaTestFunction("yz", 2, lambda x, y, z: y * z, lambda x, y, z: (0.0, z, y)),
    LambdaTestFunction("zx", 2, lambda x, y, z: z * x, lambda x, y, z: (z, 0.0, x)),
    LambdaTestFunction(
        "x^2-y^2", 2,
        lambda x, y, z: x * x - y * y,
        lambda x, y, z: (2 * x, -2 * y, 0.0),
    ),
    LambdaTestFunction(
        "2z^2-x^2-y^2", 2,
        lambda x, y, z: 2 * z * z - x * x - y * y,
        lambda x, y, z: (-2 * x, -2 * y, 4 * z),
    ),
    LambdaTestFunction(
        "x^3-3xy^2", 3,
        lambda x, y, z: x ** 3 - 3 * x * y * y,
        lambda x, y, z: (3 * x * x - 3 * y * y, -6 * x * y, 0.0),
    ),
    LambdaTestFunction(
        "3x^2y-y^3", 3,
        lambda x, y, z: 3 * x * x * y - y ** 3,
        lambda x, y, z: (6 * x * y, 3 * x * x - 3 * y * y, 0.0),
    ),
    LambdaTestFunction(
        "xyz", 3,
        lambda x, y, z: x * y * z,
        lambda x, y, z: (y * z, x * z, x * y),
    ),
    LambdaTestFunction(
        "z(x^2-y^2)", 3,
        lambda x, y, z: z * (x * x - y * y),
        lambda x, y, z: (2 * x * z, -2 * y * z, x * x - y * y),
    ),
    LambdaTestFunction(
        "x(4z^2-x^2-y^2)", 3,
        lambda x, y, z: x * (4 * z * z - x * x - y * y),
        lambda x, y, z: (4 * z * z - 3 * x * x - y * y, -2 * x * y, 8 * x * z),
    ),
    LambdaTestFunction(
        "y(4z^2-x^2-y^2)", 3,
        lambda x, y, z: y * (4 * z * z - x * x - y * y),
        lambda x, y, z: (-2 * x * y, 4 * z * z - x * x - 3 * y * y, 8 * y * z),
    ),
    LambdaTestFunction(
        "z(2z^2-3x^2-3y^2)", 3,
        lambda x, y, z: z * (2 * z * z - 3 * x * x - 3 * y * y),
        lambda x, y, z: (-6 * x * z, -6 * y * z, 6 * z * z - 3 * x * x - 3 * y * y),
    ),
)



def _mean_and_variance(x):
    """The mean of the per-point values ``x`` and the variance of that
    mean, from the whole array's centred sum of squares."""
    mean = x.mean()
    return mean, ((x - mean) ** 2).sum() / (len(x) - 1) / len(x)


def reference_rellich_suite(arch, test_functions, n, seed):
    """Whole-array reference: each of the two streams of
    ``_streams(arch, n, seed)`` gathered whole, W . grad u as a row-wise
    dot product, radial factors as powers, and every integral the mean of
    its own per-point values over the whole batch.  A standard error comes
    from the centred sum of squares of the per-point values of exactly the
    sum it belongs to: the identity's rhs and residual and the estimate's
    rhs and slack add their link parts point by point, with no co-moments,
    and add the lateral's variance.
    """
    if not isinstance(arch, ArchRegion):
        raise TypeError("arch must be an ArchRegion")
    link, lateral = (collect(s) for s in _streams(arch, int(n), seed))
    d = link.points
    w = d / np.linalg.norm(d, axis=1)[:, None]
    pts = lateral.points
    r = np.linalg.norm(pts, axis=1)
    nu = arch.surface.face_normals[lateral.face_ids]
    # nu . W vanishes on faces through the vertex up to round-off but is
    # kept in the integrand
    nuw = np.einsum("ij,ij->i", nu, pts / r[:, None])
    identities, estimates = [], []
    for u in test_functions:
        p = u.degree
        r2p, R2p = arch.r_inner ** (2 * p), arch.r_outer ** (2 * p)
        shell = (R2p - r2p) / p if p else 0.0
        # the link at unit directions: U = (W . grad u)^2, G = |grad u|^2
        g = u.gradient(d)
        wg = np.einsum("ij,ij->i", w, g)
        big_u, big_g = wg * wg, np.einsum("ij,ij->i", g, g)
        volume = shell * link.measure * big_u
        inner = r2p * link.measure * (2.0 * big_u - big_g)  # outward normal -W
        outer = R2p * link.measure * (big_g - 2.0 * big_u)  # outward normal +W
        inner_est, outer_est = r2p * link.measure * 2.0 * big_u, R2p * link.measure * big_g
        # the lateral faces at unit radius
        g = u.gradient(pts)
        g2 = np.einsum("ij,ij->i", g, g)
        dn = np.einsum("ij,ij->i", nu, g)
        wg = np.einsum("ij,ij->i", pts, g) / r
        side = 0.5 * shell * lateral.measure
        lat = side * (nuw * g2 - 2.0 * dn * wg)
        lat_est = side * 2.0 * np.abs(dn) * np.sqrt(np.maximum(g2 - dn * dn, 0.0))

        lhs, lhs_var = _mean_and_variance(volume)
        (rhs_inner, _), (rhs_outer, _), (rhs_lat, lat_var) = map(_mean_and_variance,
                                                                (inner, outer, lat))
        (est_inner, _), (est_outer, _), (est_lat, lat_est_var) = map(
            _mean_and_variance, (inner_est, outer_est, lat_est))
        paired = lambda x, lateral_var: math.sqrt(_mean_and_variance(x)[1] + lateral_var)
        common = dict(vertex=arch.vertex, r_inner=arch.r_inner, r_outer=arch.r_outer,
                      u_name=u.name, lhs=lhs, lhs_stderr=math.sqrt(lhs_var))
        identities.append(RellichResult(
            **common, rhs=rhs_inner + rhs_outer + rhs_lat,
            rhs_stderr=paired(inner + outer, lat_var),
            rhs_inner=rhs_inner, rhs_outer=rhs_outer, rhs_lateral=rhs_lat,
            combined_stderr=paired(volume - inner - outer, lat_var)))
        # the 2x factors already sit inside the inner and lateral integrands
        estimates.append(EstimateResult(
            **common, rhs=est_outer + est_inner + est_lat,
            rhs_stderr=paired(inner_est + outer_est, lat_est_var),
            combined_stderr=paired(inner_est + outer_est - volume, lat_est_var)))
    return identities, estimates


def _monomials_at(point):
    """Every monomial of ``_MONOMIALS`` at one point, each the product of a
    lower monomial (its first nonzero exponent lowered by one) and that
    coordinate, the chain the library's basis follows."""
    values = {(0, 0, 0): 1.0}
    for e in _MONOMIALS[1:]:
        axis = next(i for i in range(3) if e[i])
        values[e] = values[tuple(x - (i == axis) for i, x in enumerate(e))] * point[axis]
    return [values[e] for e in _MONOMIALS]


def _row_at(terms, basis):
    """One polynomial at one point: its first term, plus each further term
    in order; 0.0 for no terms."""
    if not terms:
        return 0.0
    (k, c), *rest = terms
    acc = c * basis[k]
    for k, c in rest:
        acc += c * basis[k]
    return acc


def fixed_order_integrands(stream, test_functions, pts, normals=None):
    """The shard kernel's integrands for ``stream``, a (2, functions,
    points) array, evaluated point by point in Python floats in the fixed
    order the kernel states: terms in table order from the first term's
    product, the value row times the degree giving ``|X| W . grad u``, and
    each integrand's operations as written.  Python floats round every
    operation to double as numpy's elementwise loops do, with no BLAS and no
    SIMD."""
    out = np.empty((2, len(test_functions), len(pts)))
    for j, point in enumerate(pts.tolist()):
        x, y, z = point
        basis = _monomials_at(point)
        for f, u in enumerate(test_functions):
            rwg = _row_at([(k, u.degree * c) for k, c in u.rows[0] if u.degree], basis)
            if stream == "link":
                values = (rwg * rwg, _row_at(u.rows[4], basis))
            else:
                r = math.sqrt(x * x + y * y + z * z)
                gx, gy, gz = (_row_at(u.rows[i], basis) for i in (1, 2, 3))
                nx, ny, nz = normals[:, j].tolist()
                g2 = gx * gx + gy * gy + gz * gz
                dn = nx * gx + ny * gy + nz * gz
                nuw = (nx * x + ny * y + nz * z) / r
                dn2 = dn * dn
                t = dn2 * (g2 - dn2)
                values = (nuw * g2 - dn * rwg * (2.0 / r),
                          2.0 * math.sqrt(t if t >= 0.0 else 0.0))
            out[:, f, j] = values
    return out
