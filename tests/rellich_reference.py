"""Reference implementations for the Rellich tests.

The catalog with hand-written value and gradient lambdas, the whole-array
suite that integrates each region's full batch at once, and the shard
kernel's integrands point by point in plain Python floats.  The library
evaluates the catalog from exact coefficient tables and streams the suite
shard by shard; these give the tests something independent to agree with.
"""

import math

import numpy as np

from polymix.geometry import ArchRegion, mc_estimate
from polymix.rellich import _MONOMIALS, EstimateResult, RellichResult, arch_streams


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



def reference_rellich_suite(arch, test_functions, n, seed):
    """Whole-array reference: every region's whole batch at once, gathered
    from ``arch_streams(arch, n, seed)``, with W . grad u as a row-wise dot
    product and one ``mc_estimate`` per integrand, from the whole batch's
    mean and centred sum of squares.

    Coordinates are translated so the arch vertex sits at the origin
    before evaluating u, which makes results invariant under rigid
    translation of the fixture.
    """
    if not isinstance(arch, ArchRegion):
        raise TypeError("arch must be an ArchRegion")
    n = int(n)
    v = arch.surface.vertices[arch.vertex]
    identities = {}
    estimates = {}
    acc = {
        u.name: {"vertex": arch.vertex, "r_inner": arch.r_inner, "r_outer": arch.r_outer}
        for u in test_functions
    }

    volume, inner, outer, lateral = [s.collect() for s in arch_streams(arch, n, seed)]
    # per batch: (key, integrand) pairs; the integrands take the per-point
    # |X|, W . grad u, |grad u|^2 and, on the lateral faces, nu . grad u and
    # nu . W
    regions = (
        # volume side: 2 (W . grad u)^2 / |X|
        (volume, (("lhs", lambda r, wg, **_: 2.0 * wg * wg / r),)),
        # inner base, outward normal -W
        (inner, (("inner_id", lambda wg, g2, **_: -g2 + 2.0 * wg * wg),
                 ("inner_est", lambda wg, **_: 2.0 * wg * wg))),
        # outer base, outward normal +W
        (outer, (("outer_id", lambda wg, g2, **_: g2 - 2.0 * wg * wg),
                 ("outer_est", lambda g2, **_: g2))),
        # lateral faces: nu from face geometry; nu . W vanishes on faces
        # through the vertex up to round-off but is kept in the integrand
        (lateral, (("lat_id", lambda wg, g2, dn, nuw, **_: nuw * g2 - 2.0 * dn * wg),
                   ("lat_est", lambda g2, dn, **_:
                       2.0 * np.abs(dn) * np.sqrt(np.maximum(g2 - dn * dn, 0.0))))),
    )
    for batch, integrands in regions:
        pts = batch.points - v
        r = np.linalg.norm(pts, axis=1)
        w = pts / r[:, None]
        nu = None if batch.face_ids is None else arch.surface.face_normals[batch.face_ids]
        nuw = None if nu is None else np.einsum("ij,ij->i", nu, w)
        for u in test_functions:
            g = u.gradient(pts)
            wg = np.einsum("ij,ij->i", w, g)
            g2 = np.einsum("ij,ij->i", g, g)
            dn = None if nu is None else np.einsum("ij,ij->i", nu, g)
            for key, integrand in integrands:
                x = integrand(r=r, wg=wg, g2=g2, dn=dn, nuw=nuw)
                mean = x.mean()
                acc[u.name][key] = mc_estimate(mean, ((x - mean) ** 2).sum(), len(x),
                                               batch.measure)

    for u in test_functions:
        a = acc[u.name]
        rhs = a["inner_id"][0] + a["outer_id"][0] + a["lat_id"][0]
        rhs_se = math.sqrt(a["inner_id"][1] ** 2 + a["outer_id"][1] ** 2 + a["lat_id"][1] ** 2)
        identities[u.name] = RellichResult(
            vertex=a["vertex"], r_inner=a["r_inner"], r_outer=a["r_outer"],
            u_name=u.name,
            lhs=a["lhs"][0], lhs_stderr=a["lhs"][1],
            rhs=rhs, rhs_stderr=rhs_se,
            rhs_inner=a["inner_id"][0], rhs_outer=a["outer_id"][0],
            rhs_lateral=a["lat_id"][0],
        )
        # the 2x factors already sit inside the inner and lateral integrands
        rhs_e = a["outer_est"][0] + a["inner_est"][0] + a["lat_est"][0]
        rhs_e_se = math.sqrt(
            a["outer_est"][1] ** 2 + a["inner_est"][1] ** 2 + a["lat_est"][1] ** 2
        )
        estimates[u.name] = EstimateResult(
            vertex=a["vertex"], r_inner=a["r_inner"], r_outer=a["r_outer"],
            u_name=u.name,
            lhs=a["lhs"][0], lhs_stderr=a["lhs"][1],
            rhs=rhs_e, rhs_stderr=rhs_e_se,
        )
    ordered = [u.name for u in test_functions]
    return [identities[k] for k in ordered], [estimates[k] for k in ordered]


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


def fixed_order_integrands(region, test_functions, pts, normals=None):
    """The shard kernel's integrands for ``region``, one (functions, points)
    array each, evaluated point by point in Python floats in the fixed order
    the kernel states: terms in table order from the first term's product,
    the value row times the degree giving ``|X| W . grad u``, and each
    integrand's operations as written.  Python floats round every operation
    to double as numpy's elementwise loops do, with no BLAS and no SIMD."""
    count = 1 if region == "volume" else 2
    out = np.empty((count, len(test_functions), len(pts)))
    for j, point in enumerate(pts.tolist()):
        x, y, z = point
        r2 = x * x + y * y + z * z
        r = math.sqrt(r2)
        basis = _monomials_at(point)
        for f, u in enumerate(test_functions):
            rwg = _row_at([(k, u.degree * c) for k, c in u.rows[0] if u.degree], basis)
            if region == "volume":
                values = (rwg * rwg * (2.0 / (r2 * r)),)
            elif region in ("inner", "outer"):
                g2 = _row_at(u.rows[4], basis)
                twice_wg2 = rwg * rwg * (2.0 / r2)
                values = ((twice_wg2 - g2, twice_wg2) if region == "inner"
                          else (g2 - twice_wg2, g2))
            else:
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
