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

Both sides are integrated by Monte Carlo on shared sample batches, drawn
directly with exact region measures where the geometry module can (see
its docstring) and by rejection elsewhere; harmonic polynomials up to
degree 3 supply the test functions.
The 1/|X| volume weight is bounded on the arch (|X| >= r), so plain
sampling needs no singularity handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArchRegion, sample_arch, sample_base, sample_lateral


class HarmonicTestFunction:
    """Named harmonic polynomial with a hand-coded gradient."""

    def __init__(self, name, degree, value_fn, grad_fn):
        self.name = name
        self.degree = degree
        self._value = value_fn
        self._grad = grad_fn

    def __repr__(self):
        return "HarmonicTestFunction(%r)" % self.name

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


CATALOG = (
    HarmonicTestFunction("1", 0, lambda x, y, z: 1.0, lambda x, y, z: (0.0, 0.0, 0.0)),
    HarmonicTestFunction("x", 1, lambda x, y, z: x, lambda x, y, z: (1.0, 0.0, 0.0)),
    HarmonicTestFunction("y", 1, lambda x, y, z: y, lambda x, y, z: (0.0, 1.0, 0.0)),
    HarmonicTestFunction("z", 1, lambda x, y, z: z, lambda x, y, z: (0.0, 0.0, 1.0)),
    HarmonicTestFunction("xy", 2, lambda x, y, z: x * y, lambda x, y, z: (y, x, 0.0)),
    HarmonicTestFunction("yz", 2, lambda x, y, z: y * z, lambda x, y, z: (0.0, z, y)),
    HarmonicTestFunction("zx", 2, lambda x, y, z: z * x, lambda x, y, z: (z, 0.0, x)),
    HarmonicTestFunction(
        "x^2-y^2", 2,
        lambda x, y, z: x * x - y * y,
        lambda x, y, z: (2 * x, -2 * y, 0.0),
    ),
    HarmonicTestFunction(
        "2z^2-x^2-y^2", 2,
        lambda x, y, z: 2 * z * z - x * x - y * y,
        lambda x, y, z: (-2 * x, -2 * y, 4 * z),
    ),
    HarmonicTestFunction(
        "x^3-3xy^2", 3,
        lambda x, y, z: x ** 3 - 3 * x * y * y,
        lambda x, y, z: (3 * x * x - 3 * y * y, -6 * x * y, 0.0),
    ),
    HarmonicTestFunction(
        "3x^2y-y^3", 3,
        lambda x, y, z: 3 * x * x * y - y ** 3,
        lambda x, y, z: (6 * x * y, 3 * x * x - 3 * y * y, 0.0),
    ),
    HarmonicTestFunction(
        "xyz", 3,
        lambda x, y, z: x * y * z,
        lambda x, y, z: (y * z, x * z, x * y),
    ),
    HarmonicTestFunction(
        "z(x^2-y^2)", 3,
        lambda x, y, z: z * (x * x - y * y),
        lambda x, y, z: (2 * x * z, -2 * y * z, x * x - y * y),
    ),
    HarmonicTestFunction(
        "x(4z^2-x^2-y^2)", 3,
        lambda x, y, z: x * (4 * z * z - x * x - y * y),
        lambda x, y, z: (4 * z * z - 3 * x * x - y * y, -2 * x * y, 8 * x * z),
    ),
    HarmonicTestFunction(
        "y(4z^2-x^2-y^2)", 3,
        lambda x, y, z: y * (4 * z * z - x * x - y * y),
        lambda x, y, z: (-2 * x * y, 4 * z * z - x * x - 3 * y * y, 8 * y * z),
    ),
    HarmonicTestFunction(
        "z(2z^2-3x^2-3y^2)", 3,
        lambda x, y, z: z * (2 * z * z - 3 * x * x - 3 * y * y),
        lambda x, y, z: (-6 * x * z, -6 * y * z, 6 * z * z - 3 * x * x - 3 * y * y),
    ),
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


def _arch_batches(arch, n, seed):
    """The four shared batches; seeds derive from (seed, region index)."""
    volume = sample_arch(arch, n, seed)
    inner = sample_base(arch.inner_base, n, (int(seed) << 2) + 1)
    outer = sample_base(arch.outer_base, n, (int(seed) << 2) + 2)
    lateral = sample_lateral(arch, n, (int(seed) << 2) + 3)
    return volume, inner, outer, lateral


def rellich_suite(arch, test_functions, n, seed):
    """Identity and estimate reports for many u on shared sample batches.

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

    volume, inner, outer, lateral = _arch_batches(arch, n, seed)
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
        nu = batch.normals
        nuw = None if nu is None else np.einsum("ij,ij->i", nu, w)
        for u in test_functions:
            g = u.gradient(pts)
            wg = np.einsum("ij,ij->i", w, g)
            g2 = np.einsum("ij,ij->i", g, g)
            dn = None if nu is None else np.einsum("ij,ij->i", nu, g)
            for key, integrand in integrands:
                acc[u.name][key] = batch.integrate(
                    integrand(r=r, wg=wg, g2=g2, dn=dn, nuw=nuw))

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
