"""A deterministic quadrature oracle for the vertex-arch Rellich suite.

Every catalog function u is a homogeneous harmonic polynomial of degree
p, so by Euler's identity each volume and base integrand is a power of
|X| times a function of the direction alone, and each lateral integrand a
power of the distance to the vertex times a function of the polar angle.
With ``IU = int_link (p u)^2 dw`` and ``IG = int_link |grad u|^2 dw`` over
the vertex link, and ``LI``, ``LE`` the lateral integrands' integrals over
the polar angles of the face wedges at unit radius:

    lhs   = (R^2p - r^2p) / p IU
    inner = r^2p (2 IU - IG)        inner estimate r^2p 2 IU
    outer = R^2p (IG - 2 IU)        outer estimate R^2p IG
    lateral = (R^2p - r^2p) / 2p LI   lateral estimate (R^2p - r^2p) / 2p LE

The link integrals are sums over the spherical triangles of
``geometry._link_triangles``.  Each maps to the flat triangle with the
same corners: with ``h`` the distance from the origin to its plane,
``int f(w) dw = h int_T f(y / |y|) |y|^-3 dA``, a smooth integrand, taken
by a collapsed (Duffy) Gauss rule (Duffy, "Quadrature over a pyramid or
cube of integrands with a singularity at a vertex", SIAM J. Numer. Anal.
19, 1982).  Wide triangles are split at their normalized edge midpoints
first, because ``|y|`` varies too much over them for a fixed rule.  The
lateral integrals are composite Gauss in the polar angle.  The function
values come from the hand-written lambdas of ``rellich_reference``, not
from the library's coefficient tables.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from polymix import fixtures
from polymix.geometry import ArchRegion, _link_arcs, _link_triangles, separation_radius
from polymix.rellich import _region_estimates, catalog, rellich_suite

from conftest import dented_box, u_pyramid
from rellich_reference import REFERENCE_CATALOG

GAUSS_ORDER = 12  # points per direction of the collapsed rule
MAX_SIDE = 0.25  # longest side, in radians, of a link triangle before the rule
LATERAL_PANELS = 64  # composite Gauss panels per face wedge, of GAUSS_ORDER points
N_SUITE = 100_000
SIGMAS = 5.0

ORACLE_ARCHES = [
    pytest.param(fixtures.cube(), 0, id="cube-v0"),
    pytest.param(fixtures.square_pyramid(), 0, id="pyramid-apex"),
    pytest.param(fixtures.l_prism(), 3, id="l-prism-notch"),
    pytest.param(fixtures.notched_box(1), 5, id="notched-box-1-v5"),
    pytest.param(u_pyramid(), 8, id="u-pyramid-apex"),
    pytest.param(dented_box(), 12, id="dented-box-apex"),
]


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _side(x, y):
    return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))


def narrow_triangles(a, b, c):
    """The spherical triangles ``(a, b, c)`` split at their normalized edge
    midpoints, four at a time, until no side exceeds ``MAX_SIDE``.  The
    pieces tile each triangle exactly and keep its orientation."""
    done = []
    while len(a):
        wide = np.maximum(np.maximum(_side(a, b), _side(b, c)), _side(c, a)) > MAX_SIDE
        done.append((a[~wide], b[~wide], c[~wide]))
        a, b, c = a[wide], b[wide], c[wide]
        ab, bc, ca = _unit(a + b), _unit(b + c), _unit(c + a)
        a, b, c = (np.concatenate(x) for x in ((a, ab, ca, ab), (ab, b, bc, bc), (ca, bc, c, ca)))
    return tuple(np.concatenate(x) for x in zip(*done))


def link_nodes(surface, vertex):
    """Unit directions and weights of the collapsed Gauss rule over the cone
    at ``vertex``: ``sum weights * f(directions)`` integrates ``f`` over the
    link."""
    a, b, c = narrow_triangles(*_link_triangles(*_link_arcs(surface, vertex)))
    x, w = leggauss(GAUSS_ORDER)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    s, t = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    ws = np.outer(w, w).ravel() * s
    # y = a + s (b - a) + s t (c - b), dA = |(b - a) x (c - a)| s ds dt, and
    # h |(b - a) x (c - a)| = a . (b x c)
    y = (a[:, None] + s[:, None] * (b - a)[:, None]
         + (s * t)[:, None] * (c - b)[:, None])
    det = np.sum(a * np.cross(b, c), axis=1)
    size = np.linalg.norm(y, axis=2)
    weights = det[:, None] * ws / size ** 3
    return (y / size[..., None]).reshape(-1, 3), weights.ravel()


def lateral_nodes(surface, vertex):
    """Per face at ``vertex``, unit directions in the face's corner wedge,
    their polar-angle weights and the face's outward normal, from the faces
    themselves: the wedge turns counterclockwise about the normal from the
    face's next vertex to its previous one."""
    v = surface.vertices[vertex]
    x, w = leggauss(GAUSS_ORDER)
    nodes = []
    for f in surface.vertex_faces[vertex]:
        face = surface.faces[f]
        i = face.index(vertex)
        succ = _unit(surface.vertices[face[(i + 1) % len(face)]] - v)
        prev = _unit(surface.vertices[face[i - 1]] - v)
        normal = surface.face_normals[f]
        turned = np.cross(normal, succ)
        theta = math.atan2(float(turned @ prev), float(succ @ prev)) % (2.0 * math.pi)
        edges = np.linspace(0.0, theta, LATERAL_PANELS + 1)
        half = 0.5 * np.diff(edges)
        phi = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
        weight = (half[:, None] * w).ravel()
        e = np.cos(phi)[:, None] * succ + np.sin(phi)[:, None] * turned
        nodes.append((e, weight, normal))
    return nodes


def oracle(surface, vertex, r, R, u):
    """Every part, side and slack of the suite for ``u`` (a lambda of
    ``REFERENCE_CATALOG`` of degree p >= 1), and the link's solid angle."""
    p = u.degree
    d, wd = link_nodes(surface, vertex)
    pu, g = p * u.value(d), u.gradient(d)
    iu = math.fsum(wd * pu * pu)
    ig = math.fsum(wd * np.sum(g * g, axis=1))
    li, le = [], []
    for e, we, normal in lateral_nodes(surface, vertex):
        g = u.gradient(e)
        g2 = np.sum(g * g, axis=1)
        dn = g @ normal
        # nu . W vanishes on a face through the vertex
        li.append(math.fsum(we * (-2.0 * dn * p * u.value(e))))
        le.append(math.fsum(we * 2.0 * np.abs(dn) * np.sqrt(np.maximum(g2 - dn * dn, 0.0))))
    li, le = math.fsum(li), math.fsum(le)
    r2p, R2p = r ** (2 * p), R ** (2 * p)
    lateral_factor = (R2p - r2p) / (2 * p)
    parts = {
        "lhs": (R2p - r2p) / p * iu,
        "inner": r2p * (2.0 * iu - ig),
        "outer": R2p * (ig - 2.0 * iu),
        "lateral": lateral_factor * li,
        "inner_estimate": r2p * 2.0 * iu,
        "outer_estimate": R2p * ig,
        "lateral_estimate": lateral_factor * le,
    }
    parts["rhs"] = parts["inner"] + parts["outer"] + parts["lateral"]
    parts["rhs_estimate"] = (parts["inner_estimate"] + parts["outer_estimate"]
                             + parts["lateral_estimate"])
    parts["slack"] = parts["rhs_estimate"] - parts["lhs"]
    return parts, math.fsum(wd)


def _arch(surface, vertex):
    rho = separation_radius(surface, vertex)
    return ArchRegion(surface, vertex, 0.3 * rho, 0.6 * rho)


@pytest.mark.parametrize("surface,vertex", ORACLE_ARCHES)
def test_oracle_satisfies_the_identity(surface, vertex):
    # the quadrature integrates 1 to the cone's exact solid angle, and the
    # identity holds between its parts to 1e-10 relative for every function
    arch = _arch(surface, vertex)
    a, b, c = _link_triangles(*_link_arcs(surface, vertex))
    det = np.sum(a * np.cross(b, c), axis=1)
    omega = math.fsum(2.0 * np.arctan2(det, 1.0 + np.sum(a * b, axis=1) + np.sum(b * c, axis=1)
                                       + np.sum(c * a, axis=1)))
    for u in REFERENCE_CATALOG[1:]:
        parts, measure = oracle(surface, vertex, arch.r_inner, arch.r_outer, u)
        assert measure == pytest.approx(omega, rel=1e-13, abs=0.0)
        size = max(abs(parts[k]) for k in ("lhs", "inner", "outer", "lateral"))
        assert abs(parts["lhs"] - parts["rhs"]) <= 1e-10 * size, (u.name, parts)


@pytest.mark.parametrize("surface,vertex", ORACLE_ARCHES)
def test_suite_within_five_stderrs_of_the_oracle(surface, vertex):
    # every part, both sides and the slack against the oracle, each within
    # five of its own reported standard errors
    arch = _arch(surface, vertex)
    funcs = catalog(3)
    ids, ests = rellich_suite(arch, funcs, N_SUITE, seed=31)
    regions = _region_estimates(arch, funcs, N_SUITE, seed=31)
    for f, (u, ref, res, est) in enumerate(zip(funcs, REFERENCE_CATALOG, ids, ests)):
        assert u.name == ref.name == res.u_name == est.u_name
        got = {
            "lhs": (res.lhs, res.lhs_stderr),
            "rhs": (res.rhs, res.rhs_stderr),
            "rhs_estimate": (est.rhs, est.rhs_stderr),
            "slack": (est.slack, est.combined_stderr),
        }
        for region in ("inner", "outer", "lateral"):
            value, stderr = regions[region]
            got[region] = (value[0, f], stderr[0, f])
            got[region + "_estimate"] = (value[1, f], stderr[1, f])
        assert got["inner"][0] == res.rhs_inner and got["outer"][0] == res.rhs_outer
        assert got["lateral"][0] == res.rhs_lateral
        if u.degree == 0:
            assert all(x == 0.0 for pair in got.values() for x in pair), u.name
            assert res.residual == 0.0 and res.combined_stderr == 0.0
            continue
        want, _ = oracle(surface, vertex, arch.r_inner, arch.r_outer, ref)
        assert abs(res.residual) <= SIGMAS * res.combined_stderr, u.name
        # a constant integrand (the lateral estimate's for u = x at the
        # pyramid apex) has a stderr at rounding size, below the oracle's own
        # 1e-10 relative accuracy
        floor = 1e-10 * max(abs(x) for x in want.values())
        for key, (value, stderr) in got.items():
            assert abs(value - want[key]) <= SIGMAS * stderr + floor, (
                u.name, key, value, want[key], stderr)
