"""Dihedral angles, vertex separation radii, containment tests, and
Monte Carlo sampling of vertex cones, cone bases, and arches.

Angles are measured inside the solid: an edge of a convex solid has
interior angle < pi, a reflex (notch) edge has interior angle > pi, and
interior + exterior = 2*pi per edge.  Each angle comes from the edge's
own geometry (two face normals and the edge direction), never from a
global inside test.  Containment is a winding number, exact up to
rounding and free of ray directions: the generalized winding number over
all triangles for :func:`contains_points`, and inside a vertex's
separation ball a sum over that vertex's link only.  Sampling is seeded
and deterministic.  Lateral faces are sampled directly everywhere, and
arches and cone bases directly at convex vertices: every draw is kept and
the batch carries the region's exact measure.  At a vertex with a reflex
edge arches and bases are sampled by rejection against the link winding
test, and the batch reports an unbiased measure estimate with its Monte
Carlo standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshError, PolyhedralSurface, plane_basis

# An edge whose face normals point apart with a cross-product component
# below this is a knife edge: its interior angle is 0 or 2*pi, and the
# sign of a rounding error would pick between them.
KNIFE_EDGE_SINE_TOL = 1e-12

# Boundary band for contains_point, relative to the bounding-box diagonal:
# the winding number jumps across a face, so points this close are reported
# as boundary rather than classified.
BOUNDARY_REL_TOL = 1e-12

# Cone and arch radii must stay below this fraction of the separation radius.
RADIUS_SAFETY_FACTOR = 0.9

# Rejection samplers abort below this acceptance ratio.
MIN_ACCEPTANCE = 1e-4

_CHUNK = 1 << 18  # proposals per internal shard of a rejection sampler
# points per shard of a direct sampler: its temporaries then stay in the
# processor caches, which halves the time per point against 1 << 18
_DIRECT_CHUNK = 1 << 12


class GeometryError(Exception):
    pass


class DegenerateEdgeError(GeometryError):
    """Edge whose wedge side cannot be decided numerically."""


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _dot(x, y):
    """Row-wise dot products."""
    return np.einsum("ij,ij->i", x, y)


def _unit(x):
    """Rows scaled to unit length."""
    return x / np.linalg.norm(x, axis=1)[:, None]


# ----------------------------------------------------------------------
# dihedral angles


@dataclass(frozen=True)
class DihedralAngle:
    edge: tuple
    faces: tuple
    interior_angle: float

    @property
    def exterior_angle(self):
        return 2.0 * math.pi - self.interior_angle


def dihedral_angles(surface):
    """One :class:`DihedralAngle` per edge, in ``surface.edge_list`` order.

    With ``faces = (fa, fb)``, where ``fa`` walks the edge ``a -> b``, unit
    edge direction ``t`` from ``a`` to ``b`` and outward normals ``n1``, ``n2``:
    ``interior = pi - atan2(sigma * (n1 x n2) . t, n1 . n2)``.  The sign
    ``sigma`` of the enclosed volume makes the formula hold on inward-oriented
    surfaces as well.  Knife edges (normals opposite to within
    ``KNIFE_EDGE_SINE_TOL``) and surfaces enclosing no volume raise
    :class:`DegenerateEdgeError`.  Cached per surface.
    """
    return surface.cached(_compute_dihedral_angles)


def _compute_dihedral_angles(surface):
    out = []
    for edge in surface.edge_list:
        inc = surface.edge_incidence[edge]
        if len(inc) != 2 or inc[0][1] == inc[1][1]:
            raise MeshError(
                "dihedral angles need a closed oriented surface; offending edge %r" % (edge,)
            )
        out.append(_edge_dihedral(surface, edge, inc))
    return tuple(out)


def interior_angle_table(surface):
    """Interior angles as a plain array indexed like ``surface.edge_list``."""
    return np.array([d.interior_angle for d in dihedral_angles(surface)])


def _edge_dihedral(surface, edge, inc):
    (fa, fwd_a), (fb, _) = inc
    if not fwd_a:
        fa, fb = fb, fa
    a, b = edge
    t = surface.vertices[b] - surface.vertices[a]
    t = t / np.linalg.norm(t)
    n1 = surface.face_normals[fa]
    n2 = surface.face_normals[fb]
    # signed sine of the turn from n1 to n2 about t; an inward-oriented
    # surface turns the other way
    sigma = math.copysign(1.0, surface.signed_volume)
    s = sigma * float(np.cross(n1, n2) @ t)
    c = float(n1 @ n2)
    if surface.signed_volume == 0.0 or (c < 0.0 and abs(s) < KNIFE_EDGE_SINE_TOL):
        raise DegenerateEdgeError(
            "edge %r: its faces fold onto each other or the surface encloses no volume"
            % (edge,))
    interior = math.pi - math.atan2(s, c)
    return DihedralAngle(edge=edge, faces=(fa, fb), interior_angle=interior)


# ----------------------------------------------------------------------
# separation radius and distances


def separation_radius(surface, vertex):
    """Largest radius around `vertex` free of non-incident mesh entities.

    Minimum of: distance to any other vertex, to any edge not ending at
    `vertex`, and to any face not containing `vertex`.  A face counts with
    its plane distance where the foot of the perpendicular falls inside it;
    elsewhere its nearest point lies on one of its edges, which none of
    them end at `vertex` and which the edge distances already cover.
    Cached per surface and vertex.
    """
    return surface.cached(_compute_separation_radius, int(vertex))


def _compute_separation_radius(surface, vertex):
    verts = surface.vertices
    p = verts[vertex]
    best = np.linalg.norm(np.delete(verts, vertex, axis=0) - p, axis=1).min(initial=np.inf)
    edges = np.array(surface.edge_list).reshape(-1, 2)
    a, b = np.moveaxis(verts[edges[~np.any(edges == vertex, axis=1)]], 1, 0)
    d = b - a
    denom = _dot(d, d)
    t = np.clip(np.divide(_dot(p - a, d), denom,
                          out=np.zeros_like(denom), where=denom != 0.0), 0.0, 1.0)
    best = min(best, np.linalg.norm(p - (a + t[:, None] * d), axis=1).min(initial=np.inf))
    far = np.ones(len(surface.faces), dtype=bool)
    far[list(surface.vertex_faces[vertex])] = False
    corner, following, face = surface.cached(_face_corner_table)
    normals = surface.face_normals
    h = _dot(p - verts[[f[0] for f in surface.faces]], normals)
    # winding of the face boundary about the foot of the perpendicular
    keep = far[face]
    face = face[keep]
    foot = p - h[face, None] * normals[face]
    ea, eb = verts[corner[keep]] - foot, verts[following[keep]] - foot
    turn = np.arctan2(_dot(normals[face], np.cross(ea, eb)), _dot(ea, eb))
    inside = np.abs(np.bincount(face, weights=turn, minlength=len(far))) > math.pi
    return float(min(best, np.abs(h[far & inside]).min(initial=np.inf)))


def _face_corner_table(surface):
    """Per face corner: its vertex, the face's next vertex, and the face."""
    corner = np.concatenate([np.asarray(f) for f in surface.faces])
    following = np.concatenate([np.roll(f, -1) for f in surface.faces])
    face = np.repeat(np.arange(len(surface.faces)), [len(f) for f in surface.faces])
    for arr in (corner, following, face):
        arr.flags.writeable = False
    return corner, following, face


def _point_segment_distance(p, a, b):
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


def point_face_distance(surface, p, fi):
    """Distance from a point to the closed polygonal face `fi`."""
    face = surface.faces[fi]
    n = surface.face_normals[fi]
    base = surface.vertices[face[0]]
    h = float((p - base) @ n)
    foot = p - h * n
    if _face_contains_projected(surface, fi, foot):
        return abs(h)
    k = len(face)
    return min(
        _point_segment_distance(p, surface.vertices[face[i]], surface.vertices[face[(i + 1) % k]])
        for i in range(k)
    )


def _face_contains_projected(surface, fi, q):
    # crossing-number test in the face plane
    u, w = plane_basis(surface.face_normals[fi])
    face = surface.faces[fi]
    base = surface.vertices[face[0]]
    pts = surface.vertices[list(face)] - base
    poly = np.column_stack([pts @ u, pts @ w])
    x, y = float((q - base) @ u), float((q - base) @ w)
    inside = False
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        if (y1 > y) != (y2 > y):
            xt = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xt:
                inside = not inside
    return inside


# ----------------------------------------------------------------------
# point containment


def contains_point(surface, point):
    """Classify a point as ``'inside'``, ``'outside'`` or ``'boundary'``.

    Boundary means within ``BOUNDARY_REL_TOL * bbox diagonal`` of some face;
    otherwise the winding number of :func:`contains_points` decides.
    """
    p = np.asarray(point, dtype=float)
    tol = BOUNDARY_REL_TOL * (surface.bbox_diagonal or 1.0)
    for fi in range(len(surface.faces)):
        if point_face_distance(surface, p, fi) <= tol:
            return "boundary"
    return "inside" if bool(contains_points(surface, p[None, :])[0]) else "outside"


def contains_points(surface, points):
    """Vectorized strict-inside test (boundary not detected).

    Sums the signed solid angle of every triangle seen from the point (Van
    Oosterom & Strackee): ``2 atan2(a.(b x c), |a||b||c| + (a.b)|c| +
    (b.c)|a| + (c.a)|b|)`` with ``a, b, c`` the corners relative to the
    point.  That generalized winding number is +-4*pi inside a closed surface
    of either orientation and 0 outside, so ``|sum| > 2*pi`` decides.
    """
    pts = np.asarray(points, dtype=float)
    tris, _ = surface.triangles
    total = np.zeros(len(pts))
    for corners in surface.vertices[tris]:
        a, b, c = corners[:, None, :] - pts
        la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
               + np.einsum("ij,ij->i", b, c) * la + np.einsum("ij,ij->i", c, a) * lb)
        total += 2.0 * np.arctan2(det, den)
    return np.abs(total) > 2.0 * math.pi


# ----------------------------------------------------------------------
# cones and arches


def _check_vertex_cone(surface, vertex):
    """The vertex exists and the surface is oriented outward.

    The inside tests of the samplers read the solid's side off the face
    orientation, so an inside-out surface would sample the complement.
    """
    if not 0 <= vertex < len(surface.vertices):
        raise ValueError("vertex %d out of range 0..%d" % (vertex, len(surface.vertices) - 1))
    if surface.signed_volume <= 0.0:
        raise ValueError("surface encloses signed volume %g; faces must be oriented outward"
                         % surface.signed_volume)


@dataclass(frozen=True)
class ConeRegion:
    """Solid within distance `radius` of vertex `vertex`."""

    surface: PolyhedralSurface
    vertex: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        _check_vertex_cone(self.surface, self.vertex)
        rho = separation_radius(self.surface, self.vertex)
        if self.radius > RADIUS_SAFETY_FACTOR * rho:
            raise ValueError(
                "radius %g exceeds %g * separation radius %g at vertex %d"
                % (self.radius, RADIUS_SAFETY_FACTOR, rho, self.vertex)
            )


@dataclass(frozen=True)
class ArchRegion:
    """Solid shell r_inner <= |X - v| <= r_outer around vertex `vertex`."""

    surface: PolyhedralSurface
    vertex: int
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")
        _check_vertex_cone(self.surface, self.vertex)
        rho = separation_radius(self.surface, self.vertex)
        if self.r_outer > RADIUS_SAFETY_FACTOR * rho:
            raise ValueError(
                "r_outer %g exceeds %g * separation radius %g at vertex %d"
                % (self.r_outer, RADIUS_SAFETY_FACTOR, rho, self.vertex)
            )

    @property
    def inner_base(self):
        return ConeRegion(self.surface, self.vertex, self.r_inner)

    @property
    def outer_base(self):
        return ConeRegion(self.surface, self.vertex, self.r_outer)

    @property
    def lateral_face_ids(self):
        return self.surface.vertex_faces[self.vertex]


@dataclass
class SampleBatch:
    """Accepted sample points with per-point measure weights.

    ``sum(weights)`` estimates the region's measure; ``integrate`` turns
    per-point values into an integral estimate with standard error.
    """

    tag: str
    points: np.ndarray
    weights: np.ndarray
    rng_seed: int
    n_proposals: int
    proposal_measure: float
    face_ids: np.ndarray | None = None
    normals: np.ndarray | None = field(default=None, repr=False)

    @property
    def acceptance(self):
        return len(self.points) / self.n_proposals

    @property
    def measure_estimate(self):
        return float(self.weights.sum())

    @property
    def measure_stderr(self):
        p = self.acceptance
        return self.proposal_measure * math.sqrt(p * (1.0 - p) / self.n_proposals)

    def integrate(self, values):
        """Estimate integral of a function given its values at the points.

        Treats rejected proposals as zeros of the integrand over the
        proposal region, which is exactly the rejection estimator; a direct
        batch has no rejected proposals, and this is its plain Monte Carlo
        mean times the exact measure.
        """
        values = np.asarray(values, dtype=float)
        m = self.n_proposals
        s = float(values.sum())
        s2 = float((values * values).sum())
        mean = s / m
        var = max(s2 - m * mean * mean, 0.0) / max(m - 1, 1)
        est = self.proposal_measure * mean
        stderr = self.proposal_measure * math.sqrt(var / m)
        return est, stderr


def _vertex_corners(surface, vertex):
    """The faces at `vertex` and, per face, the unit directions from the
    vertex to the face's previous and next vertex."""
    v = surface.vertices[vertex]
    fids = np.array(surface.vertex_faces[vertex], dtype=np.int64)
    ends = [(face[face.index(vertex) - 1], face[(face.index(vertex) + 1) % len(face)])
            for face in (surface.faces[f] for f in fids)]
    prev, succ = (_unit(surface.vertices[list(ids)] - v) for ids in zip(*ends))
    return fids, [p for p, _ in ends], prev, succ


def is_convex_vertex(surface, vertex):
    """True when every edge at `vertex` has interior angle below pi.

    Inside the separation ball the solid is then the convex cone cut out by
    the half-spaces of the faces at the vertex.
    """
    angles = dihedral_angles(surface)
    # every edge at the vertex precedes it in exactly one face
    _, prev_ids, _, _ = _vertex_corners(surface, vertex)
    return all(angles[surface.edge_index[tuple(sorted((vertex, prev)))]].interior_angle < math.pi
               for prev in prev_ids)


def _link_arcs(surface, vertex):
    """The vertex link as minor arcs a -> b of unit directions from the vertex.

    Each face corner, from the face's next vertex round to its previous one
    (counterclockwise about the outward normal), splits at its in-plane
    bisector ``n x (succ - prev)`` into two arcs, so straight and reflex
    corners need no special case.
    """
    fids, _, prev, succ = _vertex_corners(surface, vertex)
    mid = _unit(np.cross(surface.face_normals[fids], succ - prev))
    return np.vstack([succ, mid]), np.vstack([mid, prev])


def _inside_tester(surface, vertex):
    """Inside test for points in the separation ball of `vertex`.

    There the solid is the cone over the vertex link.  At a convex vertex
    the cone is the intersection of the incident faces' half-spaces.
    Otherwise, for a point in direction w, the signed solid angles (Van
    Oosterom & Strackee) of the spherical triangles (-w, a, b) over the link
    arcs a -> b sum to 4*pi - Omega when the point is inside and to -Omega
    when it is outside, where Omega in (0, 4*pi) is the cone's solid angle;
    the sign of the sum decides.  Needs an outward-oriented surface.
    """
    v = surface.vertices[vertex]
    if is_convex_vertex(surface, vertex):
        normals = surface.face_normals[list(surface.vertex_faces[vertex])]
        return lambda pts: np.all((pts - v) @ normals.T <= 0.0, axis=1)
    a, b = _link_arcs(surface, vertex)
    # half solid angle of (-w, a, b): atan2(-w.(a x b), |w| (1 + a.b) - w.(a + b))
    normal = np.cross(a, b).T
    ends = (a + b).T
    one_plus_cos = 1.0 + np.sum(a * b, axis=1)

    def tester(pts):
        w = pts - v
        r = np.linalg.norm(w, axis=1)[:, None]
        return np.arctan2(-(w @ normal), r * one_plus_cos - w @ ends).sum(axis=1) > 0.0

    return tester


class _ConvexLink:
    """Uniform directions in the cone of a convex vertex, drawn directly.

    The link is fanned from ``a``, the normalized sum of its arcs' starts,
    which lies inside the cone, into the spherical triangles ``(a, b, c)``
    over its arcs ``c -> b``, all positively oriented.  Each
    triangle's solid angle comes from Van Oosterom & Strackee; a draw picks
    a triangle with probability proportional to it and samples the
    triangle by Arvo's area-preserving map ("Stratified sampling of
    spherical triangles", SIGGRAPH 1995).  ``solid_angle`` is exact up to
    rounding.
    """

    def __init__(self, surface, vertex):
        c, b = _link_arcs(surface, vertex)
        a = c.sum(axis=0)
        a = np.broadcast_to(a / np.linalg.norm(a), b.shape)
        det = _dot(a, np.cross(b, c))
        self.omega = 2.0 * np.arctan2(det, 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a))
        self.solid_angle = float(self.omega.sum())
        # Arvo's inputs per triangle: the angle alpha at a, cos of the arc a-b
        # and the unit tangent at a towards c; vectors are stored as columns
        cos_ab = _dot(a, b)
        alpha = np.arctan2(det, _dot(b, c) - cos_ab * _dot(a, c))
        self.cos_alpha, self.sin_alpha = np.cos(alpha), np.sin(alpha)
        self.alpha, self.sin_alpha_cos_ab = alpha, np.sin(alpha) * cos_ab
        self.towards_c = _unit(c - _dot(c, a)[:, None] * a).T.copy()
        self.a, self.b = a[0], b.T.copy()

    def directions(self, rng, m):
        """``m`` unit directions, one per row."""
        k = rng.choice(len(self.omega), size=m, p=self.omega / self.solid_angle)
        u, w = rng.random((2, m))
        cos_alpha, sin_alpha = self.cos_alpha[k], self.sin_alpha[k]
        # the point c_hat on the arc a-c that cuts off the sub-triangle
        # (a, b, c_hat) of area u * omega
        turn = u * self.omega[k] - self.alpha[k]
        s, t = np.sin(turn), np.cos(turn)
        p, q = t - cos_alpha, s + self.sin_alpha_cos_ab[k]
        cos_ac = np.clip(((q * t - p * s) * cos_alpha - q) / ((q * s + p * t) * sin_alpha),
                         -1.0, 1.0)
        c_hat = (np.sqrt((1.0 - cos_ac) * (1.0 + cos_ac)) * self.towards_c[:, k]
                 + cos_ac * self.a[:, None])
        # then the point on the arc b-c_hat whose 1 - cos of its arc from b is
        # uniform in [0, 1 - b.c_hat], with 1 - b.c_hat = |b - c_hat|^2 / 2
        b = self.b[:, k]
        drop = 0.5 * w * ((c_hat - b) ** 2).sum(axis=0)
        tangent = c_hat - (c_hat * b).sum(axis=0) * b
        tangent *= np.sqrt(drop * (2.0 - drop) / (tangent * tangent).sum(axis=0))
        return (b - drop * b + tangent).T


def _collect_direct(tag, seed, measure, n, draw):
    """n points from ``draw(rng, m) -> (points, face_ids or None)`` in shards
    of at most ``_DIRECT_CHUNK`` points, each from its own generator; every
    draw is kept, so the measure is exact and ``n_proposals == n``."""
    points = np.empty((n, 3))
    face_parts = []
    for shard, start in enumerate(range(0, n, _DIRECT_CHUNK)):
        stop = min(start + _DIRECT_CHUNK, n)
        points[start:stop], aux = draw(_rng(seed, shard), stop - start)
        face_parts.append(aux)
    face_ids = None if face_parts[0] is None else np.concatenate(face_parts)
    return SampleBatch(
        tag=tag,
        points=points,
        weights=np.full(n, measure / n),
        rng_seed=int(seed),
        n_proposals=n,
        proposal_measure=measure,
        face_ids=face_ids,
    )


def _collect_rejection(tag, seed, proposal_measure, n, gen_chunk, accept_fn):
    """Draw fixed-size shards until n acceptances; inverse-binomial weights."""
    accepted = []
    face_parts = []
    total_proposals = 0
    count = 0
    shard = 0
    while count < n:
        pts, aux = gen_chunk(shard)
        keep = accept_fn(pts)
        idx = np.flatnonzero(keep)
        if count + len(idx) >= n:
            need = n - count
            last = idx[need - 1]
            total_proposals += int(last) + 1
            idx = idx[:need]
        else:
            total_proposals += len(pts)
        if len(idx):
            accepted.append(pts[idx])
            if aux is not None:
                face_parts.append(aux[idx])
        count += len(idx)
        shard += 1
        if total_proposals >= max(2_000_000, 64 * n) and count / total_proposals < MIN_ACCEPTANCE:
            raise GeometryError(
                "acceptance ratio %.2e below %g; use a smaller shell (degenerate thin cone)"
                % (count / total_proposals, MIN_ACCEPTANCE)
            )
    points = np.vstack(accepted) if accepted else np.empty((0, 3))
    weights = np.full(n, proposal_measure * (n / total_proposals) / n)
    face_ids = np.concatenate(face_parts) if face_parts else None
    return SampleBatch(
        tag=tag,
        points=points,
        weights=weights,
        rng_seed=int(seed),
        n_proposals=total_proposals,
        proposal_measure=proposal_measure,
        face_ids=face_ids,
    )


def sample_base(cone, n, seed):
    """Uniform points on the cone base, the part of the sphere
    |X - v| = radius inside the solid.

    At a convex vertex the directions are drawn directly from the link
    (:class:`_ConvexLink`) and the measure is exactly ``Omega r^2``.
    Elsewhere uniform points on the whole sphere are kept when inside, and
    the measure is estimated.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    surface, v, r = cone.surface, cone.surface.vertices[cone.vertex], cone.radius
    n = int(n)
    if is_convex_vertex(surface, cone.vertex):
        link = _ConvexLink(surface, cone.vertex)
        return _collect_direct("base-sphere", seed, link.solid_angle * r * r, n,
                               lambda g, m: (v + r * link.directions(g, m), None))
    inside = _inside_tester(surface, cone.vertex)
    area = 4.0 * math.pi * r * r

    def gen(shard):
        g = _rng(seed, shard)
        d = g.normal(size=(min(_CHUNK, max(4 * n, 1024)), 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        return v + r * d, None

    return _collect_rejection("base-sphere", seed, area, n, gen, inside)


def sample_arch(arch, n, seed):
    """Uniform volume points in the arch, the solid within the shell.

    Radii come from the inverse CDF ``cbrt(r^3 + u (R^3 - r^3))``.  At a
    convex vertex the directions are drawn directly from the link and the
    measure is exactly ``Omega (R^3 - r^3) / 3``; elsewhere uniform points
    in the whole shell are kept when inside.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3
    n = int(n)
    if is_convex_vertex(surface, arch.vertex):
        link = _ConvexLink(surface, arch.vertex)

        def draw(g, m):
            d = link.directions(g, m)
            return v + np.cbrt(r3 + g.random(m) * (R3 - r3))[:, None] * d, None

        return _collect_direct("arch-volume", seed, link.solid_angle * (R3 - r3) / 3.0, n, draw)
    inside = _inside_tester(surface, arch.vertex)
    volume = 4.0 * math.pi / 3.0 * (R3 - r3)

    def gen(shard):
        g = _rng(seed, shard)
        m = min(_CHUNK, max(4 * n, 1024))
        d = g.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rho = np.cbrt(r3 + g.uniform(size=m) * (R3 - r3))
        return v + rho[:, None] * d, None

    return _collect_rejection("arch-volume", seed, volume, n, gen, inside)


def sample_lateral(arch, n, seed):
    """Uniform points on the faces at the vertex within the shell.

    Inside the separation ball each face at the vertex is its corner wedge
    of angle ``theta_f`` in (0, 2*pi), turning counterclockwise about the
    outward normal from the face's next vertex to its previous one.  A draw
    picks a face with probability proportional to ``theta_f`` and a point
    in polar form (``phi = theta_f u``, ``rho = sqrt(r^2 + u' (R^2 - r^2))``);
    the measure is exactly ``sum theta_f (R^2 - r^2) / 2``.  The batch
    records the source face of every point (``face_ids``) and the matching
    outward unit normals (``normals``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    fids, _, prev, succ = _vertex_corners(surface, arch.vertex)
    turned = np.cross(surface.face_normals[fids], succ)  # succ turned a quarter counterclockwise
    theta = np.mod(np.arctan2(_dot(turned, prev), _dot(succ, prev)), 2.0 * math.pi)
    r2, R2 = arch.r_inner ** 2, arch.r_outer ** 2
    succ, turned = succ.T.copy(), turned.T.copy()  # vectors as columns

    def draw(g, m):
        k = g.choice(len(fids), size=m, p=theta / theta.sum())
        u, w = g.random((2, m))
        phi = theta[k] * u
        rho = np.sqrt(r2 + w * (R2 - r2))
        pts = v[:, None] + rho * (np.cos(phi) * succ[:, k] + np.sin(phi) * turned[:, k])
        return pts.T, fids[k]

    batch = _collect_direct("lateral-surface", seed, float(theta.sum()) * (R2 - r2) / 2.0,
                            int(n), draw)
    batch.normals = surface.face_normals[batch.face_ids]
    return batch


# ----------------------------------------------------------------------
# CSV export


def angles_csv_rows(surface):
    """Rows (edge_id, v0, v1, face0, face1, interior_angle, exterior_angle)."""
    rows = []
    for eid, d in enumerate(dihedral_angles(surface)):
        rows.append(
            (eid, d.edge[0], d.edge[1], d.faces[0], d.faces[1],
             d.interior_angle, d.exterior_angle)
        )
    return rows
