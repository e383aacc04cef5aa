"""Dihedral angles, vertex separation radii, containment tests, and
Monte Carlo sampling of vertex links and the faces at a vertex.

Angles are measured inside the solid: an edge of a convex solid has
interior angle < pi, a reflex (notch) edge has interior angle > pi, and
interior + exterior = 2*pi per edge.  Each angle comes from the edge's
own geometry (two face normals and the edge direction), never from a
global inside test.  All edges' face pairs and angles are one read-only
:func:`edge_table` per surface, which the partition layer reads directly;
only :func:`dihedral_angles` builds records from it.  Containment is the
generalized winding number over all triangles (:func:`contains_points`),
exact up to rounding and free of ray directions.  Sampling is seeded and
deterministic, and drawn in shards, each from its own generator: a
:class:`SampleStream` hands a sampler's shards of points out one at a
time to a consumer that reduces as it goes.  Both samplers draw directly,
at unit distance from the vertex: :func:`link_stream` directions through
spherical triangles that tile the vertex cone, cut from its link by a
sweep of meridians (:func:`_link_triangles`) at convex and reflex
vertices alike, including cones with no kernel and cones in no open
hemisphere, and :func:`lateral_stream` polar angles in the corner wedges
of the faces at the vertex.  The points are uniform, and each stream
carries its exact measure.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

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

# points per shard of a sampler: its temporaries then stay in the processor
# caches, which halves the time per point against 1 << 18
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


class EdgeTable(NamedTuple):
    """Per edge, in ``surface.edge_list`` order, read-only: ``faces``, the
    (E, 2) face pair ``(fa, fb)`` in walk order (``fa`` walks the edge
    ``a -> b``), and ``interior``, the (E,) interior angle."""

    faces: np.ndarray
    interior: np.ndarray


@dataclass(frozen=True)
class DihedralAngle:
    edge: tuple
    faces: tuple
    interior_angle: float

    @property
    def exterior_angle(self):
        return 2.0 * math.pi - self.interior_angle


def edge_table(surface):
    """The surface's :class:`EdgeTable`, computed in one array pass and kept
    in its memo.

    With unit edge direction ``t`` from ``a`` to ``b`` and outward normals
    ``n1``, ``n2`` of ``fa``, ``fb``:
    ``interior = pi - atan2(sigma * (n1 x n2) . t, n1 . n2)``.  The sign
    ``sigma`` of the enclosed volume makes the formula hold on inward-oriented
    surfaces as well.  The first offending edge in ``edge_list`` order decides
    the error: :class:`MeshError` where it lacks two oppositely oriented faces,
    :class:`DegenerateEdgeError` where it is a knife edge (normals opposite to
    within ``KNIFE_EDGE_SINE_TOL``) or the surface encloses no volume.
    """
    return surface.memo[_compute_edge_table]


def dihedral_angles(surface):
    """One :class:`DihedralAngle` per edge, in ``surface.edge_list`` order,
    built from :func:`edge_table` (whose errors it raises)."""
    faces, interior = edge_table(surface)
    return tuple(map(DihedralAngle, surface.edge_list, map(tuple, faces.tolist()),
                     interior.tolist()))


def _compute_edge_table(surface):
    h, edges = surface.half_edges, surface.edge_list
    slot = 2 * h.edge + (h.tail > h.head)  # per edge, the faces that walk it a -> b, b -> a
    walks = np.bincount(slot, minlength=2 * len(edges)).reshape(-1, 2)
    # up to the first edge without two opposite faces
    m = int(np.argmax(np.append((walks != 1).any(axis=1), True)))
    pairs = np.empty(2 * len(edges), dtype=np.int64)
    pairs[slot] = h.face
    pairs = pairs.reshape(-1, 2)[:m]
    a, b = h.ends[:m].T
    fa, fb = pairs.T
    t = surface.vertices[b] - surface.vertices[a]
    n1, n2 = surface.face_normals[fa], surface.face_normals[fb]
    # Row products as stacked (1, 3) @ (3, 1) matmuls, np.cross's own terms
    # and math.atan2 keep the bits of the per-edge form on every search family
    # and fixture with this numpy and OpenBLAS; einsum or explicit sums change
    # the last bit on ~8% of edges, np.arctan2 on ~3%.
    t = t / np.sqrt((t[:, None, :] @ t[:, :, None])[:, 0, 0])[:, None]
    yzx, zxy = [1, 2, 0], [2, 0, 1]
    cross = n1.take(yzx, 1) * n2.take(zxy, 1) - n1.take(zxy, 1) * n2.take(yzx, 1)
    # signed sine of the turn from n1 to n2 about t; an inward-oriented
    # surface turns the other way
    sigma = math.copysign(1.0, surface.signed_volume)
    s = sigma * (cross[:, None, :] @ t[:, :, None])[:, 0, 0]
    c = (n1[:, None, :] @ n2[:, :, None])[:, 0, 0]
    folds = ((c < 0.0) & (np.abs(s) < KNIFE_EDGE_SINE_TOL)) | (surface.signed_volume == 0.0)
    if folds.any():
        raise DegenerateEdgeError(
            "edge %r: its faces fold onto each other or the surface encloses no volume"
            % (edges[folds.argmax()],))
    if m < len(edges):
        raise MeshError(
            "dihedral angles need a closed oriented surface; offending edge %r" % (edges[m],))
    table = EdgeTable(pairs, np.array([math.pi - math.atan2(sk, ck)
                                       for sk, ck in zip(s.tolist(), c.tolist())]))
    for column in table:
        column.flags.writeable = False
    return table


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
    return surface.memo[_compute_separation_radius, int(vertex)]


def _compute_separation_radius(surface, vertex):
    verts = surface.vertices
    p = verts[vertex]
    best = np.linalg.norm(np.delete(verts, vertex, axis=0) - p, axis=1).min(initial=np.inf)
    h = surface.half_edges
    a, b = np.moveaxis(verts[h.ends[~np.any(h.ends == vertex, axis=1)]], 1, 0)
    d = b - a
    denom = _dot(d, d)
    t = np.clip(np.divide(_dot(p - a, d), denom,
                          out=np.zeros_like(denom), where=denom != 0.0), 0.0, 1.0)
    best = min(best, np.linalg.norm(p - (a + t[:, None] * d), axis=1).min(initial=np.inf))
    far = np.ones(len(surface.faces), dtype=bool)
    far[h.face[h.tail == vertex]] = False
    normals = surface.face_normals
    dist = _dot(p - verts[[f[0] for f in surface.faces]], normals)
    # winding of the face boundary about the foot of the perpendicular
    keep = far[h.face]
    face = h.face[keep]
    foot = p - dist[face, None] * normals[face]
    ea, eb = verts[h.tail[keep]] - foot, verts[h.head[keep]] - foot
    turn = np.arctan2(_dot(normals[face], np.cross(ea, eb)), _dot(ea, eb))
    inside = np.abs(np.bincount(face, weights=turn, minlength=len(far))) > math.pi
    return float(min(best, np.abs(dist[far & inside]).min(initial=np.inf)))


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

    The samplers read the solid's side off the face orientation, so an
    inside-out surface would sample the complement.
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


@dataclass(frozen=True)
class SampleStream:
    """A sampler's draws shard by shard.

    Iterating yields ``(points, face_ids or None)`` per shard in draw order,
    at most ``_DIRECT_CHUNK`` points from one generator and ``n`` points in
    all, uniform over a region of exact ``measure``, so a consumer that
    reduces as it goes holds one shard at a time.  Each iteration draws
    afresh from the seed.
    """

    tag: str
    rng_seed: int
    n: int
    measure: float
    shards: Callable[[], Iterator[tuple]] = field(repr=False)

    def __iter__(self):
        return self.shards()


def _vertex_corners(surface, vertex):
    """The faces at `vertex` and, per face, the unit directions from the
    vertex to the face's previous and next vertex."""
    v = surface.vertices[vertex]
    fids = np.array(surface.vertex_faces[vertex], dtype=np.int64)
    ends = [(face[face.index(vertex) - 1], face[(face.index(vertex) + 1) % len(face)])
            for face in (surface.faces[f] for f in fids)]
    prev, succ = (_unit(surface.vertices[list(ids)] - v) for ids in zip(*ends))
    return fids, [p for p, _ in ends], prev, succ


def _link_arcs(surface, vertex):
    """The vertex link as minor arcs c -> b of unit directions from the vertex.

    Each face corner, from the face's next vertex round to its previous one
    (counterclockwise about the outward normal), splits at its in-plane
    bisector ``n x (succ - prev)`` into two arcs, so straight and reflex
    corners need no special case.  The cone lies on the side
    ``x . (b x c) > 0`` of every arc.
    """
    fids, _, prev, succ = _vertex_corners(surface, vertex)
    mid = _unit(np.cross(surface.face_normals[fids], succ - prev))
    return np.vstack([succ, mid]), np.vstack([mid, prev])


def _spiral(n):
    """``n`` nearly uniform unit vectors on a golden-angle spiral."""
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    turn = np.arange(n) * math.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(turn), s * np.sin(turn), z])


_POLES = _spiral(64)


def _link_pole(c, normals):
    """The pole of the meridian sweep in :func:`_link_triangles`.

    The normalized sum of the arc starts wherever it sees every arc
    positively oriented (the sweep then gives the fan from it), otherwise
    the spiral direction, in a frame of the first arc, farthest from the
    nearest arc's great circle.  Either turns with the link.
    """
    apex = c.sum(axis=0)
    if np.all(normals @ apex > 0.0):
        return apex / np.linalg.norm(apex)
    n = _unit(normals)
    poles = _POLES @ np.vstack([c[0], np.cross(n[0], c[0]), n[0]])
    return poles[np.argmax(np.abs(poles @ n.T).min(axis=1))]


def _link_triangles(c, b):
    """The cone over the link arcs ``c -> b`` cut into positively oriented
    spherical triangles ``(a, b, c)``, returned as three (t, 3) arrays.

    Meridians about a pole ``p`` (:func:`_link_pole`, off every arc's great
    circle) through the arc endpoints cut the sphere into lunes.  No arc
    ends inside a lune and arcs do not cross, so the arcs across a lune keep
    their order along it, and the interval just below a crossing (towards
    ``p``) is inside the cone exactly when ``p`` sees that arc positively.
    With ``L`` and ``R`` an arc's crossings of the lune's left and right
    meridian, the cone's part of the lune is a cap ``(p, L, R)`` below the
    first arc, quadrilaterals between consecutive arcs, split in two, and an
    antipodal cap ``(L, -p, R)`` above the last; a lune that no arc crosses
    is inside whole when ``p`` is, as four triangles through its equator.
    An arc crosses the meridians through its own endpoints at the endpoints
    themselves.  Triangles come in arc order, and those of zero measure are
    dropped: where ``p`` sees every arc positively, each arc crosses one
    lune and the triangles are the fan ``(p, b, c)``.
    """
    k = len(c)
    normals = np.cross(b, c)
    p = _link_pole(c, normals)
    below = normals @ p > 0.0  # inside below the arc, which turns clockwise about p
    e1 = c[0] - (c[0] @ p) * p
    e1 /= np.linalg.norm(e1)
    frame = np.vstack([e1, np.cross(p, e1)])

    def towards(azimuth):  # unit directions at right angles to p
        return np.column_stack([np.cos(azimuth), np.sin(azimuth)]) @ frame

    ends = np.vstack([c, b]) @ frame.T
    bounds, index = np.unique(np.arctan2(ends[:, 1], ends[:, 0]), return_inverse=True)
    nb = len(bounds)
    # arc i covers the lunes first[i], ..., first[i] + count[i] - 1 (mod nb),
    # where lune j lies between meridians j and j + 1
    first = np.where(below, index[k:], index[:k])
    count = (np.where(below, index[:k], index[k:]) - first) % nb
    meridians = towards(bounds)
    # each arc's great circle crosses each meridian's plane (normal p x meridian)
    x = np.cross(normals[:, None, :], towards(bounds + 0.5 * math.pi))  # (arc, meridian, xyz)
    x *= np.sign(np.einsum("kjx,jx->kj", x, meridians))[..., None]
    x /= np.linalg.norm(x, axis=2)[..., None]
    x[np.arange(k), index[:k]] = c
    x[np.arange(k), index[k:]] = b
    polar = np.arctan2(np.einsum("kjx,jx->kj", x, meridians), x @ p)

    arc, lune = np.nonzero((np.arange(nb) - first[:, None]) % nb < count[:, None])
    order = np.lexsort((polar[arc, lune] + polar[arc, (lune + 1) % nb], lune))
    arc, lune = arc[order], lune[order]
    L, R = x[arc, lune], x[arc, (lune + 1) % nb]
    L0, R0 = np.roll(L, 1, axis=0), np.roll(R, 1, axis=0)  # the arc below, within a lune
    P = np.broadcast_to(p, L.shape)
    head = np.r_[True, lune[1:] != lune[:-1]]
    inside = below[arc]
    key = (arc * nb + lune) * 8  # arc order, then lune, then piece
    pieces = [(key, head & inside, [P, L, R]),
              (key + 1, np.r_[head[1:], True] & ~inside, [L, -P, R]),
              (key + 2, ~head & inside, [L0, L, R]),
              (key + 3, ~head & inside, [L0, R, R0])]
    if inside[0]:  # p is inside, and so is every lune that no arc crosses
        empty = np.setdiff1d(np.arange(nb), lune)
        edge = bounds[empty]
        width = (np.append(bounds[1:], bounds[0] + 2.0 * math.pi) - bounds)[empty]
        W0, Wm, W1 = towards(edge), towards(edge + 0.5 * width), towards(edge + width)
        Q = np.broadcast_to(p, W0.shape)
        key, every = (k * nb + empty) * 8 + 4, np.ones(len(empty), dtype=bool)
        pieces += [(key, every, [Q, W0, Wm]), (key + 1, every, [Q, Wm, W1]),
                   (key + 2, every, [W0, -Q, Wm]), (key + 3, every, [Wm, -Q, W1])]
    key = np.concatenate([key[keep] for key, keep, _ in pieces])
    tri = np.concatenate([np.stack(corners, axis=1)[keep] for _, keep, corners in pieces])
    a, b, c = tri[np.argsort(key, kind="stable")].transpose(1, 0, 2)
    keep = ((_dot(a, np.cross(b, c)) > 0.0) & np.any(a != b, axis=1)
            & np.any(b != c, axis=1) & np.any(c != a, axis=1))
    return a[keep], b[keep], c[keep]


class _LinkFan:
    """Uniform directions in a vertex cone, drawn directly from spherical
    triangles ``(a, b, c)`` that tile it.

    The triangles are rows of ``a``, ``b`` and ``c``, all positively
    oriented, so the cone is exactly their union, even when its solid angle
    exceeds 2*pi.  Each triangle's solid angle ``omega`` comes from Van
    Oosterom & Strackee; a draw picks a triangle with probability
    proportional to it, by searching one uniform in the kept CDF of
    ``omega`` (the search ``Generator.choice`` makes with these weights,
    so picks and generator state are the same), and samples the triangle
    by Arvo's area-preserving map ("Stratified sampling of spherical
    triangles", SIGGRAPH 1995).  ``solid_angle`` is exact up to rounding.
    """

    def __init__(self, a, b, c):
        det = _dot(a, np.cross(b, c))
        self.omega = 2.0 * np.arctan2(det, 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a))
        self.solid_angle = float(self.omega.sum())
        self.cdf = (self.omega / self.solid_angle).cumsum()
        self.cdf /= self.cdf[-1]
        # Arvo's inputs per triangle: the angle alpha at a, cos of the arc a-b
        # and the unit tangent at a towards c; scalars and vectors are stored
        # as rows, one column per triangle
        cos_ab = _dot(a, b)
        alpha = np.arctan2(det, _dot(b, c) - cos_ab * _dot(a, c))
        sin_alpha = np.sin(alpha)
        self.scalars = np.vstack([self.omega, alpha, np.cos(alpha), sin_alpha,
                                  sin_alpha * cos_ab])
        self.towards_c = _unit(c - _dot(c, a)[:, None] * a).T.copy()
        self.a, self.b = a.T.copy(), b.T.copy()
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # shared through the surface cache

    def directions(self, rng, m):
        """``m`` unit directions, one per row."""
        k = self.cdf.searchsorted(rng.random(m), side="right")
        u, w = rng.random((2, m))
        # np.take gathers the columns several times faster than x[:, k]
        omega, alpha, cos_alpha, sin_alpha, sin_alpha_cos_ab = np.take(self.scalars, k, axis=1)
        # the point c_hat on the arc a-c that cuts off the sub-triangle
        # (a, b, c_hat) of area u * omega
        turn = u * omega - alpha
        s, t = np.sin(turn), np.cos(turn)
        p, q = t - cos_alpha, s + sin_alpha_cos_ab
        cos_ac = np.clip(((q * t - p * s) * cos_alpha - q) / ((q * s + p * t) * sin_alpha),
                         -1.0, 1.0)
        c_hat = (np.sqrt((1.0 - cos_ac) * (1.0 + cos_ac)) * np.take(self.towards_c, k, axis=1)
                 + cos_ac * np.take(self.a, k, axis=1))
        # then the point on the arc b-c_hat whose 1 - cos of its arc from b is
        # uniform in [0, 1 - b.c_hat], with 1 - b.c_hat = |b - c_hat|^2 / 2
        b = np.take(self.b, k, axis=1)
        d = c_hat - b
        drop = 0.5 * w * (d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        tangent = c_hat - (c_hat[0] * b[0] + c_hat[1] * b[1] + c_hat[2] * b[2]) * b
        tangent *= np.sqrt(drop * (2.0 - drop)
                           / (tangent[0] * tangent[0] + tangent[1] * tangent[1]
                              + tangent[2] * tangent[2]))
        return (b - drop * b + tangent).T


def _link_fan(surface, vertex):
    """The cone of `vertex` as a :class:`_LinkFan` over its
    :func:`_link_triangles`.  Cached per surface and vertex."""
    return surface.memo[_compute_link_fan, int(vertex)]


def _compute_link_fan(surface, vertex):
    return _LinkFan(*_link_triangles(*_link_arcs(surface, vertex)))


def _direct_stream(tag, seed, measure, n, draw):
    """n points from ``draw(rng, m) -> (points, face_ids or None)`` in shards
    of at most ``_DIRECT_CHUNK`` points, each from its own generator."""

    def shards():
        for shard, start in enumerate(range(0, n, _DIRECT_CHUNK)):
            yield draw(_rng(seed, shard), min(_DIRECT_CHUNK, n - start))

    return SampleStream(tag, int(seed), n, measure, shards)


def _check_count(n):
    if n < 1:
        raise ValueError("need n >= 1")
    return int(n)


def link_stream(surface, vertex, n, seed):
    """Uniform unit directions in the cone at `vertex`, as a
    :class:`SampleStream` whose measure is exactly the cone's solid angle.

    The directions are drawn directly from the triangles of the vertex link
    (:func:`_link_fan`).
    """
    n = _check_count(n)
    fan = _link_fan(surface, vertex)
    return _direct_stream("link", seed, fan.solid_angle, n,
                          lambda g, m: (fan.directions(g, m), None))


def lateral_stream(surface, vertex, n, seed):
    """Uniform unit directions on the faces at `vertex`, as a
    :class:`SampleStream` whose shards carry the source face of every point.

    Each face at the vertex is its corner wedge of angle ``theta_f`` in
    (0, 2*pi), turning counterclockwise about the outward normal from the
    face's next vertex to its previous one.  A draw picks a face with
    probability proportional to ``theta_f``, from the kept CDF of ``theta``
    as :class:`_LinkFan` picks a triangle, and a polar angle
    ``phi = theta_f u``; the point is the unit vector at ``phi`` in the face,
    relative to the vertex.  The measure is exactly ``sum theta_f``, the
    length of the unit arcs the points are uniform on.
    """
    n = _check_count(n)
    fids, _, prev, succ = _vertex_corners(surface, vertex)
    turned = np.cross(surface.face_normals[fids], succ)  # succ turned a quarter counterclockwise
    theta = np.mod(np.arctan2(_dot(turned, prev), _dot(succ, prev)), 2.0 * math.pi)
    cdf = (theta / theta.sum()).cumsum()
    cdf /= cdf[-1]
    succ, turned = succ.T.copy(), turned.T.copy()  # vectors as columns

    def draw(g, m):
        k = cdf.searchsorted(g.random(m), side="right")
        phi = np.take(theta, k) * g.random(m)
        pts = np.cos(phi) * np.take(succ, k, axis=1) + np.sin(phi) * np.take(turned, k, axis=1)
        return pts.T, np.take(fids, k)

    return _direct_stream("lateral", seed, float(theta.sum()), n, draw)


# ----------------------------------------------------------------------
# CSV export


def angles_csv_rows(surface):
    """Rows (edge_id, v0, v1, face0, face1, interior_angle, exterior_angle),
    faces in walk order."""
    faces, interior = edge_table(surface)
    return [(eid, a, b, fa, fb, angle, 2.0 * math.pi - angle) for eid, ((a, b), (fa, fb), angle)
            in enumerate(zip(surface.edge_list, faces.tolist(), interior.tolist()))]
