"""Dihedral angles, vertex separation radii, containment tests, and
Monte Carlo sampling of vertex cones, cone bases, and arches.

Angles are measured inside the solid: an edge of a convex solid has
interior angle < pi, a reflex (notch) edge has interior angle > pi, and
interior + exterior = 2*pi per edge.  Each angle comes from the edge's
own geometry (two face normals and the edge direction), never from a
global inside test.  Sampling is rejection-based with
deterministic seeding; every batch reports an unbiased measure estimate
with its Monte Carlo standard error.
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

# Boundary band for contains_point, relative to the bounding-box diagonal.
BOUNDARY_REL_TOL = 1e-12

# Cone and arch radii must stay below this fraction of the separation radius.
RADIUS_SAFETY_FACTOR = 0.9

# Rejection samplers abort below this acceptance ratio.
MIN_ACCEPTANCE = 1e-4

_CHUNK = 1 << 18  # proposals per internal shard


class GeometryError(Exception):
    pass


class DegenerateEdgeError(GeometryError):
    """Edge whose wedge side cannot be decided numerically."""


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


# Fixed, deterministic ray directions for the parity test.
_RAY_DIRECTIONS = _rng(0xD1CE).normal(size=(24, 3))
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1)[:, None]


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
    `vertex`, and to any face not containing `vertex`.
    """
    p = surface.vertices[vertex]
    others = np.delete(np.arange(len(surface.vertices)), vertex)
    best = float(np.linalg.norm(surface.vertices[others] - p, axis=1).min())
    for (a, b) in surface.edge_list:
        if vertex in (a, b):
            continue
        best = min(best, _point_segment_distance(p, surface.vertices[a], surface.vertices[b]))
    for fi, face in enumerate(surface.faces):
        if vertex in face:
            continue
        best = min(best, point_face_distance(surface, p, fi))
    return best


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

    Boundary means within ``1e-12 * bbox diagonal`` of some face; otherwise
    ray parity decides.
    """
    p = np.asarray(point, dtype=float)
    tol = BOUNDARY_REL_TOL * (surface.bbox_diagonal or 1.0)
    for fi in range(len(surface.faces)):
        if point_face_distance(surface, p, fi) <= tol:
            return "boundary"
    return "inside" if bool(contains_points(surface, p[None, :])[0]) else "outside"


def contains_points(surface, points):
    """Vectorized strict-inside test by ray parity (boundary not detected).

    Ambiguous hits (rays grazing edges or vertices) are retried along a
    fixed list of deterministic directions.
    """
    pts = np.asarray(points, dtype=float)
    tris, _ = surface.triangles
    tv = surface.vertices[tris]  # (T, 3, 3)
    result = np.zeros(len(pts), dtype=bool)
    undecided = np.arange(len(pts))
    scale = surface.bbox_diagonal or 1.0
    for direction in _RAY_DIRECTIONS:
        if len(undecided) == 0:
            break
        parity, ok = _ray_crossings(pts[undecided], direction, tv, scale)
        decided = undecided[ok]
        result[decided] = parity[ok]
        undecided = undecided[~ok]
    # leftovers sit exactly on degenerate lines for every direction; call
    # them outside (measure zero for sampling purposes)
    return result


def _ray_crossings(pts, direction, tv, scale):
    eps_par = 1e-13
    eps_t = 1e-12 * scale
    n = len(pts)
    crossings = np.zeros(n, dtype=np.int64)
    ambiguous = np.zeros(n, dtype=bool)
    d = direction
    for t0, t1, t2 in tv:
        e1 = t1 - t0
        e2 = t2 - t0
        pvec = np.cross(d, e2)
        det = e1 @ pvec
        if abs(det) < eps_par * scale * scale:
            # ray parallel to this triangle: only matters if some point's
            # ray lies in its plane; flag points close to the plane
            nrm = np.cross(e1, e2)
            h = np.abs((pts - t0) @ nrm)
            ambiguous |= h < eps_t * max(np.linalg.norm(nrm), 1e-300)
            continue
        inv = 1.0 / det
        tvec = pts - t0
        u = (tvec @ pvec) * inv
        qvec = np.cross(tvec, e1)
        v = (qvec @ d) * inv
        t_hit = (qvec @ e2) * inv
        hit = (u > 0.0) & (u < 1.0) & (v > 0.0) & (u + v < 1.0) & (t_hit > eps_t)
        graze = (
            (np.abs(u) < 1e-12)
            | (np.abs(v) < 1e-12)
            | (np.abs(1.0 - u - v) < 1e-12)
            | (np.abs(t_hit) <= eps_t)
        ) & (u > -1e-12) & (v > -1e-12) & (u + v < 1.0 + 1e-12)
        ambiguous |= graze
        crossings += hit
    return (crossings % 2).astype(bool), ~ambiguous


# ----------------------------------------------------------------------
# cones and arches


@dataclass(frozen=True)
class ConeRegion:
    """Solid within distance `radius` of vertex `vertex`."""

    surface: PolyhedralSurface
    vertex: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
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
        return tuple(sorted(f for f in range(len(self.surface.faces))
                            if self.vertex in self.surface.faces[f]))


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
        proposal region, which is exactly the rejection estimator.
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


def _inside_tester(surface, vertex):
    """Inside test specialized to points within the separation ball.

    If every edge at the vertex is convex, the local cone is the
    intersection of the incident face half-spaces, which is far cheaper
    than ray parity and exact.
    """
    angles = dihedral_angles(surface)
    convex = True
    for d in angles:
        if vertex in d.edge and d.interior_angle >= math.pi:
            convex = False
            break
    if not convex:
        return lambda pts: contains_points(surface, pts)
    v = surface.vertices[vertex]
    normals = np.array([surface.face_normals[f] for f in range(len(surface.faces))
                        if vertex in surface.faces[f]])

    def tester(pts):
        return np.all((pts - v) @ normals.T <= 0.0, axis=1)

    return tester


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
    """Uniform points on the sphere |X - v| = radius, kept when inside.

    The estimated measure is the area of the cone base.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    surface, v, r = cone.surface, cone.surface.vertices[cone.vertex], cone.radius
    inside = _inside_tester(surface, cone.vertex)
    area = 4.0 * math.pi * r * r

    def gen(shard):
        g = _rng(seed, shard)
        d = g.normal(size=(min(_CHUNK, max(4 * n, 1024)), 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        return v + r * d, None

    return _collect_rejection("base-sphere", seed, area, int(n), gen, inside)


def sample_arch(arch, n, seed):
    """Uniform volume points in the spherical shell, kept when inside."""
    if n < 1:
        raise ValueError("need n >= 1")
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3
    inside = _inside_tester(surface, arch.vertex)
    volume = 4.0 * math.pi / 3.0 * (R3 - r3)

    def gen(shard):
        g = _rng(seed, shard)
        m = min(_CHUNK, max(4 * n, 1024))
        d = g.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rho = np.cbrt(r3 + g.uniform(size=m) * (R3 - r3))
        return v + rho[:, None] * d, None

    return _collect_rejection("arch-volume", seed, volume, int(n), gen, inside)


def sample_lateral(arch, n, seed):
    """Area-weighted points on the faces at the vertex, clipped to the shell.

    The batch records the source face of every point (``face_ids``) and the
    matching outward unit normals (``normals``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    tris = []
    tri_face = []
    for fi in arch.lateral_face_ids:
        for t in surface.triangulate_face(fi):
            tris.append(surface.vertices[list(t)])
            tri_face.append(fi)
    tris = np.asarray(tris)
    tri_face = np.asarray(tri_face, dtype=np.int64)
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.linalg.norm(np.cross(d1, d2), axis=1)
    total_area = float(areas.sum())
    pweights = areas / total_area
    lo, hi = arch.r_inner, arch.r_outer

    def gen(shard):
        g = _rng(seed, shard)
        m = min(_CHUNK, max(4 * n, 1024))
        pick = g.choice(len(tris), size=m, p=pweights)
        s = np.sqrt(g.uniform(size=m))
        t = g.uniform(size=m)
        a = tris[pick, 0]
        pts = a + s[:, None] * ((tris[pick, 1] - a) + t[:, None] * (tris[pick, 2] - tris[pick, 1]))
        return pts, tri_face[pick]

    def accept(pts):
        rr = np.linalg.norm(pts - v, axis=1)
        return (rr >= lo) & (rr <= hi)

    batch = _collect_rejection("lateral-surface", seed, total_area, int(n), gen, accept)
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
