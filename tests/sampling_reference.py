"""Reference samplers for the geometry tests.

Region samplers over the library's draws, rejection sampling against the
link winding test, with its own proposal-counting record, and the fan of
the link from the normalized sum of its arc starts.  The library draws
only unit directions: on the vertex link, through the triangles of
:func:`_link_triangles`, and on the faces at the vertex.  The region
samplers put those directions at radii in the cone bases, the arch and
the lateral faces within the shell, as whole batches.  The rest give the
tests something independent to agree with: rejection estimates the
measure and draws the points without any decomposition of the cone, and
the fan is the decomposition the meridian sweep must reproduce bit for
bit wherever the sum sees every arc positively.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from polymix.geometry import (
    SampleStream,
    _DIRECT_CHUNK,
    _check_count,
    _direct_stream,
    _link_arcs,
    _link_fan,
    _rng,
    _vertex_corners,
    dihedral_angles,
    lateral_stream,
    link_stream,
)

from conftest import edge_index

PROPOSAL_SHARD = 1 << 18  # proposals per shard of a rejection sampler


@dataclass
class SampleBatch:
    """Points drawn uniformly from a region of exact ``measure``.

    :func:`mc_estimate` turns the mean and the centred sum of squares of an
    integrand's values at the points into an integral estimate with
    standard error.  Lateral batches carry the source face of every point
    (``face_ids``), and those of :func:`sample_lateral` its outward unit
    normal (``normals``).
    """

    tag: str
    points: np.ndarray
    rng_seed: int
    measure: float
    face_ids: np.ndarray | None = None
    normals: np.ndarray | None = field(default=None, repr=False)


def mc_estimate(mean, m2, n, measure):
    """Integral estimate and standard error from the mean ``mean`` and the
    centred sum of squares ``m2`` (the sum of ``(x - mean)^2``) of an
    integrand's values at ``n >= 2`` uniform points of a region of exact
    ``measure``.  Works elementwise on arrays."""
    return measure * mean, measure * np.sqrt(m2 / (n - 1) / n)


def collect(stream):
    """A whole :class:`SampleStream` as one :class:`SampleBatch`: its shards
    concatenated in draw order."""
    points = np.empty((stream.n, 3))
    face_ids = None
    start = 0
    for pts, fids in stream:
        stop = start + len(pts)
        points[start:stop] = pts
        if fids is not None:
            if face_ids is None:
                face_ids = np.empty(stream.n, dtype=fids.dtype)
            face_ids[start:stop] = fids
        start = stop
    return SampleBatch(stream.tag, points, stream.rng_seed, stream.measure, face_ids)


def base_stream(cone, n, seed):
    """Uniform points on the cone base, the part of the sphere
    |X - v| = radius inside the solid: the link directions of
    :func:`link_stream` at that radius, of measure exactly ``Omega r^2``."""
    v, r = cone.surface.vertices[cone.vertex], cone.radius
    link = link_stream(cone.surface, cone.vertex, n, seed)

    def shards():
        for d, _ in link:
            yield v + r * d, None

    return SampleStream("base-sphere", link.rng_seed, link.n, link.measure * r * r, shards)


def arch_stream(arch, n, seed):
    """Uniform volume points in the arch, the solid within the shell.

    Per shard, the directions come from the vertex link's triangles as
    :func:`link_stream` draws them, and then, from the same generator, the
    radii by the inverse CDF ``cbrt(r^3 + u (R^3 - r^3))``; the measure is
    exactly ``Omega (R^3 - r^3) / 3``.
    """
    n = _check_count(n)
    v = arch.surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3
    fan = _link_fan(arch.surface, arch.vertex)

    def draw(g, m):
        d = fan.directions(g, m)
        return v + np.cbrt(r3 + g.random(m) * (R3 - r3))[:, None] * d, None

    return _direct_stream("arch-volume", seed, fan.solid_angle * (R3 - r3) / 3.0, n, draw)


def shell_lateral_stream(arch, n, seed):
    """Uniform points on the faces at the vertex within the shell: the unit
    points of :func:`lateral_stream`, each at the radius
    ``rho = sqrt(r^2 + w (R^2 - r^2))``, with ``w`` uniform from a second
    generator per shard; the measure is exactly ``sum theta_f (R^2 - r^2) / 2``."""
    v = arch.surface.vertices[arch.vertex]
    r2, R2 = arch.r_inner ** 2, arch.r_outer ** 2
    lateral = lateral_stream(arch.surface, arch.vertex, n, seed)

    def shards():
        for shard, (e, fids) in enumerate(lateral):
            rho = np.sqrt(r2 + _rng(seed, shard, 1).random(len(e)) * (R2 - r2))
            yield v + rho[:, None] * e, fids

    return SampleStream("lateral-surface", lateral.rng_seed, lateral.n,
                        lateral.measure * (R2 - r2) / 2.0, shards)


def sample_base(cone, n, seed):
    """All of :func:`base_stream` as one :class:`SampleBatch`."""
    return collect(base_stream(cone, n, seed))


def sample_arch(arch, n, seed):
    """All of :func:`arch_stream` as one :class:`SampleBatch`."""
    return collect(arch_stream(arch, n, seed))


def sample_lateral(arch, n, seed):
    """All of :func:`shell_lateral_stream` as one :class:`SampleBatch`, with
    the source face of every point (``face_ids``) and its outward unit
    normal (``normals``)."""
    batch = collect(shell_lateral_stream(arch, n, seed))
    batch.normals = arch.surface.face_normals[batch.face_ids]
    return batch


def is_convex_vertex(surface, vertex):
    """True when every edge at `vertex` has interior angle below pi.

    Inside the separation ball the solid is then the convex cone cut out by
    the half-spaces of the faces at the vertex.
    """
    angles = dihedral_angles(surface)
    # every edge at the vertex precedes it in exactly one face
    _, prev_ids, _, _ = _vertex_corners(surface, vertex)
    eidx = edge_index(surface)
    return all(angles[eidx[tuple(sorted((vertex, prev)))]].interior_angle < math.pi
               for prev in prev_ids)


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


@dataclass
class RejectionBatch:
    """The ``n`` points kept out of ``n_proposals`` uniform proposals over a
    region of ``proposal_measure``, which holds the sampled region.  The
    share kept estimates the sampled region's measure, with the binomial
    standard error."""

    tag: str
    points: np.ndarray
    n_proposals: int
    proposal_measure: float
    face_ids: np.ndarray | None = None
    normals: np.ndarray | None = None

    @property
    def measure_estimate(self):
        return self.proposal_measure * len(self.points) / self.n_proposals

    @property
    def measure_stderr(self):
        p = len(self.points) / self.n_proposals
        return self.proposal_measure * math.sqrt(p * (1.0 - p) / self.n_proposals)


def _rejection_sample(tag, proposal_measure, n, gen_chunk, accept_fn):
    """Fixed-size proposal shards ``gen_chunk(shard) -> (points, face_ids or
    None)``, kept where ``accept_fn`` holds, until n acceptances."""
    points, face_ids, proposals, count = [], [], 0, 0
    for shard in itertools.count():
        pts, aux = gen_chunk(shard)
        idx = np.flatnonzero(accept_fn(pts))[:n - count]
        points.append(pts[idx])
        if aux is not None:
            face_ids.append(aux[idx])
        count += len(idx)
        if count == n:  # proposals after the n-th kept one were not needed
            proposals += int(idx[-1]) + 1
            break
        proposals += len(pts)
    return RejectionBatch(tag, np.concatenate(points), proposals, proposal_measure,
                          np.concatenate(face_ids) if face_ids else None)


def rejection_sample_base(cone, n, seed):
    """Uniform points on the whole sphere, kept when inside."""
    surface, v, r = cone.surface, cone.surface.vertices[cone.vertex], cone.radius
    inside = _inside_tester(surface, cone.vertex)

    def gen(shard):
        d = _rng(seed, shard).normal(size=(min(PROPOSAL_SHARD, max(4 * n, 1024)), 3))
        return v + r * d / np.linalg.norm(d, axis=1)[:, None], None

    return _rejection_sample("base-sphere", 4.0 * math.pi * r * r, n, gen, inside)


def rejection_sample_arch(arch, n, seed):
    """Uniform points in the whole shell, kept when inside."""
    v = arch.surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3

    def gen(shard):
        g = _rng(seed, shard)
        m = min(PROPOSAL_SHARD, max(4 * n, 1024))
        d = g.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        return v + np.cbrt(r3 + g.uniform(size=m) * (R3 - r3))[:, None] * d, None

    return _rejection_sample("arch-volume", 4.0 * math.pi / 3.0 * (R3 - r3), n, gen,
                             _inside_tester(arch.surface, arch.vertex))


def rejection_sample_lateral(arch, n, seed):
    """Area-weighted points on the triangles of the faces at the vertex,
    kept when inside the shell."""
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    lateral = surface.vertex_faces[arch.vertex]
    tri_face = [fi for fi in lateral for _ in surface.triangulate_face(fi)]
    tris = np.array([surface.vertices[list(t)] for fi in lateral
                     for t in surface.triangulate_face(fi)])
    areas = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                 axis=1)

    def gen(shard):
        g = _rng(seed, shard)
        m = min(PROPOSAL_SHARD, max(4 * n, 1024))
        pick = g.choice(len(tris), size=m, p=areas / areas.sum())
        s = np.sqrt(g.uniform(size=m))[:, None]
        t = g.uniform(size=m)[:, None]
        a = tris[pick, 0]
        return (a + s * ((tris[pick, 1] - a) + t * (tris[pick, 2] - tris[pick, 1])),
                np.asarray(tri_face)[pick])

    def accept(pts):
        rr = np.linalg.norm(pts - v, axis=1)
        return (rr >= arch.r_inner) & (rr <= arch.r_outer)

    batch = _rejection_sample("lateral-surface", float(areas.sum()), n, gen, accept)
    batch.normals = surface.face_normals[batch.face_ids]
    return batch


def apex_fan_triangles(surface, vertex):
    """The link fanned from the normalized sum of its arc starts, as the
    triangles ``(apex, b, c)`` over its arcs ``c -> b``, or None where the
    sum does not see every arc positively."""
    c, b = _link_arcs(surface, vertex)
    apex = c.sum(axis=0)
    if not np.all(np.cross(b, c) @ apex > 0.0):
        return None
    return np.broadcast_to(apex / np.linalg.norm(apex), b.shape), b, c


def fan_sample_arch(arch, n, seed, fan):
    """The points of ``sample_arch(arch, n, seed)`` drawn from the given
    :class:`_LinkFan` instead of the library's."""
    v = arch.surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3
    shards = []
    for shard, start in enumerate(range(0, n, _DIRECT_CHUNK)):
        g = _rng(seed, shard)
        m = min(_DIRECT_CHUNK, n - start)
        d = fan.directions(g, m)
        shards.append(v + np.cbrt(r3 + g.random(m) * (R3 - r3))[:, None] * d)
    return np.concatenate(shards)


def choice_fan_directions(a, b, c, rng, m):
    """``m`` directions from the triangles ``(a, b, c)`` as the library drew
    them before it kept a CDF: ``Generator.choice`` with the solid angles as
    weights picks the triangles, fancy indexing gathers their data, and Arvo's
    map places the points."""
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    dot = lambda x, y: np.einsum("ij,ij->i", x, y)
    omega = 2.0 * np.arctan2(det, 1.0 + dot(a, b) + dot(b, c) + dot(c, a))
    cos_ab = dot(a, b)
    alpha = np.arctan2(det, dot(b, c) - cos_ab * dot(a, c))
    towards_c = c - dot(c, a)[:, None] * a
    towards_c = (towards_c / np.linalg.norm(towards_c, axis=1)[:, None]).T
    k = rng.choice(len(omega), size=m, p=omega / float(omega.sum()))
    u, w = rng.random((2, m))
    cos_alpha, sin_alpha = np.cos(alpha)[k], np.sin(alpha)[k]
    turn = u * omega[k] - alpha[k]
    s, t = np.sin(turn), np.cos(turn)
    p, q = t - cos_alpha, s + (np.sin(alpha) * cos_ab)[k]
    cos_ac = np.clip(((q * t - p * s) * cos_alpha - q) / ((q * s + p * t) * sin_alpha),
                     -1.0, 1.0)
    c_hat = np.sqrt((1.0 - cos_ac) * (1.0 + cos_ac)) * towards_c[:, k] + cos_ac * a.T[:, k]
    bk = b.T[:, k]
    drop = 0.5 * w * ((c_hat - bk) ** 2).sum(axis=0)
    tangent = c_hat - (c_hat * bk).sum(axis=0) * bk
    tangent *= np.sqrt(drop * (2.0 - drop) / (tangent * tangent).sum(axis=0))
    return (bk - drop * bk + tangent).T


def choice_lateral_draw(surface, vertex, rng, m):
    """``m`` unit points and their faces on the faces at ``vertex``, as the
    library drew them before it kept a CDF: ``Generator.choice`` with the
    corner angles as weights picks the faces."""
    fids, _, prev, succ = _vertex_corners(surface, vertex)
    turned = np.cross(surface.face_normals[fids], succ)
    theta = np.mod(np.arctan2(np.einsum("ij,ij->i", turned, prev),
                              np.einsum("ij,ij->i", succ, prev)), 2.0 * math.pi)
    succ, turned = succ.T.copy(), turned.T.copy()
    k = rng.choice(len(fids), size=m, p=theta / theta.sum())
    phi = theta[k] * rng.random(m)
    pts = np.cos(phi) * succ[:, k] + np.sin(phi) * turned[:, k]
    return pts.T, fids[k]
