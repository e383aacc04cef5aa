"""Polyhedral surfaces: OFF I/O, derived connectivity, and manifold validation.

A surface is a set of planar polygonal faces over shared vertices.  Validation
checks the standing hypotheses used everywhere else in the package: closed
(every edge has exactly two faces), 2-manifold at vertices (single link
cycle), connected face adjacency, planar faces, and a globally consistent
outward orientation with positive enclosed volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

# Planarity: a face is planar when every vertex lies within this fraction of
# the bounding-box diagonal of its best-fit plane.  Relative, so fixtures are
# scale-free.
PLANAR_REL_TOL = 1e-9

# A face is degenerate when its area is below this fraction of diag**2.
DEGENERATE_AREA_REL_TOL = 1e-14


class MeshError(Exception):
    """Structurally unusable mesh data."""


class OffParseError(MeshError):
    """Malformed OFF input; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "%s, line %d" % (message, line)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Violation:
    kind: str
    location: tuple

    def to_json_dict(self):
        return {"kind": self.kind, "location": list(self.location)}


@dataclass
class MeshDiagnostics:
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    violations: list

    @property
    def ok(self):
        return not self.violations

    def to_json_dict(self):
        return {
            "counts": {
                "vertices": self.vertex_count,
                "edges": self.edge_count,
                "faces": self.face_count,
            },
            "euler": self.euler_characteristic,
            "violations": [v.to_json_dict() for v in self.violations],
        }


class PolyhedralSurface:
    """Immutable polygonal surface with derived connectivity.

    Parameters
    ----------
    vertices : (V, 3) float array
        Vertex coordinates.
    faces : sequence of index cycles
        Each face lists its vertex indices counterclockwise as seen from
        outside.  Faces need at least 3 distinct indices.

    Construction only checks indexing; geometric and topological invariants
    are reported by :func:`validate_surface`.  Instances are treated as
    immutable; derived quantities are cached on first use, mesh-level ones
    as cached properties and those computed in other modules via
    :meth:`cached`.
    """

    def __init__(self, vertices, faces):
        verts = np.array(vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        verts.flags.writeable = False
        self.vertices = verts
        clean = []
        for fi, face in enumerate(faces):
            cyc = tuple(int(i) for i in face)
            if len(cyc) < 3:
                raise MeshError("face %d has fewer than 3 vertices" % fi)
            if len(set(cyc)) != len(cyc):
                raise MeshError("face %d repeats a vertex index" % fi)
            for i in cyc:
                if not 0 <= i < len(verts):
                    raise MeshError("face %d: vertex index out of range" % fi)
            clean.append(cyc)
        self.faces = tuple(clean)
        self._memo = {}

    def cached(self, compute, *args):
        """``compute(self, *args)``, computed on first use and kept for this
        surface and these (hashable) arguments.

        For per-surface data derived in modules that import this one; the
        value must be immutable (a number, a tuple, a read-only mapping, or
        an array that is not writeable).
        """
        key = (compute, *args) if args else compute
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self, *args)
            return value

    # ------------------------------------------------------------------
    # derived connectivity

    @cached_property
    def edge_incidence(self):
        """dict (a, b) with a < b -> list of (face, traverses_a_to_b)."""
        inc = {}
        for fi, face in enumerate(self.faces):
            k = len(face)
            for i in range(k):
                a, b = face[i], face[(i + 1) % k]
                key = (a, b) if a < b else (b, a)
                inc.setdefault(key, []).append((fi, a < b))
        return inc

    @cached_property
    def edge_list(self):
        return tuple(sorted(self.edge_incidence))

    @cached_property
    def edge_index(self):
        return {e: i for i, e in enumerate(self.edge_list)}

    @cached_property
    def edge_faces(self):
        """Per edge (edge_list order): tuple of incident face ids."""
        return tuple(
            tuple(fi for fi, _ in self.edge_incidence[e]) for e in self.edge_list
        )

    @cached_property
    def vertex_faces(self):
        vf = [[] for _ in range(len(self.vertices))]
        for fi, face in enumerate(self.faces):
            for v in face:
                vf[v].append(fi)
        return tuple(tuple(f) for f in vf)

    # ------------------------------------------------------------------
    # geometry

    @cached_property
    def bbox_diagonal(self):
        if len(self.vertices) == 0:
            return 0.0
        return float(np.linalg.norm(np.ptp(self.vertices, axis=0)))

    @cached_property
    def _face_newell(self):
        """Unnormalized Newell normal per face (norm = 2 * area)."""
        out = np.zeros((len(self.faces), 3))
        for fi, face in enumerate(self.faces):
            # relative to one corner, so the sum does not cancel far from the origin
            p = self.vertices[list(face)] - self.vertices[face[0]]
            q = np.roll(p, -1, axis=0)
            out[fi] = np.cross(p, q).sum(axis=0)
        return out

    @cached_property
    def face_areas(self):
        return 0.5 * np.linalg.norm(self._face_newell, axis=1)

    @cached_property
    def face_normals(self):
        n = self._face_newell.copy()
        lens = np.linalg.norm(n, axis=1)
        ok = lens > 0
        n[ok] /= lens[ok, None]
        return n

    def face_plane_deviation(self, fi):
        """Max distance of the face's vertices to their best-fit plane."""
        p = self.vertices[list(self.faces[fi])]
        c = p.mean(axis=0)
        q = p - c
        # smallest right singular vector spans the plane normal
        _, _, vt = np.linalg.svd(q, full_matrices=False)
        return float(np.abs(q @ vt[-1]).max())

    def triangulate_face(self, fi, root_offset=0):
        """Triangulate one face into vertex-index triples.

        Strictly convex faces get a fan from the lowest-index vertex
        (rotatable via ``root_offset``); other faces, including convex ones
        with a straight corner, are ear-clipped, which stays inside the
        polygon and never clips a straight corner into a zero-area triangle.
        """
        face = self.faces[fi]
        k = len(face)
        if k == 3:
            return [tuple(face)]
        pts2 = self._project_face(fi)
        if _polygon_is_convex(pts2):
            root = (min(range(k), key=lambda i: face[i]) + root_offset) % k
            return [
                (face[root], face[(root + i) % k], face[(root + i + 1) % k])
                for i in range(1, k - 1)
            ]
        tris = _ear_clip(pts2, start=root_offset % k)
        return [(face[a], face[b], face[c]) for a, b, c in tris]

    def _project_face(self, fi):
        """Project a face into orthonormal in-plane coordinates (CCW)."""
        n = self.face_normals[fi]
        if not np.any(n):
            n = np.array([0.0, 0.0, 1.0])
        u, w = plane_basis(n)
        p = self.vertices[list(self.faces[fi])]
        rel = p - p[0]
        return np.column_stack([rel @ u, rel @ w])

    def triangulate(self, root_offset=0):
        """(T, 3) triangle index array covering all faces, plus provenance.

        Returns the pair (triangles, tri_face) where ``tri_face[t]`` is the
        source face of triangle t; ``root_offset`` as in :meth:`triangulate_face`.
        """
        per_face = [self.triangulate_face(fi, root_offset) for fi in range(len(self.faces))]
        tris = np.array([t for ts in per_face for t in ts], dtype=np.int64).reshape(-1, 3)
        return tris, np.repeat(np.arange(len(per_face)), [len(ts) for ts in per_face])

    @cached_property
    def triangles(self):
        """:meth:`triangulate` at root offset 0."""
        return self.triangulate()

    @cached_property
    def signed_volume(self):
        tris, _ = self.triangles
        p = self.vertices[tris]
        return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def midpoint_subdivide(vertices, triangles):
    """One uniform midpoint refinement: every triangle becomes four.

    Returns ``(vertices, triangles)``.  The old vertices keep their rows;
    each edge midpoint is appended once, numbered by first use over the
    triangles' (ab, bc, ca) edges in triangle order.  Triangle
    ``(a, b, c)`` becomes ``(a, ab, ca), (ab, b, bc), (ca, bc, c),
    (ab, bc, ca)`` in place, so the children of a triangle stay adjacent.
    """
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    ends = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = ends.min(axis=1) * len(v) + ends.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct edges in order of first use
    ab, bc, ca = (len(v) + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b, c = t.T
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    new = ends[first[order]]
    return np.vstack([v, 0.5 * (v[new[:, 0]] + v[new[:, 1]])]), children


def plane_basis(n):
    """Orthonormal in-plane axes (u, w) of the plane with unit normal n.

    (u, w, n) is right-handed, so a polygon counterclockwise about n stays
    counterclockwise in (u, w) coordinates.
    """
    # any vector not parallel to n
    h = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(h, n)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


# ----------------------------------------------------------------------
# 2D polygon helpers (used for triangulation)


def _polygon_is_convex(pts2):
    n = len(pts2)
    e = np.roll(pts2, -1, axis=0) - pts2
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    scale = float(np.abs(e).max()) ** 2 or 1.0
    tol = 1e-12 * scale
    if n < 4:
        return True
    return bool(np.all(cross > tol))


def _ear_clip(pts2, start=0):
    """Ear-clip a simple CCW polygon given as an (n, 2) array.

    Returns local index triples.  Falls back to a fan if no ear is found
    (degenerate input); such faces are flagged by validation anyway.
    """
    n = len(pts2)
    remaining = list(range(n))
    tris = []
    scale = float(np.abs(pts2).max()) or 1.0
    tol = 1e-12 * scale * scale
    guard = 0
    cursor = start % n
    while len(remaining) > 3 and guard < 2 * n * n:
        guard += 1
        m = len(remaining)
        found = False
        for probe in range(m):
            i = (cursor + probe) % m
            ia, ib, ic = (
                remaining[(i - 1) % m],
                remaining[i],
                remaining[(i + 1) % m],
            )
            a, b, c = pts2[ia], pts2[ib], pts2[ic]
            if _cross2(b - a, c - b) <= tol:
                continue  # reflex or collinear corner
            ear = True
            for other in remaining:
                if other in (ia, ib, ic):
                    continue
                if _point_in_triangle2(pts2[other], a, b, c, tol):
                    ear = False
                    break
            if ear:
                tris.append((ia, ib, ic))
                cursor = i % (m - 1)
                remaining.pop(i)
                found = True
                break
        if not found:
            break
    if len(remaining) == 3:
        tris.append(tuple(remaining))
    elif len(remaining) > 3:
        # degenerate polygon: fan so every vertex is still covered
        r0 = remaining[0]
        for i in range(1, len(remaining) - 1):
            tris.append((r0, remaining[i], remaining[i + 1]))
    return tris


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _point_in_triangle2(p, a, b, c, tol):
    d1 = _cross2(b - a, p - a)
    d2 = _cross2(c - b, p - b)
    d3 = _cross2(a - c, p - c)
    return d1 >= -tol and d2 >= -tol and d3 >= -tol


# ----------------------------------------------------------------------
# OFF I/O


def _off_tokens(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def parse_off(text):
    """Parse OFF text (a string or readable stream) into a surface.

    Accepts '#' comments and arbitrary whitespace.  Raises
    :class:`OffParseError` with a line number on malformed input.
    """
    if hasattr(text, "read"):
        text = text.read()
    toks = _off_tokens(text)
    last_line = [0]

    def take(what):
        try:
            tok, ln = next(toks)
        except StopIteration:
            raise OffParseError(
                "unexpected end of input while reading %s" % what, last_line[0]
            ) from None
        last_line[0] = ln
        return tok, ln

    tok, ln = take("header")
    if tok != "OFF":
        raise OffParseError("missing OFF header", ln)

    counts = []
    for what in ("vertex count", "face count", "edge count"):
        tok, ln = take(what)
        try:
            counts.append(int(tok))
        except ValueError:
            raise OffParseError("malformed %s %r" % (what, tok), ln) from None
    nv, nf, _ = counts
    if nv < 0 or nf < 0:
        raise OffParseError("negative count in header", ln)

    verts = np.empty((nv, 3))
    for i in range(nv):
        for j in range(3):
            tok, ln = take("vertex %d" % i)
            try:
                verts[i, j] = float(tok)
            except ValueError:
                raise OffParseError("malformed vertex coordinate %r" % tok, ln) from None

    faces = []
    for i in range(nf):
        tok, ln = take("face %d" % i)
        try:
            k = int(tok)
        except ValueError:
            raise OffParseError("malformed face vertex count %r" % tok, ln) from None
        if k < 3:
            raise OffParseError("face with fewer than 3 vertices", ln)
        cyc = []
        for _ in range(k):
            tok, ln = take("face %d" % i)
            try:
                idx = int(tok)
            except ValueError:
                raise OffParseError("malformed vertex index %r" % tok, ln) from None
            if not 0 <= idx < nv:
                raise OffParseError("index out of range", ln)
            if idx in cyc:
                raise OffParseError("duplicate vertex index in face", ln)
            cyc.append(idx)
        faces.append(tuple(cyc))

    try:
        tok, ln = next(toks)
    except StopIteration:
        pass
    else:
        raise OffParseError("unexpected trailing data %r" % tok, ln)

    return PolyhedralSurface(verts, faces)


def serialize_off(surface):
    """Serialize to OFF text; coordinates keep full round-trip precision."""
    lines = ["OFF"]
    lines.append(
        "%d %d %d" % (len(surface.vertices), len(surface.faces), len(surface.edge_list))
    )
    for p in surface.vertices:
        lines.append("%s %s %s" % (repr(float(p[0])), repr(float(p[1])), repr(float(p[2]))))
    for face in surface.faces:
        lines.append(" ".join([str(len(face))] + [str(i) for i in face]))
    return "\n".join(lines) + "\n"


def read_off(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_off(fh.read())


def write_off(path, surface):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_off(surface))


# ----------------------------------------------------------------------
# validation


def validate_surface(surface):
    """Check all standing invariants; violations come back as data.

    Kinds reported: ``edge_face_count``, ``orientation``,
    ``nonmanifold_vertex``, ``isolated_vertex``, ``disconnected``,
    ``nonplanar_face``, ``degenerate_face``, ``negative_volume``, and
    ``empty_surface`` (no faces and not even an isolated vertex).
    """
    violations = []
    inc = surface.edge_incidence

    closed = True
    oriented = True
    open_ends = set()
    for edge in surface.edge_list:
        faces_here = inc[edge]
        if len(faces_here) != 2:
            violations.append(Violation("edge_face_count", (edge[0], edge[1], len(faces_here))))
            closed = False
            open_ends.update(edge)
        else:
            (f0, fwd0), (f1, fwd1) = faces_here
            if fwd0 == fwd1:
                violations.append(Violation("orientation", edge))
                oriented = False

    # vertex links: only judged where the incident edges are already clean,
    # so an open boundary is not double-reported
    link_pieces = _vertex_link_pieces(surface)
    for v in range(len(surface.vertices)):
        if not surface.vertex_faces[v]:
            violations.append(Violation("isolated_vertex", (v,)))
        elif v not in open_ends and link_pieces[v] != 1:
            violations.append(Violation("nonmanifold_vertex", (v,)))

    # face-adjacency connectivity (via shared edges)
    nf = len(surface.faces)
    if not nf and not len(surface.vertices):
        violations.append(Violation("empty_surface", ()))
    if nf:
        joined = [(faces[0], f) for faces in surface.edge_faces for f in faces[1:]]
        rows, cols = np.array(joined, dtype=np.int64).reshape(-1, 2).T
        graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(nf, nf))
        components, _ = connected_components(graph, directed=False)
        if components != 1:
            violations.append(Violation("disconnected", (int(components),)))

    diag = surface.bbox_diagonal or 1.0
    planar_tol = PLANAR_REL_TOL * diag
    area_tol = DEGENERATE_AREA_REL_TOL * diag * diag
    for fi, face in enumerate(surface.faces):
        if surface.face_areas[fi] <= area_tol:
            violations.append(Violation("degenerate_face", (fi,)))
            continue
        if len(face) > 3:
            dev = surface.face_plane_deviation(fi)
            if dev > planar_tol:
                violations.append(Violation("nonplanar_face", (fi, dev)))

    if nf and closed and oriented and surface.signed_volume <= 0.0:
        violations.append(Violation("negative_volume", (surface.signed_volume,)))

    return MeshDiagnostics(
        vertex_count=len(surface.vertices),
        edge_count=len(surface.edge_list),
        face_count=len(surface.faces),
        euler_characteristic=len(surface.vertices) - len(surface.edge_list) + len(surface.faces),
        violations=violations,
    )


def _vertex_link_pieces(surface):
    """Per vertex, the number of connected pieces of its link.

    Link nodes are (vertex, incident edge) pairs and each face corner joins
    its two edges at that vertex.  Where every edge at the vertex has two
    faces, every node has degree 2, so one piece means one cycle.
    """
    eidx = surface.edge_index

    def node(v, w):  # numbered 2 * edge + (1 when v is the edge's larger end)
        return 2 * eidx[(v, w) if v < w else (w, v)] + (v > w)

    joined = [(node(v, face[i - 1]), node(v, face[(i + 1) % len(face)]))
              for face in surface.faces for i, v in enumerate(face)]
    rows, cols = np.array(joined, dtype=np.int64).reshape(-1, 2).T
    n = 2 * len(surface.edge_list)
    graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    piece_vertex = np.empty(count, dtype=np.int64)
    piece_vertex[labels] = np.array(surface.edge_list, dtype=np.int64).ravel()
    return np.bincount(piece_vertex, minlength=len(surface.vertices))
