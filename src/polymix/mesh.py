"""Polyhedral surfaces: OFF I/O, derived connectivity, and manifold validation.

A surface is a set of planar polygonal faces over shared vertices.  Validation
checks the standing hypotheses used everywhere else in the package: closed
(every edge has exactly two faces), 2-manifold at vertices (single link
cycle), connected face adjacency, planar faces, and a globally consistent
outward orientation with positive enclosed volume.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

# Planarity: a face is planar when every vertex lies within this fraction of
# the bounding-box diagonal of its best-fit plane.  Relative, so fixtures are
# scale-free.
PLANAR_REL_TOL = 1e-9

# A face is degenerate when its area is below this fraction of diag**2.
DEGENERATE_AREA_REL_TOL = 1e-14

# OFF coordinates must be finite and at most this large in magnitude, so
# that products of up to six coordinates (squared areas, volumes, squared
# norms of cross products) stay finite in double precision.
MAX_ABS_COORDINATE = 1e50


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


class SurfaceMemo(dict):
    """Per-surface data derived in modules that import this one.

    ``memo[compute]`` and ``memo[compute, *args]`` (hashable arguments) are
    ``compute(surface, *args)``, computed on first use and kept: a hit is a
    plain dict lookup.  A compute that raises stores nothing.  The value must
    be immutable (a number, a tuple, a read-only mapping, or an array that
    is not writeable).  The memo holds its surface weakly, so the pair is no
    reference cycle and a dropped surface is freed at once.
    """

    __slots__ = ("_surface",)

    def __init__(self, surface):
        super().__init__()
        self._surface = weakref.ref(surface)

    def __missing__(self, key):
        compute, *args = key if type(key) is tuple else (key,)
        value = self[key] = compute(self._surface(), *args)
        return value


class HalfEdges(NamedTuple):
    """A row per face corner, faces in order and corners in face order: row
    i walks face ``face[i]`` from ``tail[i]`` to its next vertex ``head[i]``
    along edge ``edge[i]``; ``ends[e]`` is edge e's sorted vertex pair."""

    tail: np.ndarray
    head: np.ndarray
    face: np.ndarray
    edge: np.ndarray
    ends: np.ndarray


class PolyhedralSurface:
    """Immutable polygonal surface with derived connectivity.

    Parameters
    ----------
    vertices : (V, 3) float array
        Vertex coordinates, finite and at most ``MAX_ABS_COORDINATE``.
    faces : sequence of index cycles
        Each face lists its (integer) vertex indices counterclockwise as
        seen from outside.  Faces need at least 3 distinct indices.

    Construction only checks indexing and coordinates; geometric and
    topological invariants are reported by :func:`validate_surface`.
    Instances are treated as immutable; derived quantities are cached on
    first use, mesh-level ones as cached properties and those computed in
    other modules in :attr:`memo`, a :class:`SurfaceMemo`:
    ``surface.memo[compute, *args]`` is ``compute(surface, *args)``.
    Triangulation projects each face of more than three vertices on its
    in-plane axes, cached for all such faces from one stacked pass.
    """

    def __init__(self, vertices, faces):
        verts = np.array(vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        if not (np.abs(verts) <= MAX_ABS_COORDINATE).all():
            raise MeshError("a coordinate is not finite or exceeds %g" % MAX_ABS_COORDINATE)
        verts.flags.writeable = False
        self.vertices = verts
        clean = []
        for fi, face in enumerate(faces):
            cyc = tuple(map(operator.index, face))  # TypeError for a float
            if len(cyc) < 3:
                raise MeshError("face %d has fewer than 3 vertices" % fi)
            if len(set(cyc)) != len(cyc):
                raise MeshError("face %d repeats a vertex index" % fi)
            for i in cyc:
                if not 0 <= i < len(verts):
                    raise MeshError("face %d: vertex index out of range" % fi)
            clean.append(cyc)
        self.faces = tuple(clean)
        self.memo = SurfaceMemo(self)

    # ------------------------------------------------------------------
    # derived connectivity

    @cached_property
    def half_edges(self):
        """The read-only :class:`HalfEdges` table that answers every edge
        question; edges are numbered by ``np.unique`` of ``min * V + max``."""
        tail, head = (np.fromiter(chain.from_iterable(f[s:] + f[:s] for f in self.faces), np.int64)
                      for s in (0, 1))
        face = np.repeat(np.arange(len(self.faces)), [len(f) for f in self.faces])
        nv = len(self.vertices)
        keys, edge = np.unique(np.minimum(tail, head) * nv + np.maximum(tail, head),
                               return_inverse=True)
        table = HalfEdges(tail, head, face, edge, np.stack([keys // nv, keys % nv], axis=1))
        for column in table:
            column.flags.writeable = False
        return table

    @cached_property
    def edge_list(self):
        """Per edge: its sorted vertex pair, a tuple of ints."""
        return tuple(map(tuple, self.half_edges.ends.tolist()))

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
    def _faces_by_size(self):
        """Per face size k: ``(k, ids, corners)``, the ids of the faces of
        k vertices and their (g, k) array of vertex indices."""
        sizes = np.array([len(face) for face in self.faces])
        groups = []
        for k in np.unique(sizes).tolist():
            ids = np.flatnonzero(sizes == k)
            groups.append((k, ids, np.array([self.faces[fi] for fi in ids.tolist()])))
        return tuple(groups)

    @cached_property
    def _face_newell(self):
        """(F, 3): the Newell normal of every face, twice its area vector,
        summed about the face's first corner so that it does not cancel far
        from the origin; one stacked pass per face size.  For a face that is
        not planar it is twice the area vector of the fan from that corner."""
        out = np.zeros((len(self.faces), 3))
        for _, ids, corners in self._faces_by_size:
            p = self.vertices[corners] - self.vertices[corners[:, :1]]
            out[ids] = _cross(p, np.concatenate([p[:, 1:], p[:, :1]], axis=1)).sum(axis=1)
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

    @cached_property
    def face_plane_deviations(self):
        """(F,) read-only: the largest distance of each face's vertices to
        their least-squares plane, 0 for a triangle.  One stacked SVD of the
        centred corners per face size above three; the smallest right
        singular vector spans the plane normal."""
        out = np.zeros(len(self.faces))
        for k, ids, corners in self._faces_by_size:
            if k > 3:
                p = self.vertices[corners]
                q = p - p.mean(axis=1, keepdims=True)
                _, _, vt = np.linalg.svd(q, full_matrices=False)
                out[ids] = np.abs(q @ vt[:, -1, :, None])[..., 0].max(axis=1)
        out.flags.writeable = False
        return out

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

    @cached_property
    def _face_axes(self):
        """(F, 2, 3): :func:`plane_basis` of the normal of every face with
        more than three vertices ((0, 0, 1) where the normal is zero), in
        one stacked pass; the rows of triangles are zero."""
        big = np.array([len(face) > 3 for face in self.faces], dtype=bool)
        n = self.face_normals[big]
        n[~n.any(axis=1)] = (0.0, 0.0, 1.0)
        axes = np.zeros((len(self.faces), 2, 3))
        axes[big, 0], axes[big, 1] = plane_basis(n)
        return axes

    def _project_face(self, fi):
        """A face of more than three vertices in orthonormal in-plane
        coordinates (CCW), as a list of (x, y) floats."""
        u, w = self._face_axes[fi]
        p = self.vertices[list(self.faces[fi])]
        rel = p - p[0]
        return list(zip((rel @ u).tolist(), (rel @ w).tolist()))

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
        """Enclosed volume, positive when the faces turn outward.

        By the divergence theorem, ``sum_f N_f . (p_f - o) / 6`` over the
        faces f, with ``N_f`` the Newell normal, ``p_f`` the face's first
        corner and ``o`` the first corner of face 0 (Goldman, "Area of
        planar polygons and volume of polyhedra", Graphics Gems II, 1991).
        Taken about a vertex of the surface, it does not cancel far from
        the origin.  0.0 for a surface with no faces.
        """
        if not self.faces:
            return 0.0
        first = self.vertices[[face[0] for face in self.faces]]
        return float(np.einsum("ij,ij->i", self._face_newell, first - first[0]).sum() / 6.0)


def midpoint_subdivide(vertices, triangles):
    """One uniform midpoint refinement: every triangle becomes four.

    Returns ``(vertices, triangles, parents)``.  The old vertices keep
    their rows; each edge midpoint is appended once, numbered by first use
    over the triangles' (ab, bc, ca) edges in triangle order, and row k of
    the (m, 2) array ``parents`` holds the ends of the edge whose midpoint
    is new vertex ``len(vertices) + k``.  Triangle
    ``(a, b, c)`` becomes ``(a, ab, ca), (ab, b, bc), (ca, bc, c),
    (ab, bc, ca)`` in place, so the children of a triangle stay adjacent.
    First use comes from one argsort of the edge keys over all 3T slots:
    an edge is first used at the least slot of its group of equal keys.
    """
    # Each array of 3T slots below costs a pass over fresh memory, so the
    # temporaries are few and updated in place.
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    nxt = t[:, [1, 2, 0]]  # slot (i, j) is the edge from t[i, j] to nxt[i, j]
    key = np.minimum(t, nxt)  # min * n + max, as min * (n - 1) + t + nxt
    key *= len(v) - 1
    key += t
    key += nxt
    key = key.ravel()
    order = np.argsort(key)
    sorted_key = key[order]
    start = np.empty(len(key), dtype=bool)  # sorted slot i opens a group of equal keys
    start[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=start[1:])
    group = np.cumsum(start)
    group -= 1
    first = np.full(np.count_nonzero(start), len(key))
    np.minimum.at(first, group, order)  # each edge's least slot: its first use
    is_first = np.zeros(len(key), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first)[first]  # 1 + the edge's rank by first use
    rank += len(v) - 1
    mid = np.empty(len(key), dtype=np.int64)
    mid[order] = rank[group]
    # columns a, b, c, ab, bc, ca, taken row by row into the four children
    children = np.concatenate([t, mid.reshape(-1, 3)], axis=1)
    children = children.take([0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5], axis=1).reshape(-1, 3)
    slots = np.flatnonzero(is_first)
    p, q = t.take(slots), nxt.take(slots)
    out = np.empty((len(v) + len(slots), 3))
    out[:len(v)] = v
    mids = out[len(v):]
    for k in range(3):  # gathers from one contiguous coordinate column, not (V, 3) rows
        x = v[:, k].copy()
        np.add(x.take(p), x.take(q), out=mids[:, k])
    mids *= 0.5
    return out, children, np.stack([p, q], axis=1)


def undirected_components(n, rows, cols):
    """``connected_components`` of the undirected graph on ``n`` nodes with
    edges ``(rows[k], cols[k])``, numbered in order of their least node.

    The graph goes to scipy as canonical symmetric CSR (both directions,
    indices sorted, no duplicates), whose strong components are the
    undirected ones without the transpose ``directed=False`` forms.  The
    keys ``row * n + col`` are deduplicated by one ``sort`` and a comparison
    of neighbours.  The deduplication is required: with scipy 1.17.1,
    strong components of a CSR with duplicate entries, sorted or not, came
    back wrong (7 components and labels up to 39 for a connected 40-node
    multigraph) or never.  Labels are in least-node order exactly when
    ``labels[0] == 0`` and each label is at most one more than the largest
    before it, an O(n) test on their running maximum; scipy's labels are
    renumbered only when it fails.

    Numbered so, the components of a disjoint union G1 + G2, G2's nodes
    after G1's, are ``(c1 + c2, concat(l1, l2 + c1))``: graphs on disjoint
    node ranges can share one call.
    """
    key = np.concatenate([rows * n + cols, cols * n + rows])
    key.sort()
    fresh = np.empty(len(key), dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    graph = sparse.csr_array((np.ones(len(key)), key % n, indptr), shape=(n, n))
    count, labels = connected_components(graph, directed=True, connection="strong")
    top = np.maximum.accumulate(labels)
    if len(labels) and (top[0] != 0 or (top[1:] - top[:-1] > 1).any()):
        labels = _least_node_order(count, labels)
    return count, labels


def _least_node_order(count, labels):
    """Component labels renumbered 0, 1, ... in order of their least node."""
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=labels.dtype)
    rank[np.argsort(first)] = np.arange(count)
    return rank[labels]


def plane_basis(n):
    """Orthonormal in-plane axes (u, w) of the planes with unit normals n,
    a 3-vector or an (..., 3) array of them.

    (u, w, n) is right-handed, so a polygon counterclockwise about n stays
    counterclockwise in (u, w) coordinates.
    """
    # any vector not parallel to n
    h = np.where(np.abs(n[..., :1]) < 0.9, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    u = _cross(h, n)
    # rounds as np.linalg.norm of each 3-vector; norm(axis=-1) may not
    u /= np.sqrt(u[..., None, :] @ u[..., :, None])[..., 0]
    return u, _cross(n, u)


def _cross(a, b):
    """``np.cross(a, b)`` of 3-vectors or broadcastable (..., 3) arrays, bit
    for bit: the same products and differences, without its per-call
    argument handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


# ----------------------------------------------------------------------
# 2D polygon helpers (used for triangulation)


def _polygon_is_convex(pts2):
    """Strict convexity of a polygon of four or more (x, y) floats."""
    # the polygon helpers take Python floats, which round each operation as
    # float64 does: a loop over a few corners costs less than numpy calls
    e = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts2, pts2[1:] + pts2[:1])]
    scale = max(abs(c) for d in e for c in d) ** 2 or 1.0
    tol = 1e-12 * scale
    return all(ex * fy - ey * fx > tol for (ex, ey), (fx, fy) in zip(e, e[1:] + e[:1]))


def _ear_clip(pts2, start=0):
    """Ear-clip a simple CCW polygon given as a list of (x, y) floats.

    Returns local index triples.  Falls back to a fan if no ear is found
    (degenerate input); such faces are flagged by validation anyway.
    """
    n = len(pts2)
    remaining = list(range(n))
    tris = []
    scale = max(abs(c) for p in pts2 for c in p) or 1.0
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
            if _cross2(a, b, b, c) <= tol:
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


def _cross2(a, b, c, d):
    """z component of (b - a) x (d - c)."""
    return (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])


def _point_in_triangle2(p, a, b, c, tol):
    return (_cross2(a, b, a, p) >= -tol and _cross2(b, c, b, p) >= -tol
            and _cross2(c, a, c, p) >= -tol)


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
    :class:`OffParseError` with a line number on malformed input, including
    a coordinate that is not finite or exceeds ``MAX_ABS_COORDINATE``.
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
                x = float(tok)
            except ValueError:
                raise OffParseError("malformed vertex coordinate %r" % tok, ln) from None
            if not abs(x) <= MAX_ABS_COORDINATE:
                raise OffParseError("vertex coordinate %r is not finite or exceeds %g in magnitude"
                                    % (tok, MAX_ABS_COORDINATE), ln)
            verts[i, j] = x

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

    No face is triangulated: areas and the volume come from the cached
    Newell normals, plane deviations from one stacked SVD per face size.
    """
    violations = []
    h = surface.half_edges
    nv, ne, nf = len(surface.vertices), len(h.ends), len(surface.faces)
    uses = np.bincount(h.edge, minlength=ne)
    forward = np.bincount(h.edge[h.tail < h.head], minlength=ne)
    # an edge of two faces is oriented when exactly one walks it forward
    unclean = (uses != 2) | (forward != 1)
    for e in np.flatnonzero(unclean).tolist():
        a, b = surface.edge_list[e]
        violations.append(Violation("edge_face_count", (a, b, int(uses[e]))) if uses[e] != 2
                          else Violation("orientation", (a, b)))

    # vertex links: only judged where the incident edges are already clean,
    # so an open boundary is not double-reported
    link_pieces, face_components = _connectivity(surface)
    isolated = np.bincount(h.tail, minlength=nv) == 0
    open_end = np.zeros(nv, dtype=bool)
    open_end[h.ends[uses != 2]] = True
    for v in np.flatnonzero(isolated | (~open_end & (link_pieces != 1))).tolist():
        violations.append(Violation("isolated_vertex" if isolated[v] else "nonmanifold_vertex",
                                    (v,)))

    # face-adjacency connectivity (via shared edges)
    if not nf and not nv:
        violations.append(Violation("empty_surface", ()))
    if nf and face_components != 1:
        violations.append(Violation("disconnected", (face_components,)))

    diag = surface.bbox_diagonal or 1.0
    planar_tol = PLANAR_REL_TOL * diag
    area_tol = DEGENERATE_AREA_REL_TOL * diag * diag
    # a degenerate face is not also judged for planarity
    degenerate = surface.face_areas <= area_tol
    deviations = surface.face_plane_deviations
    for fi in np.flatnonzero(degenerate | (deviations > planar_tol)).tolist():
        violations.append(Violation("degenerate_face", (fi,)) if degenerate[fi]
                          else Violation("nonplanar_face", (fi, float(deviations[fi]))))

    if nf and not unclean.any() and surface.signed_volume <= 0.0:
        violations.append(Violation("negative_volume", (surface.signed_volume,)))

    return MeshDiagnostics(nv, ne, nf, nv - ne + nf, violations)


def _connectivity(surface):
    """Per vertex, the number of connected pieces of its link; and the
    number of components of the face adjacency (faces joined across shared
    edges).

    Link nodes are (vertex, incident edge) pairs, numbered ``2 * edge + (1
    at the edge's larger end)``, and each face corner joins the edges its
    face arrives and leaves by.  Where every edge at the vertex has two
    faces, every node has degree 2, so one piece means one cycle.  Both
    graphs go to one :func:`undirected_components` call as one
    block-diagonal graph, the face nodes after the 2E link nodes; its
    labels are in least-node order, so the link pieces come first and the
    first face's label is their count.
    """
    h = surface.half_edges
    nv, nf, nodes = len(surface.vertices), len(surface.faces), 2 * len(h.ends)
    size = np.bincount(h.face, minlength=nf)
    first = np.cumsum(size) - size
    after = np.arange(1, len(h.face) + 1)  # the row of the next corner in each face
    after[first + size - 1] = first
    back = h.tail > h.head
    leaves, arrives = 2 * h.edge + back, 2 * h.edge + ~back  # link nodes at tail and head
    order = np.argsort(h.edge)  # faces that use one edge are joined in a chain
    face = h.face[order] + nodes
    shared = h.edge[order][1:] == h.edge[order][:-1]
    count, labels = undirected_components(
        nodes + nf, np.concatenate([arrives, face[:-1][shared]]),
        np.concatenate([leaves[after], face[1:][shared]]))
    pieces = int(labels[nodes]) if nf else count
    piece_vertex = np.empty(pieces, dtype=np.int64)
    piece_vertex[labels[:nodes]] = h.ends.ravel()
    return np.bincount(piece_vertex, minlength=nv), count - pieces
