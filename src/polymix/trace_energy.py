"""Discrete extension seminorm: minimize piecewise-linear surface Dirichlet
energy over all extensions of boundary data given on the Dirichlet faces.

The surface is fan/ear triangulated and refined L times by the array
kernel :func:`polymix.mesh.midpoint_subdivide`; which base faces touch each
refined vertex is one sparse (vertices x faces) incidence matrix, so the
Dirichlet vertices come from one matrix-vector product.  The
cotangent-weight quadratic form is minimized over the free vertices with
conjugate gradients.  By default every vertex of the closed
Dirichlet region is pinned to the data (any finite-energy extension that
matches f on an open face matches it on the closure); the relaxed variant
that leaves shared Dirichlet/Neumann edge vertices free is available via
``closure=False`` and converges to the same limit, only slower.
Refinement studies classify the energy sequence as CONVERGENT (settled
within 1%) or DIVERGENT (monotone growth that keeps adding a solid share
of the median increment, the discrete signature of data with no
finite-energy extension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg

from .mesh import PolyhedralSurface, midpoint_subdivide

SOLVER_RTOL = 1e-10

CONVERGENT_REL_CHANGE = 0.01
DIVERGENT_LAST_INCREMENT_SHARE = 0.5


class EnergySolveError(RuntimeError):
    pass


@dataclass
class RefinedSurface:
    """Triangulated, L-times midpoint-refined surface with provenance.

    ``tri_face[t]`` is the base face of refined triangle t.  ``vertex_faces``
    is the boolean (V, F) CSR incidence built from it, indices sorted in
    each row: row i marks the base faces whose closed facet contains
    refined vertex i, so edge and corner vertices carry every touching face.
    """

    base: PolyhedralSurface
    level: int
    fan_offset: int
    vertices: np.ndarray
    triangles: np.ndarray
    tri_face: np.ndarray
    vertex_faces: sparse.csr_matrix

    @property
    def vertex_count(self):
        return len(self.vertices)


def refine(base, level, fan_offset=0):
    """Fan/ear triangulate every face, then refine `level` times."""
    if level < 0:
        raise ValueError("level must be >= 0")
    verts = np.asarray(base.vertices, dtype=float)
    tris, tri_face = base.triangulate(fan_offset)
    for _ in range(int(level)):
        verts, tris = midpoint_subdivide(verts, tris)
    tri_face = np.repeat(tri_face, 4 ** int(level))
    incidence = sparse.csr_matrix(
        (np.ones(tris.size, dtype=bool), (tris.ravel(), np.repeat(tri_face, 3))),
        shape=(len(verts), len(base.faces)),
    )
    return RefinedSurface(
        base=base,
        level=int(level),
        fan_offset=int(fan_offset),
        vertices=verts,
        triangles=tris,
        tri_face=tri_face,
        vertex_faces=incidence,
    )


# ----------------------------------------------------------------------
# trace data


@dataclass(frozen=True)
class TraceData:
    """Boundary data on the Dirichlet faces.

    kind 'coordinate': the x, y or z coordinate sampled at D vertices.
    kind 'face_constants': one constant per D face; where two D faces
    share an edge with different constants the lowest-index face wins
    (a genuine jump inside D cannot be represented by vertex values).
    """

    kind: str
    axis: str | None = None
    constants: tuple | None = None

    @classmethod
    def coordinate(cls, axis):
        if axis not in ("x", "y", "z"):
            raise ValueError("axis must be one of x, y, z")
        return cls(kind="coordinate", axis=axis)

    @classmethod
    def face_constants(cls, mapping):
        items = tuple(sorted((int(f), float(v)) for f, v in dict(mapping).items()))
        return cls(kind="face_constants", constants=items)


def constrained_vertices(refined, partition, data, closure=True):
    """Indices and values of the vertices pinned by the Dirichlet data.

    With ``closure=True`` (default) every vertex of the closed Dirichlet
    region is pinned: any finite-energy extension that matches f on an
    open face matches it on the face closure too, so this is the faithful
    discretization of the extension constraint and it converges in few
    refinement levels.  With ``closure=False`` only vertices all of whose
    base faces are Dirichlet are pinned (vertices on shared D/N edges stay
    free, mirroring that the Neumann region is a union of closed faces);
    the relaxed minimum converges to the same limit but far more slowly.
    """
    labels = partition.labels
    if len(labels) != len(refined.base.faces):
        raise ValueError("partition does not match the base surface")
    incidence = refined.vertex_faces
    is_d = np.array([label == "D" for label in labels], dtype=bool)
    d_count = incidence @ is_d.astype(np.int64)
    faces_here = incidence.getnnz(axis=1)
    pinned = d_count > 0 if closure else (d_count == faces_here) & (faces_here > 0)
    idx = np.flatnonzero(pinned)
    if data.kind == "coordinate":
        return idx, refined.vertices[idx, ("x", "y", "z").index(data.axis)]
    # each pinned vertex takes the constant of its least-index D face that has one
    table = dict(data.constants)
    supplied = np.flatnonzero([l == "D" and f in table for f, l in enumerate(labels)])
    rows = incidence[idx][:, supplied]
    rows.sort_indices()  # the least supplied face comes first in each row
    bare = np.flatnonzero(np.diff(rows.indptr) == 0)
    if len(bare):
        faces = incidence[idx[bare[0]]].indices
        raise ValueError("no constant supplied for Dirichlet faces %r"
                         % (faces[is_d[faces]].tolist(),))
    values = np.array([table[f] for f in supplied.tolist()], dtype=float)
    return idx, values[rows.indices[rows.indptr[:-1]]]


# ----------------------------------------------------------------------
# assembly


def cotan_stiffness(vertices, triangles):
    """Cotangent-weight stiffness matrix of the PL surface Dirichlet energy.

    E(u) = u^T K u equals the integral of |grad_t u|^2 over the triangulated
    surface.  Negative weights from obtuse triangles are kept; the form
    stays positive semi-definite with constants as kernel.
    """
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    i0, i1, i2 = t[:, 0], t[:, 1], t[:, 2]
    e0 = v[i2] - v[i1]  # opposite vertex 0
    e1 = v[i0] - v[i2]
    e2 = v[i1] - v[i0]
    # cot of the angle at vertex k = (e_a . e_b) / |e_a x e_b| for the two
    # edge vectors leaving k
    def cot(a, b):
        dot = np.einsum("ij,ij->i", a, b)
        crs = np.linalg.norm(np.cross(a, b), axis=1)
        return dot / np.maximum(crs, 1e-300)

    cot0 = cot(-e1, e2)   # angle at vertex 0, edges to v2 and v1
    cot1 = cot(-e2, e0)
    cot2 = cot(-e0, e1)
    # each triangle contributes (1/2) cot(angle opposite edge) (du_edge)^2
    rows = np.concatenate([i1, i2, i2, i0, i0, i1])
    cols = np.concatenate([i2, i1, i0, i2, i1, i0])
    w0 = 0.5 * cot0
    w1 = 0.5 * cot1
    w2 = 0.5 * cot2
    off = np.concatenate([-w0, -w0, -w1, -w1, -w2, -w2])
    n = len(v)
    k = sparse.coo_matrix((off, (rows, cols)), shape=(n, n))
    k = (k + k.T) * 0.5  # symmetrize exactly
    k = k.tocsr()
    k.setdiag(-np.asarray(k.sum(axis=1)).ravel())
    return k.tocsr()


def lumped_mass(vertices, triangles):
    """Diagonal (barycentric lumped) mass vector: one third of incident area."""
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    areas = 0.5 * np.linalg.norm(
        np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]), axis=1
    )
    m = np.zeros(len(v))
    for k in range(3):
        np.add.at(m, t[:, k], areas / 3.0)
    return m


def _free_components_without_anchor(matrix, free_mask):
    """Connected components of the free vertex graph with no pinned neighbor.

    Stored entries are edges, explicit zeros included.  Returns one sorted
    index array per unanchored component, ordered by least member.
    """
    free = np.flatnonzero(free_mask)
    rows = matrix[free]
    count, comp = connected_components(rows[:, free], directed=False)
    anchored = np.zeros(count, dtype=bool)
    anchored[comp[rows[:, ~free_mask].getnnz(axis=1) > 0]] = True
    return [free[comp == c] for c in np.flatnonzero(~anchored)]


def solve_constrained(matrix, fixed_idx, fixed_vals, rtol=SOLVER_RTOL):
    """Minimize u^T A u with some entries of u pinned; CG on the free block.

    Returns (u, iterations, relative_residual, pinned_components): free
    components that touch no pinned vertex have a constant nullspace and
    are pinned to zero (equivalently, mean-subtracted).
    """
    n = matrix.shape[0]
    u = np.zeros(n)
    fixed_mask = np.zeros(n, dtype=bool)
    fixed_mask[fixed_idx] = True
    u[fixed_idx] = fixed_vals
    free_mask = ~fixed_mask

    unanchored = _free_components_without_anchor(matrix, free_mask)
    for members in unanchored:
        free_mask[members] = False  # value stays 0; constant kernel pinned
    free = np.flatnonzero(free_mask)
    if len(free) == 0:
        return u, 0, 0.0, len(unanchored)

    a_ff = matrix[free][:, free].tocsr()
    b = -matrix[free][:, np.flatnonzero(~free_mask)] @ u[np.flatnonzero(~free_mask)]
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = cg(a_ff, b, rtol=rtol, atol=0.0, maxiter=20 * n + 200, callback=count)
    bnorm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(b - a_ff @ x)) / bnorm if bnorm > 0 else 0.0
    if info != 0:
        raise EnergySolveError(
            "conjugate gradients did not converge (info=%d, residual=%.3e)" % (info, resid)
        )
    u[free] = x
    return u, iterations, resid, len(unanchored)


@dataclass
class ExtensionResult:
    energy: float
    values: np.ndarray
    iterations: int
    residual: float
    pinned_components: int
    constrained_count: int

    @property
    def vertex_count(self):
        return len(self.values)


def minimal_extension_energy(refined, partition, data, rtol=SOLVER_RTOL, closure=True):
    """Least PL Dirichlet energy over extensions of the Dirichlet data."""
    stiff = cotan_stiffness(refined.vertices, refined.triangles)
    idx, vals = constrained_vertices(refined, partition, data, closure=closure)
    u, iters, resid, pinned = solve_constrained(stiff, idx, vals, rtol=rtol)
    energy = float(u @ (stiff @ u))
    return ExtensionResult(
        energy=max(energy, 0.0),
        values=u,
        iterations=iters,
        residual=resid,
        pinned_components=pinned,
        constrained_count=len(idx),
    )


@dataclass
class NormResult:
    value: float
    gradient_part: float
    mass_part: float
    values: np.ndarray
    iterations: int
    residual: float


def full_restriction_norm(refined, partition, data, rtol=SOLVER_RTOL, closure=True):
    """Minimize the full restriction norm: mass term plus Dirichlet energy."""
    stiff = cotan_stiffness(refined.vertices, refined.triangles)
    mass = sparse.diags(lumped_mass(refined.vertices, refined.triangles)).tocsr()
    idx, vals = constrained_vertices(refined, partition, data, closure=closure)
    u, iters, resid, _ = solve_constrained((stiff + mass).tocsr(), idx, vals, rtol=rtol)
    grad_part = float(u @ (stiff @ u))
    mass_part = float(u @ (mass @ u))
    return NormResult(
        value=max(grad_part, 0.0) + mass_part,
        gradient_part=max(grad_part, 0.0),
        mass_part=mass_part,
        values=u,
        iterations=iters,
        residual=resid,
    )


# ----------------------------------------------------------------------
# refinement studies


CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
UNDECIDED = "UNDECIDED"


@dataclass
class EnergyReport:
    levels: tuple
    energies: tuple
    vertex_counts: tuple
    iterations: tuple
    residuals: tuple
    classification: str

    def csv_rows(self):
        return [
            (l, v, e, self.classification)
            for l, v, e in zip(self.levels, self.vertex_counts, self.energies)
        ]

    def to_json_dict(self):
        return {
            "levels": list(self.levels),
            "energies": list(self.energies),
            "vertex_counts": list(self.vertex_counts),
            "iterations": list(self.iterations),
            "residuals": list(self.residuals),
            "classification": self.classification,
        }


def classify_energies(energies):
    """CONVERGENT on a settled tail, DIVERGENT on sustained monotone growth."""
    e = list(energies)
    if len(e) < 2:
        return UNDECIDED
    last, prev = e[-1], e[-2]
    scale = max(abs(last), 1e-300)
    if abs(last - prev) / scale < CONVERGENT_REL_CHANGE:
        return CONVERGENT
    inc = [b - a for a, b in zip(e, e[1:])]
    if all(d > 0 for d in inc):
        median = sorted(inc)[len(inc) // 2]
        if inc[-1] >= DIVERGENT_LAST_INCREMENT_SHARE * median:
            return DIVERGENT
    return UNDECIDED


def refinement_study(base, partition, data, levels, fan_offset=0, closure=True):
    """Run the minimal extension energy across refinement levels."""
    levels = [int(l) for l in levels]
    energies = []
    counts = []
    iters = []
    resids = []
    for level in levels:
        rs = refine(base, level, fan_offset=fan_offset)
        res = minimal_extension_energy(rs, partition, data, closure=closure)
        energies.append(res.energy)
        counts.append(rs.vertex_count)
        iters.append(res.iterations)
        resids.append(res.residual)
    return EnergyReport(
        levels=tuple(levels),
        energies=tuple(energies),
        vertex_counts=tuple(counts),
        iterations=tuple(iters),
        residuals=tuple(resids),
        classification=classify_energies(energies),
    )


def export_off_with_scalars(refined, values):
    """OFF-with-scalars text: one extra value appended to each vertex line."""
    vals = np.asarray(values, dtype=float)
    if len(vals) != refined.vertex_count:
        raise ValueError("need one scalar per refined vertex")
    lines = ["OFF"]
    lines.append("%d %d 0" % (refined.vertex_count, len(refined.triangles)))
    for p, s in zip(refined.vertices, vals):
        lines.append("%s %s %s %s" % (repr(float(p[0])), repr(float(p[1])),
                                      repr(float(p[2])), repr(float(s))))
    for a, b, c in refined.triangles:
        lines.append("3 %d %d %d" % (a, b, c))
    return "\n".join(lines) + "\n"
