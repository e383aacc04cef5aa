"""Discrete extension seminorm: minimize piecewise-linear surface Dirichlet
energy over all extensions of boundary data given on the Dirichlet faces.

The surface is fan/ear triangulated once and refined by a chain of array
midpoint subdivisions (:func:`polymix.mesh.midpoint_subdivide`), each level
made from the last and carrying its parent edges, its corner cotangents
(gathered from the base triangles, see :class:`RefinedSurface`) and the
sparse (vertices x faces) incidence of base faces, so the Dirichlet
vertices come from one matrix-vector product.  The cotangent-weight
quadratic form is minimized over the free vertices with conjugate gradients
preconditioned by one symmetric V-cycle over the nested midpoint levels
(damped Jacobi smoothing, an exact solve on the base level), so iteration
counts stay nearly flat as the levels grow (plain CG doubles them at every
level).  Each level's own stiffness is its coarse operator (the P1 spaces
are nested, so it equals the Galerkin product), and a refinement study
builds each level's share of the cycle once, for all finer solves.  By
default every vertex of the closed Dirichlet region is pinned to the data
(any finite-energy extension that matches f on an open face matches it on
the closure); the relaxed variant that leaves shared Dirichlet/Neumann
edge vertices free is available via ``closure=False`` and converges to the
same limit, only slower.
Only the seminorm is computed: truncating an extension to [min f, max f]
does not raise its gradient energy and leaves a mass term of at most
max |f|^2 area, so the full restriction norm is finite exactly when the
seminorm is.
Refinement studies classify the energy sequence as CONVERGENT (settled
within 1%) or DIVERGENT (monotone growth that keeps adding a solid share
of the median increment, the discrete signature of data with no
finite-energy extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, cg

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
    ``parents[l]`` is the (m, 2) array of edge ends from which refinement
    step l + 1 appended its m midpoints; old vertices keep their indices,
    so level l is the first ``vertex_count - sum(len(p) for p in
    parents[l:])`` vertices.  ``cotangents[t, k]`` (read-only) is the cotangent
    of triangle t's angle at corner k, computed from coordinates at level 0
    only: children ``(a, ab, ca)``, ``(ab, b, bc)`` and ``(ca, bc, c)`` keep
    their parent's angles ``(A, B, C)``, the middle ``(ab, bc, ca)`` has ``(C, A, B)``.
    ``operators`` caches the multilevel solver's levels by level number
    (see :meth:`cycle_levels`); every level of one refinement chain holds
    the same dict, so a finer solve reuses what a coarser one built.
    """

    base: PolyhedralSurface
    level: int
    fan_offset: int
    vertices: np.ndarray
    triangles: np.ndarray
    tri_face: np.ndarray
    vertex_faces: sparse.csr_matrix
    parents: tuple
    cotangents: np.ndarray
    operators: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def vertex_count(self):
        return len(self.vertices)

    def level_size(self, level):
        """n_l, the vertex count of level ``level`` of the chain."""
        return self.vertex_count - sum(len(p) for p in self.parents[level:])

    def operator(self, level):
        """Level ``level``'s stiffness, gathered from this level.

        Level l is the first n_l vertices; its triangle t is ``(T[s t, 0],
        T[s t + (s - 1) / 3, 1], T[s t + 2 (s - 1) / 3, 2])`` of this level's
        triangles T with ``s = 4^(L - l)``, and its cotangents are rows ``s t``
        of this level's (corner children keep their parent's corners and
        angles), so a level is assembled with the same bits as in the chain,
        and without a cross product.
        """
        s = 4 ** (self.level - level)
        tris, skip = self.triangles, (s - 1) // 3
        tris = np.column_stack([tris[::s, 0], tris[skip::s, 1], tris[2 * skip::s, 2]])
        return cotan_stiffness(self.vertices[:self.level_size(level)], tris, self.cotangents[::s])

    def cycle_levels(self, free_mask, a_ff):
        """Levels L, L - 1, ..., 0 of the V-cycle for this level's free block.

        Level L is built from ``a_ff``.  A coarser level's free set is the
        prefix of ``free_mask``; it is taken from ``operators`` when the
        cached free set is the same, else assembled with :meth:`operator`.
        """
        if len(free_mask) != self.vertex_count:
            raise ValueError("levels of a %d-vertex surface do not fit a matrix of order %d"
                             % (self.vertex_count, len(free_mask)))
        levels = []
        for level in range(self.level, -1, -1):
            mask = free_mask[:self.level_size(level)]
            cached = self.operators.get(level)
            if level == self.level or cached is None or not np.array_equal(cached.free_mask, mask):
                block = a_ff if level == self.level else _free_blocks(self.operator(level), mask)[2]
                cached = self.operators[level] = _build_level(
                    block, mask, self.parents[level - 1] if level else None)
            levels.append(cached)
        return levels


def _refinement_chain(base, fan_offset):
    """Yield levels 0, 1, 2, ... of `base`, each one subdivision of the last."""
    verts = np.asarray(base.vertices, dtype=float)
    tris, tri_face = base.triangulate(fan_offset)
    incidence = sparse.csr_matrix(
        (np.ones(tris.size, dtype=bool), (tris.ravel(), np.repeat(tri_face, 3))),
        shape=(len(verts), len(base.faces)),
    )
    cot, parents, operators = corner_cotangents(verts, tris), (), {}
    while True:
        cot.flags.writeable = False
        yield RefinedSurface(base=base, level=len(parents), fan_offset=int(fan_offset),
                             vertices=verts, triangles=tris, tri_face=tri_face,
                             vertex_faces=incidence, parents=parents, cotangents=cot,
                             operators=operators)
        verts, tris, new = midpoint_subdivide(verts, tris)
        # a new vertex touches just the parents that have its edge: their middle children
        mid = tris[3::4].ravel() - incidence.shape[0]
        rows = sparse.csr_matrix((np.ones(mid.size, dtype=bool), (mid, np.repeat(tri_face, 3))),
                                 shape=(len(new), len(base.faces)))
        incidence = sparse.vstack([incidence, rows], format="csr")
        tri_face = np.repeat(tri_face, 4)
        cot = cot[:, [0, 1, 2, 0, 1, 2, 0, 1, 2, 2, 0, 1]].reshape(-1, 3)  # children's angles
        parents += (new,)


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
        for f, v in items:
            if not np.isfinite(v):
                raise ValueError("the constant of face %d is not finite: %r" % (f, v))
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


def corner_cotangents(vertices, triangles):
    """(T, 3) cotangents of every triangle's angles at corners 0, 1 and 2."""
    v = np.asarray(vertices, dtype=float)
    i0, i1, i2 = np.asarray(triangles, dtype=np.int64).T
    e0, e1, e2 = v[i2] - v[i1], v[i0] - v[i2], v[i1] - v[i0]  # e_k is opposite vertex k
    # cot of the angle at vertex k = (e_a . e_b) / |e_a x e_b| for the two
    # edge vectors leaving k
    def cot(a, b):
        dot = np.einsum("ij,ij->i", a, b)
        crs = np.linalg.norm(np.cross(a, b), axis=1)
        return dot / np.maximum(crs, 1e-300)

    return np.column_stack([cot(-e1, e2), cot(-e2, e0), cot(-e0, e1)])


def cotan_stiffness(vertices, triangles, cotangents=None):
    """Cotangent-weight stiffness matrix of the PL surface Dirichlet energy.

    E(u) = u^T K u equals the integral of |grad_t u|^2 over the triangulated
    surface.  Negative weights from obtuse triangles are kept; the form
    stays positive semi-definite with constants as kernel.  ``cotangents``
    defaults to :func:`corner_cotangents`; a refined surface carries its own.
    """
    t = np.asarray(triangles, dtype=np.int64)
    if cotangents is None:
        cotangents = corner_cotangents(vertices, t)
    n = len(vertices)
    # each triangle contributes (1/2) cot(angle opposite edge) (du_edge)^2;
    # the triplets are built in the CSR index type, so none is copied to it
    corners = t.T.astype(np.int32 if n < 2 ** 31 else np.int64)
    rows = corners[[1, 2, 2, 0, 0, 1]].ravel()
    cols = corners[[2, 1, 0, 2, 1, 0]].ravel()
    off = np.repeat(-0.5 * cotangents.T, 2, axis=0).ravel()
    # the triplets come in symmetric pairs, so the duplicate sums that the
    # CSR conversion makes are exact; exact zeros (right angles) are not stored
    k = sparse.csr_matrix((off, (rows, cols)), shape=(n, n))
    k.eliminate_zeros()
    # minus each row's sum on the diagonal: the np.add.reduceat that scipy's
    # row sum runs, added as a diagonal CSR matrix (an exact zero stays out)
    filled = np.flatnonzero(np.diff(k.indptr))
    diagonal = np.zeros(n)
    diagonal[filled] = -np.add.reduceat(k.data, k.indptr[filled])
    at = np.arange(n + 1, dtype=k.indptr.dtype)
    return k + sparse.csr_matrix((diagonal, at[:-1], at), shape=(n, n))


def _free_blocks(matrix, free_mask):
    """``(free, fixed, a_ff, a_fc)``: the free and the pinned indices and
    the free rows' free and pinned columns of a CSR matrix, cut from one
    row slice."""
    free, fixed = np.flatnonzero(free_mask), np.flatnonzero(~free_mask)
    rows = matrix[free]
    return free, fixed, rows[:, free], rows[:, fixed]


def _free_components_without_anchor(blocks):
    """Connected components of the free vertex graph with no pinned neighbor.

    ``blocks`` is :func:`_free_blocks`.  Stored entries are edges, explicit
    zeros included.  Returns one sorted index array per unanchored
    component, ordered by least member.
    """
    free, _, a_ff, a_fc = blocks
    count, comp = connected_components(a_ff, directed=False)
    anchored = np.zeros(count, dtype=bool)
    anchored[comp[a_fc.getnnz(axis=1) > 0]] = True
    return [free[comp == c] for c in np.flatnonzero(~anchored)]


def _prolongation(ends, free_mask):
    """CSR prolongation from one level's free vertices to the next level's.

    ``ends`` is the (m, 2) array of parent edges of the refinement step and
    ``free_mask`` the finer level's free mask; the coarser free set is its
    first ``len(free_mask) - m`` entries.  An old vertex copies its value, a
    midpoint takes half of each free end (a pinned end has no column).
    Rows are the finer free vertices in order.
    """
    n = len(free_mask) - len(ends)
    column = np.cumsum(free_mask[:n]) - 1
    old = int(column[-1]) + 1 if n else 0
    column[~free_mask[:n]] = -1
    columns = column[np.compress(free_mask[n:], ends, axis=0)]
    keep = columns >= 0
    indptr = np.concatenate([np.arange(old + 1),
                             old + np.cumsum(keep[:, 0] + keep[:, 1].astype(np.int64))])
    indices = np.concatenate([np.arange(old), columns[keep]])
    data = np.full(len(indices), 0.5)
    data[:old] = 1.0
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, old))


@dataclass
class _Level:
    """One level's share of the V-cycle, kept for the finer solves of a chain.

    ``free_mask`` is the level's free set.  At level 0 ``solve`` is the
    pseudo-inverse of the free block; above it, ``a_ff`` is the free block,
    ``scale`` its damped Jacobi weights ``omega / diag`` and ``prolong``
    and ``restrict`` the transfers from and to the next coarser free set.
    """

    free_mask: np.ndarray
    a_ff: sparse.csr_matrix | None = None
    scale: np.ndarray | None = None
    prolong: sparse.csr_matrix | None = None
    restrict: sparse.csr_matrix | None = None
    solve: np.ndarray | None = None


def _build_level(a_ff, free_mask, ends):
    """The :class:`_Level` of a free block; ``ends`` are the parent edges of
    the step that made the level, None at level 0.

    The smoothing weight is ``omega = 4 / (3 rho)`` with ``rho = max_i
    sum_j |a_ij| / a_ii`` the Gershgorin bound of ``D^-1 A`` on the free
    block, so ``omega lambda_max(D^-1 A) <= 4/3 < 2`` (rho >= 1 from the
    diagonal's own term, which also covers an empty block).
    """
    if ends is None:
        return _Level(free_mask, solve=np.linalg.pinv(a_ff.toarray(), hermitian=True))
    diagonal = a_ff.diagonal()
    rho = np.max(abs(a_ff) @ np.ones(len(diagonal)) / diagonal, initial=1.0)
    prolong = _prolongation(ends, free_mask)
    return _Level(free_mask, a_ff=a_ff, scale=4.0 / (3.0 * rho) / diagonal, prolong=prolong,
                  restrict=prolong.T.tocsr())


def _v_cycle(levels):
    """Symmetric V(1,1) cycle over ``levels``, finest first (one
    multiplicative multilevel step: Bramble, Pasciak & Xu 1990; Xu 1992).

    Each level above 0 smooths once with damped Jacobi ``S = omega D^-1``
    before and once after the coarse correction; level 0 is solved
    exactly.  The cycle is ``B = 2S - SAS + (I - SA) P B_c P^T (I - AS)``
    on each level: ``omega lambda_max(D^-1 A) <= 4/3 < 2`` makes
    ``2S - SAS`` positive definite and a semidefinite ``B_c`` keeps the
    second term semidefinite, so the preconditioner is symmetric positive
    definite with no tuned constant, whether or not the coarse operator is
    the Galerkin product.
    """
    *smoothed, coarsest = levels

    def apply(r):
        down = []
        for lv in smoothed:
            x = lv.scale * r
            down.append((r, x))
            r = lv.restrict @ (r - lv.a_ff @ x)
        e = coarsest.solve @ r
        for lv, (r, x) in zip(reversed(smoothed), reversed(down)):
            x += lv.prolong @ e
            e = lv.a_ff @ x
            np.subtract(r, e, out=e)
            e *= lv.scale
            e += x
        return e

    n = int(levels[0].free_mask.sum())
    return LinearOperator((n, n), matvec=apply, dtype=float)


def solve_constrained(matrix, fixed_idx, fixed_vals, refined=None):
    """Minimize u^T A u with some entries of u pinned; CG on the free block.

    CG is preconditioned by one V-cycle (:func:`_v_cycle`) over the levels
    of ``refined``, the :class:`RefinedSurface` whose stiffness ``matrix``
    is (see :meth:`RefinedSurface.cycle_levels`); with none, ``matrix`` is
    its own coarsest level and the cycle is its exact solve.  Returns (u, iterations, relative_residual, pinned_components):
    free components that touch no pinned vertex have a constant nullspace
    and are pinned to zero (equivalently, mean-subtracted).
    """
    n = matrix.shape[0]
    u = np.zeros(n)
    u[fixed_idx] = fixed_vals
    free_mask = np.ones(n, dtype=bool)
    free_mask[fixed_idx] = False

    # one row slice serves the component search and the solve, unless a
    # component is pinned
    blocks = _free_blocks(matrix, free_mask)
    unanchored = _free_components_without_anchor(blocks)
    if unanchored:
        for members in unanchored:
            free_mask[members] = False  # value stays 0; constant kernel pinned
        blocks = _free_blocks(matrix, free_mask)
    free, fixed, a_ff, a_fc = blocks
    # built even with nothing free, so that a finer solve finds the level
    cycle = ([_build_level(a_ff, free_mask, None)] if refined is None
             else refined.cycle_levels(free_mask, a_ff))
    if len(free) == 0:
        return u, 0, 0.0, len(unanchored)

    b = -a_fc @ u[fixed]
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = cg(a_ff, b, rtol=SOLVER_RTOL, atol=0.0, maxiter=20 * n + 200, M=_v_cycle(cycle),
                 callback=count)
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


def minimal_extension_energy(refined, partition, data, closure=True):
    """Least PL Dirichlet energy over extensions of the Dirichlet data."""
    stiff = cotan_stiffness(refined.vertices, refined.triangles, refined.cotangents)
    idx, vals = constrained_vertices(refined, partition, data, closure=closure)
    u, iters, resid, pinned = solve_constrained(stiff, idx, vals, refined=refined)
    energy = float(u @ (stiff @ u))
    return ExtensionResult(
        energy=max(energy, 0.0),
        values=u,
        iterations=iters,
        residual=resid,
        pinned_components=pinned,
        constrained_count=len(idx),
    )


# ----------------------------------------------------------------------
# refinement studies


CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
UNDECIDED = "UNDECIDED"


@dataclass
class EnergyReport:
    """Per-level results of a refinement study.

    ``constrained_counts`` and ``pinned_components`` are each level's
    pinned vertex count and the free components pinned to zero for want of
    a Dirichlet neighbor.  ``refined`` and ``extension`` are the last
    studied level's refined surface and minimal extension (None with no
    levels); they stay out of the report bytes.
    """

    levels: tuple
    energies: tuple
    vertex_counts: tuple
    iterations: tuple
    residuals: tuple
    constrained_counts: tuple
    pinned_components: tuple
    classification: str
    refined: RefinedSurface | None = field(default=None, repr=False, compare=False)
    extension: ExtensionResult | None = field(default=None, repr=False, compare=False)

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
            "constrained_counts": list(self.constrained_counts),
            "pinned_components": list(self.pinned_components),
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
    """Run the minimal extension energy across refinement levels.

    One refinement chain serves the study; each level given is solved once,
    as the chain passes it.  The report keeps the order given.
    """
    levels = [int(l) for l in levels]
    if any(l < 0 for l in levels):
        raise ValueError("level must be >= 0")
    solved, rs, res = {}, None, None
    for refined in islice(_refinement_chain(base, fan_offset), max(levels, default=-1) + 1):
        if refined.level in levels:
            ext = minimal_extension_energy(refined, partition, data, closure=closure)
            solved[refined.level] = (ext.energy, refined.vertex_count, ext.iterations,
                                     ext.residual, ext.constrained_count, ext.pinned_components)
            if refined.level == levels[-1]:
                rs, res = refined, ext
    energies, counts, iters, resids, constrained, pinned = (
        tuple(solved[l][k] for l in levels) for k in range(6))
    return EnergyReport(
        levels=tuple(levels),
        energies=energies,
        vertex_counts=counts,
        iterations=iters,
        residuals=resids,
        constrained_counts=constrained,
        pinned_components=pinned,
        classification=classify_energies(energies),
        refined=rs,
        extension=res,
    )


def export_off_with_scalars(refined, values):
    """OFF-with-scalars text: one extra value appended to each vertex line."""
    vals = np.asarray(values, dtype=float)
    if len(vals) != refined.vertex_count:
        raise ValueError("need one scalar per refined vertex")
    n, t = refined.vertex_count, len(refined.triangles)
    # one format call per block over Python scalars: repr is the float text
    cells = tuple(np.column_stack([refined.vertices, vals]).ravel().tolist())
    corners = tuple(np.asarray(refined.triangles).ravel().tolist())
    return ("OFF\n%d %d 0\n" % (n, t) + ("%r %r %r %r\n" * n) % cells
            + ("3 %d %d %d\n" * t) % corners)
