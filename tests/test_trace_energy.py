from collections import Counter
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import cg
from scipy.spatial.transform import Rotation

from polymix import fixtures, trace_energy
from polymix.mesh import PolyhedralSurface, parse_off
from polymix.partition import Partition
from polymix.trace_energy import (
    CONVERGENT,
    DIVERGENT,
    SOLVER_RTOL,
    ExtensionResult,
    TraceData,
    classify_energies,
    constrained_vertices,
    corner_cotangents,
    cotan_stiffness,
    export_off_with_scalars,
    minimal_extension_energy,
    refinement_study,
    solve_constrained,
    _free_blocks,
    _free_components_without_anchor,
    _prolongation,
    _v_cycle,
)

from conftest import refine


def cube_partition(d_faces):
    return Partition(
        labels=tuple("D" if i in d_faces else "N" for i in range(6)), side="interior"
    )


PYRAMID_PART = Partition(labels=("D", "N", "D", "N", "N"), side="interior")
PYRAMID_STEP = TraceData.face_constants({0: 1.0, 2: 0.0})


# ----------------------------------------------------------------------
# refinement machinery


def test_refine_counts_grow_four_to_one(cube):
    r0 = refine(cube, 0)
    r2 = refine(cube, 2)
    assert len(r2.triangles) == 16 * len(r0.triangles)
    # all refined vertices stay on their provenance face plane (cube: axis
    # aligned planes make this easy to check)
    rows, faces = r2.vertex_faces.nonzero()
    anchors = cube.vertices[[cube.faces[f][0] for f in faces]]
    offsets = np.einsum("ij,ij->i", r2.vertices[rows] - anchors, cube.face_normals[faces])
    assert len(rows) > 0 and np.abs(offsets).max() < 1e-12


def test_refined_provenance_marks_shared_edges(cube):
    rs = refine(cube, 1)
    sizes = sorted(set(rs.vertex_faces.getnnz(axis=1).tolist()))
    assert sizes == [1, 2, 3]  # face interior, edge, corner vertices


def test_constrained_set_closure_vs_free(cube):
    rs = refine(cube, 2)
    part = cube_partition({0})
    data = TraceData.coordinate("x")
    idx_closed, _ = constrained_vertices(rs, part, data, closure=True)
    idx_free, _ = constrained_vertices(rs, part, data, closure=False)
    assert set(idx_free) < set(idx_closed)
    # free convention keeps the face-boundary ring unconstrained
    for i in idx_free:
        assert rs.vertex_faces[i].indices.tolist() == [0]


def reference_refine(base, level, fan_offset=0):
    """Reference: the dict walk over midpoints.

    Returns vertices, triangles, tri_face and, per refined vertex, the
    frozenset of base faces of the triangles that touch it.
    """
    verts = [tuple(p) for p in np.asarray(base.vertices, dtype=float)]
    tris = []
    tri_face = []
    for fi in range(len(base.faces)):
        for t in base.triangulate_face(fi, root_offset=fan_offset):
            tris.append(t)
            tri_face.append(fi)

    for _ in range(int(level)):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                p = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
                midpoint[key] = len(verts)
                verts.append(tuple(p))
            return midpoint[key]

        new_tris = []
        new_face = []
        for (a, b, c), fi in zip(tris, tri_face):
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            new_face += [fi] * 4
        tris = new_tris
        tri_face = new_face

    vertex_faces = [set() for _ in verts]
    for (a, b, c), fi in zip(tris, tri_face):
        vertex_faces[a].add(fi)
        vertex_faces[b].add(fi)
        vertex_faces[c].add(fi)
    return (np.asarray(verts, dtype=float), np.asarray(tris, dtype=np.int64),
            np.asarray(tri_face, dtype=np.int64), tuple(frozenset(s) for s in vertex_faces))


def incidence_rows(refined):
    inc = refined.vertex_faces
    assert inc.dtype == bool and inc.has_canonical_format
    return tuple(frozenset(inc.indices[inc.indptr[i]:inc.indptr[i + 1]].tolist())
                 for i in range(inc.shape[0]))


@pytest.mark.parametrize("fan_offset", range(4))
@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
def test_refine_equals_dict_walk_reference(name, fan_offset):
    base = fixtures.builtin(name)
    for level in range(6):
        rs = refine(base, level, fan_offset=fan_offset)
        verts, tris, tri_face, vertex_faces = reference_refine(base, level, fan_offset)
        assert np.array_equal(rs.vertices, verts), level
        assert np.array_equal(rs.triangles, tris), level
        assert np.array_equal(rs.tri_face, tri_face), level
        assert rs.vertex_faces.shape == (len(verts), len(base.faces))
        assert incidence_rows(rs) == vertex_faces, level


# dyadic coordinates: every midpoint is exact, so inherited cotangents are too
DYADIC_MESHES = {name: fixtures.builtin(name) for name in
                 ("cube", "square-pyramid", "l-prism", "notched-box-1", "notched-box-2")}
HULLS = {"hull-3": fixtures.generate_hull(3), "hull-7": fixtures.generate_hull(7, n_points=12)}
CHAIN_MESHES = {name: DYADIC_MESHES[name]
                for name in ("cube", "square-pyramid", "l-prism", "notched-box-1")}
CHAIN_MESHES.update(HULLS)


def walked_levels(monkeypatch, base, levels, fan_offset):
    """The refined surfaces a study hands to its solver, in the order it does."""
    walked = []

    def record(refined, partition, data, closure=True):
        walked.append(refined)
        n = refined.vertex_count
        return ExtensionResult(energy=0.0, values=np.zeros(n), iterations=0, residual=0.0,
                               pinned_components=0, constrained_count=0)

    monkeypatch.setattr(trace_energy, "minimal_extension_energy", record)
    labels = ("N",) * len(base.faces)
    refinement_study(base, Partition(labels=labels, side="interior"),
                     TraceData.face_constants({}), levels, fan_offset=fan_offset)
    return walked


def scratch_incidence(refined):
    """The (V, F) incidence built in one go from the finest triangles."""
    tris, faces = refined.triangles, refined.tri_face
    return sparse.csr_matrix(
        (np.ones(tris.size, dtype=bool), (tris.ravel(), np.repeat(faces, 3))),
        shape=(refined.vertex_count, len(refined.base.faces)))


@pytest.mark.parametrize("fan_offset", range(4))
@pytest.mark.parametrize("name", sorted(CHAIN_MESHES))
def test_study_chain_equals_independent_refinement(monkeypatch, name, fan_offset):
    base = CHAIN_MESHES[name]
    walked = walked_levels(monkeypatch, base, range(6), fan_offset)
    assert [rs.level for rs in walked] == list(range(6))
    for rs in walked:
        alone = refine(base, rs.level, fan_offset=fan_offset)
        verts, tris, tri_face, vertex_faces = reference_refine(base, rs.level, fan_offset)
        for got in (rs, alone):
            assert np.array_equal(got.vertices, verts), rs.level
            assert np.array_equal(got.triangles, tris), rs.level
            assert np.array_equal(got.tri_face, tri_face), rs.level
            assert incidence_rows(got) == vertex_faces, rs.level
            want = scratch_incidence(got)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.vertex_faces, part), getattr(want, part))
        assert len(rs.parents) == len(alone.parents) == rs.level
        assert all(np.array_equal(p, q) for p, q in zip(rs.parents, alone.parents))
        assert np.array_equal(rs.cotangents, alone.cotangents)


@pytest.mark.parametrize("name", sorted(DYADIC_MESHES) + sorted(HULLS) + ["tetrahedron"])
def test_inherited_cotangents_equal_recomputed(name):
    base = DYADIC_MESHES.get(name) or HULLS.get(name) or fixtures.builtin(name)
    for level in range(6):
        rs = refine(base, level)
        assert rs.cotangents.shape == (len(rs.triangles), 3)
        assert not rs.cotangents.flags.writeable
        want = corner_cotangents(rs.vertices, rs.triangles)
        if name in DYADIC_MESHES:
            assert np.array_equal(rs.cotangents, want), level
        else:
            # rounding moves an angle, not its cotangent, by a relative
            # amount: near a right angle the error is absolute
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(rs.cotangents - want) <= 1e-12 * scale), level


def test_study_triangulates_once_and_subdivides_once_per_level(monkeypatch, pyramid):
    calls = {"triangulate": 0, "midpoint_subdivide": 0, "corner_cotangents": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(PolyhedralSurface, "triangulate")
    counted(trace_energy, "midpoint_subdivide")
    counted(trace_energy, "corner_cotangents")
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=(2, 5, 1, 4),
                           fan_offset=1)
    # levels 1 to 5 each take one subdivision; no level takes a cross product
    assert calls == {"triangulate": 1, "midpoint_subdivide": 5, "corner_cotangents": 1}
    assert rep.refined.level == 4


@settings(max_examples=40)
@given(
    name=st.sampled_from(sorted(DYADIC_MESHES) + sorted(HULLS) + ["tetrahedron"]),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(x * x for x in q) > 1e-2),
    # applied before scaling, in units of the mesh: rounding the moved
    # coordinates costs about eps * shift / edge length in every angle
    shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    log_scale=st.floats(-3.0, 3.0),
)
def test_base_cotangents_invariant_under_similarity(name, quaternion, shift, log_scale):
    base = DYADIC_MESHES.get(name) or HULLS.get(name) or fixtures.builtin(name)
    rotation = Rotation.from_quat(quaternion).as_matrix()
    moved = PolyhedralSurface(10.0 ** log_scale * (base.vertices @ rotation.T + shift),
                              base.faces)
    before, after = refine(base, 0), refine(moved, 0)
    assert np.array_equal(after.triangles, before.triangles)
    # the angles move by about eps * shift / edge (edges here are at least
    # 0.1), and no base corner here is below 0.06 rad, so the cotangents move
    # by at most 1 / sin^2 (0.06) = 280 times that: 6e-11
    assert np.allclose(after.cotangents, before.cotangents, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("fan_offset", [0, 3])
@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
def test_refine_parents_are_the_midpoint_edges(name, fan_offset):
    base = fixtures.builtin(name)
    for level in range(6):
        rs = refine(base, level, fan_offset=fan_offset)
        assert len(rs.parents) == level
        # every refinement step appends the midpoints of its parent edges
        verts, count = rs.vertices, len(rs.vertices)
        for p in reversed(rs.parents):
            count -= len(p)
            assert np.array_equal(verts[count:count + len(p)],
                                  0.5 * (verts[p[:, 0]] + verts[p[:, 1]]))
        assert count == len(base.vertices)


def test_study_keeps_the_finest_solve(pyramid):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=range(1, 5),
                           fan_offset=2)
    rs = refine(pyramid, 4, fan_offset=2)
    assert np.array_equal(rep.refined.vertices, rs.vertices)
    assert np.array_equal(rep.refined.triangles, rs.triangles)
    res = minimal_extension_energy(rs, PYRAMID_PART, PYRAMID_STEP)
    assert rep.extension.energy == res.energy == rep.energies[-1]
    assert np.array_equal(rep.extension.values, res.values)
    empty = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=[])
    assert empty.levels == () and empty.refined is None and empty.extension is None


def one_level_fields(base, level):
    rep = refinement_study(base, PYRAMID_PART, PYRAMID_STEP, levels=[level])
    return rep.energies[0], rep.vertex_counts[0], rep.iterations[0], rep.residuals[0]


@pytest.mark.parametrize("levels", [(3, 1, 3), (0, 5), (4,), ()])
def test_study_levels_in_any_order_match_one_level_studies(pyramid, levels):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=levels)
    want = [one_level_fields(pyramid, level) for level in levels]
    assert rep.levels == tuple(levels)
    got = list(zip(rep.energies, rep.vertex_counts, rep.iterations, rep.residuals))
    assert got == want
    if levels:
        last = refine(pyramid, levels[-1])
        assert rep.refined.level == levels[-1]
        assert np.array_equal(rep.refined.vertices, last.vertices)
        assert np.array_equal(rep.extension.values, minimal_extension_energy(
            last, PYRAMID_PART, PYRAMID_STEP).values)
    else:
        assert rep.refined is None and rep.extension is None
        assert rep.to_json_dict() == {"levels": [], "energies": [], "vertex_counts": [],
                                      "iterations": [], "residuals": [],
                                      "constrained_counts": [], "pinned_components": [],
                                      "classification": "UNDECIDED"}


def test_study_rejects_a_negative_level(pyramid):
    with pytest.raises(ValueError, match="level must be >= 0"):
        refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=[2, -1])


def reference_value_for(data, point, d_faces_here):
    if data.kind == "coordinate":
        return float(point[("x", "y", "z").index(data.axis)])
    table = dict(data.constants)
    for f in sorted(d_faces_here):
        if f in table:
            return table[f]
    raise ValueError("no constant supplied for Dirichlet faces %r" % (sorted(d_faces_here),))


def reference_constrained_vertices(vertices, vertex_faces, partition, data, closure=True):
    """Reference: the per-vertex loop over frozenset provenance."""
    labels = partition.labels
    idx = []
    vals = []
    for i, prov in enumerate(vertex_faces):
        if not prov:
            continue
        d_here = frozenset(f for f in prov if labels[f] == "D")
        pinned = bool(d_here) if closure else (d_here == prov)
        if pinned:
            idx.append(i)
            vals.append(reference_value_for(data, vertices[i], d_here))
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=float)


def outcome(compute, *args, **kwargs):
    """Pinned indices and values, or the message of the ValueError raised."""
    try:
        idx, vals = compute(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    assert idx.dtype == np.int64 and vals.dtype == np.float64
    return idx.tolist(), vals.tolist()


TRACE_CASES = [
    pytest.param(fixtures.square_pyramid, PYRAMID_PART, PYRAMID_STEP, id="pyramid-step"),
    pytest.param(fixtures.cube, cube_partition({0}), TraceData.coordinate("x"),
                 id="cube-coordinate-x"),
    pytest.param(fixtures.l_prism, Partition(labels=("D",) * 3 + ("N",) * 5, side="interior"),
                 TraceData.face_constants({2: 0.5, 1: -1.0, 0: 3.0, 7: 2.0, 99: 1.0}),
                 id="l-prism-constants"),
    *(pytest.param(fixtures.square_pyramid, PYRAMID_PART, TraceData.face_constants(c),
                   id="pyramid-no-constant-%d" % k)
      for k, c in enumerate([{0: 1.0}, {2: 0.0}, {}, {1: 5.0, 3: 2.0}])),
]


@pytest.mark.parametrize("closure", [True, False], ids=["closed", "free"])
@pytest.mark.parametrize("build, part, data", TRACE_CASES)
def test_constrained_vertices_equal_loop_reference(build, part, data, closure):
    base = build()
    for level in range(6):
        rs = refine(base, level)
        verts, _, _, vertex_faces = reference_refine(base, level)
        got = outcome(constrained_vertices, rs, part, data, closure=closure)
        assert got == outcome(reference_constrained_vertices, verts, vertex_faces, part, data,
                              closure=closure), level
    # at level 5 every D face has vertices of its own, pinned in both modes
    missing = any(f not in dict(data.constants or ()) for f, label in enumerate(part.labels)
                  if label == "D")
    assert isinstance(got, str) == (data.kind == "face_constants" and missing)


# ----------------------------------------------------------------------
# solver correctness


def square_grid(n):
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(n * n)])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            b = (i + 1) * n + j
            c = (i + 1) * n + j + 1
            d = i * n + j + 1
            tris += [(a, b, c), (a, c, d)]
    return verts, np.asarray(tris, dtype=np.int64)


def reference_cotan_stiffness(vertices, triangles):
    """Reference: the COO assembly symmetrized by a transpose-add, diagonal set in place."""
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    i0, i1, i2 = t[:, 0], t[:, 1], t[:, 2]
    e0, e1, e2 = v[i2] - v[i1], v[i0] - v[i2], v[i1] - v[i0]

    def cot(a, b):
        dot = np.einsum("ij,ij->i", a, b)
        return dot / np.maximum(np.linalg.norm(np.cross(a, b), axis=1), 1e-300)

    w0, w1, w2 = 0.5 * cot(-e1, e2), 0.5 * cot(-e2, e0), 0.5 * cot(-e0, e1)
    rows = np.concatenate([i1, i2, i2, i0, i0, i1])
    cols = np.concatenate([i2, i1, i0, i2, i1, i0])
    off = np.concatenate([-w0, -w0, -w1, -w1, -w2, -w2])
    n = len(v)
    k = sparse.coo_matrix((off, (rows, cols)), shape=(n, n))
    k = ((k + k.T) * 0.5).tocsr()
    k.setdiag(-np.asarray(k.sum(axis=1)).ravel())
    return k.tocsr()


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
def test_cotan_stiffness_equals_transpose_add_reference(name):
    base = fixtures.builtin(name)
    for level in range(6):
        rs = refine(base, level)
        got = cotan_stiffness(rs.vertices, rs.triangles)
        want = reference_cotan_stiffness(rs.vertices, rs.triangles)
        assert got.format == "csr" and got.shape == want.shape
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr), level
        assert np.array_equal(got.indices, want.indices), level
        assert np.array_equal(got.data, want.data), level


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
def test_cotan_diagonal_is_level_independent(name):
    # midpoint children are similar to their parent, so an old vertex keeps
    # its diagonal: the identity the multilevel scaling relies on
    base = fixtures.builtin(name)
    coarse = None
    for level in range(5):
        rs = refine(base, level)
        fine = cotan_stiffness(rs.vertices, rs.triangles).diagonal()
        if coarse is not None:
            old = fine[:len(coarse)]
            assert np.all(np.abs(old - coarse) <= 1e-12 * np.abs(coarse)), level
        coarse = fine


def reference_solve_constrained(matrix, fixed_idx, fixed_vals, rtol=SOLVER_RTOL):
    """Reference: unpreconditioned conjugate gradients on the free block."""
    n = matrix.shape[0]
    u = np.zeros(n)
    free_mask = np.ones(n, dtype=bool)
    free_mask[fixed_idx] = False
    u[fixed_idx] = fixed_vals
    for members in _free_components_without_anchor(_free_blocks(matrix, free_mask)):
        free_mask[members] = False
    free = np.flatnonzero(free_mask)
    if len(free):
        fixed = np.flatnonzero(~free_mask)
        b = -matrix[free][:, fixed] @ u[fixed]
        x, info = cg(matrix[free][:, free].tocsr(), b, rtol=rtol, atol=0.0,
                     maxiter=20 * n + 200)
        assert info == 0
        u[free] = x
    return u


def assert_matches_reference(matrix, idx, vals, refined, energy_matrix=None):
    """The multilevel solve agrees with plain CG: energy to 1e-9, values to 1e-7."""
    energy_matrix = matrix if energy_matrix is None else energy_matrix
    u, _, resid, _ = solve_constrained(matrix, idx, vals, refined=refined)
    ref = reference_solve_constrained(matrix, idx, vals)
    e, e_ref = float(u @ (energy_matrix @ u)), float(ref @ (energy_matrix @ ref))
    assert abs(e - e_ref) <= 1e-9 * max(abs(e_ref), 1e-300) or max(e, e_ref) <= 1e-13
    assert np.abs(u - ref).max() <= 1e-7
    assert resid <= SOLVER_RTOL
    return u


@pytest.mark.parametrize("fan_offset", range(4))
@pytest.mark.parametrize("closure", [True, False], ids=["closed", "free"])
def test_multilevel_solve_equals_plain_cg_on_pyramid_step(pyramid, closure, fan_offset):
    for level in range(7):
        rs = refine(pyramid, level, fan_offset=fan_offset)
        stiff = cotan_stiffness(rs.vertices, rs.triangles)
        idx, vals = constrained_vertices(rs, PYRAMID_PART, PYRAMID_STEP, closure=closure)
        assert_matches_reference(stiff, idx, vals, rs)


def test_multilevel_solve_equals_plain_cg_on_cube_smooth(cube):
    part, data = cube_partition({0}), TraceData.coordinate("x")
    for level in range(5):
        rs = refine(cube, level)
        stiff = cotan_stiffness(rs.vertices, rs.triangles)
        idx, vals = constrained_vertices(rs, part, data)
        assert_matches_reference(stiff, idx, vals, rs)


def test_solve_rejects_parents_longer_than_the_matrix(pyramid):
    coarse, fine = refine(pyramid, 1), refine(pyramid, 3)
    stiff = cotan_stiffness(coarse.vertices, coarse.triangles)
    with pytest.raises(ValueError, match="do not fit a matrix of order"):
        solve_constrained(stiff, [0], [1.0], refined=fine)


@pytest.mark.parametrize("fan_offset", range(4))
def test_multilevel_iterations_stay_flat_on_pyramid_step(pyramid, fan_offset):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=range(5, 8),
                           fan_offset=fan_offset)
    # closed boundary, levels 5-7: plain CG takes 147, 291 and 575 iterations
    # at fan offset 0 and the additive (BPX) preconditioner took 31, 33 and
    # 34; one V-cycle takes 13 at each level, and 16 leaves 3 to spare
    assert all(it <= 16 for it in rep.iterations), rep.iterations
    assert max(rep.residuals) <= SOLVER_RTOL


def odd_faces_dirichlet(base):
    return Partition(labels=tuple("D" if f % 2 else "N" for f in range(len(base.faces))),
                     side="interior")


GALERKIN_MESHES = {"hull-3": HULLS["hull-3"], "square-pyramid": DYADIC_MESHES["square-pyramid"],
                   "l-prism": DYADIC_MESHES["l-prism"]}


def assert_close_sparse(got, want, rel):
    scale = abs(want).max()
    assert got.shape == want.shape
    assert abs(got - want).max() <= rel * scale


@pytest.mark.parametrize("name", sorted(GALERKIN_MESHES))
def test_level_stiffness_is_the_galerkin_product_of_the_next(name):
    # midpoint P1 spaces are nested and each flat triangle's energy is
    # exact, so P^T A_{l+1} P = A_l: a level's own stiffness is the coarse
    # operator, and the hierarchy gathers it from the finer level bit for bit
    base = GALERKIN_MESHES[name]
    for level in (1, 3, 4):
        coarse, fine = refine(base, level), refine(base, level + 1)
        a_coarse = cotan_stiffness(coarse.vertices, coarse.triangles, coarse.cotangents)
        a_fine = cotan_stiffness(fine.vertices, fine.triangles, fine.cotangents)
        p = _prolongation(fine.parents[-1], np.ones(fine.vertex_count, dtype=bool))
        assert_close_sparse(p.T @ a_fine @ p, a_coarse, 1e-14)
        gathered = fine.operator(level)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(gathered, part), getattr(a_coarse, part)), level


def test_free_block_prolongation_keeps_the_galerkin_identity(pyramid):
    # with every Dirichlet closure pinned, no midpoint of an edge with a free
    # end is pinned, so dropping pinned columns keeps P^T A_ff P = the coarse A_ff
    for level in (1, 3, 4):
        fine = refine(pyramid, level + 1)
        idx, _ = constrained_vertices(fine, PYRAMID_PART, PYRAMID_STEP)
        mask = np.ones(fine.vertex_count, dtype=bool)
        mask[idx] = False
        a_fine = cotan_stiffness(fine.vertices, fine.triangles, fine.cotangents)
        p = _prolongation(fine.parents[-1], mask)
        coarse_mask = mask[:fine.vertex_count - len(fine.parents[-1])]
        want = _free_blocks(fine.operator(level), coarse_mask)[2]
        assert_close_sparse(p.T @ _free_blocks(a_fine, mask)[2] @ p, want, 1e-14)


@pytest.mark.parametrize("name", ["hull-3", "l-prism"])
def test_v_cycle_is_symmetric_and_positive(name):
    base = HULLS.get(name) or DYADIC_MESHES[name]
    rs = refine(base, 4)
    stiff = cotan_stiffness(rs.vertices, rs.triangles, rs.cotangents)
    idx, _ = constrained_vertices(rs, odd_faces_dirichlet(base), TraceData.coordinate("x"))
    mask = np.ones(rs.vertex_count, dtype=bool)
    mask[idx] = False
    cycle = _v_cycle(rs.cycle_levels(mask, _free_blocks(stiff, mask)[2]))
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y = rng.normal(size=(2, cycle.shape[0]))
        mx, my = cycle.matvec(x), cycle.matvec(y)
        # both products are one sum in exact arithmetic, so they differ by
        # rounding only: a few eps of |x| |My| at most (3e-17 was seen), and
        # 1e-14 leaves a wide margin while any lost symmetry shows at once
        assert abs(x @ my - y @ mx) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(my)
        assert x @ mx > 0.0 and y @ my > 0.0


# CG iterations with one V-cycle at levels 3, 4, 5 and 6, fan offset 0,
# measured on this cycle; the cube's levels 5 and 6 are taken as flat
# at 13.  Every case must stay within 25% of its count, rounded up: fan
# offsets 1-3 and the rounding of other machines move counts by a few.
V_CYCLE_COUNTS = {
    "pyramid-closed": (13, 13, 13, 13),
    "pyramid-free": (16, 19, 23, 29),
    "cube-smooth": (13, 13, 13, 13),
    "hull-3": (25, 49, 75, 90),
    "hull-7": (19, 30, 39, 40),
    "l-prism": (24, 27, 29, 30),
}


def iteration_case(case, fan_offset):
    if case.startswith("pyramid"):
        return (DYADIC_MESHES["square-pyramid"], PYRAMID_PART, PYRAMID_STEP,
                case == "pyramid-closed")
    if case == "cube-smooth":
        return DYADIC_MESHES["cube"], cube_partition({0}), TraceData.coordinate("x"), True
    base = HULLS.get(case) or DYADIC_MESHES[case]
    return base, odd_faces_dirichlet(base), TraceData.coordinate("x"), True


@pytest.mark.parametrize("case,fan_offset",
                         [(c, f) for c in ("pyramid-closed", "pyramid-free") for f in range(4)]
                         + [(c, 0) for c in ("cube-smooth", "hull-3", "hull-7", "l-prism")])
def test_v_cycle_iterations_stay_within_their_bounds(case, fan_offset):
    base, part, data, closure = iteration_case(case, fan_offset)
    bounds = [ceil(1.25 * c) for c in V_CYCLE_COUNTS[case]]
    rep = refinement_study(base, part, data, levels=range(3, 7), fan_offset=fan_offset,
                           closure=closure)
    assert all(it <= b for it, b in zip(rep.iterations, bounds)), (rep.iterations, bounds)
    assert max(rep.residuals) <= SOLVER_RTOL


def count_calls(monkeypatch, names):
    calls = Counter()

    def counted(name):
        inner = getattr(trace_energy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(trace_energy, name, wrapper)

    for name in names:
        counted(name)
    return calls


@pytest.mark.parametrize("levels", [range(6), (2, 5)])
def test_study_builds_each_level_once_and_a_lone_solve_matches_it(monkeypatch, pyramid, levels):
    calls = count_calls(monkeypatch, ("cotan_stiffness", "_free_blocks", "_prolongation"))
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=levels, fan_offset=1)
    # levels 0-5 are each assembled, cut to their free block and given
    # their prolongation once, reported or not
    assert calls == {"cotan_stiffness": 6, "_free_blocks": 6, "_prolongation": 5}
    calls.clear()
    alone = minimal_extension_energy(refine(pyramid, 5, fan_offset=1), PYRAMID_PART,
                                     PYRAMID_STEP)
    assert calls == {"cotan_stiffness": 6, "_free_blocks": 6, "_prolongation": 5}
    assert (alone.energy, alone.iterations, alone.residual) == (
        rep.energies[-1], rep.iterations[-1], rep.residuals[-1])
    assert np.array_equal(alone.values, rep.extension.values)


def disjoint_cubes():
    cube = fixtures.cube()
    verts = np.vstack([cube.vertices, cube.vertices + 5.0])
    faces = list(cube.faces) + [tuple(v + 8 for v in f) for f in cube.faces]
    return PolyhedralSurface(verts, faces)


@pytest.mark.parametrize("name", ["hull-3", "disjoint-cubes"])
def test_lone_solve_equals_study_bit_for_bit(name):
    # hull 3 has non-dyadic coordinates; the second cube of the pair is an
    # unanchored component, pinned at every level
    if name == "hull-3":
        base = HULLS[name]
        part = odd_faces_dirichlet(base)
    else:
        base = disjoint_cubes()
        part = Partition(labels=("D",) + ("N",) * 11, side="interior")
    data = TraceData.coordinate("x")
    rep = refinement_study(base, part, data, levels=range(5))
    assert rep.pinned_components == ((1,) * 5 if name == "disjoint-cubes" else (0,) * 5)
    for level in range(5):
        alone = minimal_extension_energy(refine(base, level), part, data)
        assert (alone.energy, alone.iterations, alone.residual) == (
            rep.energies[level], rep.iterations[level], rep.residuals[level])


def test_cached_levels_are_rebuilt_for_another_free_set(cube):
    # two solves on one refined surface: the second partition pins other
    # vertices, so none of the first solve's levels may serve it
    rs, data = refine(cube, 3), TraceData.coordinate("x")
    minimal_extension_energy(rs, cube_partition({0}), data)
    again = minimal_extension_energy(rs, cube_partition({1, 2}), data)
    fresh = minimal_extension_energy(refine(cube, 3), cube_partition({1, 2}), data)
    assert (again.energy, again.iterations) == (fresh.energy, fresh.iterations)
    assert np.array_equal(again.values, fresh.values)


def test_report_lists_constrained_counts_and_pinned_components():
    base = disjoint_cubes()
    part = Partition(labels=("D",) + ("N",) * 11, side="interior")
    rep = refinement_study(base, part, TraceData.coordinate("x"), levels=(2, 0))
    for level, count, pinned in zip(rep.levels, rep.constrained_counts, rep.pinned_components):
        res = minimal_extension_energy(refine(base, level), part, TraceData.coordinate("x"))
        assert (count, pinned) == (res.constrained_count, res.pinned_components) == (
            (2 ** level + 1) ** 2, 1)
    doc = rep.to_json_dict()
    assert doc["constrained_counts"] == [25, 4] and doc["pinned_components"] == [1, 1]


def test_flat_patch_linear_data_exact():
    verts, tris = square_grid(17)
    stiff = cotan_stiffness(verts, tris)
    n = 17
    boundary = np.array(
        [i * n + j for i in range(n) for j in range(n) if i in (0, n - 1) or j in (0, n - 1)]
    )
    u, iters, resid, pinned = solve_constrained(stiff, boundary, verts[boundary, 0])
    assert_matches_reference(stiff, boundary, verts[boundary, 0], None)
    energy = float(u @ (stiff @ u))
    assert abs(energy - 1.0) <= 1e-10  # exact Dirichlet energy of x on the unit square
    assert np.abs(u - verts[:, 0]).max() <= 1e-8
    assert pinned == 0
    assert resid <= 1e-10


def test_stiffness_kernel_is_constants():
    verts, tris = square_grid(6)
    stiff = cotan_stiffness(verts, tris)
    ones = np.ones(len(verts))
    assert np.abs(stiff @ ones).max() < 1e-12
    rng = np.random.default_rng(2)
    u = rng.normal(size=len(verts))
    assert float(u @ (stiff @ u)) >= 0.0


def test_constant_data_zero_energy(cube):
    rs = refine(cube, 2)
    res = minimal_extension_energy(rs, cube_partition({0}), TraceData.face_constants({0: 2.5}))
    assert res.energy <= 1e-12
    assert np.allclose(res.values, 2.5, atol=1e-8)


def test_energy_scale_invariance(cube):
    part = cube_partition({0})
    data = TraceData.face_constants({0: 1.0, 1: 0.0})
    e1 = minimal_extension_energy(refine(cube, 2), part, data).energy
    big = PolyhedralSurface(np.asarray(cube.vertices) * 11.0, cube.faces)
    e2 = minimal_extension_energy(refine(big, 2), part, data).energy
    assert e2 == pytest.approx(e1, rel=1e-10)


def test_galerkin_monotonicity_in_dirichlet_set(cube):
    # same level, larger D with consistent data: never less energy
    data = TraceData.coordinate("x")
    small = minimal_extension_energy(refine(cube, 2), cube_partition({0}), data).energy
    large = minimal_extension_energy(refine(cube, 2), cube_partition({0, 2}), data).energy
    assert large >= small - 1e-12


def test_unanchored_component_pinned():
    # all-Neumann labeling leaves no constraints: the kernel is pinned and
    # the energy is zero
    cube = fixtures.cube()
    rs = refine(cube, 1)
    part = Partition(labels=("N",) * 6, side="interior")
    res = minimal_extension_energy(rs, part, TraceData.face_constants({}))
    stiff = cotan_stiffness(rs.vertices, rs.triangles)
    empty = np.zeros(0, dtype=np.int64)
    assert np.array_equal(assert_matches_reference(stiff, empty, np.zeros(0), rs),
                          res.values)
    assert res.energy == pytest.approx(0.0, abs=1e-15)
    assert res.pinned_components == 1
    assert res.constrained_count == 0


def test_disjoint_cubes_one_dirichlet_face_pins_the_other_cube():
    two = disjoint_cubes()
    part = Partition(labels=("D",) + ("N",) * 11, side="interior")
    rs = refine(two, 1)
    res = minimal_extension_energy(rs, part, TraceData.coordinate("x"))
    stiff = cotan_stiffness(rs.vertices, rs.triangles)
    idx, vals = constrained_vertices(rs, part, TraceData.coordinate("x"))
    assert np.array_equal(assert_matches_reference(stiff, idx, vals, rs), res.values)
    assert res.pinned_components == 1
    assert res.constrained_count > 0


def reference_free_components_without_anchor(matrix, free_mask):
    """Python DFS over the stored entries: the loop version."""
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    comp = -np.ones(n, dtype=np.int64)
    unanchored = []
    next_comp = 0
    for start in range(n):
        if not free_mask[start] or comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = next_comp
        members = []
        anchored = False
        while stack:
            i = stack.pop()
            members.append(i)
            for j in indices[indptr[i]:indptr[i + 1]]:
                if free_mask[j]:
                    if comp[j] < 0:
                        comp[j] = next_comp
                        stack.append(j)
                else:
                    anchored = True
        if not anchored:
            unanchored.append(sorted(members))
        next_comp += 1
    return unanchored


@pytest.mark.parametrize("closure", [True, False], ids=["closed", "free"])
@pytest.mark.parametrize("level", range(6))
def test_free_components_equal_dfs_reference(pyramid, level, closure):
    rs = refine(pyramid, level)
    stiff = cotan_stiffness(rs.vertices, rs.triangles)
    idx, _ = constrained_vertices(rs, PYRAMID_PART, PYRAMID_STEP, closure=closure)
    free_mask = np.ones(rs.vertex_count, dtype=bool)
    free_mask[idx] = False
    got = _free_components_without_anchor(_free_blocks(stiff, free_mask))
    assert [c.tolist() for c in got] == reference_free_components_without_anchor(
        stiff, free_mask)


def test_free_components_unpinned_cube_equal_dfs_reference(cube):
    rs = refine(cube, 2)
    stiff = cotan_stiffness(rs.vertices, rs.triangles)
    free_mask = np.ones(rs.vertex_count, dtype=bool)
    got = _free_components_without_anchor(_free_blocks(stiff, free_mask))
    assert [c.tolist() for c in got] == reference_free_components_without_anchor(
        stiff, free_mask) == [list(range(rs.vertex_count))]


@pytest.mark.parametrize("anchor", [False, True])
def test_free_components_count_stored_zeros_as_edges(anchor):
    # 0 - 1 joined by a stored zero; with `anchor`, 1 - 2 too and 2 is pinned
    rows, cols = [0, 1, 3], [1, 0, 3]
    if anchor:
        rows, cols = rows + [1, 2], cols + [2, 1]
    data = [0.0, 0.0, 1.0] + [0.0] * (len(rows) - 3)
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=(4, 4)).tocsr()
    assert matrix.nnz == len(rows)
    free_mask = np.array([True, True, False, True])
    got = [c.tolist() for c in _free_components_without_anchor(_free_blocks(matrix, free_mask))]
    assert got == reference_free_components_without_anchor(matrix, free_mask)
    assert got == ([[3]] if anchor else [[0, 1], [3]])


# ----------------------------------------------------------------------
# refinement studies


def test_pyramid_step_data_divergent(pyramid):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=range(1, 7))
    assert rep.classification == DIVERGENT
    diffs = np.diff(rep.energies)
    assert np.all(diffs > 0)


def test_pyramid_step_divergent_under_free_convention(pyramid):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=range(1, 7),
                           closure=False)
    assert rep.classification == DIVERGENT


def test_pyramid_step_divergent_across_fan_roots(pyramid):
    for off in (0, 1, 2):
        rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP,
                               levels=range(1, 6), fan_offset=off)
        assert rep.classification == DIVERGENT


def test_cube_smooth_data_convergent(cube):
    rep = refinement_study(cube, cube_partition({0}), TraceData.coordinate("x"),
                           levels=range(0, 5))
    assert rep.classification == CONVERGENT
    e = rep.energies
    assert abs(e[-1] - e[-2]) / e[-1] < 0.01


def test_fully_constrained_study(cube):
    # D = all faces: the energy is fixed by the data at every level
    part = cube_partition(set(range(6)))
    rep = refinement_study(cube, part, TraceData.coordinate("x"), levels=range(0, 3))
    assert rep.classification == CONVERGENT
    # PL interpolation of a linear function is exact: E = 4 faces x area 1
    for e in rep.energies:
        assert e == pytest.approx(4.0, rel=1e-10)


def test_nondecreasing_for_divergent_study(pyramid):
    rep = refinement_study(pyramid, PYRAMID_PART, PYRAMID_STEP, levels=range(1, 6))
    assert list(rep.energies) == sorted(rep.energies)


def test_classifier_rules():
    assert classify_energies([1.0, 1.5, 1.502]) == CONVERGENT
    assert classify_energies([1.0, 2.0, 3.0, 4.0]) == DIVERGENT
    assert classify_energies([1.0, 2.0, 2.9, 3.9]) == DIVERGENT  # last >= half median increment
    assert classify_energies([0.0, 0.0, 0.0]) == CONVERGENT
    # monotone but with dying increments that have not yet settled: neither rule
    assert classify_energies([1.0, 3.0, 3.5, 3.6]) == "UNDECIDED"
    assert classify_energies([2.0, 1.0, 3.0]) == "UNDECIDED"


def test_export_off_with_scalars(cube):
    rs = refine(cube, 0)
    res = minimal_extension_energy(rs, cube_partition({0}), TraceData.coordinate("x"))
    text = export_off_with_scalars(rs, res.values)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    counts = lines[1].split()
    assert int(counts[0]) == rs.vertex_count
    assert len(lines[2].split()) == 4  # x y z value
    parse_off("\n".join([lines[0], lines[1]]
                        + [" ".join(l.split()[:3]) for l in lines[2:2 + rs.vertex_count]]
                        + lines[2 + rs.vertex_count:]))


def reference_export_off_with_scalars(refined, values):
    """Reference: one vertex line at a time, four reprs each."""
    lines = ["OFF", "%d %d 0" % (refined.vertex_count, len(refined.triangles))]
    for p, s in zip(refined.vertices, np.asarray(values, dtype=float)):
        lines.append("%s %s %s %s" % (repr(float(p[0])), repr(float(p[1])),
                                      repr(float(p[2])), repr(float(s))))
    for a, b, c in refined.triangles:
        lines.append("3 %d %d %d" % (a, b, c))
    return "\n".join(lines) + "\n"


def test_export_equals_per_vertex_reference(cube):
    rep = refinement_study(cube, cube_partition({0}), TraceData.coordinate("x"),
                           levels=range(5))
    for level in range(5):
        rs = refine(cube, level)
        values = minimal_extension_energy(rs, cube_partition({0}),
                                          TraceData.coordinate("x")).values
        assert export_off_with_scalars(rs, values) == reference_export_off_with_scalars(
            rs, values), level
    assert export_off_with_scalars(rep.refined, rep.extension.values) == \
        reference_export_off_with_scalars(rs, values)


def test_face_constants_requires_coverage(pyramid):
    rs = refine(pyramid, 1)
    with pytest.raises(ValueError, match="no constant"):
        minimal_extension_energy(rs, PYRAMID_PART, TraceData.face_constants({0: 1.0}))


def test_trace_data_validation():
    with pytest.raises(ValueError):
        TraceData.coordinate("w")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^the constant of face 2 is not finite: "):
            TraceData.face_constants({0: 1.0, 2: bad, 3: 0.0})
    td = TraceData.face_constants({3: 1.0, 1: 0.5})
    assert td.constants == ((1, 0.5), (3, 1.0))
