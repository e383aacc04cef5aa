import numpy as np
import pytest
from scipy import sparse

from polymix import fixtures
from polymix.mesh import PolyhedralSurface, parse_off
from polymix.partition import Partition
from polymix.trace_energy import (
    CONVERGENT,
    DIVERGENT,
    TraceData,
    classify_energies,
    constrained_vertices,
    cotan_stiffness,
    export_off_with_scalars,
    full_restriction_norm,
    lumped_mass,
    minimal_extension_energy,
    refine,
    refinement_study,
    solve_constrained,
    _free_components_without_anchor,
)


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
    missing = any(f not in dict(data.constants or ()) for f in part.dirichlet_faces)
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


def test_flat_patch_linear_data_exact():
    verts, tris = square_grid(17)
    stiff = cotan_stiffness(verts, tris)
    n = 17
    boundary = np.array(
        [i * n + j for i in range(n) for j in range(n) if i in (0, n - 1) or j in (0, n - 1)]
    )
    u, iters, resid, pinned = solve_constrained(stiff, boundary, verts[boundary, 0])
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


def test_lumped_mass_total_area(cube):
    rs = refine(cube, 1)
    assert lumped_mass(rs.vertices, rs.triangles).sum() == pytest.approx(6.0)


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
    assert res.energy == pytest.approx(0.0, abs=1e-15)
    assert res.pinned_components == 1
    assert res.constrained_count == 0


def test_disjoint_cubes_one_dirichlet_face_pins_the_other_cube():
    cube = fixtures.cube()
    verts = np.vstack([cube.vertices, cube.vertices + 5.0])
    faces = list(cube.faces) + [tuple(v + 8 for v in f) for f in cube.faces]
    two = PolyhedralSurface(verts, faces)
    part = Partition(labels=("D",) + ("N",) * 11, side="interior")
    res = minimal_extension_energy(refine(two, 1), part, TraceData.coordinate("x"))
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
    got = _free_components_without_anchor(stiff, free_mask)
    assert [c.tolist() for c in got] == reference_free_components_without_anchor(
        stiff, free_mask)


def test_free_components_unpinned_cube_equal_dfs_reference(cube):
    rs = refine(cube, 2)
    stiff = cotan_stiffness(rs.vertices, rs.triangles)
    free_mask = np.ones(rs.vertex_count, dtype=bool)
    got = _free_components_without_anchor(stiff, free_mask)
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
    got = [c.tolist() for c in _free_components_without_anchor(matrix, free_mask)]
    assert got == reference_free_components_without_anchor(matrix, free_mask)
    assert got == ([[3]] if anchor else [[0, 1], [3]])


# ----------------------------------------------------------------------
# norms


def test_full_norm_zero_data(cube):
    res = full_restriction_norm(refine(cube, 2), cube_partition({0}),
                                TraceData.face_constants({0: 0.0}))
    assert res.value <= 1e-12


def test_full_norm_feasible_upper_bound(cube):
    # extending f = 1 by the constant 1 costs exactly area(dOmega) = 6
    res = full_restriction_norm(refine(cube, 2), cube_partition({0}),
                                TraceData.face_constants({0: 1.0}))
    assert res.value <= 6.0 + 1e-9
    assert res.gradient_part >= 0.0


def test_full_norm_dominates_gradient_part(cube):
    res = full_restriction_norm(refine(cube, 2), cube_partition({0}),
                                TraceData.coordinate("x"))
    assert res.value >= res.gradient_part


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


def test_face_constants_requires_coverage(pyramid):
    rs = refine(pyramid, 1)
    with pytest.raises(ValueError, match="no constant"):
        minimal_extension_energy(rs, PYRAMID_PART, TraceData.face_constants({0: 1.0}))


def test_trace_data_validation():
    with pytest.raises(ValueError):
        TraceData.coordinate("w")
    td = TraceData.face_constants({3: 1.0, 1: 0.5})
    assert td.constants == ((1, 0.5), (3, 1.0))
