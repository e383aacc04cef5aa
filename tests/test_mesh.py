import gc
import json
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation
from hypothesis import example, given, settings, strategies as st

from polymix import fixtures, mesh, partition
from polymix.geometry import dihedral_angles, separation_radius
from polymix.mesh import (
    MAX_ABS_COORDINATE,
    MeshError,
    OffParseError,
    PolyhedralSurface,
    Violation,
    _connectivity,
    _cross,
    _least_node_order,
    midpoint_subdivide,
    parse_off,
    plane_basis,
    serialize_off,
    undirected_components,
    validate_surface,
)
from polymix.partition import GeneratorSpec, Partition, quotient_graph, validate_partition

from conftest import (CUBE_OFF, PYRAMID_OFF, edge_incidence, edge_index, open_box,
                      two_tetrahedra_shared_vertex)
from test_geometry import REFLEX_MESHES


def test_parse_cube_off_counts():
    s = parse_off(CUBE_OFF)
    d = validate_surface(s)
    assert (d.vertex_count, d.edge_count, d.face_count) == (8, 12, 6)
    assert d.euler_characteristic == 2
    assert d.ok


def test_parse_pyramid_off_counts():
    s = parse_off(PYRAMID_OFF)
    d = validate_surface(s)
    assert (d.vertex_count, d.edge_count, d.face_count) == (5, 8, 5)
    assert d.euler_characteristic == 2
    assert d.ok


def test_parse_index_out_of_range_reports_line():
    bad = CUBE_OFF.replace("4 0 3 2 1", "4 0 3 2 99")
    with pytest.raises(OffParseError, match="index out of range"):
        parse_off(bad)
    try:
        parse_off(bad)
    except OffParseError as exc:
        assert exc.line == 11  # the offending face line


def test_parse_missing_header():
    with pytest.raises(OffParseError, match="OFF header"):
        parse_off("NOFF\n1 0 0\n0 0 0\n")


def test_parse_face_too_short():
    bad = CUBE_OFF.replace("4 0 3 2 1", "2 0 3")
    with pytest.raises(OffParseError, match="fewer than 3"):
        parse_off(bad)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e308", "-1e51"])
def test_parse_rejects_nonfinite_and_huge_coordinates(token):
    # squaring such a coordinate overflows in the geometry
    bad = CUBE_OFF.replace("1 1 1", "%s 1 1" % token)
    with pytest.raises(OffParseError, match="not finite or exceeds") as info:
        parse_off(bad)
    assert info.value.line == 9
    parse_off(CUBE_OFF.replace("1 1 1", "1e50 1 1"))


def test_parse_duplicate_vertex_in_face():
    bad = CUBE_OFF.replace("4 0 3 2 1", "4 0 3 3 1")
    with pytest.raises(OffParseError, match="duplicate"):
        parse_off(bad)


def test_parse_accepts_comments_and_whitespace():
    text = "# a comment\nOFF\n  3 1 3 # counts\n0 0 0\n1 0 0\n\n0 1 0\n3 0 1 2\n"
    s = parse_off(text)
    assert len(s.faces) == 1


def test_roundtrip_cube(cube):
    again = parse_off(serialize_off(cube))
    assert np.array_equal(again.vertices, cube.vertices)
    assert again.faces == cube.faces


def test_roundtrip_pyramid(pyramid):
    again = parse_off(serialize_off(pyramid))
    assert np.array_equal(again.vertices, pyramid.vertices)
    assert again.faces == pyramid.faces


def test_roundtrip_large_random_hull():
    # ~1e4 triangular faces; coordinates are irrational, so this exercises
    # full-precision printing
    surf = fixtures.generate_hull(99, n_points=5002)
    assert len(surf.faces) == 10000
    again = parse_off(serialize_off(surf))
    assert np.array_equal(again.vertices, surf.vertices)
    assert again.faces == surf.faces


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
def test_builtin_fixtures_validate_clean(name):
    d = validate_surface(fixtures.builtin(name))
    assert d.ok, [v.kind for v in d.violations]
    assert d.euler_characteristic == 2  # all shipped fixtures are genus 0


def test_two_tetrahedra_glued_at_vertex_is_nonmanifold():
    s = two_tetrahedra_shared_vertex()
    d = validate_surface(s)
    kinds = {v.kind for v in d.violations}
    assert "nonmanifold_vertex" in kinds
    bad_vertices = [v.location[0] for v in d.violations if v.kind == "nonmanifold_vertex"]
    assert bad_vertices == [0]  # only the shared vertex


def test_open_box_reports_boundary_edges():
    d = validate_surface(open_box())
    open_edges = [v for v in d.violations if v.kind == "edge_face_count"]
    assert len(open_edges) == 4  # the removed quad had 4 edges
    assert all(v.location[2] == 1 for v in open_edges)


@pytest.mark.parametrize("name", ["cube", "square-pyramid", "l-prism"])
@pytest.mark.parametrize("flip", [0, 1, 2])
def test_single_reversed_face_breaks_orientation(name, flip):
    base = fixtures.builtin(name)
    faces = list(base.faces)
    flip = flip % len(faces)
    faces[flip] = tuple(reversed(faces[flip]))
    d = validate_surface(PolyhedralSurface(base.vertices, faces))
    assert any(v.kind == "orientation" for v in d.violations)


def disjoint_cubes(k):
    cube = fixtures.cube()
    verts = np.vstack([cube.vertices + 5.0 * i for i in range(k)])
    faces = [tuple(v + 8 * i for v in f) for i in range(k) for f in cube.faces]
    return PolyhedralSurface(verts, faces)


def reference_face_component_count(surface):
    """Face DFS across shared edges: the loop version of the connectivity check."""
    adj = {fi: set() for fi in range(len(surface.faces))}
    for inc in edge_incidence(surface).values():
        for fi, _ in inc:
            for fj, _ in inc:
                if fi != fj:
                    adj[fi].add(fj)
    unseen = set(range(len(surface.faces)))
    comps = 0
    while unseen:
        comps += 1
        stack = [unseen.pop()]
        while stack:
            fi = stack.pop()
            for fj in adj[fi]:
                if fj in unseen:
                    unseen.remove(fj)
                    stack.append(fj)
    return comps


def test_disconnected_surface_detected():
    a = fixtures.cube()
    b = fixtures.cube()
    verts = np.vstack([a.vertices, b.vertices + 5.0])
    faces = list(a.faces) + [tuple(i + 8 for i in f) for f in b.faces]
    d = validate_surface(PolyhedralSurface(verts, faces))
    assert any(v.kind == "disconnected" for v in d.violations)


def test_three_disjoint_cubes_report_three_components():
    d = validate_surface(disjoint_cubes(3))
    assert [v for v in d.violations if v.kind == "disconnected"] == [
        Violation("disconnected", (3,))
    ]
    assert d.to_json_dict()["violations"] == [{"kind": "disconnected", "location": [3]}]


@pytest.mark.parametrize("build", [
    lambda: disjoint_cubes(1), lambda: disjoint_cubes(2), lambda: disjoint_cubes(4),
    open_box, two_tetrahedra_shared_vertex, fixtures.l_prism,
    lambda: PolyhedralSurface(np.eye(3), [(0, 1, 2)]),
])
def test_component_count_equals_dfs_reference(build):
    surface = build()
    count = reference_face_component_count(surface)
    reported = [v.location for v in validate_surface(surface).violations
                if v.kind == "disconnected"]
    assert reported == ([] if count == 1 else [(count,)])


def test_nonplanar_face_detected(cube):
    verts = np.array(cube.vertices, copy=True)
    verts[6] += 1e-3  # bend a corner of three quads
    d = validate_surface(PolyhedralSurface(verts, cube.faces))
    assert any(v.kind == "nonplanar_face" for v in d.violations)


def test_planarity_tolerance_is_relative(cube):
    # same bend, mesh scaled up by 1e6: relative deviation unchanged, so
    # the verdict must not change either
    verts = np.array(cube.vertices, copy=True)
    verts[6] += 1e-3
    small = validate_surface(PolyhedralSurface(verts, cube.faces))
    big = validate_surface(PolyhedralSurface(verts * 1e6, cube.faces))
    assert ({v.kind for v in small.violations} == {v.kind for v in big.violations})


def test_degenerate_face_detected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    d = validate_surface(PolyhedralSurface(verts, faces))
    assert any(v.kind == "degenerate_face" for v in d.violations)


def test_faceless_surface_reports_isolated_vertex():
    # no faces: no volume to judge, and no cross product of an empty array
    surface = parse_off("OFF\n1 0 0\n0 0 0\n")
    assert surface.signed_volume == 0.0
    d = validate_surface(surface)
    assert d.violations == [Violation("isolated_vertex", (0,))]
    assert (d.face_count, d.edge_count, d.euler_characteristic) == (0, 0, 1)


def test_empty_surface_reported():
    d = validate_surface(parse_off("OFF\n0 0 0\n"))
    assert d.violations == [Violation("empty_surface", ())]
    assert not d.ok


def test_inward_orientation_gives_negative_volume(cube):
    inside_out = PolyhedralSurface(cube.vertices, [tuple(reversed(f)) for f in cube.faces])
    d = validate_surface(inside_out)
    assert any(v.kind == "negative_volume" for v in d.violations)


@pytest.mark.parametrize("seed", range(6))
def test_roundtrip_random_hulls_property(seed):
    surf = fixtures.generate_hull(seed, n_points=10)
    again = parse_off(serialize_off(surf))
    assert again.faces == surf.faces
    assert np.array_equal(again.vertices, surf.vertices)
    assert validate_surface(surf).ok


def test_euler_genus_zero_for_generated_meshes():
    for seed in range(4):
        d = validate_surface(fixtures.generate_star_sphere(seed, 1, 0.2))
        assert d.euler_characteristic == 2
    d = validate_surface(fixtures.notched_box(3))
    assert d.euler_characteristic == 2


def test_constructor_rejects_bad_faces():
    verts = np.zeros((3, 3))
    with pytest.raises(Exception):
        PolyhedralSurface(verts, [(0, 1)])
    with pytest.raises(Exception):
        PolyhedralSurface(verts, [(0, 1, 5)])
    with pytest.raises(Exception):
        PolyhedralSurface(verts, [(0, 1, 1)])


def test_constructor_takes_integer_indices_only(cube):
    # a float index is rejected, not truncated to (3, 0, 4, 7)
    for bad in (0.7, 1.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            PolyhedralSurface(cube.vertices, [(3, bad, 4, 7)])
    # numpy integer rows, as the star-sphere generator passes, are stored as ints
    surface = PolyhedralSurface(cube.vertices, np.array(cube.faces, dtype=np.int64))
    assert surface.faces == cube.faces
    assert all(type(i) is int for face in surface.faces for i in face)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * MAX_ABS_COORDINATE])
def test_constructor_rejects_coordinates_parse_off_rejects(cube, bad):
    verts = cube.vertices.copy()
    verts[5, 1] = bad
    with pytest.raises(MeshError, match="not finite or exceeds 1e\\+50"):
        PolyhedralSurface(verts, cube.faces)
    verts[5, 1] = -MAX_ABS_COORDINATE  # the bound itself is accepted
    assert PolyhedralSurface(verts, cube.faces).faces == cube.faces


def test_diagnostics_json_shape(cube):
    d = validate_surface(cube).to_json_dict()
    assert set(d) == {"counts", "euler", "violations"}
    assert d["euler"] == 2
    assert d["violations"] == []


def reference_nonmanifold_vertices(surface):
    """Per-vertex link walk: the loop version of the link-cycle check.

    Judged only at vertices whose incident edges all have two faces.
    """
    inc = edge_incidence(surface)
    bad = []
    for v in range(len(surface.vertices)):
        neighbors = {}
        for fi in surface.vertex_faces[v]:
            face = surface.faces[fi]
            k = len(face)
            i = face.index(v)
            ea, eb = (tuple(sorted((v, w))) for w in (face[(i - 1) % k], face[(i + 1) % k]))
            neighbors.setdefault(ea, []).append(eb)
            neighbors.setdefault(eb, []).append(ea)
        if not neighbors or any(len(inc[e]) != 2 for e in neighbors):
            continue
        if not _link_is_single_cycle(neighbors):
            bad.append(v)
    return bad


def _link_is_single_cycle(neighbors):
    if any(len(nb) != 2 for nb in neighbors.values()):
        return False
    start = next(iter(neighbors))
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = list(neighbors[cur])
        if prev is not None:
            nxt.remove(prev)  # drop one traversed side, duplicates allowed
        if not nxt:
            return False
        step = nxt[0]
        if step == start:
            break
        if step in seen:
            return False
        seen.add(step)
        prev, cur = cur, step
    return len(seen) == len(neighbors)


def cubes_sharing_vertex():
    # the second cube is the first moved by (1, 1, 1): its vertex 0 is the
    # first cube's vertex 6
    cube = fixtures.cube()
    verts = np.vstack([cube.vertices, cube.vertices[1:] + 1.0])
    second = [tuple(6 if v == 0 else v + 7 for v in f) for f in cube.faces]
    return PolyhedralSurface(verts, list(cube.faces) + second)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda name=name: fixtures.builtin(name), id=name)
      for name in sorted(fixtures.BUILTIN)),
    pytest.param(two_tetrahedra_shared_vertex, id="two-tetrahedra"),
    pytest.param(open_box, id="open-box"),
    pytest.param(cubes_sharing_vertex, id="cubes-sharing-vertex"),
    pytest.param(lambda: disjoint_cubes(2), id="disjoint-cubes"),
    pytest.param(lambda: PolyhedralSurface(np.eye(3), [(0, 1, 2), (0, 2, 1)]), id="pillow"),
    pytest.param(lambda: PolyhedralSurface(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], [(0, 1, 2), (0, 3, 4)]),
        id="open-bowtie"),
    *(pytest.param(lambda seed=seed: fixtures.generate_hull(seed, n_points=10),
                   id="hull-%d" % seed) for seed in range(4)),
    *(pytest.param(lambda seed=seed: fixtures.generate_star_sphere(seed),
                   id="star-%d" % seed) for seed in range(3)),
])
def test_link_verdicts_equal_walk_reference(build):
    surface = build()
    reported = [v.location[0] for v in validate_surface(surface).violations
                if v.kind == "nonmanifold_vertex"]
    assert reported == reference_nonmanifold_vertices(surface)


# ----------------------------------------------------------------------
# midpoint subdivision


def reference_star_sphere(seed, subdivisions=1, amplitude=0.25):
    """Reference: the dict walk over midpoints, each projected to the sphere."""
    verts = [tuple(p) for p in fixtures._OCTAHEDRON_VERTS]
    faces = list(fixtures._OCTAHEDRON_FACES)
    for _ in range(int(subdivisions)):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                p = np.asarray(verts[i]) + np.asarray(verts[j])
                midpoint[key] = len(verts)
                verts.append(tuple(p / np.linalg.norm(p)))
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    v = np.asarray(verts, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x57)))
    radii = 1.0 + amplitude * (2.0 * rng.uniform(size=len(v)) - 1.0)
    return v * radii[:, None], faces


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_star_sphere_equals_dict_walk_reference(subdivisions):
    for seed in range(20):
        surface = fixtures.generate_star_sphere(seed, subdivisions)
        verts, faces = reference_star_sphere(seed, subdivisions)
        assert np.array_equal(surface.vertices, verts), seed
        assert surface.faces == tuple(faces), seed


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), n_points=st.integers(4, 24))
def test_midpoint_subdivide_on_hulls(seed, n_points):
    hull = fixtures.generate_hull(seed, n_points)
    tris = np.array(hull.faces, dtype=np.int64)
    nv, ne = len(hull.vertices), len(hull.edge_list)
    verts, children, parents = midpoint_subdivide(hull.vertices, tris)
    assert verts.shape == (nv + ne, 3) and children.shape == (4 * len(tris), 3)
    assert np.array_equal(verts[:nv], hull.vertices)
    # new vertex nv + k is the midpoint of edge parents[k], bit for bit
    assert parents.shape == (ne, 2) and parents.dtype == np.int64
    assert np.array_equal(verts[nv:], 0.5 * (verts[parents[:, 0]] + verts[parents[:, 1]]))
    assert {tuple(sorted(e)) for e in parents.tolist()} == set(hull.edge_list)
    # the middle child of (a, b, c) is (ab, bc, ca)
    mids = children[3::4]
    assert sorted(set(mids.ravel().tolist())) == list(range(nv, nv + ne))
    for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        assert np.array_equal(verts[mids[:, k]], 0.5 * (verts[tris[:, i]] + verts[tris[:, j]]))
    d = validate_surface(PolyhedralSurface(verts, children))
    assert d.ok
    assert d.euler_characteristic == validate_surface(hull).euler_characteristic


def reference_midpoint_subdivide(vertices, triangles):
    """Reference: the midpoints numbered through ``np.unique``'s first
    indices and inverse, then two argsorts into order of first use."""
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    ends = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.minimum(ends[:, 0], ends[:, 1]) * len(v) + np.maximum(ends[:, 0], ends[:, 1])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct edges in order of first use
    ab, bc, ca = (len(v) + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b, c = t.T
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    new = ends[first[order]]
    return np.vstack([v, 0.5 * (v[new[:, 0]] + v[new[:, 1]])]), children, new


@st.composite
def triangle_soups(draw):
    """``(vertices, triangles)``: open soups whose corners come from a pool
    of 3-7 vertices, so that edges are shared in either direction, with
    some triangles drawn again and 0-3 spare vertices no triangle uses."""
    used, spare = draw(st.integers(3, 7)), draw(st.integers(0, 3))
    tri = st.lists(st.integers(0, used - 1), min_size=3, max_size=3, unique=True)
    tris = draw(st.lists(tri, max_size=12))
    if tris:
        tris = draw(st.permutations(tris + draw(st.lists(st.sampled_from(tris), max_size=4))))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(used + spare, 3)), np.array(tris, dtype=dtype).reshape(-1, 3)


SOUP_VERTS = np.random.default_rng(5).normal(size=(7, 3))


@settings(max_examples=200)
@given(soup=triangle_soups())
@example(soup=(SOUP_VERTS[:3], np.zeros((0, 3), dtype=np.int64)))  # no triangles
@example(soup=(SOUP_VERTS[:4], np.array([[2, 0, 3]])))  # one triangle, vertex 1 spare
# a book of four pages: edge 01 used four times, alternately 0 -> 1 and 1 -> 0
@example(soup=(SOUP_VERTS, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 0, 5]])))
# a triangle drawn three times
@example(soup=(SOUP_VERTS[:4], np.array([[0, 1, 2], [2, 1, 3], [0, 1, 2], [0, 1, 2]])))
def test_midpoint_subdivide_equals_unique_reference(soup):
    verts, tris = soup
    got = midpoint_subdivide(verts, tris)
    for out, want in zip(got, reference_midpoint_subdivide(verts, tris), strict=True):
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)


# ----------------------------------------------------------------------
# Newell normals and the surface memo


def reference_face_newell(surface):
    """The per-face loop: Newell's sum relative to the face's first corner."""
    out = np.zeros((len(surface.faces), 3))
    for fi, face in enumerate(surface.faces):
        p = surface.vertices[list(face)] - surface.vertices[face[0]]
        out[fi] = np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0)
    return out


def reference_face_plane_deviation(surface, fi):
    """One face: the largest distance of its vertices to their
    least-squares plane, from one SVD of its centred corners."""
    p = surface.vertices[list(surface.faces[fi])]
    q = p - p.mean(axis=0)
    # smallest right singular vector spans the plane normal
    _, _, vt = np.linalg.svd(q, full_matrices=False)
    return float(np.abs(q @ vt[-1]).max())


def reference_face_plane_deviations(surface):
    return [reference_face_plane_deviation(surface, fi) if len(face) > 3 else 0.0
            for fi, face in enumerate(surface.faces)]


def reference_signed_volume(surface):
    """Sum of ``p0 . (p1 x p2) / 6`` over the triangles, in absolute
    coordinates."""
    p = surface.vertices[surface.triangles[0]]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


NEWELL_MESHES = (
    [(name, build) for name, build in sorted(fixtures.BUILTIN.items())]
    + [("notched-box-%d" % k, lambda k=k: fixtures.notched_box(k, height=1.0 + 0.3 * k))
       for k in range(1, 5)]
    + [("hull-%d" % seed, lambda seed=seed: fixtures.generate_hull(seed, n_points=4 + seed))
       for seed in range(12)]
    + [("star-%d-%d" % (seed, sub), lambda seed=seed, sub=sub:
        fixtures.generate_star_sphere(seed, subdivisions=sub, amplitude=0.05 + 0.05 * seed))
       for seed in range(5) for sub in (1, 2)]
)


@pytest.mark.parametrize("shift", [0.0, 100.0], ids=["origin", "shifted"])
@pytest.mark.parametrize("name,build", NEWELL_MESHES, ids=[m[0] for m in NEWELL_MESHES])
def test_face_newell_equals_per_face_loop(name, build, shift):
    # the grouped sum adds the same terms in the same order: equal bit for bit,
    # also 100 sizes from the origin
    surface = build()
    if shift:
        offset = shift * surface.bbox_diagonal * np.array([1.0, -2.0, 3.0])
        surface = PolyhedralSurface(surface.vertices + offset, surface.faces)
    assert np.array_equal(surface._face_newell, reference_face_newell(surface))


def test_memo_computes_each_key_once(cube):
    surface = PolyhedralSurface(cube.vertices, cube.faces)
    calls = []

    def compute(s, *args):
        assert s is surface
        calls.append(args)
        return len(args)

    for _ in range(3):
        assert surface.memo[compute] == 0
        assert surface.memo[compute, 1] == 1
        assert surface.memo[compute, 1, "x"] == 2
    assert calls == [(), (1,), (1, "x")]
    assert set(surface.memo) == {compute, (compute, 1), (compute, 1, "x")}


def test_memo_stores_nothing_when_compute_raises(cube):
    surface = PolyhedralSurface(cube.vertices, cube.faces)
    calls = []

    def compute(s, tau):
        calls.append(tau)
        raise ValueError("tau must be finite")

    for _ in range(2):
        with pytest.raises(ValueError, match="tau"):
            surface.memo[compute, float("nan")]
    assert len(calls) == 2 and len(surface.memo) == 0


def test_dropped_surface_is_freed_without_the_collector(cube):
    # the memo holds its surface weakly: no reference cycle for gc to find
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        surface = PolyhedralSurface(cube.vertices, cube.faces)
        dihedral_angles(surface)
        separation_radius(surface, 0)
        for side in ("interior", "exterior"):
            quotient_graph(surface, side)
            validate_partition(surface, Partition(("D",) * 6, side))
        assert surface.memo
        alive = weakref.ref(surface)
        del surface
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def random_multigraph(seed):
    # unsorted rows, repeated and reversed edges, self-loops, isolated nodes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    rows, cols = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
    return n, rows, cols


def doubled_cycles():
    # cycles 0-19 and 20-39, every edge twice one way and once the other,
    # a self-loop at every node: scipy's strong components need these
    # duplicates removed
    i = np.arange(40)
    j = np.where(i % 20 == 19, i - 19, i + 1)
    return 40, np.concatenate([i, i, j, i]), np.concatenate([j, j, i, i])


NO_EDGES = np.zeros(0, dtype=np.int64)
COMPONENT_GRAPHS = (
    [pytest.param(lambda seed=seed: random_multigraph(seed), id=str(seed)) for seed in range(20)]
    + [pytest.param(doubled_cycles, id="doubled-cycles"),
       pytest.param(lambda: (12, np.array([9, 3, 9, 3, 5]), np.array([3, 9, 9, 5, 3])),
                    id="isolated-nodes"),
       pytest.param(lambda: (0, NO_EDGES, NO_EDGES), id="n0"),
       pytest.param(lambda: (1, NO_EDGES, NO_EDGES), id="n1"),
       pytest.param(lambda: (7, NO_EDGES, NO_EDGES), id="no-edges")]
)


@pytest.mark.parametrize("graph", COMPONENT_GRAPHS)
def test_undirected_components_match_scipy_on_coo(graph):
    n, rows, cols = graph()
    coo = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    count, labels = undirected_components(n, rows, cols)
    expected_count, expected = connected_components(coo, directed=False)
    assert count == expected_count and labels.tolist() == expected.tolist()


def in_least_node_order(labels):
    first = {}
    for node, label in enumerate(labels.tolist()):
        first.setdefault(label, node)
    return list(first) == list(range(len(first)))


UNION_GRAPHS = [random_multigraph(seed) for seed in range(8)] + [
    doubled_cycles(), (0, NO_EDGES, NO_EDGES), (1, NO_EDGES, NO_EDGES),
    (1, np.array([0, 0]), np.array([0, 0])), (5, NO_EDGES, NO_EDGES)]


def test_undirected_components_of_disjoint_union():
    # the identity one block-diagonal call rests on: G2's nodes after G1's,
    # the union's edges in shuffled order
    rng = np.random.default_rng(17)
    for n1, r1, c1 in UNION_GRAPHS:
        k1, l1 = undirected_components(n1, r1, c1)
        assert in_least_node_order(l1)
        for n2, r2, c2 in UNION_GRAPHS:
            k2, l2 = undirected_components(n2, r2, c2)
            order = rng.permutation(len(r1) + len(r2))
            rows = np.concatenate([r1, r2 + n1])[order]
            cols = np.concatenate([c1, c2 + n1])[order]
            count, labels = undirected_components(n1 + n2, rows, cols)
            assert count == k1 + k2
            assert labels.tolist() == l1.tolist() + (l2 + k1).tolist()


def test_least_node_order_renumbers_by_first_node():
    labels = np.array([2, 0, 2, 1, 0, 3, 1], dtype=np.int32)
    assert _least_node_order(4, labels).tolist() == [0, 1, 0, 2, 1, 3, 2]
    assert _least_node_order(4, np.array([0, 1, 0, 2, 1, 3, 2])).tolist() == [0, 1, 0, 2, 1, 3, 2]
    assert _least_node_order(0, np.zeros(0, dtype=np.int32)).tolist() == []


@pytest.mark.parametrize("labels, renumbered", [
    ([0, 0, 1, 0, 2, 1], False),
    ([0], False),
    ([], False),
    ([1, 0], True),        # labels[0] != 0
    ([0, 2, 1], True),     # 2 before 1
    ([0, 1, 3, 2, 1], True),
])
def test_undirected_components_renumbers_only_out_of_order_labels(labels, renumbered, monkeypatch):
    # scipy's labels stand in for a fixed labeling; the order test alone
    # decides whether they are renumbered
    labels = np.array(labels, dtype=np.int32)
    count = len(set(labels.tolist()))
    calls = []

    def renumber(count, labels):
        calls.append(labels)
        return _least_node_order(count, labels)

    monkeypatch.setattr(mesh, "connected_components", lambda *args, **kwargs: (count, labels))
    monkeypatch.setattr(mesh, "_least_node_order", renumber)
    got_count, got = undirected_components(len(labels), NO_EDGES, NO_EDGES)
    assert got_count == count and in_least_node_order(got)
    assert len(calls) == int(renumbered)
    if not renumbered:
        assert got is labels


def test_validation_and_both_quotient_sides_make_two_component_calls(monkeypatch):
    # one block-diagonal graph for the vertex links and the face adjacency,
    # one for both sides' quotient graphs
    sizes = []

    def counted(graph, *args, **kwargs):
        sizes.append(graph.shape[0])
        return connected_components(graph, *args, **kwargs)

    monkeypatch.setattr(mesh, "connected_components", counted)
    for surface in (fixtures.generate_hull(3, 9), fixtures.notched_box(2),
                    fixtures.generate_star_sphere(5, 1, 0.2)):
        sizes.clear()
        assert validate_surface(surface).ok
        for side in ("interior", "exterior"):
            quotient_graph(surface, side)
        nf = len(surface.faces)
        assert sizes == [2 * len(surface.edge_list) + nf, 2 * nf]


def cross_cases():
    rng = np.random.default_rng(23)
    big = rng.normal(size=(9, 4, 3)) * 10.0 ** rng.integers(-200, 200, size=(9, 4, 1))
    odd = np.array([[np.inf, 1.0, 0.0], [-np.inf, np.nan, 2.0], [0.0, -0.0, 0.0],
                    [1e308, -1e308, 1e-320], [np.nan, 0.0, np.inf]])
    return [
        (rng.normal(size=(12, 3)), rng.normal(size=(12, 3))),  # random
        (rng.normal(size=(18, 4, 3)), rng.normal(size=(18, 4, 3))),  # stacked
        (big[:, 1], big[:, 2]),  # strided views
        (rng.normal(size=3), rng.normal(size=3)),
        (np.array([1.0, 0.0, 0.0]), rng.normal(size=(7, 3))),  # broadcast
        (rng.normal(size=(5, 1, 3)), rng.normal(size=(4, 3))),
        (np.zeros((4, 3)), -np.zeros((4, 3))),  # zeros
        (np.zeros(3), rng.normal(size=(2, 3))),
        (odd, odd[::-1]),  # non-finite
        (odd, rng.normal(size=(5, 3))),
    ]


def test_cross_equals_numpy_cross_bit_for_bit():
    with np.errstate(all="ignore"):
        for a, b in cross_cases():
            for x, y in ((a, b), (b, a)):
                expected, got = np.cross(x, y), _cross(x, y)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# per-simplex, per-face and per-corner reference formulas


def reference_generate_hull(seed, n_points):
    """The per-simplex loop: each simplex oriented by its own cross and dot."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x48)))
    pts = rng.normal(size=(int(n_points), 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    hull = ConvexHull(pts)
    used = sorted(set(hull.simplices.ravel().tolist()))
    remap = {old: new for new, old in enumerate(used)}
    faces = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (pts[i] for i in simplex)
        cyc = tuple(simplex) if np.cross(b - a, c - a) @ eq[:3] > 0 else tuple(simplex[::-1])
        faces.append(tuple(remap[i] for i in cyc))
    return pts[used], tuple(faces)


@pytest.mark.parametrize("n_points", range(4, 21))
def test_generate_hull_equals_per_simplex_reference(n_points):
    for seed in range(200):
        surface = fixtures.generate_hull(seed, n_points)
        verts, faces = reference_generate_hull(seed, n_points)
        assert np.array_equal(surface.vertices, verts) and surface.faces == faces, seed


def reference_plane_basis(n):
    """One unit normal at a time, normalized by np.linalg.norm."""
    h = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(h, n)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


def reference_triangulate_face(surface, fi, root_offset=0):
    """Per face: reference_plane_basis, then the array forms of the
    convexity test and the ear clip."""
    face = surface.faces[fi]
    k = len(face)
    if k == 3:
        return [tuple(face)]
    n = surface.face_normals[fi]
    u, w = reference_plane_basis(n if np.any(n) else np.array([0.0, 0.0, 1.0]))
    rel = surface.vertices[list(face)] - surface.vertices[face[0]]
    pts2 = np.column_stack([rel @ u, rel @ w])
    e = np.roll(pts2, -1, axis=0) - pts2
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if np.all(cross > 1e-12 * (float(np.abs(e).max()) ** 2 or 1.0)):
        root = (min(range(k), key=lambda i: face[i]) + root_offset) % k
        return [(face[root], face[(root + i) % k], face[(root + i + 1) % k])
                for i in range(1, k - 1)]
    return [(face[a], face[b], face[c]) for a, b, c in reference_ear_clip(pts2, root_offset % k)]


def reference_ear_clip(pts2, start):
    def cross2(u, v):
        return float(u[0] * v[1] - u[1] * v[0])

    def inside(p, a, b, c):
        return all(d >= -tol for d in (cross2(b - a, p - a), cross2(c - b, p - b),
                                       cross2(a - c, p - c)))

    n = len(pts2)
    remaining, tris, cursor = list(range(n)), [], start % n
    scale = float(np.abs(pts2).max()) or 1.0
    tol = 1e-12 * scale * scale
    for _ in range(2 * n * n):
        m = len(remaining)
        if m <= 3:
            break
        for probe in range(m):
            i = (cursor + probe) % m
            ia, ib, ic = remaining[(i - 1) % m], remaining[i], remaining[(i + 1) % m]
            a, b, c = pts2[ia], pts2[ib], pts2[ic]
            if cross2(b - a, c - b) > tol and not any(
                    inside(pts2[o], a, b, c) for o in remaining if o not in (ia, ib, ic)):
                tris.append((ia, ib, ic))
                cursor = i % (m - 1)
                remaining.pop(i)
                break
        else:
            break
    return tris + [(remaining[0], remaining[i], remaining[i + 1])
                   for i in range(1, len(remaining) - 1)]


def reference_components(n, rows, cols):
    """scipy's undirected components of the COO multigraph."""
    coo = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(coo, directed=False)


def reference_vertex_link_pieces(surface):
    """Link node numbers one corner at a time, through the reference edge_index."""
    eidx = edge_index(surface)

    def node(v, w):
        return 2 * eidx[(v, w) if v < w else (w, v)] + (v > w)

    joined = [(node(v, face[i - 1]), node(v, face[(i + 1) % len(face)]))
              for face in surface.faces for i, v in enumerate(face)]
    rows, cols = np.array(joined, dtype=np.int64).reshape(-1, 2).T
    count, labels = reference_components(2 * len(eidx), rows, cols)
    piece_vertex = np.empty(count, dtype=np.int64)
    piece_vertex[labels] = np.array(list(eidx), dtype=np.int64).ravel()
    return np.bincount(piece_vertex, minlength=len(surface.vertices))


def reference_connectivity(surface):
    """Link pieces and face-adjacency components, one scipy call per graph."""
    joined = [(inc[0][0], f) for inc in edge_incidence(surface).values() for f, _ in inc[1:]]
    rows, cols = np.array(joined, dtype=np.int64).reshape(-1, 2).T
    count, _ = reference_components(len(surface.faces), rows, cols)
    return reference_vertex_link_pieces(surface), count


def reference_quotient_graphs(surface, tau):
    """Each side's quotient graph from its own scipy call."""
    topo = [(inc[0][0], inc[1][0]) for _, inc in sorted(edge_incidence(surface).items())]
    f0, f1 = np.array(topo, dtype=np.int64).reshape(-1, 2).T
    graphs = {}
    for side in partition.SIDES:
        blocked = surface.memo[partition._blocked_edges, side, tau]
        count, face_class = reference_components(len(surface.faces), f0[blocked], f1[blocked])
        graphs[side] = partition._quotient(side, count, face_class, f0, f1, blocked)
    return graphs


def search_family_meshes(family, sizes):
    return [GeneratorSpec(family, seed, *sizes).build(index)[1]
            for seed in range(40) for index in range(3)]


REFERENCE_FORMULA_MESHES = {
    "fixtures": lambda: [fixtures.builtin(name) for name in sorted(fixtures.BUILTIN)]
    + [open_box(), two_tetrahedra_shared_vertex(), disjoint_cubes(2)],
    "reflex": lambda: REFLEX_MESHES,
    # every face cycle started at another corner, so reflex and straight
    # corners also come first and last
    "reflex-rotated": lambda: [PolyhedralSurface(s.vertices, [f[r % len(f):] + f[:r % len(f)]
                                                              for f in s.faces])
                               for s in REFLEX_MESHES for r in range(1, 6)],
    "notched-boxes-1-6": lambda: [fixtures.notched_box(k) for k in range(1, 7)],
    "search-hulls": lambda: search_family_meshes("hulls", (4, 10)),
    "search-star-spheres": lambda: search_family_meshes("star-spheres", (1, 2)),
    "search-notched-boxes": lambda: search_family_meshes("notched-boxes", (1, 4)),
}


@pytest.mark.parametrize("group", REFERENCE_FORMULA_MESHES)
def test_mesh_outputs_equal_reference_formulas(group, monkeypatch):
    # triangles at every root offset, link pieces, the validation report and
    # both quotient graphs, each on a fresh surface, equal those the
    # reference formulas give
    sides = ("interior", "exterior")
    for surface in REFERENCE_FORMULA_MESHES[group]():
        new = PolyhedralSurface(surface.vertices, surface.faces)
        old = PolyhedralSurface(surface.vertices, surface.faces)
        for offset in range(4):
            expected = [t for fi in range(len(old.faces))
                        for t in reference_triangulate_face(old, fi, offset)]
            assert new.triangulate(offset)[0].tolist() == [list(t) for t in expected]
        link_pieces, face_components = _connectivity(new)
        expected_pieces, expected_components = reference_connectivity(old)
        assert link_pieces.tolist() == expected_pieces.tolist()
        assert face_components == expected_components
        diagnostics = validate_surface(new)
        graphs = [quotient_graph(new, side) for side in sides] if diagnostics.ok else []
        # the expected values come from one scipy call per graph, not from
        # the block-diagonal calls with scipy swapped in
        with monkeypatch.context() as patch:
            patch.setattr(mesh, "_connectivity", reference_connectivity)
            patch.setattr(partition, "_quotient_graphs", reference_quotient_graphs)
            patch.setattr(PolyhedralSurface, "triangulate_face", reference_triangulate_face)
            patch.setattr(PolyhedralSurface, "face_plane_deviations", property(
                lambda s: np.array(reference_face_plane_deviations(s))))
            patch.setattr(PolyhedralSurface, "signed_volume", property(reference_signed_volume))
            expected = validate_surface(old)
            assert json.dumps(diagnostics.to_json_dict()) == json.dumps(expected.to_json_dict())
            assert graphs == ([quotient_graph(old, side) for side in sides] if expected.ok else [])


def reference_validation(surface):
    """The report of :func:`validate_surface` from the dict walk: the
    per-edge loop for edge counts and orientation, :func:`reference_connectivity`
    for vertex links and face components, and the surface's own face
    geometry for planarity, degeneracy and volume."""
    inc = edge_incidence(surface)
    violations, open_ends = [], set()
    for (a, b), uses in sorted(inc.items()):
        if len(uses) != 2:
            violations.append(Violation("edge_face_count", (a, b, len(uses))))
            open_ends.update((a, b))
        elif uses[0][1] == uses[1][1]:
            violations.append(Violation("orientation", (a, b)))
    closed_and_oriented = not violations
    pieces, components = reference_connectivity(surface)
    for v in range(len(surface.vertices)):
        if not any(v in face for face in surface.faces):
            violations.append(Violation("isolated_vertex", (v,)))
        elif v not in open_ends and pieces[v] != 1:
            violations.append(Violation("nonmanifold_vertex", (v,)))
    nv, nf = len(surface.vertices), len(surface.faces)
    if not nf and not nv:
        violations.append(Violation("empty_surface", ()))
    if nf and components != 1:
        violations.append(Violation("disconnected", (components,)))
    diag = surface.bbox_diagonal or 1.0
    for fi in range(nf):
        deviation = float(surface.face_plane_deviations[fi])
        if surface.face_areas[fi] <= mesh.DEGENERATE_AREA_REL_TOL * diag * diag:
            violations.append(Violation("degenerate_face", (fi,)))
        elif deviation > mesh.PLANAR_REL_TOL * diag:
            violations.append(Violation("nonplanar_face", (fi, deviation)))
    if nf and closed_and_oriented and surface.signed_volume <= 0.0:
        violations.append(Violation("negative_volume", (surface.signed_volume,)))
    return mesh.MeshDiagnostics(nv, len(inc), nf, nv - len(inc) + nf, violations)


@st.composite
def face_soups(draw):
    """``(vertices, faces)``: faces of 3-5 distinct corners from a pool of
    3-7 vertices, so that edges are used once or several times in either
    direction; some faces are drawn again, as they are or reversed, and
    0-3 spare vertices are used by no face."""
    used, spare = draw(st.integers(3, 7)), draw(st.integers(0, 3))
    face = st.integers(3, min(5, used)).flatmap(
        lambda k: st.lists(st.integers(0, used - 1), min_size=k, max_size=k, unique=True))
    faces = draw(st.lists(face, max_size=10))
    if faces:
        again = draw(st.lists(st.tuples(st.sampled_from(faces), st.booleans()), max_size=3))
        faces += [f[::-1] if flip else f for f, flip in again]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(used + spare, 3)), [tuple(f) for f in faces]


CUBE = fixtures.cube()


@settings(max_examples=300)
@given(soup=face_soups())
@example(soup=(np.zeros((0, 3)), []))  # no faces, no vertices
@example(soup=(SOUP_VERTS[:3], []))  # no faces, three isolated vertices
@example(soup=(SOUP_VERTS[:4], [(2, 0, 3)]))  # every edge used once, vertex 1 spare
# books of three and four pages: edge 01 used three and four times
@example(soup=(SOUP_VERTS, [(0, 1, 2), (1, 0, 3), (0, 1, 4)]))
@example(soup=(SOUP_VERTS, [(0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 0, 5)]))
@example(soup=(SOUP_VERTS[:4], [(0, 1, 2), (0, 1, 3)]))  # a misoriented pair
@example(soup=(CUBE.vertices, list(CUBE.faces)))  # closed and valid
@example(soup=(CUBE.vertices, [CUBE.faces[0][::-1]] + list(CUBE.faces[1:])))  # one face flipped
@example(soup=(CUBE.vertices, [f[::-1] for f in CUBE.faces]))  # turned inside out
def test_half_edge_table_equals_dict_walk(soup):
    surface = PolyhedralSurface(*soup)
    inc = edge_incidence(surface)
    eidx = edge_index(surface)
    h = surface.half_edges
    assert not any(column.flags.writeable for column in h)
    rows = [(v, face[(i + 1) % len(face)], fi)
            for fi, face in enumerate(surface.faces) for i, v in enumerate(face)]
    assert list(zip(h.tail.tolist(), h.head.tolist(), h.face.tolist())) == rows
    assert h.edge.tolist() == [eidx[(min(a, b), max(a, b))] for a, b, _ in rows]
    assert surface.edge_list == tuple(sorted(inc))
    assert all(type(i) is int for edge in surface.edge_list for i in edge)
    assert validate_surface(surface).to_json_dict() == reference_validation(surface).to_json_dict()
    pieces, components = _connectivity(surface)
    expected_pieces, expected_components = reference_connectivity(surface)
    assert pieces.tolist() == expected_pieces.tolist()
    assert components == expected_components


def turned_notched_boxes(bend):
    """Notched boxes 1-6, each turned to 10 random orientations and moved by
    up to about 1e6; with ``bend``, every vertex also moves by about
    ``bend``, so that no face stays planar."""
    rng = np.random.default_rng(3)
    out = []
    for k in range(1, 7):
        box = fixtures.notched_box(k)
        for r in Rotation.random(10, random_state=rng):
            v = box.vertices @ r.as_matrix().T + 10.0 ** rng.uniform(0, 6) * rng.normal(size=3)
            out.append(PolyhedralSurface(v + bend * rng.normal(size=v.shape), box.faces))
    return out


PLANE_FIT_MESHES = dict(REFERENCE_FORMULA_MESHES, turned=lambda: turned_notched_boxes(0.0),
                        bent=lambda: turned_notched_boxes(1e-3))


@pytest.mark.parametrize("group", PLANE_FIT_MESHES)
def test_face_plane_deviations_equal_per_face_svd(group):
    # one stacked SVD per face size gives every face the bits of its own SVD;
    # the axis-aligned groups read exact zeros, the turned and bent ones do not
    for surface in PLANE_FIT_MESHES[group]():
        got = surface.face_plane_deviations
        assert not got.flags.writeable
        assert got.tolist() == reference_face_plane_deviations(surface)


CLOSED_FORM_VOLUMES = [
    ("cube", fixtures.cube, 1.0),
    ("l-prism", fixtures.l_prism, 6.0),
    ("notched-box-1", lambda: fixtures.notched_box(1), 10.0),
    ("square-pyramid", fixtures.square_pyramid, 2.0 / 3.0),
]


@pytest.mark.parametrize("name,build,volume", CLOSED_FORM_VOLUMES,
                         ids=[c[0] for c in CLOSED_FORM_VOLUMES])
def test_signed_volume_equals_closed_form(name, build, volume):
    surface = build()
    inside_out = PolyhedralSurface(surface.vertices, [f[::-1] for f in surface.faces])
    assert (surface.signed_volume, inside_out.signed_volume) == (volume, -volume)
    # turned and moved 1e6 sizes away, the coordinates round by about 1e-10,
    # but the volume is taken about a vertex of the surface; the sum over
    # triangles in absolute coordinates (reference_signed_volume) reads
    # -1.57 for the cube here
    rotation = Rotation.from_euler("xyz", (0.3, 0.5, 0.7)).as_matrix()
    far = surface.vertices @ rotation.T + 1e6 * np.array([1.0, 0.31, -0.73])
    assert PolyhedralSurface(far, surface.faces).signed_volume == pytest.approx(volume, rel=1e-8)
    assert (PolyhedralSurface(far, inside_out.faces).signed_volume
            == pytest.approx(-volume, rel=1e-8))


def test_validation_angles_and_quotients_never_triangulate(monkeypatch):
    # the volume comes from the Newell normals and the plane fits from the
    # corners, so no triangle is made on the way to a search record
    def refuse(*args, **kwargs):
        raise AssertionError("triangulated")

    monkeypatch.setattr(PolyhedralSurface, "triangulate", refuse)
    monkeypatch.setattr(PolyhedralSurface, "triangulate_face", refuse)
    for surface in (fixtures.generate_hull(3, 9), fixtures.notched_box(2),
                    fixtures.generate_star_sphere(5, 1, 0.2)):
        assert validate_surface(surface).ok
        dihedral_angles(surface)
        for side in ("interior", "exterior"):
            quotient_graph(surface, side)
    with pytest.raises(AssertionError, match="triangulated"):
        surface.triangles


def test_plane_basis_equals_per_vector_reference():
    # stacked and one at a time; np.linalg.norm(u, axis=-1) in place of the
    # stacked product differs from the reference in 9% of these rows
    normals = np.random.default_rng(5).normal(size=(4000, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    normals[:6] = np.vstack([np.eye(3), -np.eye(3)])
    stacked = plane_basis(normals)
    for i, n in enumerate(normals):
        expected = reference_plane_basis(n)
        for got in (plane_basis(n), (stacked[0][i], stacked[1][i])):
            assert all(np.array_equal(g, e) for g, e in zip(got, expected)), i


def test_face_axes_equal_plane_basis_row_by_row():
    # notched boxes turned to 60 random orientations, the reflex meshes, and
    # a face whose Newell normal is zero (the axes of (0, 0, 1))
    box = fixtures.notched_box(3)
    turned = [PolyhedralSurface(r.apply(box.vertices.copy()), box.faces)
              for r in Rotation.random(60, random_state=np.random.default_rng(11))]
    flat = PolyhedralSurface([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], [(0, 1, 2, 3)])
    for surface in turned + REFLEX_MESHES + [fixtures.cube(), fixtures.square_pyramid(), flat]:
        axes = surface._face_axes
        assert axes.shape == (len(surface.faces), 2, 3)
        for fi, face in enumerate(surface.faces):
            if len(face) == 3:
                assert not axes[fi].any()
                continue
            n = surface.face_normals[fi]
            u, w = reference_plane_basis(n if np.any(n) else np.array([0.0, 0.0, 1.0]))
            assert np.array_equal(axes[fi, 0], u) and np.array_equal(axes[fi, 1], w), fi
