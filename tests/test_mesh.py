import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymix import fixtures
from polymix.mesh import (
    OffParseError,
    PolyhedralSurface,
    Violation,
    midpoint_subdivide,
    parse_off,
    serialize_off,
    validate_surface,
)

from conftest import CUBE_OFF, PYRAMID_OFF


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
    s = fixtures.two_tetrahedra_shared_vertex()
    d = validate_surface(s)
    kinds = {v.kind for v in d.violations}
    assert "nonmanifold_vertex" in kinds
    bad_vertices = [v.location[0] for v in d.violations if v.kind == "nonmanifold_vertex"]
    assert bad_vertices == [0]  # only the shared vertex


def test_open_box_reports_boundary_edges():
    d = validate_surface(fixtures.open_box())
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
    for inc in surface.edge_incidence.values():
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
    fixtures.open_box, fixtures.two_tetrahedra_shared_vertex, fixtures.l_prism,
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
    d = validate_surface(parse_off("OFF\n1 0 0\n0 0 0\n"))
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


def test_diagnostics_json_shape(cube):
    d = validate_surface(cube).to_json_dict()
    assert set(d) == {"counts", "euler", "violations"}
    assert d["euler"] == 2
    assert d["violations"] == []


def reference_nonmanifold_vertices(surface):
    """Per-vertex link walk: the loop version of the link-cycle check.

    Judged only at vertices whose incident edges all have two faces.
    """
    inc = surface.edge_incidence
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
    pytest.param(fixtures.two_tetrahedra_shared_vertex, id="two-tetrahedra"),
    pytest.param(fixtures.open_box, id="open-box"),
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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_points=st.integers(4, 24))
def test_midpoint_subdivide_on_hulls(seed, n_points):
    hull = fixtures.generate_hull(seed, n_points)
    tris = np.array(hull.faces, dtype=np.int64)
    nv, ne = len(hull.vertices), len(hull.edge_list)
    verts, children = midpoint_subdivide(hull.vertices, tris)
    assert verts.shape == (nv + ne, 3) and children.shape == (4 * len(tris), 3)
    assert np.array_equal(verts[:nv], hull.vertices)
    # the middle child of (a, b, c) is (ab, bc, ca)
    mids = children[3::4]
    assert sorted(set(mids.ravel().tolist())) == list(range(nv, nv + ne))
    for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        assert np.array_equal(verts[mids[:, k]], 0.5 * (verts[tris[:, i]] + verts[tris[:, j]]))
    d = validate_surface(PolyhedralSurface(verts, children))
    assert d.ok
    assert d.euler_characteristic == validate_surface(hull).euler_characteristic
