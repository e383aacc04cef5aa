import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from polymix import fixtures
from polymix.geometry import (
    ArchRegion,
    ConeRegion,
    MIN_ACCEPTANCE,
    DegenerateEdgeError,
    GeometryError,
    _CHUNK,
    _collect_rejection,
    _inside_tester,
    _point_segment_distance,
    _rng,
    contains_point,
    contains_points,
    dihedral_angles,
    is_convex_vertex,
    point_face_distance,
    sample_arch,
    sample_base,
    sample_lateral,
    separation_radius,
)
from polymix.mesh import PolyhedralSurface, validate_surface
from polymix.partition import enumerate_admissible, quotient_graph


def test_cube_all_edges_right_angle(cube):
    for d in dihedral_angles(cube):
        assert d.interior_angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_pyramid_lateral_lateral_angle(pyramid):
    # oracle: outward normals of adjacent lateral planes are
    # (1,1,-1)/sqrt(3) and (-1,1,-1)/sqrt(3), so the interior angle is
    # pi - arccos(n1.n2) with n1.n2 = 1/3
    n1 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
    n2 = np.array([-1.0, 1.0, -1.0]) / math.sqrt(3)
    expected = math.pi - math.acos(float(n1 @ n2))
    got = [
        d.interior_angle
        for d in dihedral_angles(pyramid)
        if set(d.faces) == {0, 1}
    ]
    assert got == [pytest.approx(expected, abs=1e-9)]
    assert expected == pytest.approx(1.910633, abs=1e-6)


def test_l_prism_notch_edge_reflex(l_prism):
    notch = [d for d in dihedral_angles(l_prism) if set(d.faces) == {2, 3}]
    assert len(notch) == 1
    assert notch[0].interior_angle == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_interior_plus_exterior_is_two_pi(cube, pyramid, l_prism):
    for surf in (cube, pyramid, l_prism):
        for d in dihedral_angles(surf):
            assert d.interior_angle + d.exterior_angle == 2.0 * math.pi


@pytest.mark.parametrize("seed", range(4))
def test_convex_fixtures_all_angles_below_pi(seed, tetrahedron, pyramid):
    surf = fixtures.generate_hull(seed, n_points=9)
    assert all(d.interior_angle < math.pi for d in dihedral_angles(surf))
    for convex in (tetrahedron, pyramid):
        assert all(d.interior_angle < math.pi for d in dihedral_angles(convex))


def test_notched_fixtures_have_reflex_edges():
    for surf in (fixtures.l_prism(), fixtures.notched_box(1), fixtures.notched_box(2)):
        assert any(d.interior_angle > math.pi for d in dihedral_angles(surf))


def test_degenerate_knife_edge_reported():
    # a "pillow" of two coincident triangles folds every edge back on
    # itself: the side test is ambiguous and must be reported, not guessed
    from polymix.geometry import DegenerateEdgeError

    pillow = PolyhedralSurface(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        [(0, 1, 2), (0, 2, 1)],
    )
    with pytest.raises(DegenerateEdgeError):
        dihedral_angles(pillow)


def test_slit_knife_edge_reported():
    # a square prism with a slit cut in to (1, 1): the two slit walls are
    # coplanar with opposite normals, so the angle at the slit's end is 0 or
    # 2*pi by the sign of a rounding error, on a solid of volume 4
    slit = fixtures._prism([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (1, 2), (0, 2)], 1.0)
    assert slit.signed_volume == pytest.approx(4.0)
    with pytest.raises(DegenerateEdgeError):
        dihedral_angles(slit)


def test_zero_volume_surface_reported(cube):
    # a cube beside an inside-out copy encloses exactly no volume, so no
    # orientation can be read off it
    verts = np.vstack([cube.vertices, cube.vertices + 5.0])
    faces = list(cube.faces) + [tuple(v + 8 for v in reversed(f)) for f in cube.faces]
    both = PolyhedralSurface(verts, faces)
    assert both.signed_volume == 0.0
    with pytest.raises(DegenerateEdgeError):
        dihedral_angles(both)


def probe_dihedral_angles(surface):
    """Reference: acos of the normals' dot product, with the branch picked by
    ray parity at a probe point just off the edge midpoint, on the bisector
    of the two in-face directions (inside -> pi - phi, outside -> pi + phi).

    Returns ``(faces, interior_angle)`` per edge in ``edge_list`` order.
    """
    out = []
    for edge in surface.edge_list:
        (fa, fwd_a), (fb, _) = surface.edge_incidence[edge]
        if not fwd_a:
            fa, fb = fb, fa
        pa, pb = surface.vertices[edge[0]], surface.vertices[edge[1]]
        t = pb - pa
        elen = np.linalg.norm(t)
        t = t / elen
        n1, n2 = surface.face_normals[fa], surface.face_normals[fb]
        phi = math.acos(float(np.clip(n1 @ n2, -1.0, 1.0)))
        bisector = np.cross(n1, t) + np.cross(n2, -t)
        blen = np.linalg.norm(bisector)
        if blen < 1e-9:
            interior = math.pi
        else:
            probe = 0.5 * (pa + pb) + (1e-6 * elen / blen) * bisector
            side = contains_point(surface, probe)
            assert side != "boundary"
            interior = math.pi - phi if side == "inside" else math.pi + phi
        out.append(((fa, fb), interior))
    return out


def reversed_copy(surface):
    return PolyhedralSurface(surface.vertices, [tuple(reversed(f)) for f in surface.faces])


PROBE_MESHES = (
    [pytest.param(lambda name=name: fixtures.builtin(name), id=name)
     for name in sorted(fixtures.BUILTIN)]
    + [pytest.param(lambda seed=seed: fixtures.generate_hull(seed, n_points=10),
                    id="hull-%d" % seed) for seed in range(4)]
    + [pytest.param(lambda seed=seed: fixtures.generate_star_sphere(seed),
                    id="star-%d" % seed) for seed in range(2)]
    + [pytest.param(lambda k=k: fixtures.notched_box(k), id="notched-box-%d" % k)
       for k in (3, 4)]
)


@pytest.mark.parametrize("build", PROBE_MESHES)
@pytest.mark.parametrize("flip", [False, True], ids=["outward", "inward"])
def test_local_angles_match_probe_reference(build, flip):
    surface = reversed_copy(build()) if flip else build()
    got = [(d.faces, d.interior_angle) for d in dihedral_angles(surface)]
    ref = probe_dihedral_angles(surface)
    assert [f for f, _ in got] == [f for f, _ in ref]
    assert np.allclose([a for _, a in got], [a for _, a in ref], rtol=0.0, atol=1e-12)


def ridge_prism(delta):
    """Pentagonal prism whose vertical edge at (1, 1 + tan(delta/2)) has
    interior angle pi - delta; that edge joins walls 2 and 3."""
    return fixtures._prism([(0, 0), (2, 0), (2, 1), (1, 1 + math.tan(delta / 2)), (0, 1)], 1.0)


@pytest.mark.parametrize("delta", [1e-8, 5e-9, 2e-9])
def test_near_flat_ridge_resolved(delta):
    surface = ridge_prism(delta)
    (ridge,) = [d for d in dihedral_angles(surface) if set(d.faces) == {2, 3}]
    assert abs(ridge.interior_angle - (math.pi - delta)) <= 1e-12
    assert quotient_graph(surface, "interior").class_count == 7
    assert enumerate_admissible(surface, "interior").count == 127


def test_ridge_inside_angle_tolerance_stays_blocked():
    # 5e-10 < TAU_ANGLE: the conservative rule still forbids a change there
    surface = ridge_prism(5e-10)
    assert quotient_graph(surface, "interior").class_count == 6
    assert enumerate_admissible(surface, "interior").count == 63


PROPERTY_MESHES = [fixtures.builtin(name) for name in sorted(fixtures.BUILTIN)] + [
    fixtures.generate_hull(seed, n_points=10) for seed in range(3)
]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(PROPERTY_MESHES) - 1),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(x * x for x in q) > 1e-2),
    # the shift is applied before scaling, in units of the mesh: rounding the
    # moved coordinates costs about eps * shift / mesh size in every angle
    shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    log_scale=st.floats(-3.0, 3.0),
    reflect=st.booleans(),
)
def test_angles_and_classes_invariant_under_similarity(index, quaternion, shift, log_scale,
                                                       reflect):
    base = PROPERTY_MESHES[index]
    rotation = Rotation.from_quat(quaternion).as_matrix()
    if reflect:
        # a reflection turns the faces inward, which the orientation sign corrects
        rotation = rotation @ np.diag([1.0, 1.0, -1.0])
    moved = PolyhedralSurface(10.0 ** log_scale * (base.vertices @ rotation.T + shift), base.faces)
    assert (moved.signed_volume < 0) == reflect
    before = [d.interior_angle for d in dihedral_angles(base)]
    after = [d.interior_angle for d in dihedral_angles(moved)]
    assert np.allclose(after, before, rtol=0.0, atol=1e-12)
    for side in ("interior", "exterior"):
        assert (quotient_graph(moved, side).class_count
                == quotient_graph(base, side).class_count)


# ----------------------------------------------------------------------
# separation radius


def _brute_separation(surface, v, samples=4000):
    """Independent oracle: densely sample non-incident edges and faces."""
    p = surface.vertices[v]
    best = min(
        float(np.linalg.norm(surface.vertices[u] - p))
        for u in range(len(surface.vertices))
        if u != v
    )
    rng = np.random.default_rng(0)
    for (a, b) in surface.edge_list:
        if v in (a, b):
            continue
        t = np.linspace(0.0, 1.0, 200)[:, None]
        pts = surface.vertices[a] * (1 - t) + surface.vertices[b] * t
        best = min(best, float(np.linalg.norm(pts - p, axis=1).min()))
    tris, tri_face = surface.triangles
    for tri, fi in zip(tris, tri_face):
        if v in surface.faces[fi]:
            continue
        u1 = rng.uniform(size=(samples, 1))
        u2 = rng.uniform(size=(samples, 1))
        flip = (u1 + u2) > 1
        u1 = np.where(flip, 1 - u1, u1)
        u2 = np.where(flip, 1 - u2, u2)
        a, b, c = surface.vertices[tri]
        pts = a + u1 * (b - a) + u2 * (c - a)
        best = min(best, float(np.linalg.norm(pts - p, axis=1).min()))
    return best


def test_separation_radius_cube(cube):
    rho = separation_radius(cube, 0)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert rho == pytest.approx(_brute_separation(cube, 0), rel=1e-2)


def test_separation_radius_apex_up_pyramid():
    # apex (0,0,1) over base z=0 of side 2: the non-incident base face sits
    # directly below the apex, so brute force gives 1.0 (the base edges are
    # farther, at sqrt(2))
    verts = np.array(
        [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0], [0, 0, 1]], dtype=float
    )
    # laterals outward, base seen from below
    surf = PolyhedralSurface(verts, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (3, 2, 1, 0)])
    rho = separation_radius(surf, 4)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert rho == pytest.approx(_brute_separation(surf, 4), rel=1e-2)


def test_separation_radius_tetrahedron(tetrahedron):
    # distance to the opposite face of a unit regular tetrahedron
    assert separation_radius(tetrahedron, 0) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_separation_radius_shipped_pyramid(pyramid):
    assert separation_radius(pyramid, 0) == pytest.approx(1.0, abs=1e-12)


def loop_separation_radius(surface, vertex):
    """Reference: the per-entity loop over vertices, edges and faces."""
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


@pytest.mark.parametrize("build", PROBE_MESHES)
def test_separation_radius_matches_loop_reference(build):
    surface = build()
    for vertex in range(len(surface.vertices)):
        assert separation_radius(surface, vertex) == pytest.approx(
            loop_separation_radius(surface, vertex), rel=1e-15, abs=0.0), vertex


# ----------------------------------------------------------------------
# containment


def test_contains_point_cube_cases(cube):
    assert contains_point(cube, (0.5, 0.5, 0.5)) == "inside"
    assert contains_point(cube, (2.0, 0.0, 0.0)) == "outside"
    assert contains_point(cube, (0.5, 0.5, 1.0)) == "boundary"


def test_contains_points_matches_halfspace_oracle_on_convex():
    for seed in (0, 1):
        surf = fixtures.generate_hull(seed, n_points=12)
        normals = surf.face_normals
        anchors = np.array([surf.vertices[f[0]] for f in surf.faces])
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(-1.2, 1.2, size=(100_000, 3))
        signed = np.einsum("pfk,fk->pf", pts[:, None, :] - anchors[None], normals)
        oracle = np.all(signed < -1e-12, axis=1)
        got = contains_points(surf, pts)
        skip = np.any(np.abs(signed) < 1e-9, axis=1)  # too close to a face to call
        assert np.array_equal(got[~skip], oracle[~skip])


def test_contains_point_l_prism_notch(l_prism):
    assert contains_point(l_prism, (1.5, 1.5, 1.0)) == "outside"  # inside the notch cavity
    assert contains_point(l_prism, (0.5, 0.5, 1.0)) == "inside"


_RAY_DIRECTIONS = np.random.default_rng(np.random.SeedSequence((0xD1CE,))).normal(size=(24, 3))
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1)[:, None]


def ray_parity_contains_points(surface, points):
    """Reference: strict inside test by ray parity over every triangle.

    A point whose ray grazes an edge, a vertex or a triangle's plane is
    retried along the next of 24 fixed directions; one that grazes on all of
    them counts as outside.
    """
    pts = np.asarray(points, dtype=float)
    tris, _ = surface.triangles
    tv = surface.vertices[tris]
    result = np.zeros(len(pts), dtype=bool)
    undecided = np.arange(len(pts))
    scale = surface.bbox_diagonal or 1.0
    eps_t = 1e-12 * scale
    for d in _RAY_DIRECTIONS:
        if len(undecided) == 0:
            break
        p = pts[undecided]
        crossings = np.zeros(len(p), dtype=np.int64)
        ambiguous = np.zeros(len(p), dtype=bool)
        for t0, t1, t2 in tv:
            e1, e2 = t1 - t0, t2 - t0
            pvec = np.cross(d, e2)
            det = e1 @ pvec
            if abs(det) < 1e-13 * scale * scale:
                nrm = np.cross(e1, e2)
                ambiguous |= np.abs((p - t0) @ nrm) < eps_t * max(np.linalg.norm(nrm), 1e-300)
                continue
            inv = 1.0 / det
            tvec = p - t0
            u = (tvec @ pvec) * inv
            qvec = np.cross(tvec, e1)
            v = (qvec @ d) * inv
            t_hit = (qvec @ e2) * inv
            crossings += (u > 0.0) & (u < 1.0) & (v > 0.0) & (u + v < 1.0) & (t_hit > eps_t)
            ambiguous |= (
                (np.abs(u) < 1e-12) | (np.abs(v) < 1e-12) | (np.abs(1.0 - u - v) < 1e-12)
                | (np.abs(t_hit) <= eps_t)
            ) & (u > -1e-12) & (v > -1e-12) & (u + v < 1.0 + 1e-12)
        result[undecided[~ambiguous]] = (crossings % 2 == 1)[~ambiguous]
        undecided = undecided[ambiguous]
    return result


def corner_notch_box():
    """The cube [0, 2]^3 less the corner cube [1, 2]^3.  Vertex 11, the
    notch's inner corner at (1, 1, 1), has solid angle 7*pi/2: its cone holds
    both w and -w for many directions w."""
    verts = np.array([
        [0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0],
        [0, 0, 2], [2, 0, 2], [2, 1, 2], [1, 1, 2], [1, 2, 2], [0, 2, 2],
        [2, 1, 1], [1, 1, 1], [1, 2, 1], [2, 2, 1],
    ], dtype=float)
    faces = [(0, 3, 2, 1), (4, 5, 6, 7, 8, 9), (0, 1, 5, 4), (3, 0, 4, 9),
             (1, 2, 13, 10, 6, 5), (2, 3, 9, 8, 12, 13), (10, 13, 12, 11),
             (6, 10, 11, 7), (7, 11, 12, 8)]
    return PolyhedralSurface(verts, faces)



def in_box_less_box(pts, box, hole):
    """Points inside the open box `box` and outside the open box `hole`."""
    def inside(corners):
        lo, hi = np.asarray(corners, dtype=float)
        return np.all((pts > lo) & (pts < hi), axis=1)
    return inside(box) & ~inside(hole)


def split_top_l_prism():
    """The l-prism with its top cut into [0, 2] x [0, 1] and [0, 1] x [1, 2].

    Vertex 10 at (1, 1, 2), the top of the notch edge, is a straight corner
    of the first rectangle.
    """
    verts = np.array([
        [0, 1, 2], [0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0],
        [0, 0, 2], [2, 0, 2], [2, 1, 2], [1, 1, 2], [1, 2, 2], [0, 2, 2],
    ], dtype=float)
    faces = [(1, 6, 5, 4, 3, 2), (7, 8, 9, 10, 0), (0, 10, 11, 12), (1, 2, 8, 7),
             (2, 3, 9, 8), (3, 4, 10, 9), (4, 5, 11, 10), (5, 6, 12, 11), (6, 1, 7, 0, 12)]
    surface = PolyhedralSurface(verts, faces)
    return surface, lambda p: in_box_less_box(p, [(0, 0, 0), (2, 2, 2)], [(1, 1, 0), (2, 2, 2)])


def split_top_notched_box():
    """Notched box 1 with its top cut into [0, 3] x [0, 1] and two unit squares.

    Vertices 14 and 15 at (2, 1, 2) and (1, 1, 2), the tops of the notch
    edges, are straight corners of the strip.
    """
    section = [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)]
    verts = np.array([[0, 1, 2], [3, 1, 2]] + [[x, y, z] for z in (0, 2) for x, y in section],
                     dtype=float)
    faces = [(10, 11, 1, 14, 15, 0), (0, 15, 16, 17), (14, 1, 12, 13), (2, 9, 8, 7, 6, 5, 4, 3),
             (2, 3, 11, 10), (3, 4, 12, 1, 11), (4, 5, 13, 12), (5, 6, 14, 13), (6, 7, 15, 14),
             (7, 8, 16, 15), (8, 9, 17, 16), (9, 2, 10, 0, 17)]
    surface = PolyhedralSurface(verts, faces)
    return surface, lambda p: in_box_less_box(p, [(0, 0, 0), (3, 2, 2)], [(1, 1, 0), (2, 2, 2)])


STRAIGHT_CORNER_MESHES = [
    pytest.param(split_top_l_prism, [10], id="split-top-l-prism"),
    pytest.param(split_top_notched_box, [14, 15], id="split-top-notched-box"),
]

CONTAINMENT_MESHES = (
    [pytest.param(lambda name=name: fixtures.builtin(name), id=name)
     for name in sorted(fixtures.BUILTIN)]
    + [pytest.param(lambda: fixtures.notched_box(3), id="notched-box-3"),
       pytest.param(corner_notch_box, id="corner-notch")]
    + [pytest.param(lambda seed=seed: fixtures.generate_hull(seed, n_points=10),
                    id="hull-%d" % seed) for seed in range(3)]
    + [pytest.param(lambda seed=seed: fixtures.generate_star_sphere(seed),
                    id="star-%d" % seed) for seed in range(3)]
)


def off_face_planes(surface, pts, rel=1e-6):
    """Mask of points farther than ``rel * diagonal`` from every face plane."""
    anchors = surface.vertices[[f[0] for f in surface.faces]]
    h = np.einsum("pfk,fk->pf", pts[:, None, :] - anchors[None], surface.face_normals)
    return np.abs(h).min(axis=1) > rel * surface.bbox_diagonal


def ball_points(surface, vertex, rng, n):
    """Uniform points within 0.8 separation radii of `vertex`, off the face planes."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    rho = 0.8 * separation_radius(surface, vertex) * np.cbrt(rng.uniform(size=(n, 1)))
    pts = surface.vertices[vertex] + rho * d
    return pts[off_face_planes(surface, pts)]


@pytest.mark.parametrize("build", CONTAINMENT_MESHES)
@pytest.mark.parametrize("flip", [False, True], ids=["outward", "inward"])
def test_contains_points_matches_ray_parity(build, flip):
    surface = reversed_copy(build()) if flip else build()
    lo, hi = surface.vertices.min(axis=0), surface.vertices.max(axis=0)
    pts = np.random.default_rng(2024).uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo),
                                              size=(3000, 3))
    pts = pts[off_face_planes(surface, pts)]
    got = contains_points(surface, pts)
    assert 0 < got.sum() < len(got)
    assert np.array_equal(got, ray_parity_contains_points(surface, pts))


@pytest.mark.parametrize("build", CONTAINMENT_MESHES)
def test_vertex_inside_tester_matches_ray_parity(build):
    surface = build()
    rng = np.random.default_rng(7)
    for vertex in range(len(surface.vertices)):
        pts = ball_points(surface, vertex, rng, 400)
        got = _inside_tester(surface, vertex)(pts)
        assert np.array_equal(got, ray_parity_contains_points(surface, pts)), vertex



@pytest.mark.parametrize("build, flat_vertices", STRAIGHT_CORNER_MESHES)
def test_inside_tests_at_straight_face_corners(build, flat_vertices):
    # a face corner of angle pi at a reflex vertex; triangulation ear-clips
    # such faces, so no zero-area triangle stands for the corner.  The
    # reference here is the solid's own box membership
    surface, inside = build()
    assert validate_surface(surface).ok
    tris, _ = surface.triangles
    for vertex in flat_vertices:
        at = surface.vertices[tris[(tris == vertex).any(axis=1)]]
        area = np.linalg.norm(np.cross(at[:, 1] - at[:, 0], at[:, 2] - at[:, 0]), axis=1)
        assert np.all(area > 0.0), vertex
    rng = np.random.default_rng(7)
    for vertex in range(len(surface.vertices)):
        pts = ball_points(surface, vertex, rng, 400)
        assert np.array_equal(_inside_tester(surface, vertex)(pts), inside(pts)), vertex
    pts = rng.uniform(-0.5, 3.5, size=(3000, 3))
    pts = pts[off_face_planes(surface, pts)]
    assert np.array_equal(contains_points(surface, pts), inside(pts))
    assert np.array_equal(contains_points(reversed_copy(surface), pts), inside(pts))

def reflex_vertices(surface):
    return sorted({v for d in dihedral_angles(surface) if d.interior_angle > math.pi
                   for v in d.edge})


REFLEX_MESHES = [fixtures.l_prism(), corner_notch_box()] + [
    fixtures.notched_box(k) for k in (1, 2, 3)] + [
    split_top_l_prism()[0], split_top_notched_box()[0]]
REFLEX_PROBES = [
    [(v, ball_points(surface, v, np.random.default_rng(v), 200))
     for v in reflex_vertices(surface)]
    for surface in REFLEX_MESHES
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(REFLEX_MESHES) - 1),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(x * x for x in q) > 1e-2),
    shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    log_scale=st.floats(-3.0, 3.0),
    reflect=st.booleans(),
)
def test_reflex_inside_decisions_invariant_under_similarity(index, quaternion, shift,
                                                            log_scale, reflect):
    base = REFLEX_MESHES[index]
    rotation = Rotation.from_quat(quaternion).as_matrix()
    faces = base.faces
    if reflect:
        # reversing the faces keeps the reflected solid outward-oriented
        rotation = rotation @ np.diag([1.0, 1.0, -1.0])
        faces = [tuple(reversed(f)) for f in faces]
    scale = 10.0 ** log_scale
    moved = PolyhedralSurface(scale * (base.vertices @ rotation.T + shift), faces)
    for vertex, pts in REFLEX_PROBES[index]:
        before = _inside_tester(base, vertex)(pts)
        after = _inside_tester(moved, vertex)(scale * (pts @ rotation.T + shift))
        assert np.array_equal(after, before), vertex


# ----------------------------------------------------------------------
# sampling


def test_cone_region_radius_guard(cube):
    ConeRegion(cube, 0, 0.9)
    with pytest.raises(ValueError):
        ConeRegion(cube, 0, 0.95)
    with pytest.raises(ValueError):
        ArchRegion(cube, 0, 0.5, 0.25)


@pytest.mark.parametrize("vertex", [-1, 8, 9])
def test_regions_reject_vertex_out_of_range(cube, vertex):
    with pytest.raises(ValueError, match="out of range"):
        ConeRegion(cube, vertex, 0.25)
    with pytest.raises(ValueError, match="out of range"):
        ArchRegion(cube, vertex, 0.25, 0.5)


@pytest.mark.parametrize("vertex", [0, 3])
def test_regions_reject_inside_out_surface(l_prism, vertex):
    # vertex 0 is convex, vertex 3 on the notch: both inside tests read the
    # solid's side off the face orientation
    inward = reversed_copy(l_prism)
    with pytest.raises(ValueError, match="oriented outward"):
        ConeRegion(inward, vertex, 0.2)
    with pytest.raises(ValueError, match="oriented outward"):
        ArchRegion(inward, vertex, 0.2, 0.4)


def test_sample_base_octant_measure(cube):
    cone = ConeRegion(cube, 0, 0.5)
    batch = sample_base(cone, 100_000, seed=11)
    expected = math.pi / 8.0  # octant share of the r=0.5 sphere: 4*pi*r^2/8
    assert batch.measure_estimate == pytest.approx(expected, rel=1e-12)
    assert batch.measure_stderr == 0.0 and batch.acceptance == 1.0


def test_sample_arch_octant_volume(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_arch(arch, 100_000, seed=12)
    expected = (4.0 * math.pi / 3.0) * (0.5 ** 3 - 0.25 ** 3) / 8.0
    assert batch.measure_estimate == pytest.approx(expected, rel=1e-12)
    assert batch.measure_stderr == 0.0 and batch.acceptance == 1.0


def test_sample_lateral_quarter_annuli(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_lateral(arch, 100_000, seed=13)
    expected = 3.0 * (math.pi / 4.0) * (0.5 ** 2 - 0.25 ** 2)
    assert batch.measure_estimate == pytest.approx(expected, rel=1e-12)
    assert batch.measure_stderr == 0.0 and batch.acceptance == 1.0
    assert batch.face_ids is not None and batch.normals is not None


def test_sampling_deterministic(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    a = sample_arch(arch, 5000, seed=7)
    b = sample_arch(arch, 5000, seed=7)
    assert np.array_equal(a.points, b.points)
    assert a.n_proposals == b.n_proposals
    c = sample_arch(arch, 5000, seed=8)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_stderr_shrinks_at_root_n_rate(l_prism, seed):
    # the notch vertex is reflex, so its base is still sampled by rejection
    cone = ConeRegion(l_prism, 3, 0.5)
    se1 = sample_base(cone, 20_000, seed=seed).measure_stderr
    se2 = sample_base(cone, 40_000, seed=seed).measure_stderr
    assert 0.6 <= se2 / se1 <= 0.8


def test_weights_sum_to_measure(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_arch(arch, 20_000, seed=5)
    assert batch.weights.sum() == pytest.approx(batch.measure_estimate)
    assert len(batch.points) == 20_000


def needle():
    """A thin convex cone: near-zero solid angle at the apex vertex 0."""
    verts = np.array(
        [[0, 0, 0], [1, 0, 1], [0, 1e-5, 1], [-1, 0, 1], [0, -1e-5, 1]], dtype=float
    )
    faces = [(0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 1, 4), (1, 2, 3, 4)]
    return PolyhedralSurface(verts, faces)


def girard_solid_angle(surface, vertex):
    """Solid angle of a convex vertex cone: its link is a spherical polygon
    whose corner angles are the interior angles of the edges at the vertex,
    so its area is their sum less (k - 2) pi."""
    angles = [d.interior_angle for d in dihedral_angles(surface) if vertex in d.edge]
    return math.fsum(angles) - (len(angles) - 2) * math.pi


def test_degenerate_thin_cone_sampled_exactly():
    # the needle is convex, so its arch is sampled directly: no proposal is
    # wasted however thin the cone
    surface = needle()
    arch = ArchRegion(surface, 0, 0.25, 0.5)
    batch = sample_arch(arch, 50_000, seed=1)
    omega = girard_solid_angle(surface, 0)
    assert 1e-6 < omega < 1e-4
    assert batch.measure_estimate == pytest.approx(omega * (0.5 ** 3 - 0.25 ** 3) / 3.0,
                                                   rel=1e-9)
    assert batch.n_proposals == 50_000
    assert_in_halfspaces(surface, 0, batch.points, 0.5)


def test_rejection_aborts_below_min_acceptance():
    # one proposal in 20,000 accepted: the sampler gives up once it has made
    # 64 proposals per wanted point
    def gen(shard):
        return np.zeros((1 << 18, 3)), None

    def accept(pts):
        return np.arange(len(pts)) % 20_000 == 0

    assert 1.0 / 20_000 < MIN_ACCEPTANCE
    with pytest.raises(GeometryError, match="acceptance ratio"):
        _collect_rejection("arch-volume", 1, 1.0, 50_000, gen, accept)


def test_sample_on_nonconvex_vertex(l_prism):
    # vertex 3 sits on the reflex notch edge: the link winding path must
    # agree with the analytic L cross-section membership and, proposal for
    # proposal, with the ray parity it replaced (same proposal count)
    arch = ArchRegion(l_prism, 3, 0.2, 0.4)
    batch = sample_arch(arch, 20_000, seed=9)
    assert batch.n_proposals == 53132
    p = batch.points
    in_l = (p[:, 0] <= 1.0) | (p[:, 1] <= 1.0)
    assert bool(np.all(in_l))
    # solid angle at the notch vertex is 3/8 of the sphere
    expected = (4.0 * math.pi / 3.0) * (0.4 ** 3 - 0.2 ** 3) * 3.0 / 8.0
    assert abs(batch.measure_estimate - expected) <= 4.0 * batch.measure_stderr


def test_sample_at_seven_octant_corner():
    # the notch corner's cone covers 7 of 8 octants around (1, 1, 1)
    surface = corner_notch_box()
    assert validate_surface(surface).ok
    arch = ArchRegion(surface, 11, 0.2, 0.4)
    batch = sample_arch(arch, 20_000, seed=3)
    q = batch.points - 1.0
    assert not np.any(np.all(q > 0.0, axis=1))
    expected = (4.0 * math.pi / 3.0) * (0.4 ** 3 - 0.2 ** 3) * 7.0 / 8.0
    assert abs(batch.measure_estimate - expected) <= 4.0 * batch.measure_stderr


def test_sample_at_straight_corner_notch():
    # the split top's straight corner at the notch vertex is a half-turn of
    # the link that the sampler must not lose
    surface, inside = split_top_l_prism()
    arch = ArchRegion(surface, 10, 0.2, 0.4)
    batch = sample_arch(arch, 20_000, seed=9)
    assert bool(np.all((batch.points[:, 0] <= 1.0) | (batch.points[:, 1] <= 1.0)))
    assert bool(np.all(batch.points[:, 2] <= 2.0))
    # three quarters of the half-space below the top
    expected = (4.0 * math.pi / 3.0) * (0.4 ** 3 - 0.2 ** 3) * 3.0 / 8.0
    assert abs(batch.measure_estimate - expected) <= 4.0 * batch.measure_stderr


# ----------------------------------------------------------------------
# direct samplers against the rejection reference


def rejection_sample_base(cone, n, seed):
    """Reference: uniform points on the whole sphere, kept when inside."""
    surface, v, r = cone.surface, cone.surface.vertices[cone.vertex], cone.radius
    inside = _inside_tester(surface, cone.vertex)

    def gen(shard):
        d = _rng(seed, shard).normal(size=(min(_CHUNK, max(4 * n, 1024)), 3))
        return v + r * d / np.linalg.norm(d, axis=1)[:, None], None

    return _collect_rejection("base-sphere", seed, 4.0 * math.pi * r * r, n, gen, inside)


def rejection_sample_arch(arch, n, seed):
    """Reference: uniform points in the whole shell, kept when inside."""
    v = arch.surface.vertices[arch.vertex]
    r3, R3 = arch.r_inner ** 3, arch.r_outer ** 3

    def gen(shard):
        g = _rng(seed, shard)
        m = min(_CHUNK, max(4 * n, 1024))
        d = g.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        return v + np.cbrt(r3 + g.uniform(size=m) * (R3 - r3))[:, None] * d, None

    return _collect_rejection("arch-volume", seed, 4.0 * math.pi / 3.0 * (R3 - r3), n, gen,
                              _inside_tester(arch.surface, arch.vertex))


def rejection_sample_lateral(arch, n, seed):
    """Reference: area-weighted points on the triangles of the faces at the
    vertex, kept when inside the shell."""
    surface = arch.surface
    v = surface.vertices[arch.vertex]
    tri_face = [fi for fi in arch.lateral_face_ids for _ in surface.triangulate_face(fi)]
    tris = np.array([surface.vertices[list(t)] for fi in arch.lateral_face_ids
                     for t in surface.triangulate_face(fi)])
    areas = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                 axis=1)

    def gen(shard):
        g = _rng(seed, shard)
        m = min(_CHUNK, max(4 * n, 1024))
        pick = g.choice(len(tris), size=m, p=areas / areas.sum())
        s = np.sqrt(g.uniform(size=m))[:, None]
        t = g.uniform(size=m)[:, None]
        a = tris[pick, 0]
        return (a + s * ((tris[pick, 1] - a) + t * (tris[pick, 2] - tris[pick, 1])),
                np.asarray(tri_face)[pick])

    def accept(pts):
        rr = np.linalg.norm(pts - v, axis=1)
        return (rr >= arch.r_inner) & (rr <= arch.r_outer)

    batch = _collect_rejection("lateral-surface", seed, float(areas.sum()), n, gen, accept)
    batch.normals = surface.face_normals[batch.face_ids]
    return batch


def assert_in_halfspaces(surface, vertex, pts, r_outer):
    """Every point lies in the half-space of every face at the vertex, up to
    1e-12 * r_outer."""
    normals = surface.face_normals[list(surface.vertex_faces[vertex])]
    assert ((pts - surface.vertices[vertex]) @ normals.T).max() <= 1e-12 * r_outer


def assert_same_means(x, y, sigmas=4.0):
    """Column means of two independent samples agree within `sigmas` standard errors."""
    se = np.sqrt(x.var(axis=0) / len(x) + y.var(axis=0) / len(y))
    assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) <= sigmas * se)


def radius_and_direction(batch, vertex_point):
    x = batch.points - vertex_point
    r = np.linalg.norm(x, axis=1)
    return np.column_stack([r, x / r[:, None]])


def convex_arches():
    """Cube vertex 0, the pyramid apex, and vertices 0-2 of hulls 3, 7 and 11."""
    out = [pytest.param(fixtures.cube(), 0, 0.25, 0.5, id="cube-v0"),
           pytest.param(fixtures.square_pyramid(), 0, 0.25, 0.5, id="pyramid-apex")]
    for seed in (3, 7, 11):
        hull = fixtures.generate_hull(seed)
        for vertex in range(3):
            rho = separation_radius(hull, vertex)
            out.append(pytest.param(hull, vertex, 0.4 * rho, 0.8 * rho,
                                    id="hull-%d-v%d" % (seed, vertex)))
    return out


@pytest.mark.parametrize("surface, vertex, r_inner, r_outer", convex_arches())
def test_direct_samplers_match_rejection_reference(surface, vertex, r_inner, r_outer):
    assert is_convex_vertex(surface, vertex)
    arch = ArchRegion(surface, vertex, r_inner, r_outer)
    v = surface.vertices[vertex]
    n = 20_000
    omega = girard_solid_angle(surface, vertex)
    pairs = [
        (sample_arch(arch, n, 1), rejection_sample_arch(arch, n, 2),
         omega * (r_outer ** 3 - r_inner ** 3) / 3.0),
        (sample_base(arch.inner_base, n, 3), rejection_sample_base(arch.inner_base, n, 4),
         omega * r_inner ** 2),
        (sample_lateral(arch, n, 5), rejection_sample_lateral(arch, n, 6), None),
    ]
    for direct, reference, exact in pairs:
        assert direct.n_proposals == n and direct.measure_stderr == 0.0
        if exact is not None:
            assert direct.measure_estimate == pytest.approx(exact, rel=1e-12)
        assert (abs(direct.measure_estimate - reference.measure_estimate)
                <= 4.0 * reference.measure_stderr), direct.tag
        assert_same_means(radius_and_direction(direct, v), radius_and_direction(reference, v))
    for batch in (pairs[0][0], pairs[1][0]):
        assert_in_halfspaces(surface, vertex, batch.points, r_outer)


LATERAL_ARCHES = [
    pytest.param(fixtures.cube(), 0, id="cube-v0"),
    pytest.param(fixtures.square_pyramid(), 0, id="pyramid-apex"),
    pytest.param(fixtures.l_prism(), 3, id="lprism-notch"),
    pytest.param(needle(), 0, id="needle"),
    pytest.param(split_top_l_prism()[0], 10, id="split-top-straight-corner"),
    pytest.param(fixtures.notched_box(2), 5, id="notched-box-2-v5"),
]


@pytest.mark.parametrize("surface, vertex", LATERAL_ARCHES)
def test_lateral_points_on_their_faces_inside_the_shell(surface, vertex):
    # reflex and straight face corners included: each face is its corner wedge
    rho = separation_radius(surface, vertex)
    arch = ArchRegion(surface, vertex, 0.3 * rho, 0.8 * rho)
    batch = sample_lateral(arch, 20_000, 8)
    reference = rejection_sample_lateral(arch, 20_000, 9)
    assert (abs(batch.measure_estimate - reference.measure_estimate)
            <= 4.0 * reference.measure_stderr)
    v = surface.vertices[vertex]
    assert_same_means(radius_and_direction(batch, v), radius_and_direction(reference, v))
    tol = 1e-12 * arch.r_outer
    x = batch.points - v
    r = np.linalg.norm(x, axis=1)
    assert r.min() >= arch.r_inner - tol and r.max() <= arch.r_outer + tol
    assert set(batch.face_ids.tolist()) == set(surface.vertex_faces[vertex])
    assert np.array_equal(batch.normals, surface.face_normals[batch.face_ids])
    assert np.abs(np.einsum("ij,ij->i", x, batch.normals)).max() <= tol
    for p, f in zip(batch.points[:300], batch.face_ids[:300]):
        assert point_face_distance(surface, p, f) <= tol


SIMILARITY_MESHES = PROPERTY_MESHES + [needle(), fixtures.notched_box(1)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(SIMILARITY_MESHES) - 1),
    vertex_pick=st.integers(0, 1 << 16),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(x * x for x in q) > 1e-2),
    shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    log_scale=st.floats(-3.0, 3.0),
    reflect=st.booleans(),
)
def test_exact_measures_invariant_under_similarity(index, vertex_pick, quaternion, shift,
                                                   log_scale, reflect):
    base = SIMILARITY_MESHES[index]
    vertex = vertex_pick % len(base.vertices)
    rotation = Rotation.from_quat(quaternion).as_matrix()
    faces = base.faces
    if reflect:
        # reversing the faces keeps the reflected solid outward-oriented
        rotation = rotation @ np.diag([1.0, 1.0, -1.0])
        faces = [tuple(reversed(f)) for f in faces]
    s = 10.0 ** log_scale
    moved = PolyhedralSurface(s * (base.vertices @ rotation.T + shift), faces)
    rho = separation_radius(base, vertex)
    before = ArchRegion(base, vertex, 0.3 * rho, 0.6 * rho)
    after = ArchRegion(moved, vertex, 0.3 * rho * s, 0.6 * rho * s)
    samplers = [(sample_lateral, 2)]
    if is_convex_vertex(base, vertex):
        assert is_convex_vertex(moved, vertex)
        samplers += [(sample_arch, 3), (lambda a, n, seed: sample_base(a.outer_base, n, seed), 2)]
    for sampler, power in samplers:
        want = sampler(before, 8, 1).measure_estimate * s ** power
        assert sampler(after, 8, 1).measure_estimate == pytest.approx(want, rel=1e-10)
