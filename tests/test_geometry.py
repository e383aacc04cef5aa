import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from polymix import fixtures
from polymix.geometry import (
    ArchRegion,
    ConeRegion,
    DegenerateEdgeError,
    GeometryError,
    contains_point,
    contains_points,
    dihedral_angles,
    sample_arch,
    sample_base,
    sample_lateral,
    separation_radius,
)
from polymix.mesh import PolyhedralSurface
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


# ----------------------------------------------------------------------
# sampling


def test_cone_region_radius_guard(cube):
    ConeRegion(cube, 0, 0.9)
    with pytest.raises(ValueError):
        ConeRegion(cube, 0, 0.95)
    with pytest.raises(ValueError):
        ArchRegion(cube, 0, 0.5, 0.25)


def test_sample_base_octant_measure(cube):
    cone = ConeRegion(cube, 0, 0.5)
    batch = sample_base(cone, 100_000, seed=11)
    expected = math.pi / 8.0  # octant share of the r=0.5 sphere: 4*pi*r^2/8
    assert abs(batch.measure_estimate - expected) <= 3.0 * batch.measure_stderr
    assert batch.measure_stderr < 0.01 * expected


def test_sample_arch_octant_volume(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_arch(arch, 100_000, seed=12)
    expected = (4.0 * math.pi / 3.0) * (0.5 ** 3 - 0.25 ** 3) / 8.0
    assert abs(batch.measure_estimate - expected) <= 3.0 * batch.measure_stderr


def test_sample_lateral_quarter_annuli(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_lateral(arch, 100_000, seed=13)
    expected = 3.0 * (math.pi / 4.0) * (0.5 ** 2 - 0.25 ** 2)
    assert abs(batch.measure_estimate - expected) <= 3.0 * batch.measure_stderr
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
def test_stderr_shrinks_at_root_n_rate(cube, seed):
    cone = ConeRegion(cube, 0, 0.5)
    se1 = sample_base(cone, 20_000, seed=seed).measure_stderr
    se2 = sample_base(cone, 40_000, seed=seed).measure_stderr
    assert 0.6 <= se2 / se1 <= 0.8


def test_weights_sum_to_measure(cube):
    arch = ArchRegion(cube, 0, 0.25, 0.5)
    batch = sample_arch(arch, 20_000, seed=5)
    assert batch.weights.sum() == pytest.approx(batch.measure_estimate)
    assert len(batch.points) == 20_000


def test_degenerate_thin_cone_errors():
    # a needle: near-zero solid angle at the apex vertex
    verts = np.array(
        [[0, 0, 0], [1, 0, 1], [0, 1e-5, 1], [-1, 0, 1], [0, -1e-5, 1]], dtype=float
    )
    faces = [(0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 1, 4), (1, 2, 3, 4)]
    needle = PolyhedralSurface(verts, faces)
    arch = ArchRegion(needle, 0, 0.25, 0.5)
    with pytest.raises(GeometryError, match="acceptance ratio"):
        sample_arch(arch, 50_000, seed=1)


def test_sample_on_nonconvex_vertex(l_prism):
    # vertex 3 sits on the reflex notch edge: the parity path must agree
    # with the analytic L cross-section membership
    arch = ArchRegion(l_prism, 3, 0.2, 0.4)
    batch = sample_arch(arch, 20_000, seed=9)
    p = batch.points
    in_l = (p[:, 0] <= 1.0) | (p[:, 1] <= 1.0)
    assert bool(np.all(in_l))
    # solid angle at the notch vertex is 3/8 of the sphere
    expected = (4.0 * math.pi / 3.0) * (0.4 ** 3 - 0.2 ** 3) * 3.0 / 8.0
    assert abs(batch.measure_estimate - expected) <= 4.0 * batch.measure_stderr
