import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymix import fixtures, rellich
from polymix.geometry import (
    ArchRegion,
    _DIRECT_CHUNK,
    _link_fan,
    _rng,
    separation_radius,
)
from polymix.mesh import PolyhedralSurface
from polymix.rellich import (
    CATALOG,
    _evaluate,
    _integrands,
    _region_estimates,
    _stream_rows,
    _streams,
    _workspace,
    catalog,
    catalog_entry,
    rellich_suite,
)

from conftest import u_pyramid
from rellich_reference import (
    REFERENCE_CATALOG,
    fixed_order_integrands,
    reference_rellich_suite,
)
from sampling_reference import collect, sample_arch, sample_lateral

N_UNIT = 200_000  # moderate count for unit tests; acceptance runs 1e7


def suite_of_one(arch, u, n, seed):
    """The identity and the estimate of :func:`rellich_suite` for one test function."""
    identities, estimates = rellich_suite(arch, [u], n, seed)
    return identities[0], estimates[0]


@pytest.fixture(scope="module")
def cube_arch():
    return ArchRegion(fixtures.cube(), 0, 0.25, 0.5)


@pytest.fixture(scope="module")
def cube_suite(cube_arch):
    return rellich_suite(cube_arch, catalog(3), N_UNIT, seed=42)


def test_catalog_sizes():
    assert len(catalog(0)) == 1
    assert len(catalog(1)) == 4
    assert len(catalog(2)) == 9
    assert len(catalog(3)) == 16
    assert catalog_entry("xy").degree == 2
    with pytest.raises(KeyError):
        catalog_entry("x^5")


def test_catalog_is_harmonic_by_finite_differences():
    # degree <= 3 polynomials have vanishing 4th derivatives, so the 7-point
    # Laplacian is exact up to round-off
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, size=(20, 3))
    h = 1e-2
    offsets = np.vstack([np.zeros(3)] + [s * np.eye(3)[k] for k in range(3) for s in (h, -h)])
    for u in CATALOG:
        for p in pts:
            vals = u.value(p[None, :] + offsets)
            lap = (vals[1:].sum() - 6.0 * vals[0]) / (h * h)
            assert abs(lap) < 1e-8


def test_catalog_gradients_by_finite_differences():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.5, 1.5, size=(10, 3))
    h = 1e-6
    for u in CATALOG:
        for p in pts:
            g = u.gradient(p[None, :])[0]
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (u.value((p + e)[None, :])[0] - u.value((p - e)[None, :])[0]) / (2 * h)
                assert fd == pytest.approx(g[k], abs=1e-6 * (1 + abs(g[k])))


def test_constant_gives_exact_zeros(cube_arch):
    res, est = suite_of_one(cube_arch, catalog_entry("1"), 10_000, seed=1)
    assert res.lhs == 0.0 and res.rhs == 0.0
    assert est.lhs == 0.0 and est.rhs == 0.0 and est.slack == 0.0


def test_identity_within_noise_cube(cube_suite):
    identities, _ = cube_suite
    for res in identities:
        assert abs(res.residual) <= 3.5 * max(res.combined_stderr, 1e-300), res.u_name
    assert all(res.lhs >= 0.0 for res in identities)


def test_estimate_slack_nonnegative_within_noise(cube_suite):
    _, estimates = cube_suite
    for est in estimates:
        assert est.slack >= -3.0 * est.combined_stderr, est.u_name


def test_identity_pyramid_arch():
    arch = ArchRegion(fixtures.square_pyramid(), 0, 0.25, 0.5)
    identities, estimates = rellich_suite(
        arch, [catalog_entry("x"), catalog_entry("xy")], N_UNIT, seed=17
    )
    for res in identities:
        assert abs(res.residual) <= 3.5 * res.combined_stderr
    for est in estimates:
        assert est.slack >= -3.0 * est.combined_stderr


def test_rhs_decomposition_adds_up(cube_suite):
    identities, _ = cube_suite
    for res in identities:
        assert res.rhs == pytest.approx(res.rhs_inner + res.rhs_outer + res.rhs_lateral)


def test_suite_matches_single_calls(cube_arch):
    u = catalog_entry("x^2-y^2")
    single, _ = suite_of_one(cube_arch, u, 50_000, seed=7)
    ids, _ = rellich_suite(cube_arch, [catalog_entry("z"), u], 50_000, seed=7)
    paired = [r for r in ids if r.u_name == u.name][0]
    assert paired.lhs == single.lhs
    assert paired.rhs == single.rhs


def test_translation_invariance():
    # the identity auto-translates the vertex to the origin, so shifting
    # the whole fixture must not change anything
    base = fixtures.cube()
    shifted = PolyhedralSurface(np.asarray(base.vertices) + np.array([3.0, -2.0, 5.0]),
                               base.faces)
    u = catalog_entry("xy")
    a, _ = suite_of_one(ArchRegion(base, 0, 0.25, 0.5), u, 50_000, seed=3)
    b, _ = suite_of_one(ArchRegion(shifted, 0, 0.25, 0.5), u, 50_000, seed=3)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_scale_invariance_degree_one():
    # scaling the fixture and the arch by s multiplies both sides of the
    # identity by s^2 for a degree-1 test function, so the relative
    # residual is scale-free
    u = catalog_entry("x")
    s = 7.0
    base = fixtures.cube()
    big = PolyhedralSurface(np.asarray(base.vertices) * s, base.faces)
    a, _ = suite_of_one(ArchRegion(base, 0, 0.25, 0.5), u, 50_000, seed=9)
    b, _ = suite_of_one(ArchRegion(big, 0, 0.25 * s, 0.5 * s), u, 50_000, seed=9)
    assert b.lhs == pytest.approx(s * s * a.lhs, rel=2e-2)
    assert b.rhs == pytest.approx(s * s * a.rhs, rel=2e-2)
    assert a.relative_residual == pytest.approx(b.relative_residual, abs=2e-2)


SCALE_ARCHES = [(fixtures.cube(), 0), (fixtures.square_pyramid(), 0), (fixtures.l_prism(), 3),
                (u_pyramid(), 8)]


@settings(max_examples=30)
@given(index=st.integers(0, len(SCALE_ARCHES) - 1), k=st.integers(-6, 6))
def test_power_of_two_scale_is_exact_for_every_degree(index, k):
    # scaling the mesh and both radii by 2^k keeps the link directions and
    # the polar angles bit for bit, and the radial powers are products, so
    # every number reported for a degree-p function scales by exactly 4^(pk)
    surface, vertex = SCALE_ARCHES[index]
    s = 2.0 ** k
    arch = _arch(surface, vertex)
    scaled = ArchRegion(PolyhedralSurface(np.asarray(surface.vertices) * s, surface.faces),
                        vertex, arch.r_inner * s, arch.r_outer * s)
    (ids, ests), (big_ids, big_ests) = (rellich_suite(a, catalog(3), 5000, seed=13)
                                        for a in (arch, scaled))
    for res, big, u in zip(ids + ests, big_ids + big_ests, catalog(3) * 2):
        factor = 4.0 ** (u.degree * k)
        for key in ("lhs", "lhs_stderr", "rhs", "rhs_stderr", "rhs_inner", "rhs_outer",
                    "rhs_lateral", "combined_stderr"):
            if hasattr(res, key):
                assert getattr(big, key) == factor * getattr(res, key), (u.name, key)
    factors = np.array([4.0 ** (u.degree * k) for u in catalog(3)])
    parts, big_parts = (_region_estimates(a, catalog(3), 5000, seed=13) for a in (arch, scaled))
    for key, arrays in parts.items():
        for got, want in zip(big_parts[key], arrays):
            assert np.array_equal(got, want * factors), key


def test_residual_shrinks_with_samples(cube_arch):
    u = catalog_entry("x")
    small, _ = suite_of_one(cube_arch, u, 20_000, seed=11)
    large, _ = suite_of_one(cube_arch, u, 320_000, seed=11)
    assert large.combined_stderr < 0.35 * small.combined_stderr  # ~1/4 expected


def test_lateral_normal_component_vanishes(cube_arch):
    # faces through the vertex contain the origin after translation, so
    # nu . W integrates to zero there; check via the z-only integrand
    batch = sample_lateral(cube_arch, 50_000, seed=2)
    pts = batch.points - cube_arch.surface.vertices[cube_arch.vertex]
    w = pts / np.linalg.norm(pts, axis=1)[:, None]
    nuw = np.einsum("ij,ij->i", batch.normals, w)
    assert np.abs(nuw).max() < 1e-12


def test_tables_match_reference_lambdas():
    # the coefficient tables against the hand-written value and gradient
    # lambdas they replaced, relative to the size of the terms at the point
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2.0, 2.0, size=(500, 3))
    assert [u.name for u in CATALOG] == [ref.name for ref in REFERENCE_CATALOG]
    for u, ref in zip(CATALOG, REFERENCE_CATALOG):
        assert u.degree == ref.degree
        scale = np.linalg.norm(pts, axis=1) ** u.degree * np.abs(u.table[0]).sum()
        np.testing.assert_allclose(u.value(pts), ref.value(pts), rtol=1e-14,
                                   atol=1e-14 * scale.max(), err_msg=u.name)
        gscale = np.abs(u.table[1:4]).sum() * np.linalg.norm(pts, axis=1).max() ** max(
            u.degree - 1, 0)
        np.testing.assert_allclose(u.gradient(pts), ref.gradient(pts), rtol=1e-14,
                                   atol=1e-14 * gscale, err_msg=u.name)
        g = ref.gradient(pts)
        np.testing.assert_allclose(_evaluate(u.rows[4:], pts.T)[0], (g * g).sum(axis=1),
                                   rtol=1e-13, atol=1e-13 * gscale ** 2, err_msg=u.name)


def test_euler_identity():
    # X . grad u == degree * u for every homogeneous catalog entry: the
    # closed form the suite uses for W . grad u
    rng = np.random.default_rng(13)
    pts = rng.uniform(-2.0, 2.0, size=(500, 3))
    for u in CATALOG:
        lhs = np.einsum("ij,ij->i", pts, u.gradient(pts))
        scale = np.linalg.norm(pts, axis=1) ** u.degree * np.abs(u.table[0]).sum()
        np.testing.assert_allclose(lhs, u.degree * u.value(pts), rtol=1e-13,
                                   atol=1e-13 * scale.max(), err_msg=u.name)


def _arch(surface, vertex):
    rho = separation_radius(surface, vertex)
    return ArchRegion(surface, vertex, 0.3 * rho, 0.6 * rho)


EQUIVALENCE_ARCHES = [
    pytest.param(fixtures.cube(), 0, id="cube-v0"),
    pytest.param(fixtures.square_pyramid(), 0, id="pyramid-apex"),
    pytest.param(fixtures.l_prism(), 3, id="l-prism-notch"),
    pytest.param(fixtures.notched_box(1), 5, id="notched-box-1-v5"),
    pytest.param(u_pyramid(), 8, id="u-pyramid-apex"),
]


@pytest.mark.parametrize("surface,vertex", EQUIVALENCE_ARCHES)
def test_suite_matches_whole_array_reference(surface, vertex):
    # the streamed shard kernel against the whole-array suite it replaced;
    # n spans several shards and ends in a partial one
    arch = _arch(surface, vertex)
    n = 3 * _DIRECT_CHUNK + 1000
    ref_ids, ref_ests = reference_rellich_suite(arch, REFERENCE_CATALOG, n, seed=5)
    ids, ests = rellich_suite(arch, catalog(3), n, seed=5)
    for got, want in zip(ids + ests, ref_ids + ref_ests):
        assert got.u_name == want.u_name
        for key in ("lhs", "rhs", "rhs_inner", "rhs_outer", "rhs_lateral"):
            if hasattr(want, key):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-13,
                                                          abs=0.0), (got.u_name, key)
        # both suites take a stderr from centred sums of squares, so a part
        # whose integrand is constant (as |du/dnu| |grad_t u| is for u = x on
        # the pyramid's lateral faces) adds only its own rounding, far below
        # 1e-15 times the integral's size
        size = max(abs(getattr(want, k, 0.0)) for k in
                   ("lhs", "rhs", "rhs_inner", "rhs_outer", "rhs_lateral"))
        for key in ("lhs_stderr", "rhs_stderr", "combined_stderr"):
            a, b = getattr(got, key), getattr(want, key)
            assert abs(a * a - b * b) <= 1e-13 * b * b + (1e-15 * size) ** 2, (
                got.u_name, key, a, b)


@pytest.mark.parametrize("surface,vertex", [
    pytest.param(fixtures.square_pyramid(), 0, id="pyramid-apex"),
    pytest.param(fixtures.l_prism(), 3, id="l-prism-notch"),
])
def test_kernel_matches_fixed_order_reference(surface, vertex):
    # every integrand bit against a point-by-point evaluation in plain
    # floats, on one shard per stream: its first w points at shard widths
    # 1-19, 64 and 4096, and each of its first 64 points alone, since a
    # point's bits must not depend on what shares its shard
    for stream in _streams(_arch(surface, vertex), _DIRECT_CHUNK, 9):
        pts, face_ids = next(iter(stream))
        normals = None if face_ids is None else np.ascontiguousarray(
            surface.face_normals[face_ids].T)
        want = fixed_order_integrands(stream.tag, catalog(3), pts, normals)
        rows = _stream_rows(stream.tag, catalog(3))
        for part in ([slice(0, w) for w in [*range(1, 20), 64, _DIRECT_CHUNK]]
                     + [slice(j, j + 1) for j in range(64)]):
            got = _integrands(stream.tag, rows, pts[part],
                              None if normals is None else normals[:, part])
            assert got.tobytes() == want[..., part].tobytes(), (stream.tag, part)


@pytest.mark.parametrize("surface,vertex", [
    pytest.param(fixtures.square_pyramid(), 0, id="pyramid-apex"),
    pytest.param(fixtures.l_prism(), 3, id="l-prism-notch"),
])
def test_workspace_matches_fresh_arrays(surface, vertex):
    # one workspace through a full shard, narrow ones, then a full one
    # again gives each shard the bits fresh arrays give it: a narrow shard
    # reads nothing a wider one left behind, nor a wide one a narrow one's
    for stream in _streams(_arch(surface, vertex), _DIRECT_CHUNK, 9):
        pts, face_ids = next(iter(stream))
        normals = None if face_ids is None else np.ascontiguousarray(
            surface.face_normals[face_ids].T)
        rows = _stream_rows(stream.tag, catalog(3))
        work = _workspace(stream.tag, rows, _DIRECT_CHUNK)
        for w in [_DIRECT_CHUNK, *range(1, 20), 64, _DIRECT_CHUNK]:
            part = slice(0, w)
            part_normals = None if normals is None else normals[:, part]
            want = _integrands(stream.tag, rows, pts[part], part_normals)
            got = _integrands(stream.tag, rows, pts[part], part_normals, work)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (stream.tag, w)


def _estimated_numbers(result):
    # every number the suite estimates for one function, past the arch's own
    doc = result.to_json_dict()
    for key in ("vertex", "r_inner", "r_outer", "u"):
        del doc[key]
    doc.update(doc.pop("rhs_parts", {}))
    return doc


def test_constant_function_is_exact_positive_zeros_beside_others():
    # "1" never enters the kernel: its numbers are +0.0, and every other
    # function's are the same with it as without it
    arch = ArchRegion(fixtures.l_prism(), 3, 0.25, 0.5)
    whole = rellich_suite(arch, catalog(3), 5000, seed=17)
    rest = rellich_suite(arch, catalog(3)[1:], 5000, seed=17)
    assert catalog(3)[0].name == "1"
    for results, others in zip(whole, rest):
        assert results[1:] == others
        for key, value in _estimated_numbers(results[0]).items():
            assert value == 0.0 and np.copysign(1.0, value) == 1.0, key


def test_degree_zero_suite_draws_nothing(cube_arch, monkeypatch):
    # with only degree-0 functions neither stream is walked, and every
    # number is 0
    def walked(*args):
        raise AssertionError("a stream was walked")

    monkeypatch.setattr(rellich, "_moments", walked)
    ids, ests = rellich_suite(cube_arch, [catalog_entry("1")] * 2, 50_000, seed=3)
    assert len(ids) == len(ests) == 2
    for res in ids + ests:
        assert set(_estimated_numbers(res).values()) == {0.0}


def test_rellich_module_has_no_blas_product():
    # the kernel's bits rest on elementwise rounding, so no product that may
    # reach BLAS (a matrix product or a dot-like reduction) may come back:
    # no @, and no call or import of one
    banned = {"matmul", "dot", "einsum", "tensordot", "inner"}
    tree = ast.parse(Path(rellich.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), node.lineno
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            assert name not in banned, (name, node.lineno)
        if isinstance(node, ast.alias):
            assert node.name.rpartition(".")[2] not in banned, node.name


def test_constant_integrand_stderr_at_rounding_size():
    # at the pyramid apex the lateral estimate's integrand for u = x is one
    # constant; shard means and centred sums of squares merged by Chan,
    # Golub & LeVeque leave its stderr at its own rounding, where a sum of
    # squares less n mean^2 would cancel to about 7e-10
    arch = _arch(fixtures.square_pyramid(), 0)
    u = catalog_entry("x")
    n = 3 * _DIRECT_CHUNK + 1000
    values = {x for pts, face_ids in _streams(arch, n, 5)[1]
              for x in _integrands("lateral", _stream_rows("lateral", [u]), pts,
                                   arch.surface.face_normals[face_ids].T)[1].ravel().tolist()}
    assert len(values) == 1
    est, se = _region_estimates(arch, [u], n, seed=5)["lateral"]
    assert se[1, 0] <= 1e-15 * abs(est[1, 0])


@pytest.mark.parametrize("surface,vertex", EQUIVALENCE_ARCHES)
def test_streams_concatenate_to_the_batches(surface, vertex):
    # each stream's batch is its shards gathered, bit for bit, whether the
    # points fill part of a shard, one shard, one shard and one point, or
    # several shards and a partial one; the link's shards are the link
    # fan's draws, one generator per shard, and the lateral's carry faces
    arch = _arch(surface, vertex)
    fan = _link_fan(surface, vertex)
    for n in (1, _DIRECT_CHUNK, _DIRECT_CHUNK + 1, 2 * _DIRECT_CHUNK + 7):
        link, lateral = _streams(arch, n, 3)
        assert (link.rng_seed, lateral.rng_seed) == (3, (3 << 2) + 3), n
        assert link.measure == fan.solid_angle, n
        for stream in (link, lateral):
            key = (stream.tag, n)
            assert stream.n == n, key
            shards = list(stream)
            assert all(len(pts) <= _DIRECT_CHUNK for pts, _ in shards), key
            batch = collect(stream)
            assert np.array_equal(np.concatenate([pts for pts, _ in shards]), batch.points), key
            assert batch.measure == stream.measure, key
            if stream is lateral:
                assert np.array_equal(np.concatenate([f for _, f in shards]), batch.face_ids)
            else:
                assert all(f is None for _, f in shards), key
                assert batch.face_ids is None, key
        want = [fan.directions(_rng(3, shard), min(_DIRECT_CHUNK, n - start))
                for shard, start in enumerate(range(0, n, _DIRECT_CHUNK))]
        assert np.array_equal(collect(link).points, np.concatenate(want)), n


def test_suite_needs_two_samples(cube_arch):
    # one point per region leaves no sample variance to report as a stderr
    for n in (0, 1):
        with pytest.raises(ValueError, match=r"need n >= 2"):
            rellich_suite(cube_arch, catalog(1), n, seed=7)
    ids, ests = rellich_suite(cube_arch, catalog(1), 2, seed=7)
    assert all(np.isfinite([r.lhs_stderr, r.rhs_stderr]).all() for r in ids + ests)
    assert len(sample_arch(cube_arch, 1, 7).points) == 1  # the samplers still draw one


def test_every_function_independent_of_companions():
    # each function's product is its own, so its sums, and every number
    # reported for it, are the same alone as inside the whole catalog
    arch = ArchRegion(fixtures.l_prism(), 3, 0.25, 0.5)
    ids, ests = rellich_suite(arch, catalog(3), 10_000, seed=21)
    for res, est, u in zip(ids, ests, catalog(3)):
        alone_id, alone_est = rellich_suite(arch, [u], 10_000, seed=21)
        assert alone_id[0] == res and alone_est[0] == est, u.name


def test_streamed_suite_memory_capped_at_one_shard(cube_arch):
    # per-point arrays never exceed one shard, so quadrupling n must leave
    # the traced allocation peak nearly where it was
    rellich_suite(cube_arch, catalog(2), 1000, seed=4)  # fill caches first

    def peak(n):
        tracemalloc.start()
        try:
            rellich_suite(cube_arch, catalog(2), n, seed=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 16), peak(1 << 18)
    assert large < 1.5 * small, (small, large)
