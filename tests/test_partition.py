import copy
import dataclasses
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymix import fixtures
from polymix.geometry import edge_table
from polymix.mesh import PolyhedralSurface
from polymix.partition import (
    SIDES,
    TAU_ANGLE,
    AdmissibilityReport,
    GeneratorSpec,
    Partition,
    QuotientGraph,
    enumerate_admissible,
    is_monochromatic,
    quotient_graph,
    search_both_monochromatic,
    side_angles,
    validate_partition,
)

from conftest import edge_incidence


def brute_force_admissible(surface, side):
    """Oracle: filter all 2^F labelings through validate_partition."""
    nf = len(surface.faces)
    out = set()
    for bits in itertools.product("DN", repeat=nf):
        if validate_partition(surface, Partition(labels=bits, side=side)).admissible:
            out.add(bits)
    return out


def test_cube_top_face_neumann_admissible(cube):
    labels = tuple("N" if i == 1 else "D" for i in range(6))
    rep = validate_partition(cube, Partition(labels=labels, side="interior"))
    assert rep.admissible
    assert rep.violating_edges == ()


def test_l_prism_notch_label_change_inadmissible(l_prism):
    labels = ["D"] * 8
    labels[3] = "N"  # faces 2 and 3 meet at the reflex notch edge
    rep = validate_partition(l_prism, Partition(labels=tuple(labels), side="interior"))
    assert not rep.admissible
    assert len(rep.violating_edges) == 1
    edge, faces, angle = rep.violating_edges[0]
    assert set(faces) == {2, 3}
    assert angle == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_all_neumann_violates_nonempty_dirichlet(cube):
    rep = validate_partition(cube, Partition(labels=("N",) * 6, side="interior"))
    assert not rep.admissible
    assert rep.dirichlet_empty


def test_pyramid_alternating_admissible(pyramid):
    # opposite lateral faces Dirichlet, the rest Neumann
    labels = tuple("D" if i in (0, 2) else "N" for i in range(5))
    rep = validate_partition(pyramid, Partition(labels=labels, side="interior"))
    assert rep.admissible


def test_counts_match_spec_fixtures(cube, tetrahedron, l_prism):
    assert enumerate_admissible(cube, "interior").count == 63
    assert enumerate_admissible(cube, "exterior").count == 1
    assert enumerate_admissible(tetrahedron, "exterior").count == 1
    assert enumerate_admissible(l_prism, "interior").count == 127


@pytest.mark.parametrize("side", ["interior", "exterior"])
@pytest.mark.parametrize("name", ["cube", "tetrahedron", "square-pyramid", "l-prism", "notched-box-1"])
def test_enumeration_equals_brute_force(name, side):
    surface = fixtures.builtin(name)
    enumerated = {p.labels for p in enumerate_admissible(surface, side)}
    assert enumerated == brute_force_admissible(surface, side)


def test_enumeration_order_deterministic(cube):
    first = [p.labels for p in enumerate_admissible(cube, "interior")]
    second = [p.labels for p in enumerate_admissible(cube, "interior")]
    assert first == second
    assert first[0] == ("D",) * 6  # trivial partition comes first


def test_enumeration_refuses_beyond_class_limit():
    surf = fixtures.generate_star_sphere(0, subdivisions=2, amplitude=0.0)
    adm = enumerate_admissible(surf, "interior")  # a sphere: 128 faces, no merges
    assert adm.count == 2 ** 128 - 1
    with pytest.raises(ValueError, match="refusing"):
        next(iter(adm))


def test_monochromatic_cases(cube, l_prism):
    assert is_monochromatic(cube, "exterior") == (True, None)
    mono, witness = is_monochromatic(cube, "interior")
    assert not mono
    assert witness is not None
    assert validate_partition(cube, witness).admissible
    assert set(witness.labels) == {"D", "N"}
    assert is_monochromatic(l_prism, "exterior")[0]


def test_monochromatic_iff_count_one():
    for name in ("cube", "tetrahedron", "l-prism", "notched-box-1"):
        surface = fixtures.builtin(name)
        for side in ("interior", "exterior"):
            mono, _ = is_monochromatic(surface, side)
            assert mono == (enumerate_admissible(surface, side).count == 1)


def test_side_duality(cube, l_prism, pyramid):
    for surface in (cube, l_prism, pyramid):
        interior = edge_table(surface).interior
        for angle in interior:
            blocks_int = angle >= math.pi - TAU_ANGLE
            blocks_ext = (2 * math.pi - angle) >= math.pi - TAU_ANGLE
            if abs(angle - math.pi) > TAU_ANGLE:
                assert blocks_int != blocks_ext  # exactly one side blocks
            else:
                assert blocks_int and blocks_ext


def split_cube(drop=0.0):
    """A cube whose bottom is split into faces 0 and 1 along the edge (8, 9),
    which is lowered by `drop`: its interior angle is pi - 2 atan(2 drop)."""
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            [0.5, 0, -drop], [0.5, 1, -drop],
        ],
        dtype=float,
    )
    faces = [
        (0, 3, 9, 8), (8, 9, 2, 1),  # split bottom
        (4, 5, 6, 7),
        (0, 8, 1, 5, 4),  # front picks up the split point
        (2, 9, 3, 7, 6),  # back too
        (1, 2, 6, 5),
        (3, 0, 4, 7),
    ]
    return PolyhedralSurface(verts, faces)


def test_flat_edge_blocks_both_sides():
    # split one cube face into two coplanar rectangles: the new edge has
    # angle pi and must merge on both sides
    surf = split_cube()
    for side in ("interior", "exterior"):
        q = quotient_graph(surf, side)
        assert q.face_class[0] == q.face_class[1]


def test_face_permutation_preserves_count(l_prism):
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(l_prism.faces))
    faces = [l_prism.faces[i] for i in perm]
    permuted = PolyhedralSurface(l_prism.vertices, faces)
    for side in ("interior", "exterior"):
        assert (
            enumerate_admissible(permuted, side).count
            == enumerate_admissible(l_prism, side).count
        )


def test_partition_json_roundtrip():
    p = Partition(labels=("D", "N", "D"), side="exterior")
    assert Partition.from_json_dict(p.to_json_dict()) == p


def test_partition_rejects_bad_input():
    for labels in (("D", "X"), ("D", 1), ("D", None)):
        with pytest.raises(ValueError):
            Partition(labels=labels, side="interior")
    with pytest.raises(ValueError):
        Partition(labels=("D",), side="sideways")
    assert Partition(labels=["D", "N"], side="interior").labels == ["D", "N"]


SIDE_MESSAGE = "side must be 'interior' or 'exterior'"
LABEL_MESSAGE = "labels must be 'D' or 'N'"


def _as(kind, labels):
    return tuple(labels) if kind is tuple else list(labels)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(labels=st.lists(st.sampled_from("DN"), max_size=12),
       kind=st.sampled_from([tuple, list]), side=st.sampled_from(SIDES))
def test_constructor_contract(labels, kind, side):
    # the hand-written __init__ against the dataclass's own methods and
    # the unchecked constructor on the same input
    labels = _as(kind, labels)
    p = Partition(labels=labels, side=side)
    assert p.labels is labels and p.side is side
    assert Partition(labels, side) == p
    ref = Partition._unchecked(labels, side)
    assert p == ref and repr(p) == repr(ref)
    if kind is tuple:
        assert hash(p) == hash(ref)
    else:
        with pytest.raises(TypeError):
            hash(p)
    for name in ("labels", "side"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name))
    assert dataclasses.replace(p) == p
    assert copy.copy(p) == p
    assert pickle.loads(pickle.dumps(p)) == p
    match Partition(labels, side):
        case Partition(got, got_side):
            assert got is labels and got_side is side


@settings(derandomize=True, max_examples=150, deadline=None)
@given(labels=st.lists(st.sampled_from("DN"), max_size=8),
       bad=st.one_of(st.sampled_from(["X", "d", "DN", "", None, 1, 0.5]),
                     st.text(max_size=2).filter(lambda c: c not in ("D", "N"))),
       at=st.integers(0, 8), kind=st.sampled_from([tuple, list]),
       side=st.sampled_from(SIDES + ("sideways", "Interior", "")))
def test_constructor_reports_side_before_labels(labels, bad, at, kind, side):
    good = _as(kind, labels)
    labels.insert(at, bad)
    labels = _as(kind, labels)
    if side in SIDES:
        with pytest.raises(ValueError) as exc:
            Partition(labels=labels, side=side)
        assert str(exc.value) == LABEL_MESSAGE
        assert Partition(good, side).labels == good
    else:
        for case in (labels, good):
            with pytest.raises(ValueError) as exc:
                Partition(case, side=side)
            assert str(exc.value) == SIDE_MESSAGE


def test_partition_init_is_hand_written():
    # a later edit to the decorator must not bring back the generated frozen
    # __init__ (whose code is compiled from "<string>") or a __post_init__
    assert not hasattr(Partition, "__post_init__")
    assert Path(Partition.__init__.__code__.co_filename).name == "partition.py"


def test_label_count_mismatch_raises(cube):
    with pytest.raises(ValueError, match="labels"):
        validate_partition(cube, Partition(labels=("D", "N"), side="interior"))


# ----------------------------------------------------------------------
# quotient structure details


def test_quotient_classes_cube(cube):
    qi = quotient_graph(cube, "interior")
    assert qi.class_count == 6  # no merges: all right angles
    qe = quotient_graph(cube, "exterior")
    assert qe.class_count == 1
    assert qe.class_adjacency == ()


def test_quotient_classes_sorted_by_least_face(l_prism):
    q = quotient_graph(l_prism, "interior")
    heads = [min(c) for c in q.classes]
    assert heads == sorted(heads)
    assert any(set(c) == {2, 3} for c in q.classes)  # the notch pair merged


def test_quotient_admissibility_oracle(l_prism):
    # labelings constant on classes (minus all-N) == brute force admissible
    q = quotient_graph(l_prism, "interior")
    k = q.class_count
    from_classes = set()
    for m in range(2 ** k - 1):
        labels = tuple(
            "N" if (m >> q.face_class[f]) & 1 else "D" for f in range(len(l_prism.faces))
        )
        from_classes.add(labels)
    assert from_classes == brute_force_admissible(l_prism, "interior")


def reference_validate_partition(surface, partition, tau=TAU_ANGLE):
    """The loop over every edge: the per-call version of validate_partition."""
    labels = partition.labels
    if len(labels) != len(surface.faces):
        raise ValueError(
            "partition has %d labels for %d faces" % (len(labels), len(surface.faces))
        )
    threshold = math.pi - tau
    violating = []
    for (edge, ((f0, _), (f1, _))), angle in zip(sorted(edge_incidence(surface).items()),
                                                side_angles(surface, partition.side)):
        if labels[f0] != labels[f1] and angle >= threshold:
            violating.append((edge, (f0, f1), float(angle)))
    d_empty = "D" not in labels
    return AdmissibilityReport(
        admissible=not d_empty and not violating,
        side=partition.side,
        dirichlet_empty=d_empty,
        violating_edges=tuple(violating),
    )


def reference_quotient_graph(surface, side, tau=TAU_ANGLE):
    """Union-find over the blocked edges: the loop version of quotient_graph."""
    nf = len(surface.faces)
    parent = list(range(nf))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    angles = side_angles(surface, side)
    threshold = math.pi - tau
    topo = [(inc[0][0], inc[1][0]) for _, inc in sorted(edge_incidence(surface).items())]
    for eid, (f0, f1) in enumerate(topo):
        if angles[eid] >= threshold:
            ra, rb = find(f0), find(f1)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for f in range(nf):
        groups.setdefault(find(f), []).append(f)
    classes = tuple(tuple(groups[r]) for r in sorted(groups, key=lambda r: min(groups[r])))
    face_class = [0] * nf
    for ci, members in enumerate(classes):
        for f in members:
            face_class[f] = ci
    adjacency = set()
    for eid, (f0, f1) in enumerate(topo):
        if angles[eid] < threshold:
            ci, cj = face_class[f0], face_class[f1]
            if ci != cj:
                adjacency.add((min(ci, cj), max(ci, cj)))
    return QuotientGraph(
        side=side,
        classes=classes,
        face_class=tuple(face_class),
        class_adjacency=tuple(sorted(adjacency)),
    )


REFERENCE_MESHES = (
    [(name, lambda name=name: fixtures.builtin(name)) for name in sorted(fixtures.BUILTIN)]
    + [("hull-%d" % seed, lambda seed=seed: fixtures.generate_hull(seed, n_points=6 + seed % 5))
       for seed in range(10)]
    + [("notched-box-%d" % k, lambda k=k: fixtures.notched_box(k)) for k in range(3, 5)]
    + [("star-%d" % seed,
        lambda seed=seed: fixtures.generate_star_sphere(seed, amplitude=0.05 + 0.05 * seed))
       for seed in range(6)]
)


@pytest.mark.parametrize("name,build", REFERENCE_MESHES, ids=[m[0] for m in REFERENCE_MESHES])
def test_quotient_graph_equals_union_find_reference(name, build):
    surface = build()
    for side in ("interior", "exterior"):
        q = quotient_graph(surface, side)
        assert q == reference_quotient_graph(surface, side)
        assert all(type(f) is int for c in q.classes for f in c)
        assert all(type(c) is int for c in q.face_class)


SMALL_MESHES = [m for m in REFERENCE_MESHES if len(m[1]().faces) <= 12]


@pytest.mark.parametrize("name,build", SMALL_MESHES, ids=[m[0] for m in SMALL_MESHES])
def test_validate_partition_equals_all_edge_reference(name, build):
    # both sides and two tolerances, the first again last, on one surface
    # instance: the blocked-edge tables must be kept per side and per tau
    surface = build()
    labelings = list(itertools.product("DN", repeat=len(surface.faces)))
    for tau in (TAU_ANGLE, 0.6, TAU_ANGLE):
        for side in ("interior", "exterior"):
            for labels in labelings:
                p = Partition(labels=labels, side=side)
                got = validate_partition(surface, p, tau=tau)
                assert got == reference_validate_partition(surface, p, tau=tau), labels
                assert all(type(ang) is float for _, _, ang in got.violating_edges)


def test_near_flat_edge_blocked_by_tau():
    # the split edge is 5e-9 short of pi: blocked at tau = 1e-8, free at 1e-9
    surface = split_cube(drop=math.tan(5e-9 / 2) / 2)
    split = surface.edge_list.index((8, 9))
    assert math.pi - side_angles(surface, "interior")[split] == pytest.approx(5e-9, rel=1e-3)
    labels = ("D", "N") + ("D",) * 5
    for side in ("interior", "exterior"):
        p = Partition(labels=labels, side=side)
        for tau in (1e-8, 1e-9):
            got = validate_partition(surface, p, tau=tau)
            assert got == reference_validate_partition(surface, p, tau=tau)
            blocked = side == "exterior" or tau == 1e-8
            assert ((8, 9) in [edge for edge, _, _ in got.violating_edges]) is blocked
            if side == "interior":
                assert got.admissible is not blocked
            q = quotient_graph(surface, side, tau=tau)
            assert (q.face_class[0] == q.face_class[1]) is blocked


@pytest.mark.parametrize("name,build", REFERENCE_MESHES, ids=[m[0] for m in REFERENCE_MESHES])
def test_enumeration_order_is_the_documented_counter(name, build):
    surface = build()
    for side in ("interior", "exterior"):
        adm = enumerate_admissible(surface, side)
        assert adm.quotient is quotient_graph(surface, side)
        fc = adm.quotient.face_class
        if adm.quotient.class_count > 12:
            continue
        expected = [tuple("N" if (m >> fc[f]) & 1 else "D" for f in range(len(fc)))
                    for m in range(adm.count)]
        assert [p.labels for p in adm] == expected


def assert_enumerated_partitions_sound(surface, side):
    """Each enumerated partition equals the checked one built from its labels."""
    parts = list(enumerate_admissible(surface, side))
    for p in parts:
        assert type(p.labels) is tuple and len(p.labels) == len(surface.faces)
        assert p == Partition(tuple(p.labels), p.side) and p.side == side
        assert hash(p) == hash(Partition(p.labels, side))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.labels = ()
    return parts


@pytest.mark.parametrize("name,build", REFERENCE_MESHES, ids=[m[0] for m in REFERENCE_MESHES])
def test_enumerated_partitions_equal_checked_ones(name, build):
    surface = build()
    for side in ("interior", "exterior"):
        if quotient_graph(surface, side).class_count <= 12:
            assert_enumerated_partitions_sound(surface, side)


def test_enumeration_of_one_class_and_faceless_surfaces(cube, tetrahedron):
    # every exterior edge of a convex solid is blocked: one class, one
    # partition, all Dirichlet
    for surface in (cube, tetrahedron):
        assert quotient_graph(surface, "exterior").class_count == 1
        only = Partition(("D",) * len(surface.faces), "exterior")
        assert assert_enumerated_partitions_sound(surface, "exterior") == [only]
    faceless = PolyhedralSurface(np.zeros((0, 3)), [])
    assert assert_enumerated_partitions_sound(faceless, "interior") == []
    with pytest.raises(ValueError, match="side"):
        enumerate_admissible(cube, "sideways")


def test_cached_quotient_graph_is_frozen(l_prism):
    q = quotient_graph(l_prism, "interior")
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.face_class = ()
    assert quotient_graph(l_prism, "interior") is q
    assert quotient_graph(l_prism, "interior", tau=0.1) is not q


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -0.5, -1e-300])
def test_bad_tau_rejected(l_prism, tau):
    # a NaN tolerance would let the reflex notch change labels: 255 partitions
    # instead of 127, and the notch pair admissible
    notch = Partition(labels=("D",) * 3 + ("N",) + ("D",) * 4, side="interior")
    with pytest.raises(ValueError, match="tau"):
        validate_partition(l_prism, notch, tau=tau)
    for side in ("interior", "exterior"):
        with pytest.raises(ValueError, match="tau"):
            enumerate_admissible(l_prism, side, tau=tau)
        with pytest.raises(ValueError, match="tau"):
            is_monochromatic(l_prism, side, tau=tau)
    assert not validate_partition(l_prism, notch).admissible
    assert enumerate_admissible(l_prism, "interior", tau=0.0).count == 127


# ----------------------------------------------------------------------
# search harness


def test_search_hulls_never_both_monochromatic():
    report = search_both_monochromatic(GeneratorSpec(family="hulls", seed=123), budget=100)
    assert report.meshes_examined == 100
    assert report.both_monochromatic_found == ()
    # convex: interior never monochromatic, exterior always
    for _, _, interior_mono, exterior_mono in report.records:
        assert not interior_mono
        assert exterior_mono


def test_search_deterministic():
    spec = GeneratorSpec(family="notched-boxes", seed=5)
    a = search_both_monochromatic(spec, 10)
    b = search_both_monochromatic(spec, 10)
    assert a.to_json_dict() == b.to_json_dict()


def test_search_budget_zero_empty():
    report = search_both_monochromatic(GeneratorSpec(family="hulls", seed=1), 0)
    assert report.meshes_examined == 0
    assert report.records == ()
    assert report.both_monochromatic_found == ()


@pytest.mark.parametrize("budget", [-1, -2])
def test_search_negative_budget_rejected(budget):
    with pytest.raises(ValueError, match=r"^budget must be >= 0, got %d$" % budget):
        search_both_monochromatic(GeneratorSpec(family="hulls", seed=1), budget)


def test_search_star_spheres_runs():
    report = search_both_monochromatic(GeneratorSpec(family="star-spheres", seed=2), 6)
    assert report.meshes_examined == 6
    assert report.skipped_invalid == 0


def test_generator_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        GeneratorSpec(family="dodecahedra")
