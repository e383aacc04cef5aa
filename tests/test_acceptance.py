"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on a passing run.  The Monte Carlo criterion (4) draws 1e7 samples
per region and takes about a minute and a half; everything else is fast.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from polymix import fixtures
from polymix.cli import main
from polymix.geometry import ArchRegion, dihedral_angles
from polymix.mesh import validate_surface
from polymix.partition import Partition, enumerate_admissible, validate_partition
from polymix.rellich import catalog, rellich_suite
from polymix.sector import NtCone, SectorSolution, blowup_report, estimate_ntmax, truncated_energy
from polymix.trace_energy import (
    CONVERGENT,
    DIVERGENT,
    TraceData,
    cotan_stiffness,
    refinement_study,
    solve_constrained,
)

RELLICH_SAMPLES = 10_000_000
NTMAX_SAMPLES = 100_000


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print("ACCEPTANCE %d %s: FAIL" % (num, name))
        raise
    print("ACCEPTANCE %d %s: PASS" % (num, name))


def _oracle_meshes():
    meshes = [
        ("cube", fixtures.cube()),
        ("tetrahedron", fixtures.regular_tetrahedron()),
        ("square-pyramid", fixtures.square_pyramid()),
        ("l-prism", fixtures.l_prism()),
    ]
    for seed in range(12):
        meshes.append(("hull-%d" % seed, fixtures.generate_hull(seed, n_points=8)))
    for seed in range(8):
        meshes.append(("notched-%d" % seed, fixtures.notched_box(1, height=1.0 + 0.25 * seed)))
    return meshes


def test_criterion_1_oracle_equivalence():
    with criterion(1, "combinatorial oracle equivalence"):
        start = time.time()
        meshes = _oracle_meshes()
        assert len(meshes) == 24  # 4 fixtures + 20 generated
        for name, surf in meshes:
            nf = len(surf.faces)
            assert nf <= 12, name
            assert validate_surface(surf).ok, name
            for side in ("interior", "exterior"):
                brute = set()
                for bits in itertools.product("DN", repeat=nf):
                    rep = validate_partition(surf, Partition(labels=bits, side=side))
                    if rep.admissible:
                        brute.add(bits)
                enumerated = {p.labels for p in enumerate_admissible(surf, side)}
                assert enumerated == brute, (name, side)
        elapsed = time.time() - start
        assert elapsed < 10.0, "oracle equivalence took %.1fs" % elapsed


def test_criterion_2_exact_counts():
    with criterion(2, "admissible partition counts"):
        assert enumerate_admissible(fixtures.cube(), "interior").count == 63
        assert enumerate_admissible(fixtures.l_prism(), "interior").count == 127
        assert enumerate_admissible(fixtures.regular_tetrahedron(), "exterior").count == 1
        assert enumerate_admissible(fixtures.cube(), "exterior").count == 1


def test_criterion_3_dihedral_angles():
    with criterion(3, "dihedral angles"):
        for d in dihedral_angles(fixtures.cube()):
            assert abs(d.interior_angle - math.pi / 2) <= 1e-12
        pyramid = fixtures.square_pyramid()
        lat_lat = [
            d.interior_angle
            for d in dihedral_angles(pyramid)
            if d.faces[0] < 4 and d.faces[1] < 4
        ]
        assert len(lat_lat) == 4
        for angle in lat_lat:
            assert abs(angle - (math.pi - math.acos(1.0 / 3.0))) <= 1e-9
        notch = [
            d.interior_angle
            for d in dihedral_angles(fixtures.l_prism())
            if set(d.faces) == {2, 3}
        ]
        assert len(notch) == 1
        assert abs(notch[0] - 1.5 * math.pi) <= 1e-9


@pytest.fixture(scope="module")
def rellich_results():
    out = {}
    for name, surf in (("cube", fixtures.cube()), ("pyramid", fixtures.square_pyramid())):
        arch = ArchRegion(surf, 0, 0.25, 0.5)
        out[name] = rellich_suite(arch, catalog(2), RELLICH_SAMPLES, seed=2024)
    return out


def test_criterion_4_rellich_identity_and_estimate(rellich_results):
    with criterion(4, "Rellich identity and estimate at 1e7 samples"):
        for name, (identities, estimates) in rellich_results.items():
            assert len(identities) == 9  # catalog through degree 2
            for res in identities:
                assert res.relative_residual <= 0.01, (name, res.u_name, res.relative_residual)
                assert abs(res.residual) <= 3.0 * max(res.combined_stderr, 1e-300), (
                    name, res.u_name,
                )
            for est in estimates:
                assert est.slack >= -3.0 * est.combined_stderr, (name, est.u_name)


def test_criterion_5_sector_blowup():
    with criterion(5, "sector truncated-energy blow-up"):
        # spot values, exact in closed form (floating-point exactness)
        i_three_halves = truncated_energy(SectorSolution(1.5 * math.pi), 1e-6)
        assert i_three_halves.closed_form == pytest.approx(33.0, rel=1e-12)
        i_flat = truncated_energy(SectorSolution(math.pi), math.exp(-4.0))
        assert i_flat.closed_form == pytest.approx(1.0, rel=1e-12)
        # closed form vs independent quadrature within 0.1%
        for mult in (1.0, 1.1, 1.25, 1.5, 1.75):
            sol = SectorSolution(mult * math.pi)
            for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                te = truncated_energy(sol, eps)
                assert abs(te.quadrature - te.closed_form) <= 1e-3 * abs(te.closed_form)
        # fitted exponent within 1%
        for mult in (1.1, 1.25, 1.5, 1.75):
            sol = SectorSolution(mult * math.pi)
            rep = blowup_report(sol)
            target = 2.0 * sol.exponent - 1.0
            assert abs(rep.fitted_exponent - target) <= 0.01 * abs(target)
        # log law at the flat aperture
        rep = blowup_report(SectorSolution(math.pi))
        assert rep.log_law
        assert abs(rep.log_law_coefficient - 0.25) <= 0.01 * 0.25


def test_criterion_6_ntmax_scaling():
    with criterion(6, "nontangential maximal scaling"):
        sol = SectorSolution(1.5 * math.pi)
        d = 0.1
        big = estimate_ntmax(sol, NtCone(distance=d, aperture=1.0, height=d),
                             NTMAX_SAMPLES, seed=77)
        small = estimate_ntmax(sol, NtCone(distance=d / 2, aperture=1.0, height=d / 2),
                               NTMAX_SAMPLES, seed=77)
        target = 2.0 ** (1.0 - sol.exponent)
        assert abs(small / big - target) <= 0.02 * target


def test_criterion_7_trace_energy_studies():
    with criterion(7, "trace-energy refinement studies"):
        start = time.time()
        pyramid = fixtures.square_pyramid()
        part = Partition(labels=("D", "N", "D", "N", "N"), side="interior")
        step = TraceData.face_constants({0: 1.0, 2: 0.0})
        rep = refinement_study(pyramid, part, step, levels=range(1, 7))
        assert rep.classification == DIVERGENT
        assert all(b > a for a, b in zip(rep.energies, rep.energies[1:]))

        cube = fixtures.cube()
        cpart = Partition(labels=tuple("D" if i == 0 else "N" for i in range(6)),
                          side="interior")
        crep = refinement_study(cube, cpart, TraceData.coordinate("x"), levels=range(0, 5))
        assert crep.classification == CONVERGENT
        assert abs(crep.energies[-1] - crep.energies[-2]) / crep.energies[-1] < 0.01

        # flat-patch solver exactness
        n = 17
        xs = np.linspace(0.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(n * n)])
        tris = []
        for i in range(n - 1):
            for j in range(n - 1):
                a, b = i * n + j, (i + 1) * n + j
                c, dd = (i + 1) * n + j + 1, i * n + j + 1
                tris += [(a, b, c), (a, c, dd)]
        stiff = cotan_stiffness(verts, np.asarray(tris))
        boundary = np.array(
            [i * n + j for i in range(n) for j in range(n)
             if i in (0, n - 1) or j in (0, n - 1)]
        )
        u, _, _, _ = solve_constrained(stiff, boundary, verts[boundary, 0])
        energy = float(u @ (stiff @ u))
        assert abs(energy - 1.0) <= 1e-10

        elapsed = time.time() - start
        assert elapsed < 120.0, "trace studies took %.1fs" % elapsed


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "byte-identical reports"):
        mesh_dir = tmp_path / "fx"
        assert main(["fixtures", "--out-dir", str(mesh_dir),
                     "--output", str(tmp_path / "fx.json")]) == 0
        cube_off = str(mesh_dir / "cube.off")
        cases = [
            ["validate", cube_off],
            ["angles", cube_off, "--format", "csv"],
            ["enumerate", cube_off, "--side", "interior"],
            ["monochromatic", cube_off, "--side", "exterior"],
            ["search", "--family", "hulls", "--budget", "6", "--seed", "11"],
            ["rellich", cube_off, "--vertex", "0", "--r-inner", "0.25", "--r-outer",
             "0.5", "--samples", "50000", "--seed", "6", "--u", "all", "--estimate"],
            ["sector-blowup", "--alpha", "1.75pi", "--format", "csv"],
            ["trace-energy", "--study", "pyramid-step", "--levels", "4"],
            ["fixtures", "--out-dir", str(mesh_dir / "again")],
        ]
        for k, argv in enumerate(cases):
            p1 = tmp_path / ("r%d_a" % k)
            p2 = tmp_path / ("r%d_b" % k)
            assert main(argv + ["--output", str(p1)]) == 0
            assert main(argv + ["--output", str(p2)]) == 0
            assert p1.read_bytes() == p2.read_bytes(), argv[0]
        # sanity: the reports carry provenance
        doc = json.loads((tmp_path / "r0_a").read_bytes())
        assert doc["tool"] == "polymix" and "config" in doc
