"""Self-tests of the benchmark: each check must fail on a wrong result.

    python3 perfbench/selftest.py

Feeds every correctness check a passing result and deliberately wrong
ones, checks seed handling and the span arithmetic, and checks that
BENCHMARK.json lists exactly the workloads and metrics the runner prints.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import checks
import run

SOLVER_RTOL = 1e-10


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


# ----------------------------------------------------------------------
# correctness checks


def _hull_truth(n=3):
    return [{"id": "hulls-7-%d" % i, "faces": 12, "interior": (False, True),
             "exterior": (True, True)} for i in range(n)]


def _search_result(truth):
    return {
        "meshes_examined": len(truth),
        "skipped_invalid": sum(1 for t in truth if t is None),
        "meshes": [{"id": t["id"], "faces": t["faces"],
                    "interior_monochromatic": t["interior"][0],
                    "exterior_monochromatic": t["exterior"][0]} for t in truth if t],
    }


def test_search_check():
    truth = _hull_truth()
    failed, why = checks.search_problems("hulls", 3, _search_result(truth), truth)
    expect(not failed and not why, "a correct search report fails: %r" % why)

    flipped = _search_result(truth)
    flipped["meshes"][1]["exterior_monochromatic"] = False
    failed, _ = checks.search_problems("hulls", 3, flipped, truth)
    expect(failed == {1}, "a flipped monochromatic flag passes")

    bad_witness = copy.deepcopy(truth)
    bad_witness[2]["interior"] = (False, False)
    failed, _ = checks.search_problems("hulls", 3, _search_result(bad_witness), bad_witness)
    expect(failed == {2}, "an inadmissible witness passes")

    mono_hull = copy.deepcopy(truth)
    mono_hull[0]["interior"] = (True, True)
    failed, _ = checks.search_problems("hulls", 3, _search_result(mono_hull), mono_hull)
    expect(failed == {0}, "an interior-monochromatic hull passes")
    failed, _ = checks.search_problems("star-spheres", 3, _search_result(mono_hull), mono_hull)
    expect(not failed, "the hull rule applies to another family")

    short = _search_result(truth)
    short["meshes_examined"] = 2
    failed, _ = checks.search_problems("hulls", 3, short, truth)
    expect(failed == {0, 1, 2}, "a report that examined too few meshes passes")

    invalid = truth[:2] + [None]
    skipped = _search_result(invalid)
    skipped["skipped_invalid"] = 0
    failed, _ = checks.search_problems("hulls", 3, skipped, invalid)
    expect(failed, "a wrong skipped_invalid count passes")


def test_oracle_check():
    brute = {("D", "D"), ("D", "N"), ("N", "D")}
    expect(not checks.oracle_problems("m", "interior", brute, set(brute)), "equal sets fail")
    expect(checks.oracle_problems("m", "interior", brute, brute - {("D", "N")}),
           "an enumeration missing one labeling passes")
    expect(checks.oracle_problems("m", "interior", brute, brute | {("N", "N")}),
           "an enumeration with an extra labeling passes")


def _rellich_result(z_residual=1.0, z_slack=3.0):
    se = 0.01
    return {
        "identity": [{"u": "x", "lhs": 1.0, "rhs": 1.0 - z_residual * se, "residual": z_residual * se,
                      "combined_stderr": se},
                     {"u": "1", "lhs": 0.0, "rhs": 0.0, "residual": 0.0, "combined_stderr": 0.0}],
        "estimate": [{"u": "x", "slack": z_slack * se, "combined_stderr": se}],
    }


def test_rellich_check():
    expect(not checks.rellich_problems(_rellich_result()), "a result within noise fails")
    expect(checks.rellich_problems(_rellich_result(z_residual=10.0)), "a residual at 10 sigma passes")
    expect(checks.rellich_problems(_rellich_result(z_residual=-10.0)), "a residual at -10 sigma passes")
    expect(checks.rellich_problems(_rellich_result(z_slack=-10.0)), "a slack at -10 sigma passes")
    no_estimate = _rellich_result()
    del no_estimate["estimate"]
    expect(checks.rellich_problems(no_estimate), "a report without estimates passes")
    expect(math.isclose(checks.rellich_relative_stderr([_rellich_result()]), 0.01),
           "relative stderr skips the constant function")


def _step_result(last_increment=checks.STEP_RATE, classification="DIVERGENT", residual=1e-11):
    counts = checks.refined_vertex_counts(5, 6, range(4))
    energies = [1.0, 2.4, 3.73, 3.73 + last_increment]
    return counts, {"levels": [0, 1, 2, 3], "vertex_counts": counts, "energies": energies,
                    "residuals": [0.0, residual, residual, residual],
                    "classification": classification}


def test_trace_checks():
    counts, good = _step_result()
    expect(not checks.step_study_problems(good, counts, SOLVER_RTOL), "a correct step study fails")
    counts, flat = _step_result(last_increment=0.0)
    expect(checks.step_study_problems(flat, counts, SOLVER_RTOL), "a flat last increment passes")
    counts, slow = _step_result(last_increment=0.98 * checks.STEP_RATE)
    expect(checks.step_study_problems(slow, counts, SOLVER_RTOL), "an increment 2% low passes")
    counts, undecided = _step_result(classification="UNDECIDED")
    expect(checks.step_study_problems(undecided, counts, SOLVER_RTOL), "UNDECIDED step data passes")
    counts, loose = _step_result(residual=1e-8)
    expect(checks.step_study_problems(loose, counts, SOLVER_RTOL), "a loose CG residual passes")
    expect(checks.step_study_problems(good, [c + 1 for c in counts], SOLVER_RTOL),
           "wrong vertex counts pass")
    smooth = dict(good, classification="CONVERGENT")
    expect(not checks.smooth_study_problems(smooth, counts, SOLVER_RTOL), "a settled study fails")
    expect(checks.smooth_study_problems(good, counts, SOLVER_RTOL), "DIVERGENT smooth data passes")
    # pyramid: 5 vertices, 6 triangles; level 8 has 4^8 * 6 / 2 + 2 vertices
    expect(checks.refined_vertex_counts(5, 6, range(9))[-1] == 196610, "refined vertex count")


# ----------------------------------------------------------------------
# seed handling, spans, BENCHMARK.json


def test_seed_handling():
    from workloads import RellichArches, Search, PartitionOracle, TraceStudy, derive
    expect(derive(1, "a") == derive(1, "a"), "derive is not deterministic")
    a, b = Search(1), Search(2)
    expect(a.specs == Search(1).specs, "search inputs differ for one seed")
    expect(all(x[4] != y[4] for x, y in zip(a.specs, b.specs)), "search seeds ignore the seed")
    from polymix.partition import GeneratorSpec
    for x, y in zip(a.specs, b.specs):
        fam, lo, hi = x[:3]
        if fam == "notched-boxes":  # no random shape
            continue
        va = GeneratorSpec(fam, x[4], lo, hi).build(0)[1].vertices
        vb = GeneratorSpec(fam, y[4], lo, hi).build(0)[1].vertices
        expect(va.shape != vb.shape or (va != vb).any(), "%s meshes ignore the seed" % fam)
    expect(PartitionOracle(1).hull_seeds != PartitionOracle(2).hull_seeds, "hull set ignores the seed")
    expect(RellichArches(1).seeds != RellichArches(2).seeds, "Rellich samples ignore the seed")
    expect(tuple(tag for tag, _, _ in RellichArches.ARCHES) == run.ARCH_TAGS, "arch tags differ")
    offsets = {TraceStudy(s, ("closed",)).fan_offset for s in range(8)}
    expect(len(offsets) > 1, "fan offset ignores the seed")


def test_spans():
    import spans
    recorded = [("a", 0.0, 10.0, -1, ""), ("b", 1.0, 4.0, 0, ""), ("c", 2.0, 3.0, 1, ""),
                ("b", 5.0, 7.0, 0, "")]
    expect(spans.self_times(recorded) == [5.0, 2.0, 1.0, 2.0], "self time arithmetic")

    import polymix.cli
    import polymix.geometry
    import polymix.partition
    originals = (polymix.cli.main, polymix.geometry.dihedral_angles,
                 polymix.partition.GeneratorSpec.build)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(polymix.cli.main is not originals[0], "cli.main not wrapped")
        from polymix import fixtures
        cube = fixtures.cube()
        mono, _ = polymix.partition.is_monochromatic(cube, "exterior")
        expect(mono is True, "wrapped call changed the result")
        names = [s[0] for s in tracer.take()]
        expect(names == ["partition.is_monochromatic", "partition.quotient_graph",
                         "geometry.dihedral_angles"], "unexpected spans %r" % names)
    finally:
        tracer.uninstall()
    expect((polymix.cli.main, polymix.geometry.dihedral_angles,
            polymix.partition.GeneratorSpec.build) == originals, "uninstall did not restore")


def test_repeat_failures():
    from workloads import Call
    first = [Call("a", 10, "x"), Call("b", 5, "y")]

    def failures(calls, failed_first):
        return run.repeat_failures(first, run.differing_calls(first, calls), failed_first)

    expect(failures([Call("a", 10, "x"), Call("b", 5, "y")], {}) == 0, "an identical pass fails")
    expect(failures([Call("a", 10, "x"), Call("b", 5, "z")], {}) == 5,
           "a pass with a changed report passes")
    expect(failures([Call("a", 10, "x", "exit code 2"), Call("b", 5, "y")], {}) == 10,
           "a raising call passes")
    expect(failures(list(first), {"a": 3}) == 3, "a repeat of a failed first pass passes")


def test_best_pass():
    times = [[1.0, 5.0, 0.5], [0.9, 6.0, 0.7], [1.2, 4.5, 0.6]]
    expect(math.isclose(run.best_pass_s(times), 0.9 + 4.5 + 0.5), "per-call minimum, summed")


def test_calibrated():
    # the machine at half speed for one repeat: the ratio to the reference holds
    times, refs = [1.0, 2.0, 1.1], [0.007, 0.014, 0.007]
    expect(math.isclose(run.calibrated_s(times, refs), 1.0 * run.REF_S / 0.007),
           "median of time over reference time")
    passes = [[1.0, 4.0], [2.0, 8.0], [1.1, 4.4]]
    pass_refs = [[0.007, 0.007], [0.014, 0.014], [0.007, 0.007]]
    expect(math.isclose(run.calibrated_pass_s(passes, pass_refs), 5.0 * run.REF_S / 0.007),
           "per-call calibrated median, summed")


def test_benchmark_json():
    from workloads import WORKLOADS
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [w["name"] for w in bench["workloads"]]
    expect(set(listed) <= set(WORKLOADS), "BENCHMARK.json lists an unknown workload")
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metrics differ from the runner's")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER),
           "per-layer metrics differ from the runner's")


def main():
    run.import_program()
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print("FAIL %s: %s" % (test.__name__, exc))
            return 1
        print("ok   %s" % test.__name__)
    print("selftest: %d groups passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
