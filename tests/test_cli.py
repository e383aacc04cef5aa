import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import polymix
from polymix import fixtures, trace_energy
from polymix.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, build_parser, main, parse_angle
from polymix.geometry import ArchRegion
from polymix.mesh import PolyhedralSurface, read_off, serialize_off, write_off
from polymix.partition import Partition
from polymix.rellich import _streams

from conftest import open_box, refine, u_pyramid

SUBCOMMANDS = [
    "validate", "angles", "check-partition", "enumerate", "monochromatic",
    "search", "rellich", "sector-blowup", "trace-energy", "fixtures",
]
CSV_SUBCOMMANDS = ("angles", "rellich", "sector-blowup", "trace-energy")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["fixtures", "--out-dir", str(d)]) == EXIT_OK
    write_off(str(d / "u-pyramid.off"), u_pyramid())
    return d


def off(workdir, name):
    return str(workdir / ("%s.off" % name))


def run_to_file(tmp_path, argv, name="out"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_bytes()


def test_parse_angle_literals():
    assert parse_angle("1.5pi") == 1.5 * math.pi
    assert parse_angle("pi") == math.pi
    assert parse_angle("0.25") == 0.25
    assert parse_angle("2pi") == 2 * math.pi


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([sub, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--output" in text
    assert ("--format" in text) == (sub in CSV_SUBCOMMANDS)
    assert ("--seed" in text) == (sub in ("search", "rellich"))


@pytest.mark.parametrize("argv", [
    ["validate", "{cube}"],
    ["check-partition", "{cube}", "{partition}"],
    ["enumerate", "{cube}", "--side", "interior"],
    ["monochromatic", "{cube}", "--side", "interior"],
    ["search", "--family", "hulls", "--budget", "1"],
    ["fixtures", "--out-dir", "{out}"],
], ids=lambda argv: argv[0])
def test_json_only_subcommands_reject_format(workdir, tmp_path, capsys, argv):
    assert argv[0] not in CSV_SUBCOMMANDS
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["D"] * 6}))
    argv = [a.format(cube=off(workdir, "cube"), partition=part, out=tmp_path / "fx")
            for a in argv]
    assert main(argv + ["--format", "csv"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err


def test_fixtures_written(workdir):
    names = {"cube", "tetrahedron", "square-pyramid", "l-prism", "notched-box-1", "notched-box-2"}
    present = {p[:-4] for p in os.listdir(workdir) if p.endswith(".off")}
    assert names <= present


def test_validate_ok(workdir, tmp_path):
    code, body = run_to_file(tmp_path, ["validate", off(workdir, "cube")])
    assert code == EXIT_OK
    doc = json.loads(body)
    assert doc["result"]["violations"] == []
    assert doc["result"]["euler"] == 2
    assert doc["tool"] == "polymix"
    assert doc["config"]["subcommand"] == "validate"


def test_validate_strict_fails_on_bad_mesh(tmp_path):
    bad = tmp_path / "open.off"
    bad.write_text(serialize_off(open_box()))
    assert main(["validate", str(bad)]) == EXIT_OK
    assert main(["validate", str(bad), "--strict"]) == EXIT_VALIDATION


def test_validate_faceless_mesh_reports_isolated_vertex(tmp_path):
    lone = tmp_path / "lone.off"
    lone.write_text("OFF\n1 0 0\n0 0 0\n")
    code, body = run_to_file(tmp_path, ["validate", str(lone)])
    assert code == EXIT_OK
    assert json.loads(body)["result"]["violations"] == [
        {"kind": "isolated_vertex", "location": [0]}]
    assert main(["validate", str(lone), "--strict"]) == EXIT_VALIDATION


def test_check_partition_example(workdir, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["N", "D", "D", "D", "D", "D"]}))
    code, body = run_to_file(
        tmp_path, ["check-partition", off(workdir, "cube"), str(part), "--side", "interior"]
    )
    assert code == EXIT_OK
    assert json.loads(body)["result"]["admissible"] is True


def test_check_partition_strict_inadmissible(workdir, tmp_path):
    part = tmp_path / "allN.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["N"] * 6}))
    code = main(["check-partition", off(workdir, "cube"), str(part), "--strict",
                 "--output", str(tmp_path / "r.json")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("name", ["l-prism", "hull"])
def test_angles_in_walk_order_violations_in_face_order(workdir, tmp_path, name):
    # the angles report gives each edge's faces in walk order, face0 walking
    # v0 -> v1; check-partition gives a violating edge's faces ascending
    if name == "hull":
        write_off(str(tmp_path / "hull.off"), fixtures.generate_hull(5, n_points=9))
        mesh = str(tmp_path / "hull.off")
    else:
        mesh = off(workdir, name)
    faces = read_off(mesh).faces
    _, body = run_to_file(tmp_path, ["angles", mesh])
    rows = json.loads(body)["result"]["edges"]
    for r in rows:
        cycle = faces[r["face0"]]
        assert cycle[(cycle.index(r["v0"]) + 1) % len(cycle)] == r["v1"], r
    descending = [(r["face0"], r["face1"]) for r in rows if r["face0"] > r["face1"]]
    assert descending
    # on the exterior side every convex edge is blocked: the one D face
    # violates at each of its convex edges, a descending one among them
    fa, fb = descending[0]
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"side": "exterior",
                                "labels": ["D" if f == fa else "N" for f in range(len(faces))]}))
    _, body = run_to_file(tmp_path, ["check-partition", mesh, str(part)], "check")
    violating = [v["faces"] for v in json.loads(body)["result"]["violating_edges"]]
    assert [fb, fa] in violating
    assert all(f0 < f1 for f0, f1 in violating), violating


def test_monochromatic_cube_exterior(workdir, tmp_path):
    code, body = run_to_file(
        tmp_path, ["monochromatic", off(workdir, "cube"), "--side", "exterior"]
    )
    assert code == EXIT_OK
    doc = json.loads(body)
    assert doc["result"]["monochromatic"] is True
    assert doc["result"]["witness"] is None


@pytest.mark.parametrize("text", ["OFF\n1 0 0\n0 0 0\n", "OFF\n0 0 0\n"],
                         ids=["lone-vertex", "empty"])
def test_monochromatic_faceless_mesh_exit_2(tmp_path, capsys, text):
    mesh = tmp_path / "faceless.off"
    mesh.write_text(text)
    assert main(["monochromatic", str(mesh), "--side", "interior"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_counts(workdir, tmp_path):
    code, body = run_to_file(
        tmp_path, ["enumerate", off(workdir, "l-prism"), "--side", "interior"]
    )
    assert code == EXIT_OK
    assert json.loads(body)["result"]["count"] == 127


def test_sector_blowup_spot_value(tmp_path):
    code, body = run_to_file(
        tmp_path, ["sector-blowup", "--alpha", "1.5pi", "--eps", "1e-6"]
    )
    assert code == EXIT_OK
    doc = json.loads(body)
    entry = doc["result"]["energies"][0]
    assert entry["closed_form"] == pytest.approx(33.0, rel=1e-12)
    assert entry["quadrature"] == pytest.approx(33.0, rel=1e-6)


def test_sector_blowup_fit_csv(tmp_path):
    code, body = run_to_file(
        tmp_path, ["sector-blowup", "--alpha", "1.25pi", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = body.decode().splitlines()
    assert lines[0].startswith("# tool=polymix")
    assert lines[2] == "epsilon,I_closed_form,I_quadrature,stderr"
    assert len(lines) == 3 + 6  # default ladder


def test_rellich_csv(workdir, tmp_path):
    code, body = run_to_file(
        tmp_path,
        ["rellich", off(workdir, "cube"), "--vertex", "0", "--r-inner", "0.25",
         "--r-outer", "0.5", "--samples", "20000", "--seed", "3", "--u", "x",
         "--format", "csv"],
    )
    assert code == EXIT_OK
    lines = body.decode().splitlines()
    assert lines[2].startswith("fixture,vertex,r,R,u_name")
    assert len(lines) == 4


@pytest.mark.parametrize("name, vertex", [
    ("l-prism", 3),  # the notch: a reflex vertex whose link has a kernel
    ("u-pyramid", 8),  # an apex whose link has none
])
def test_rellich_sampling_block(workdir, tmp_path, name, vertex):
    argv = ["rellich", off(workdir, name), "--vertex", str(vertex), "--r-inner", "0.2",
            "--r-outer", "0.4", "--samples", "5000", "--seed", "4", "--u", "x"]
    code, body = run_to_file(tmp_path, argv)
    assert code == EXIT_OK
    sampling = json.loads(body)["result"]["sampling"]
    # the report reads the streams the suite integrates over, not a second draw
    arch = ArchRegion(read_off(off(workdir, name)), vertex, 0.2, 0.4)
    streams = _streams(arch, 5000, 4)
    assert list(sampling) == ["lateral", "link", "regions"]
    for stream in streams:
        assert sampling[stream.tag] == {"draws": 5000, "measure": stream.measure}, stream.tag
    # u = x has degree 1: the radial factors are R^2 - r^2, r^2, R^2, (R^2 - r^2) / 2
    r2, R2 = 0.2 * 0.2, 0.4 * 0.4
    assert sampling["regions"] == {
        "inner": {"radial_factor": {"1": r2}, "stream": "link"},
        "lateral": {"radial_factor": {"1": 0.5 * (R2 - r2)}, "stream": "lateral"},
        "outer": {"radial_factor": {"1": R2}, "stream": "link"},
        "volume": {"radial_factor": {"1": R2 - r2}, "stream": "link"},
    }


def test_rellich_memory_flat_in_samples(workdir, tmp_path):
    # the command streams the samples as the library suite does, so
    # quadrupling them must leave the traced allocation peak nearly where it was
    def argv(n):
        return ["rellich", off(workdir, "cube"), "--vertex", "0", "--r-inner", "0.25",
                "--r-outer", "0.5", "--estimate", "--samples", str(n), "--seed", "4",
                "--output", str(tmp_path / "out")]

    assert main(argv(1000)) == EXIT_OK  # fill caches first

    def peak(n):
        tracemalloc.start()
        try:
            assert main(argv(n)) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 16), peak(1 << 18)
    assert large < 1.5 * small, (small, large)


def test_trace_energy_study(tmp_path):
    code, body = run_to_file(
        tmp_path, ["trace-energy", "--study", "cube-smooth", "--format", "csv"]
    )
    assert code == EXIT_OK
    assert body.decode().strip().endswith("CONVERGENT")


def test_trace_energy_at_straight_face_corner(tmp_path):
    # a straight face corner once fanned into a zero-area triangle, whose
    # infinite cotangent weight sent conjugate gradients to NaN
    from polymix.mesh import serialize_off
    from test_geometry import split_top_l_prism

    surface, _ = split_top_l_prism()
    mesh = tmp_path / "split.off"
    mesh.write_text(serialize_off(surface))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["D"] + ["N"] * 8}))
    for fan_offset in range(4):
        code, body = run_to_file(tmp_path, ["trace-energy", str(mesh), str(part),
                                            "--data", "coordinate:x", "--levels", "2",
                                            "--fan-offset", str(fan_offset)])
        assert code == EXIT_OK
        energies = json.loads(body)["result"]["energies"]
        assert len(energies) == 3 and all(math.isfinite(e) for e in energies)


@pytest.mark.parametrize("export", [False, True], ids=["report", "export"])
@pytest.mark.parametrize("argv", [
    lambda w: ["trace-energy", "--study", "pyramid-step", "--levels", "0"],
    lambda w: ["trace-energy", off(w, "cube"), w / "cube-part.json", "--data", "coordinate:x",
               "--levels", "-1"],
], ids=["study", "mesh"])
def test_trace_energy_empty_level_selection_exit_2(workdir, tmp_path, capsys, argv, export):
    (workdir / "cube-part.json").write_text(
        json.dumps({"side": "interior", "labels": ["D"] + ["N"] * 5}))
    extra = ["--export-extension", str(tmp_path / "x.off")] if export else []
    assert main([str(a) for a in argv(workdir)] + extra) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: empty level selection: --levels ")
    assert not (tmp_path / "x.off").exists()


def test_trace_energy_mesh_needs_levels(workdir, capsys):
    (workdir / "cube-part.json").write_text(
        json.dumps({"side": "interior", "labels": ["D"] + ["N"] * 5}))
    assert main(["trace-energy", off(workdir, "cube"), str(workdir / "cube-part.json"),
                 "--data", "coordinate:x"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: MESH PARTITION --data needs --levels\n"


def test_trace_energy_export_is_the_finest_solve(tmp_path):
    part = Partition(labels=("D", "N", "D", "N", "N"), side="interior")
    out = tmp_path / "ext.off"
    code, body = run_to_file(tmp_path, ["trace-energy", "--study", "pyramid-step", "--levels",
                                        "3", "--fan-offset", "1", "--export-extension",
                                        str(out)])
    assert code == EXIT_OK
    rs = refine(fixtures.square_pyramid(), 3, fan_offset=1)
    res = trace_energy.minimal_extension_energy(
        rs, part, trace_energy.TraceData.face_constants({0: 1.0, 2: 0.0}))
    assert out.read_text() == trace_energy.export_off_with_scalars(rs, res.values)
    assert json.loads(body)["result"]["energies"][-1] == res.energy


def test_search_subcommand(tmp_path):
    code, body = run_to_file(
        tmp_path, ["search", "--family", "hulls", "--budget", "5", "--seed", "1"]
    )
    assert code == EXIT_OK
    doc = json.loads(body)
    assert doc["result"]["meshes_examined"] == 5
    assert doc["result"]["both_monochromatic_found"] == []


# ----------------------------------------------------------------------
# error handling


def test_unreadable_file_exit_2(tmp_path):
    assert main(["validate", str(tmp_path / "missing.off")]) == EXIT_INPUT


def test_malformed_off_exit_2(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n1 1 0\n0 0 0\n3 0 0 7\n")
    assert main(["validate", str(bad)]) == EXIT_INPUT


@pytest.mark.parametrize("body", ["[1, 2]", '{"labels": 5, "side": "interior"}',
                                  '{"labels": null, "side": "interior"}',
                                  '{"side": "interior", "labels": "DNDNDD"}'],
                         ids=["not-an-object", "labels-int", "labels-null", "labels-string"])
def test_malformed_partition_file_exit_2(workdir, tmp_path, capsys, body):
    part = tmp_path / "p.json"
    part.write_text(body)
    assert main(["check-partition", off(workdir, "cube"), str(part)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad partition file %s: " % part)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("body, key", [('{"side": "interior"}', "labels"),
                                       ('{"labels": ["D", "N", "N", "N", "N", "N"]}', "side")])
def test_partition_file_missing_key_named(workdir, tmp_path, capsys, body, key):
    part = tmp_path / "p.json"
    part.write_text(body)
    assert main(["check-partition", off(workdir, "cube"), str(part)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: bad partition file %s: a partition object needs a '%s' key\n" % (part, key))


def test_unknown_test_function_message(workdir, tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["rellich", off(workdir, "cube"), "--vertex", "0", "--r-inner", "0.25",
            "--r-outer", "0.5", "--u", "nope", "--output", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: no harmonic test function named 'nope'\n"
    assert not out.exists()


def test_unknown_fixture_message(tmp_path, capsys):
    assert main(["fixtures", "--out-dir", str(tmp_path), "--names", "nope"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: unknown fixture 'nope' (have: %s)\n" % (
        ", ".join(sorted(fixtures.BUILTIN)))


def test_rellich_empty_catalog_selection_exit_2(workdir, tmp_path, capsys):
    # no test function means nothing verified, so the command refuses it
    out = tmp_path / "x.json"
    argv = ["rellich", off(workdir, "cube"), "--vertex", "0", "--r-inner", "0.25",
            "--r-outer", "0.5", "--u", "all", "--max-degree", "-1", "--output", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: empty catalog selection: --max-degree -1 selects no test function\n")
    assert not out.exists()


def test_unknown_flag_exit_2(workdir, capsys):
    assert main(["validate", off(workdir, "cube"), "--frobnicate"]) == EXIT_INPUT
    capsys.readouterr()


def test_unknown_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == EXIT_INPUT
    capsys.readouterr()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_failed_parse_leaves_the_cached_parser_clean(capsys):
    argv = ["trace-energy", "--study", "cube-smooth", "--levels", "2", "--fan-offset", "1"]
    build_parser.cache_clear()
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv + ["--format", "xml"]) == EXIT_INPUT
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert main(argv + ["--format", "csv"]) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.endswith(first)


def test_degenerate_edge_exit_2(tmp_path, capsys):
    # a two-triangle "pillow": every edge is a knife edge, reported cleanly
    pillow = tmp_path / "pillow.off"
    pillow.write_text("OFF\n3 2 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n")
    assert main(["enumerate", str(pillow), "--side", "interior"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("vertex", ["-1", "8", "9"])
def test_rellich_vertex_out_of_range_exit_2(workdir, tmp_path, capsys, vertex):
    argv = ["rellich", off(workdir, "cube"), "--vertex", vertex, "--r-inner", "0.25",
            "--r-outer", "0.5", "--samples", "100", "--output", str(tmp_path / "x.json")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: vertex %s out of range 0..7\n" % vertex


def test_rellich_one_sample_exit_2(workdir, tmp_path, capsys):
    # one point per region gives no stderr, so the command refuses it
    out = tmp_path / "x.json"
    argv = ["rellich", off(workdir, "cube"), "--vertex", "0", "--r-inner", "0.25",
            "--r-outer", "0.5", "--u", "x", "--samples", "1", "--seed", "7",
            "--output", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: need n >= 2") and err.count("\n") == 1
    assert not out.exists()


def test_bad_alpha_exit_2(tmp_path):
    assert main(["sector-blowup", "--alpha", "0.5pi",
                 "--output", str(tmp_path / "x.json")]) == EXIT_INPUT


@pytest.mark.parametrize("literal, reason", [
    ("3/2pi", "could not convert string to float: '3/2'"),  # a decimal factor, not a fraction
    ("pie", "could not convert string to float: 'pie'"),
    ("0.5pi", "aperture must lie in [pi, 2*pi), got 1.5708"),
])
def test_bad_alpha_literal_named(capsys, literal, reason):
    assert main(["sector-blowup", "--alpha", literal]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad --alpha %r: %s\n" % (literal, reason)


@pytest.mark.parametrize("argv, message", [
    (["search", "--family", "hulls", "--budget", "-3"], "budget must be >= 0, got -3"),
    (["enumerate", "{cube}", "--side", "interior", "--list-limit", "-1"],
     "--list-limit must be >= 0, got -1"),
], ids=["search-budget", "enumerate-list-limit"])
def test_negative_count_is_an_input_error(workdir, capsys, argv, message):
    assert main([a.format(cube=off(workdir, "cube")) for a in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")])
def test_trace_energy_non_finite_constant_exit_2(workdir, tmp_path, capsys, value, shown):
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["D", "N", "D", "N", "N"]}))
    argv = ["trace-energy", off(workdir, "square-pyramid"), str(part),
            "--data", "constants:0=1,2=" + value, "--levels", "2"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the constant of face 2 is not finite: %s\n" % shown


@pytest.mark.parametrize("data, message", [
    ("constants:0=1,0=5,2=0", "bad --data 'constants:0=1,0=5,2=0': face 0 is given twice"),
    ("constants:", "bad --data item '' in 'constants:' (use constants:F=V,...)"),
    ("constants:0", "bad --data item '0' in 'constants:0' (use constants:F=V,...)"),
    ("constants:a=1", "bad --data item 'a=1' in 'constants:a=1' (use constants:F=V,...)"),
    ("constants:0=1,", "bad --data item '' in 'constants:0=1,' (use constants:F=V,...)"),
    ("constants:99=1,0=1,2=0",
     "bad --data 'constants:99=1,0=1,2=0': the mesh has no face 99 (it has faces 0 to 4)"),
    ("constants:0=1,1=5,2=0",
     "bad --data 'constants:0=1,1=5,2=0': face 1 is Neumann and takes no constant"),
], ids=["repeated-face", "empty", "no-value", "bad-face", "trailing-comma", "missing-face",
        "neumann-face"])
def test_trace_energy_bad_constants_item_exit_2(workdir, tmp_path, capsys, data, message):
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"side": "interior", "labels": ["D", "N", "D", "N", "N"]}))
    argv = ["trace-energy", off(workdir, "square-pyramid"), str(part),
            "--data", data, "--levels", "1"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


LONE_VERTEX_OFF = "OFF\n1 0 0\n0 0 0\n"
EMPTY_OFF = "OFF\n0 0 0\n"


@pytest.mark.parametrize("text, argv", [
    (LONE_VERTEX_OFF, ["enumerate", "{mesh}", "--side", "interior"]),
    (EMPTY_OFF, ["angles", "{mesh}"]),
    (EMPTY_OFF, ["enumerate", "{mesh}", "--side", "interior"]),
    (EMPTY_OFF, ["check-partition", "{mesh}", "{partition}"]),
], ids=["enumerate-lone-vertex", "angles-empty", "enumerate-empty", "check-partition-empty"])
def test_invalid_mesh_exit_2(tmp_path, capsys, text, argv):
    mesh = tmp_path / "bad.off"
    mesh.write_text(text)
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"side": "interior", "labels": []}))
    argv = [a.format(mesh=mesh, partition=part) for a in argv]
    assert main(argv + ["--output", str(tmp_path / "r.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fails validation" in err
    assert not (tmp_path / "r.json").exists()


def test_validate_strict_fails_on_empty_mesh(tmp_path):
    empty = tmp_path / "empty.off"
    empty.write_text(EMPTY_OFF)
    code, body = run_to_file(tmp_path, ["validate", str(empty)])
    assert code == EXIT_OK
    assert json.loads(body)["result"]["violations"] == [
        {"kind": "empty_surface", "location": []}]
    assert main(["validate", str(empty), "--strict"]) == EXIT_VALIDATION


FUZZ_BASES = [fixtures.cube(), fixtures.square_pyramid(), fixtures.l_prism()]


@st.composite
def malformed_off(draw):
    """OFF text of a fixture with one defect: no faces, a repeated vertex, a
    zero-area face, an open edge, a truncated file, or a coordinate that is
    not finite or too large to square."""
    base = draw(st.sampled_from(FUZZ_BASES))
    verts, faces = base.vertices.copy(), list(base.faces)
    kind = draw(st.sampled_from(["no-faces", "repeated-vertex", "zero-area-face", "open-edge",
                                 "truncated", "huge-coordinate"]))
    if kind == "no-faces":
        faces = []
    elif kind == "repeated-vertex":
        i, j = draw(st.lists(st.integers(0, len(verts) - 1), min_size=2, max_size=2,
                             unique=True))
        verts[i] = verts[j]
    elif kind == "zero-area-face":
        # move a corner onto the segment between its two neighbours
        face = draw(st.sampled_from(faces))
        k = draw(st.integers(0, len(face) - 1))
        t = draw(st.floats(0.0, 1.0))
        a, b = verts[face[k - 1]], verts[face[(k + 1) % len(face)]]
        verts[face[k]] = a + t * (b - a)
    elif kind == "open-edge":
        del faces[draw(st.integers(0, len(faces) - 1))]
    elif kind == "huge-coordinate":
        # drawn in the order of the former `verts[i, column] = bad`
        i = draw(st.integers(0, len(verts) - 1))
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e200, 1e51]))
        column = draw(st.integers(0, 2))
    text = serialize_off(PolyhedralSurface(verts, faces))
    if kind == "huge-coordinate":
        # the constructor refuses the coordinate, so it goes into the text
        lines = text.split("\n")
        row = lines[2 + i].split()
        row[column] = repr(bad)
        lines[2 + i] = " ".join(row)
        text = "\n".join(lines)
    if kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, len(faces)


FUZZ_ARGV = [
    ["validate", "{mesh}", "--strict"],
    ["angles", "{mesh}"],
    ["check-partition", "{mesh}", "{partition}"],
    ["enumerate", "{mesh}", "--side", "interior"],
    ["monochromatic", "{mesh}", "--side", "exterior"],
    ["rellich", "{mesh}", "--vertex", "0", "--r-inner", "0.05", "--r-outer", "0.1",
     "--samples", "200", "--seed", "1", "--u", "x"],
    ["trace-energy", "{mesh}", "{partition}", "--data", "coordinate:x", "--levels", "1"],
]


@settings(max_examples=60)
@given(case=malformed_off())
def test_malformed_off_never_raises(case):
    # every subcommand that reads a mesh exits 0, 1 or 2, with an error line
    # on exit 2, and lets no exception escape
    text, n_faces = case
    with tempfile.TemporaryDirectory() as tmp:
        mesh, partition = os.path.join(tmp, "m.off"), os.path.join(tmp, "p.json")
        with open(mesh, "w") as fh:
            fh.write(text)
        with open(partition, "w") as fh:
            json.dump({"side": "interior", "labels": ["DN"[i % 2] for i in range(n_faces)]}, fh)
        for argv in FUZZ_ARGV:
            argv = [a.format(mesh=mesh, partition=partition) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--output", os.path.join(tmp, "r.out")])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INPUT), argv
            if code == EXIT_INPUT:
                assert any(line.startswith("error: ") for line in err.getvalue().splitlines())


TAU_ARGV = [
    ["check-partition", "{mesh}", "{partition}"],
    ["enumerate", "{mesh}", "--side", "interior"],
    ["monochromatic", "{mesh}", "--side", "exterior"],
]


@settings(max_examples=20)
@given(
    base=st.sampled_from(FUZZ_BASES),
    tau=st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e400"]),
                  st.floats(max_value=-1e-300).map(repr)),
)
@example(base=FUZZ_BASES[2], tau="nan")
@example(base=FUZZ_BASES[2], tau="inf")
@example(base=FUZZ_BASES[2], tau="-inf")
@example(base=FUZZ_BASES[2], tau="-0.5")
@example(base=FUZZ_BASES[2], tau="1e400")
def test_bad_tau_angle_is_an_input_error(base, tau):
    # a tolerance that is not finite or is negative: exit 2, an error line,
    # and no report on stdout
    with tempfile.TemporaryDirectory() as tmp:
        mesh, partition = os.path.join(tmp, "m.off"), os.path.join(tmp, "p.json")
        write_off(mesh, base)
        with open(partition, "w") as fh:
            json.dump({"side": "interior", "labels": ["D"] * len(base.faces)}, fh)
        for argv in TAU_ARGV:
            argv = [a.format(mesh=mesh, partition=partition) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--tau-angle=" + tau])
            assert code == EXIT_INPUT, argv
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and "tau" in err.getvalue(), argv


# ----------------------------------------------------------------------
# determinism: byte-identical reports for identical configs


DETERMINISM_CASES = [
    lambda w: ["validate", off(w, "cube")],
    lambda w: ["angles", off(w, "l-prism"), "--format", "csv"],
    lambda w: ["enumerate", off(w, "cube"), "--side", "interior"],
    lambda w: ["monochromatic", off(w, "tetrahedron"), "--side", "exterior"],
    lambda w: ["search", "--family", "notched-boxes", "--budget", "4", "--seed", "9"],
    lambda w: ["rellich", off(w, "cube"), "--vertex", "0", "--r-inner", "0.25",
               "--r-outer", "0.5", "--samples", "20000", "--seed", "5", "--u", "xy",
               "--estimate"],
    lambda w: ["sector-blowup", "--alpha", "1.5pi"],
    lambda w: ["trace-energy", "--study", "pyramid-step", "--levels", "3"],
    # the notch vertex, a reflex vertex where the sum of the arc starts is no fan apex
    lambda w: ["rellich", off(w, "l-prism"), "--vertex", "3", "--r-inner", "0.2",
               "--r-outer", "0.4", "--samples", "20000", "--seed", "5", "--u", "all",
               "--estimate"],
    # an apex without a link kernel, sampled through the meridian sweep
    lambda w: ["rellich", off(w, "u-pyramid"), "--vertex", "8", "--r-inner", "0.2",
               "--r-outer", "0.4", "--samples", "20000", "--seed", "5", "--u", "all",
               "--estimate"],
]


@pytest.mark.parametrize("case", range(len(DETERMINISM_CASES)))
def test_reports_byte_identical(case, workdir, tmp_path):
    argv = DETERMINISM_CASES[case](workdir)
    c1, b1 = run_to_file(tmp_path, argv, "a.out")
    c2, b2 = run_to_file(tmp_path, argv, "b.out")
    assert c1 == c2 == EXIT_OK
    assert b1 == b2


def test_json_floats_use_17_significant_digits(workdir, tmp_path):
    _, body = run_to_file(tmp_path, ["angles", off(workdir, "cube")])
    assert b"1.5707963267948966" in body  # pi/2 at full precision


def test_cli_start_up_leaves_heavy_scipy_modules_unimported():
    # scipy.stats (quasi-random points), scipy.integrate (sector quadrature)
    # and scipy.spatial (convex hulls) serve one library function each, so
    # importing the command line must not pay for them
    heavy = ("scipy.stats", "scipy.integrate", "scipy.spatial")
    src = os.path.dirname(os.path.dirname(polymix.__file__))
    code = ("import sys, polymix.cli; print(' '.join(m for m in %r if m in sys.modules))"
            % (heavy,))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == [], out.stdout


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone would fail only
    # `from polymix import *`, which nothing else in the suite runs
    for name in polymix.__all__:
        getattr(polymix, name)
