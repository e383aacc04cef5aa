import json
import math
import os

import pytest

from polymix.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, build_parser, main, parse_angle

SUBCOMMANDS = [
    "validate", "angles", "check-partition", "enumerate", "monochromatic",
    "search", "rellich", "sector-blowup", "trace-energy", "fixtures",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["fixtures", "--out-dir", str(d)]) == EXIT_OK
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
    assert "--format" in text
    assert ("--seed" in text) == (sub in ("search", "rellich"))


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
    from polymix import fixtures
    from polymix.mesh import serialize_off

    bad.write_text(serialize_off(fixtures.open_box()))
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


def test_unknown_flag_exit_2(workdir, capsys):
    assert main(["validate", off(workdir, "cube"), "--frobnicate"]) == EXIT_INPUT
    capsys.readouterr()


def test_unknown_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == EXIT_INPUT
    capsys.readouterr()


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


def test_bad_alpha_exit_2(tmp_path):
    assert main(["sector-blowup", "--alpha", "0.5pi",
                 "--output", str(tmp_path / "x.json")]) == EXIT_INPUT


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
    # the notch vertex, where the inside test is the link winding number
    lambda w: ["rellich", off(w, "l-prism"), "--vertex", "3", "--r-inner", "0.2",
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
