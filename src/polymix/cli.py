"""Command-line toolkit: every pipeline as a subcommand with seeded,
byte-reproducible JSON/CSV reports.

Exit codes: 0 success, 1 validation failure under --strict (invalid mesh,
inadmissible partition), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import islice

from . import fixtures, partition, rellich, reporting, sector, trace_energy
from .geometry import ArchRegion, GeometryError, angles_csv_rows
from .mesh import MeshError, OffParseError, read_off, validate_surface, write_off
from .partition import (
    GeneratorSpec,
    Partition,
    enumerate_admissible,
    is_monochromatic,
    search_both_monochromatic,
    validate_partition,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def parse_angle(text):
    """Angle literal: plain radians or a decimal multiple of pi, like '1.5pi'."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else float(head))
        return factor * math.pi
    return float(s)


def _parse_mesh(path):
    try:
        return read_off(path)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except OffParseError as exc:
        raise InputError("bad OFF input %s: %s" % (path, exc)) from exc


def _read_mesh(path):
    """Parse and validate a mesh; every pipeline assumes a valid surface."""
    surface = _parse_mesh(path)
    violations = validate_surface(surface).violations
    if violations:
        kinds = sorted({v.kind for v in violations})
        raise InputError("mesh %s fails validation (%s); run 'polymix validate' for details"
                         % (path, ", ".join(kinds)))
    return surface


def _read_partition(path, side_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        p = Partition.from_json_dict(data)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:  # json.JSONDecodeError among them
        raise InputError("bad partition file %s: %s" % (path, exc)) from exc
    if side_override and side_override != p.side:
        p = Partition(labels=p.labels, side=side_override)
    return p


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, **extra):
    cfg = {
        "subcommand": args.command,
        "format": getattr(args, "format", "json"),
    }
    for key in ("seed", "samples", "side", "strict"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


# ----------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    surface = _parse_mesh(args.mesh)
    diag = validate_surface(surface)
    cfg = _config_dict(args, mesh=args.mesh)
    result = diag.to_json_dict()
    _emit(args, reporting.json_report(result, cfg))
    if args.strict and not diag.ok:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_angles(args):
    surface = _read_mesh(args.mesh)
    cfg = _config_dict(args, mesh=args.mesh)
    rows = angles_csv_rows(surface)
    header = ("edge_id", "v0", "v1", "face0", "face1", "interior_angle", "exterior_angle")
    if args.format == "csv":
        _emit(args, reporting.csv_report(header, rows, cfg))
    else:
        _emit(args, reporting.json_report({"edges": [dict(zip(header, r)) for r in rows]}, cfg))
    return EXIT_OK


def cmd_check_partition(args):
    surface = _read_mesh(args.mesh)
    part = _read_partition(args.partition, args.side)
    try:
        report = validate_partition(surface, part, tau=args.tau_angle)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    cfg = _config_dict(args, mesh=args.mesh, partition=args.partition, side=part.side,
                       tau_angle=args.tau_angle)
    _emit(args, reporting.json_report(report.to_json_dict(), cfg))
    if args.strict and not report.admissible:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_enumerate(args):
    if args.list_limit < 0:
        raise InputError("--list-limit must be >= 0, got %d" % args.list_limit)
    surface = _read_mesh(args.mesh)
    adm = enumerate_admissible(surface, args.side, tau=args.tau_angle)
    listed = (["".join(p.labels) for p in islice(adm, args.list_limit)]
              if adm.quotient.class_count <= partition.MAX_ENUM_CLASSES else [])
    cfg = _config_dict(args, mesh=args.mesh, tau_angle=args.tau_angle)
    result = {
        "side": args.side,
        "count": adm.count,
        "class_count": adm.quotient.class_count,
        "classes": [list(c) for c in adm.quotient.classes],
        "partitions_listed": listed,
    }
    _emit(args, reporting.json_report(result, cfg))
    return EXIT_OK


def cmd_monochromatic(args):
    surface = _read_mesh(args.mesh)
    mono, witness = is_monochromatic(surface, args.side, tau=args.tau_angle)
    cfg = _config_dict(args, mesh=args.mesh, tau_angle=args.tau_angle)
    result = {
        "side": args.side,
        "monochromatic": mono,
        "witness": None if witness is None else list(witness.labels),
    }
    _emit(args, reporting.json_report(result, cfg))
    return EXIT_OK


def cmd_search(args):
    spec = GeneratorSpec(
        family=args.family,
        seed=args.seed,
        min_size=args.min_size,
        max_size=args.max_size,
    )
    report = search_both_monochromatic(spec, args.budget)
    cfg = _config_dict(args, family=args.family, budget=args.budget,
                       min_size=args.min_size, max_size=args.max_size)
    _emit(args, reporting.json_report(report.to_json_dict(), cfg))
    return EXIT_OK


def cmd_rellich(args):
    surface = _read_mesh(args.mesh)
    try:
        arch = ArchRegion(surface, args.vertex, args.r_inner, args.r_outer)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.u == "all":
        funcs = rellich.catalog(args.max_degree)
        if not funcs:
            raise InputError("empty catalog selection: --max-degree %s selects no test function"
                             % args.max_degree)
    else:
        try:
            funcs = (rellich.catalog_entry(args.u),)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    identities, estimates = rellich.rellich_suite(arch, funcs, args.samples, args.seed)
    cfg = _config_dict(
        args, mesh=args.mesh, vertex=args.vertex,
        r_inner=args.r_inner, r_outer=args.r_outer, u=args.u,
        max_degree=args.max_degree, estimate=args.estimate,
    )
    if args.format == "csv":
        header = ("fixture", "vertex", "r", "R", "u_name",
                  "lhs", "lhs_stderr", "rhs", "rhs_stderr", "residual")
        rows = rellich.identity_csv_rows(args.mesh, identities)
        _emit(args, reporting.csv_report(header, rows, cfg))
    else:
        result = {"identity": [r.to_json_dict() for r in identities],
                  "sampling": rellich.sampling_report(arch, funcs, args.samples, args.seed)}
        if args.estimate:
            result["estimate"] = [e.to_json_dict() for e in estimates]
        _emit(args, reporting.json_report(result, cfg))
    return EXIT_OK


def cmd_sector_blowup(args):
    try:
        alpha = parse_angle(args.alpha)
        sol = sector.SectorSolution(alpha)
    except ValueError as exc:
        raise InputError("bad --alpha %r: %s" % (args.alpha, exc)) from exc
    if args.eps_list:
        try:
            epsilons = tuple(float(e) for e in args.eps_list.split(","))
        except ValueError as exc:
            raise InputError("bad --eps-list: %s" % exc) from exc
    elif args.eps is not None:
        epsilons = (args.eps,)
    else:
        epsilons = sector.DEFAULT_EPSILONS
    cfg = _config_dict(args, alpha=alpha, epsilons=list(epsilons))
    if len(epsilons) >= 3:
        report = sector.blowup_report(sol, epsilons)
        rows, result = report.csv_rows(), report.to_json_dict()
    else:
        energies = [sector.truncated_energy(sol, e) for e in epsilons]
        rows = [(t.epsilon, t.closed_form, t.quadrature, t.quadrature_error) for t in energies]
        result = {
            "aperture": sol.aperture,
            "exponent": sol.exponent,
            "energies": [
                {
                    "epsilon": t.epsilon,
                    "closed_form": t.closed_form,
                    "quadrature": t.quadrature,
                    "quadrature_error": t.quadrature_error,
                }
                for t in energies
            ],
        }
    if args.format == "csv":
        header = ("epsilon", "I_closed_form", "I_quadrature", "stderr")
        _emit(args, reporting.csv_report(header, rows, cfg))
    else:
        _emit(args, reporting.json_report(result, cfg))
    return EXIT_OK


BUILTIN_STUDIES = {
    # mesh factory, D faces, data, default levels
    "pyramid-step": (
        fixtures.square_pyramid,
        (0, 2),
        trace_energy.TraceData.face_constants({0: 1.0, 2: 0.0}),
        (1, 2, 3, 4, 5, 6),
    ),
    "cube-smooth": (
        fixtures.cube,
        (0,),
        trace_energy.TraceData.coordinate("x"),
        (0, 1, 2, 3, 4),
    ),
}


def _parse_trace_data(spec_text):
    kind, _, rest = spec_text.partition(":")
    if kind == "coordinate":
        return trace_energy.TraceData.coordinate(rest)
    if kind == "constants":
        mapping = {}
        for item in rest.split(","):
            face, _, val = item.partition("=")
            try:
                face, val = int(face), float(val)
            except ValueError:
                raise InputError("bad --data item %r in %r (use constants:F=V,...)"
                                 % (item, spec_text)) from None
            if face in mapping:
                raise InputError("bad --data %r: face %d is given twice" % (spec_text, face))
            mapping[face] = val
        return trace_energy.TraceData.face_constants(mapping)
    raise InputError("bad --data spec %r (use coordinate:AXIS or constants:F=V,...)" % spec_text)


def cmd_trace_energy(args):
    if args.study:
        if args.study not in BUILTIN_STUDIES:
            raise InputError(
                "unknown study %r (have: %s)" % (args.study, ", ".join(sorted(BUILTIN_STUDIES)))
            )
        factory, d_faces, data, default_levels = BUILTIN_STUDIES[args.study]
        surface = factory()
        labels = tuple("D" if i in d_faces else "N" for i in range(len(surface.faces)))
        part = Partition(labels=labels, side="interior")
        levels = default_levels
    else:
        if not (args.mesh and args.partition and args.data):
            raise InputError("need either --study or MESH PARTITION --data")
        if args.levels is None:
            raise InputError("MESH PARTITION --data needs --levels")
        surface = _read_mesh(args.mesh)
        part = _read_partition(args.partition)
        data = _parse_trace_data(args.data)
        # the library ignores constants off the Dirichlet faces; from the
        # command line one is a mistake
        for face, _ in data.constants or ():
            if not 0 <= face < len(surface.faces):
                raise InputError("bad --data %r: the mesh has no face %d (it has faces 0 to %d)"
                                 % (args.data, face, len(surface.faces) - 1))
            if face < len(part.labels) and part.labels[face] != "D":
                raise InputError("bad --data %r: face %d is Neumann and takes no constant"
                                 % (args.data, face))
        levels = tuple(range(0, args.levels + 1))
    if args.levels is not None and args.study:
        levels = tuple(l for l in levels if l <= args.levels)
    if not levels:
        raise InputError("empty level selection: --levels %s selects no refinement level"
                         % args.levels)
    closure = args.boundary == "closed"
    try:
        report = trace_energy.refinement_study(surface, part, data, levels,
                                               fan_offset=args.fan_offset,
                                               closure=closure)
        if args.export_extension:
            with open(args.export_extension, "w", encoding="utf-8") as fh:
                fh.write(trace_energy.export_off_with_scalars(report.refined,
                                                              report.extension.values))
    except (ValueError, trace_energy.EnergySolveError) as exc:
        raise InputError(str(exc)) from exc
    cfg = _config_dict(
        args, study=args.study or "", mesh=args.mesh or "", partition=args.partition or "",
        data=args.data or "", levels=list(levels), fan_offset=args.fan_offset,
        boundary=args.boundary, export_extension=args.export_extension or "",
    )
    if args.format == "csv":
        header = ("level", "vertices", "energy", "classification")
        _emit(args, reporting.csv_report(header, report.csv_rows(), cfg))
    else:
        _emit(args, reporting.json_report(report.to_json_dict(), cfg))
    return EXIT_OK


def cmd_fixtures(args):
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    names = args.names.split(",") if args.names else sorted(fixtures.BUILTIN)
    written = []
    for name in names:
        try:
            surface = fixtures.builtin(name)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        path = os.path.join(args.out_dir, "%s.off" % name)
        write_off(path, surface)
        written.append(path)
    cfg = _config_dict(args, out_dir=args.out_dir, names=names)
    _emit(args, reporting.json_report({"written": written}, cfg))
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


@functools.cache  # holds only constants and the command functions
def build_parser():
    parser = argparse.ArgumentParser(
        prog="polymix",
        description="Mixed Dirichlet/Neumann boundary partitions on polyhedra: "
                    "validate meshes, measure dihedral angles, enumerate admissible "
                    "partitions, verify the vertex-arch Rellich identity, quantify "
                    "sector blow-up, and compute discrete extension energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=None, seeded=False, csv=False):
        p.add_argument("--output", help="write the report here instead of stdout")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="report format (default json)")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples,
                           help="Monte Carlo sample count (default %d)" % samples)

    p = sub.add_parser("validate", help="check mesh invariants, report violations")
    p.add_argument("mesh", help="OFF file")
    p.add_argument("--strict", action="store_true", help="exit 1 when violations exist")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("angles", help="dihedral angle table per edge")
    p.add_argument("mesh")
    common(p, csv=True)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("check-partition", help="admissibility of a D/N labeling")
    p.add_argument("mesh")
    p.add_argument("partition", help="JSON partition file")
    p.add_argument("--side", choices=("interior", "exterior"),
                   help="override the side stored in the partition file")
    p.add_argument("--strict", action="store_true", help="exit 1 when inadmissible")
    p.add_argument("--tau-angle", type=float, default=partition.TAU_ANGLE,
                   help="angle tolerance: changes blocked from pi - tau on")
    common(p)
    p.set_defaults(func=cmd_check_partition)

    p = sub.add_parser("enumerate", help="count/list all admissible partitions")
    p.add_argument("mesh")
    p.add_argument("--side", choices=("interior", "exterior"), required=True)
    p.add_argument("--list-limit", type=int, default=16,
                   help="list at most this many partitions (0 = count only)")
    p.add_argument("--tau-angle", type=float, default=partition.TAU_ANGLE,
                   help="angle tolerance: changes blocked from pi - tau on")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("monochromatic", help="is the only admissible partition trivial?")
    p.add_argument("mesh")
    p.add_argument("--side", choices=("interior", "exterior"), required=True)
    p.add_argument("--tau-angle", type=float, default=partition.TAU_ANGLE,
                   help="angle tolerance: changes blocked from pi - tau on")
    common(p)
    p.set_defaults(func=cmd_monochromatic)

    p = sub.add_parser("search", help="scan generated meshes for double monochromaticity")
    p.add_argument("--family", choices=("hulls", "star-spheres", "notched-boxes"),
                   required=True)
    p.add_argument("--budget", type=int, required=True, help="meshes to examine")
    p.add_argument("--min-size", type=int, default=0, help="family size parameter lower bound")
    p.add_argument("--max-size", type=int, default=0, help="family size parameter upper bound")
    common(p, seeded=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("rellich", help="Monte Carlo check of the vertex-arch identity")
    p.add_argument("mesh")
    p.add_argument("--vertex", type=int, required=True, help="vertex index of the arch")
    p.add_argument("--r-inner", type=float, required=True)
    p.add_argument("--r-outer", type=float, required=True)
    p.add_argument("--u", default="all", help="harmonic polynomial name, or 'all'")
    p.add_argument("--max-degree", type=int, default=2,
                   help="catalog degree cap when --u all (default 2)")
    p.add_argument("--estimate", action="store_true",
                   help="include the one-sided estimate report")
    common(p, samples=100_000, seeded=True, csv=True)
    p.set_defaults(func=cmd_rellich)

    p = sub.add_parser("sector-blowup", help="truncated-energy blow-up of the sector solution")
    p.add_argument("--alpha", required=True,
                   help="sector aperture in [pi, 2pi): radians or 'pi' literals like 1.5pi")
    p.add_argument("--eps", type=float, help="single truncation radius")
    p.add_argument("--eps-list", help="comma-separated truncation radii (>=3 enables the fit)")
    common(p, csv=True)
    p.set_defaults(func=cmd_sector_blowup)

    p = sub.add_parser("trace-energy", help="discrete extension-energy refinement study")
    p.add_argument("mesh", nargs="?", help="OFF file (omit when using --study)")
    p.add_argument("partition", nargs="?", help="JSON partition file")
    p.add_argument("--data", help="coordinate:AXIS or constants:FACE=VALUE,...")
    p.add_argument("--study", help="built-in study: %s" % ", ".join(sorted(BUILTIN_STUDIES)))
    p.add_argument("--levels", type=int, default=None, help="max refinement level")
    p.add_argument("--fan-offset", type=int, default=0,
                   help="rotate triangulation fan roots (stability checks)")
    p.add_argument("--boundary", choices=("closed", "free"), default="closed",
                   help="pin the closed Dirichlet region (default) or leave D/N edges free")
    p.add_argument("--export-extension",
                   help="write the finest-level extension as OFF-with-scalars here")
    common(p, csv=True)
    p.set_defaults(func=cmd_trace_energy)

    p = sub.add_parser("fixtures", help="materialize the built-in meshes as OFF files")
    p.add_argument("--out-dir", default=".", help="target directory")
    p.add_argument("--names", help="comma-separated subset (default: all)")
    common(p)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (MeshError, GeometryError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
