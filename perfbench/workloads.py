"""The benchmark's workloads.

Every input derives from the benchmark seed; the program receives only the
generated inputs (argument lists, OFF files, partition JSON).  A pass runs
the workload's operations once and returns one :class:`Call` per program
invocation; every pass of a run uses the same inputs, so each pass must
reproduce the first pass's reports byte for byte.  Correctness checks run
after the timed phase on the first pass's reports and return the failed
operations per call.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass

from polymix import cli, fixtures, partition, trace_energy
from polymix.geometry import dihedral_angles
from polymix.mesh import validate_surface

import checks

SIDES = ("interior", "exterior")


def derive(seed, *tags):
    """A 31-bit sub-seed: the same (seed, tags) always gives the same value."""
    digest = hashlib.sha256(json.dumps([seed, *tags]).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Call:
    """One program invocation: its operation count and output."""

    key: str
    ops: int
    value: object = None  # report text, or the sets a library call produced
    error: str = ""
    seconds: float = 0.0  # wall time of the invocation
    ref_seconds: float = 0.0  # wall time of the reference loop run just before it


def run_cli(key, argv, ops, reference=None):
    """``polymix.cli.main(argv)`` with stdout captured as the report.

    ``reference``, if given, runs just before the call and returns its own
    wall time (the runner's reference loop).
    """
    out = io.StringIO()
    ref = reference() if reference else 0.0
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a raising call is a failed operation, not a crashed run
        return Call(key, ops, None, "%s: %s" % (type(exc).__name__, exc),
                    time.perf_counter() - t0, ref)
    return Call(key, ops, out.getvalue(), "" if code == 0 else "exit code %r" % (code,),
                time.perf_counter() - t0, ref)


def _write_fixtures(workdir, names):
    call = run_cli("fixtures", ["fixtures", "--out-dir", workdir, "--names", ",".join(names)], 0)
    if call.error:
        raise RuntimeError("fixture generation failed: %s" % call.error)
    return {name: os.path.join(workdir, name + ".off") for name in names}


def _check_calls(calls, problems_of):
    """Failed operations per call and problems; ``problems_of(call, result)`` checks one report."""
    failed, problems = {}, []
    for call in calls:
        why = [call.error] if call.error else problems_of(call, json.loads(call.value)["result"])
        if why:
            failed[call.key] = call.ops
            problems += ["%s: %s" % (call.key, w) for w in why]
    return failed, problems


def _warm_up(key, argv):
    call = run_cli(key, argv, 0)
    if call.error:
        raise RuntimeError("warm-up %s failed: %s" % (key, call.error))


class Search:
    """``polymix search`` over all three generated families."""

    # (family, min size, max size, budget).  Sizes are fixed per call so that
    # a pass does the same amount of work on every seed; the seed moves
    # points and radii.  Many small meshes rather than one 128-face star
    # sphere (about 6 s alone), in calls of well under a second: a run
    # repeats each call several times, and seed-to-seed differences in one
    # mesh average out.
    CALLS = (
        ("hulls", 8, 8, 4),           # 12 faces, all edges convex
        ("hulls", 8, 8, 4),
        ("notched-boxes", 3, 3, 1),   # 18 faces, reflex edges, nonconvex caps
        ("star-spheres", 1, 1, 1),    # 32 faces
        ("star-spheres", 1, 1, 1),
        ("star-spheres", 1, 1, 1),
    )

    def __init__(self, seed):
        self.specs = [(fam, lo, hi, budget, derive(seed, "search", fam, lo, i))
                      for i, (fam, lo, hi, budget) in enumerate(self.CALLS)]

    @staticmethod
    def argv(fam, lo, hi, budget, sub_seed):
        return ["search", "--family", fam, "--budget", str(budget), "--min-size", str(lo),
                "--max-size", str(hi), "--seed", str(sub_seed)]

    def setup(self, workdir):
        with open(os.path.join(workdir, "meshes.json"), "w", encoding="utf-8") as fh:
            json.dump([self.argv(*spec) for spec in self.specs], fh)
        # notched boxes have no random shape: the warm-up costs the same on every seed
        _warm_up("search", self.argv("notched-boxes", 1, 1, 1, 0))
        return None

    def run_pass(self, state, tracer, reference):
        return [run_cli("%s-%d" % (spec[0], i), self.argv(*spec), spec[3], reference)
                for i, spec in enumerate(self.specs)]

    def check(self, state, calls):
        failed, problems = {}, []
        for call, (fam, lo, hi, budget, sub_seed) in zip(calls, self.specs):
            if call.error:
                failed[call.key] = call.ops
                problems.append("%s: %s" % (call.key, call.error))
                continue
            result = json.loads(call.value)["result"]
            truth = [self._truth(partition.GeneratorSpec(fam, sub_seed, lo, hi), i)
                     for i in range(budget)]
            bad, why = checks.search_problems(fam, budget, result, truth)
            if bad:
                failed[call.key] = len(bad)
            problems += why
        return failed, problems

    @staticmethod
    def _truth(spec, index):
        mesh_id, mesh = spec.build(index)
        if not validate_surface(mesh).ok:
            return None
        truth = {"id": mesh_id, "faces": len(mesh.faces)}
        for side in SIDES:
            mono, witness = partition.is_monochromatic(mesh, side)
            ok = mono or (witness is not None and "N" in witness.labels
                          and partition.validate_partition(mesh, witness).admissible)
            truth[side] = (mono, ok)
        return truth


class PartitionOracle:
    """Criterion-1 brute force through the partition library calls."""

    HULLS = 12
    NOTCHED_HEIGHTS = tuple(1.0 + 0.25 * i for i in range(8))
    MAX_FACES = 12

    def __init__(self, seed):
        self.hull_seeds = [derive(seed, "oracle-hull", i) for i in range(self.HULLS)]

    def meshes(self):
        out = [("cube", fixtures.cube()), ("tetrahedron", fixtures.regular_tetrahedron()),
               ("square-pyramid", fixtures.square_pyramid()), ("l-prism", fixtures.l_prism())]
        out += [("hull-%d" % s, fixtures.generate_hull(s, n_points=8)) for s in self.hull_seeds]
        out += [("notched-%g" % h, fixtures.notched_box(1, height=h)) for h in self.NOTCHED_HEIGHTS]
        return out

    def setup(self, workdir):
        state = []
        for name, surf in self.meshes():
            nf = len(surf.faces)
            if nf > self.MAX_FACES or not validate_surface(surf).ok:
                raise RuntimeError("oracle mesh %s is invalid or has %d faces" % (name, nf))
            dihedral_angles(surf)
            labelings = list(itertools.product("DN", repeat=nf))
            parts = {side: [partition.Partition(labels=l, side=side) for l in labelings]
                     for side in SIDES}
            state.append((name, surf, parts))
        return state

    def run_pass(self, state, tracer, reference):
        # One span per (mesh, side) around the benchmark's own loop of calls:
        # a span per call would cost about half as much as the call itself.
        span = tracer.span if tracer else (lambda name: nullcontext())
        check = partition.validate_partition
        calls = []
        for name, surf, parts in state:
            for side in SIDES:
                ref = reference()
                t0 = time.perf_counter()
                with span("partition.validate_partition"):
                    brute = {p.labels for p in parts[side] if check(surf, p).admissible}
                with span("partition.enumerate_admissible"):
                    adm = partition.enumerate_admissible(surf, side)
                    enumerated = {p.labels for p in adm}
                if tracer:
                    tracer.sums["partition.validate_partition.calls"] += len(parts[side])
                    tracer.sums["partition.enumerate_admissible.partitions"] += adm.count
                calls.append(Call("%s/%s" % (name, side), len(parts[side]), (brute, enumerated),
                                  seconds=time.perf_counter() - t0, ref_seconds=ref))
        return calls

    def check(self, state, calls):
        failed, problems = {}, []
        for call in calls:
            name, side = call.key.split("/")
            why = checks.oracle_problems(name, side, *call.value)
            if why:
                failed[call.key] = call.ops
                problems += why
        return failed, problems


class RellichArches:
    """``polymix rellich`` on A(v, 0.25, 0.5) at a convex, an apex and a reflex vertex."""

    ARCHES = (("cube-v0", "cube", 0), ("pyramid-apex", "square-pyramid", 0),
              ("lprism-notch", "l-prism", 3))
    SAMPLES = 50_000

    def __init__(self, seed):
        self.seed = seed
        self.seeds = {tag: derive(seed, "rellich", tag) for tag, _, _ in self.ARCHES}

    @staticmethod
    def argv(path, vertex, samples, seed):
        return ["rellich", path, "--vertex", str(vertex), "--r-inner", "0.25", "--r-outer", "0.5",
                "--u", "all", "--max-degree", "2", "--estimate", "--samples", str(samples),
                "--seed", str(seed)]

    def setup(self, workdir):
        paths = _write_fixtures(workdir, sorted({f for _, f, _ in self.ARCHES}))
        _warm_up("rellich", self.argv(paths["cube"], 0, 2000, derive(self.seed, "rellich-warm-up")))
        return paths

    def run_pass(self, paths, tracer, reference):
        calls = []
        for tag, fixture, vertex in self.ARCHES:
            if tracer:
                tracer.tag = tag
            # four batches (volume, two bases, lateral) each accept SAMPLES points
            calls.append(run_cli(tag, self.argv(paths[fixture], vertex, self.SAMPLES,
                                                self.seeds[tag]), 4 * self.SAMPLES, reference))
        return calls

    def check(self, state, calls):
        return _check_calls(calls, lambda call, result: checks.rellich_problems(result))

    @staticmethod
    def relative_stderr(calls):
        return checks.rellich_relative_stderr(
            [json.loads(c.value)["result"] for c in calls if not c.error])


class TraceStudy:
    """``polymix trace-energy``: pyramid step data to level 7 and the cube-smooth study.

    ``modes`` lists the boundary modes of the step study.  Level 8 would
    make one call about 7 s, so a 25 s run would hold three repeats, too
    few for a steady median; level 7 (49,154 vertices, 575 CG iterations at
    the finest level) takes about 1.3 s.
    """

    STEP_FACES = (0, 2)
    STEP_DATA = "constants:0=1,2=0"
    STEP_LEVELS = 7
    SMOOTH_LEVELS = 4

    def __init__(self, seed, modes):
        self.modes = modes
        self.fan_offset = derive(seed, "fan-offset") % 4
        pyramid, cube = fixtures.square_pyramid(), fixtures.cube()
        self.step_counts = self._counts(pyramid, self.STEP_LEVELS)
        self.smooth_counts = self._counts(cube, self.SMOOTH_LEVELS)

    @staticmethod
    def _counts(surface, levels):
        triangles = sum(len(f) - 2 for f in surface.faces)
        return checks.refined_vertex_counts(len(surface.vertices), triangles, range(levels + 1))

    def step_argv(self, mesh, part, levels, mode):
        return ["trace-energy", mesh, part, "--data", self.STEP_DATA, "--levels", str(levels),
                "--fan-offset", str(self.fan_offset), "--boundary", mode]

    def setup(self, workdir):
        mesh = _write_fixtures(workdir, ["square-pyramid"])["square-pyramid"]
        n_faces = len(fixtures.square_pyramid().faces)
        part = os.path.join(workdir, "step.json")
        with open(part, "w", encoding="utf-8") as fh:
            json.dump({"side": "interior",
                       "labels": ["D" if f in self.STEP_FACES else "N" for f in range(n_faces)]}, fh)
        _warm_up("trace-energy", self.step_argv(mesh, part, 2, "closed"))
        return mesh, part

    def run_pass(self, state, tracer, reference):
        mesh, part = state
        calls = []
        for mode in self.modes:
            if tracer:
                tracer.tag = mode
            calls.append(run_cli("step-" + mode, self.step_argv(mesh, part, self.STEP_LEVELS, mode),
                                 sum(self.step_counts), reference))
        if tracer:
            tracer.tag = "cube-smooth"
        calls.append(run_cli("cube-smooth", ["trace-energy", "--study", "cube-smooth", "--levels",
                                             str(self.SMOOTH_LEVELS), "--fan-offset",
                                             str(self.fan_offset)], sum(self.smooth_counts),
                             reference))
        return calls

    def check(self, state, calls):
        rtol = getattr(trace_energy, "SOLVER_RTOL", 1e-10)

        def problems_of(call, result):
            if call.key == "cube-smooth":
                return checks.smooth_study_problems(result, self.smooth_counts, rtol)
            return checks.step_study_problems(result, self.step_counts, rtol)

        return _check_calls(calls, problems_of)


WORKLOADS = {
    "search": Search,
    "partition-oracle": PartitionOracle,
    "rellich-arches": RellichArches,
    # closed step + cube-smooth: listed in BENCHMARK.json
    "trace-closed": lambda seed: TraceStudy(seed, ("closed",)),
    # adds the free-boundary step study, which the heuristic classifier
    # reports UNDECIDED instead of DIVERGENT; runnable, not listed
    "trace-study": lambda seed: TraceStudy(seed, ("closed", "free")),
}
