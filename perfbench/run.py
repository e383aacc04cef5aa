"""polymix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the program is imported from ``src/`` beside this
directory.  A run sets up its inputs several times, then repeats passes
of the workload for about S seconds.  Every pass makes the same program
calls on the same inputs.  A fixed reference loop runs beside each
set-up and each timed call, and times are taken relative to it
(``calibrated_s``): ``setup_s`` is the median set-up, ``run_s`` is, per
call, the median of the run's repeats, summed over the calls of a pass.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
spends half of S untraced and half with spans around every call into a
layer's public function, and prints the per-layer metrics.  Correctness
checks run after the timed phase.  The last line of stdout is the result
object; the line before it records seed, machine and limits.

Timings are user-space wall clock (``time.perf_counter``) of this one
process.  No system-wide tracing, cache dropping or frequency control is
used.  The raw wall times are recorded beside the calibrated ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from spans import LAYERS, SAMPLERS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-up repeats at least SETUP_MIN times and until SETUP_MIN_S seconds have
# gone, at most SETUP_MAX times: short set-ups need many samples for a
# steady median.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 50, 2.0

# The reference loop: fixed work that uses nothing of the program, in
# three parts of about equal time, like the program's own work: small numpy
# and json calls on a few points, passes over a 4 MB array, and reads of a
# list of REF_VALUES floats in shuffled order, a new stretch of it each
# time, so that the reads miss the caches.  REF_S is about its time on the
# machine the benchmark was written on (2 cores, Python 3.11); it turns
# time ratios back into seconds.
REF_MIX_STEPS, REF_ARRAY_STEPS, REF_READS, REF_VALUES = 50, 2, 15_000, 300_000
REF_S = 0.008

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# tags of the rellich-arches calls, one per arch
ARCH_TAGS = ("cube-v0", "pyramid-apex", "lprism-notch")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# name, unit; counts and self times are per pass.
PER_LAYER = (
    [("%s.s" % layer, "s") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s"),
        ("trace.run_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
        ("trace.counter_errors", "count"),
        ("error_rate", "ratio"),
        ("cli.main.s", "s"),
        ("cli.calls", "count"),
        ("mesh.read_off.s", "s"),
        ("mesh.validate_surface.s", "s"),
        ("mesh.validate_surface.calls", "count"),
        ("mesh.validate_surface.invalid", "count"),
        ("mesh.faces", "count"),
        ("mesh.edges", "count"),
        ("fixtures.generate.s", "s"),
        ("fixtures.generate.calls", "count"),
        ("geometry.dihedral_angles.s", "s"),
        ("geometry.dihedral_angles.edges", "count"),
        ("geometry.separation_radius.s", "s"),
        ("geometry.separation_radius.calls", "count"),
    ]
    + [("geometry.%s.%s" % (s, m), u)
       for s in SAMPLERS
       for m, u in (("s", "s"), ("proposals", "count"), ("accepted", "count"),
                    ("acceptance", "ratio"))]
    + [("geometry.sampling.%s.s" % tag, "s") for tag in ARCH_TAGS]
    + [
        ("partition.quotient_graph.s", "s"),
        ("partition.quotient_graph.calls", "count"),
        ("partition.quotient_graph.classes", "count"),
        ("partition.is_monochromatic.s", "s"),
        ("partition.validate_partition.s", "s"),
        ("partition.validate_partition.calls", "count"),
        ("partition.enumerate_admissible.s", "s"),
        ("partition.enumerate_admissible.partitions", "count"),
        ("rellich.rellich_suite.s", "s"),
        ("rellich.functions", "count"),
        ("rellich.max_abs_z", "sigma"),
        ("rellich.rel_stderr", "ratio"),
        ("trace_energy.refine.s", "s"),
        ("trace_energy.refine.vertices", "count"),
        ("trace_energy.refine.triangles", "count"),
        ("trace_energy.cotan_stiffness.s", "s"),
        ("trace_energy.cotan_stiffness.nnz", "count"),
        ("trace_energy.constrained_vertices.s", "s"),
        ("trace_energy.constrained_vertices.pinned", "count"),
        ("trace_energy.solve_constrained.s", "s"),
        ("trace_energy.solve_constrained.residual_max", "ratio"),
        ("trace_energy.solve_constrained.unanchored_components", "count"),
        ("trace_energy.cg.s", "s"),
        ("trace_energy.cg.iterations", "count"),
        ("trace_energy.cg.iterations.closed", "count"),
        ("trace_energy.cg.finest_iterations.closed", "count"),
        ("trace_energy.cg.flops_computed", "flop"),
        ("trace_energy.cg.bytes_computed", "B"),
        ("reporting.json_report.s", "s"),
        ("reporting.bytes", "B"),
    ]
)

LIMITS = ("user-space wall clock of one process only; no system-wide tracing, "
          "cache dropping or frequency control")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def pin_threads():
    """Cap BLAS and OpenMP pools at one thread (at most nproc); load is this one process."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def import_program():
    """Import polymix from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polymix" / "__init__.py").is_file():
        raise SystemExit("error: no program at %s" % (src / "polymix"))
    sys.path.insert(0, str(src))
    import polymix
    if Path(polymix.__file__).resolve().parent != (src / "polymix").resolve():
        raise SystemExit("error: polymix imported from %s, not %s" % (polymix.__file__, src))


class ReferenceLoop:
    """The reference loop; calling it runs the loop and returns its seconds."""

    def __init__(self):
        import numpy  # not at module level: only after pin_threads has run

        rng = numpy.random.default_rng(0)
        self.numpy = numpy
        self.points = list(rng.random((40, 3)))
        self.array, self.out = rng.random(500_000), numpy.empty(500_000)
        self.values = [float(i) for i in range(REF_VALUES)]
        self.order = rng.permutation(REF_VALUES).tolist()
        self.start = 0

    def __call__(self):
        numpy, pts, array, values = self.numpy, self.points, self.array, self.values
        start = self.start
        self.start = (start + REF_READS) % (REF_VALUES - REF_READS)
        t0 = time.perf_counter()
        lengths = {}
        for k in range(REF_MIX_STEPS):
            a, b, c = pts[k % 40], pts[(k + 1) % 40], pts[(k + 7) % 40]
            n = numpy.cross(b - a, c - a)
            lengths[k] = float(numpy.dot(n, n)) ** 0.5
            json.dumps([round(v, 6) for v in n.tolist()])
        for _ in range(REF_ARRAY_STEPS):
            array.sum()
            numpy.multiply(array, 1.0000001, out=self.out)
            numpy.sort(array[:50_000])
        total = 0.0
        for i in self.order[start:start + REF_READS]:
            total += values[i]
        return time.perf_counter() - t0


def timed_passes(workload, state, budget, reference, on_pass, tracer=None):
    """Repeat passes while another one fits in ``budget`` seconds (at least one)."""
    times = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        calls = workload.run_pass(state, tracer, reference)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        on_pass(calls)
        if t1 - begin + statistics.median(times) > budget:
            return times


def calibrated_s(times, refs):
    """Median over repeats of time / reference time, in seconds at REF_S.

    ``refs[i]`` is the time of the reference loop run beside ``times[i]``.
    The repeats are deterministic, so they differ by interference from
    outside the process: on a shared machine its speed drifts by up to
    1.7x, in bursts and for minutes at a time (perfbench/README.md,
    Limits).  A call and the reference loop beside it slow nearly alike, so
    their ratio holds where either time alone does not; a change to the
    program moves the call and not the loop.
    """
    return REF_S * statistics.median(t / r for t, r in zip(times, refs))


def calibrated_pass_s(call_times, call_refs):
    """Per call, ``calibrated_s`` over its repeats, summed over the calls of a pass."""
    return sum(calibrated_s(t, r) for t, r in zip(zip(*call_times), zip(*call_refs)))


def best_pass_s(call_times):
    """Per call, the fastest of its repeats, summed: raw wall clock, uncalibrated."""
    return sum(min(times) for times in zip(*call_times))


def differing_calls(first, calls):
    """Calls of a repeated pass that raised or whose output differs from the first pass."""
    return [c for f, c in zip(first, calls) if c.error or c.value != f.value]


def repeat_failures(first, differing, failed_first):
    """Failed operations of a repeated pass: a differing call fails whole, an
    identical one fails as it did in the first pass."""
    keys = {c.key for c in differing}
    return sum(c.ops if c.key in keys else failed_first.get(c.key, 0) for c in first)


def reports_digest(calls):
    """Digest of a pass's outputs, comparable across runs of the same seed."""
    canonical = [(c.key, [sorted(v) for v in c.value] if isinstance(c.value, tuple) else c.value)
                 for c in calls]
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


def per_layer_metrics(tracer, totals, traced_calls, traced_run_s, untraced_run_s, extra):
    n = float(len(traced_calls))
    values = {"%s.s" % layer: totals.by_layer[layer] / n for layer in LAYERS}
    for key, t in totals.by_name.items():
        values["%s.s" % key] = t / n
    for key, v in tracer.sums.items():
        values[key] = v / n
    values.update(tracer.maxima)
    values.update(tracer.last)
    for s in SAMPLERS:
        proposals = tracer.sums["geometry.%s.proposals" % s]
        values["geometry.%s.acceptance" % s] = (
            tracer.sums["geometry.%s.accepted" % s] / proposals if proposals else 0.0)
    for tag in ARCH_TAGS:
        values["geometry.sampling.%s.s" % tag] = sum(
            totals.by_tag[("geometry." + s, tag)] for s in SAMPLERS) / n
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    # cli.main's self time is whatever the hooks below it miss, so it counts
    # as unattributed
    attributed = sum(totals.by_layer[layer] for layer in LAYERS) - totals.by_name["cli.main"]
    values["trace.coverage"] = attributed / sum(map(sum, traced_calls))
    values["trace.spans"] = totals.count / n
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)  # input paths inside reports are relative to the checkout
    nproc = pin_threads()
    import_program()

    import numpy
    import scipy

    from workloads import WORKLOADS, RellichArches

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workdir = OUT / "inputs" / args.workload
    reference = ReferenceLoop()
    try:
        setup_times, setup_refs = [], []
        while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            state = None  # hold one copy of the inputs, not two
            gc.collect()
            before = reference()
            t0 = time.perf_counter()
            state = workload.setup(os.path.relpath(workdir))
            setup_times.append(time.perf_counter() - t0)
            # a set-up can take seconds: compare it with the loop on both sides
            setup_refs.append((before + reference()) / 2.0)

        budget = args.seconds / 2.0 if args.trace else float(args.seconds)
        # the first pass's calls, then per later pass only the calls that differ
        passes = []
        # per pass, the wall time of each call and of the reference loops beside it
        untraced_calls, untraced_refs, traced_calls, traced_refs = [], [], [], []

        def keep(calls, call_times, call_refs):
            # the loop before each call, and one more after the last: each
            # call is compared with the mean of the loops on either side
            refs = [c.ref_seconds for c in calls] + [reference()]
            passes.append(differing_calls(passes[0], calls) if passes else calls)
            call_times.append([c.seconds for c in calls])
            call_refs.append([(a + b) / 2.0 for a, b in zip(refs, refs[1:])])

        traced_times, totals, tracer, first_spans = [], spans.SpanTotals(), spans.Tracer(), []

        def fold(calls):
            keep(calls, traced_calls, traced_refs)
            done = tracer.take()
            if not first_spans:
                first_spans.extend(done)
            totals.add(done)

        untraced_times = timed_passes(workload, state, budget, reference,
                                      lambda calls: keep(calls, untraced_calls, untraced_refs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer.install()
            try:
                traced_times = timed_passes(workload, state, budget, reference, fold, tracer)
            finally:
                tracer.uninstall()

        first = passes[0]
        ops_per_pass = sum(c.ops for c in first)
        attempted = ops_per_pass * len(passes)
        failed_first, problems = workload.check(state, first)
        failed = sum(failed_first.values()) + sum(
            repeat_failures(first, differing, failed_first) for differing in passes[1:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = calibrated_pass_s(untraced_calls, untraced_refs)
    wall_run_s = best_pass_s(untraced_calls)
    if args.trace:
        extra = {"error_rate": failed / attempted}
        if isinstance(workload, RellichArches):
            extra["rellich.rel_stderr"] = RellichArches.relative_stderr(first)
        metrics = per_layer_metrics(tracer, totals, traced_calls,
                                    calibrated_pass_s(traced_calls, traced_refs), run_s, extra)
    else:
        metrics = {
            "setup_s": calibrated_s(setup_times, setup_refs),
            "run_s": run_s,
            "ops_per_s": ops_per_pass / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": ops_per_pass,
        "setup_wall_s": setup_times,
        "setup_ref_s": setup_refs,
        "run_s": run_s,
        "wall_run_s": wall_run_s,
        "pass_ref_s": [sum(r) for r in untraced_refs],
        "call_best_s": {c.key: min(t) for c, t in zip(first, zip(*untraced_calls))},
        "untraced_pass_s": untraced_times,
        "untraced_pass_median_s": statistics.median(untraced_times),
        "traced_pass_s": traced_times,
        "problems": problems[:20],
        "reports_sha256": reports_digest(first),
        "machine": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform(),
        },
        "limits": LIMITS,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        # per untraced pass, each call's wall time and that of the reference loops beside it
        detail = {"call_s": untraced_calls, "call_ref_s": untraced_refs}
        json.dump({"info": info, "result": result, "detail": detail}, fh, indent=1)
    if first_spans:
        spans.write_spans(OUT / (stem + ".spans.jsonl.gz"), first_spans)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
