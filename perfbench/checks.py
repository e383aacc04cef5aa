"""Correctness checks on workload outputs.

Each function takes a program output (a parsed CLI report or sets built
from library calls) plus the reference the benchmark computed itself, and
returns a list of human-readable problems; an empty list means the output
passed.  They import nothing from the program, so ``selftest.py`` can feed
them deliberately wrong results.
"""

from __future__ import annotations

import math

# 6 ln2 / pi: the per-level energy increment of the pyramid step data,
# ln 2 * sum (delta c)^2 / gamma over two free gaps of angle pi/3.
STEP_RATE = 6.0 * math.log(2.0) / math.pi
STEP_RATE_REL_TOL = 0.01

# A correct program exceeds 5 sigma with negligible probability on any seed.
RELLICH_SIGMAS = 5.0

RESIDUAL_FACTOR = 10.0


def search_problems(family, budget, result, truth):
    """Check one ``polymix search`` report against library recomputation.

    ``truth[i]`` is None when generated mesh i fails validation, else a
    dict with ``id``, ``faces`` and per side ``(monochromatic,
    witness_admissible)``.  Returns ``(failed_indices, problems)``: a mesh
    fails when its record disagrees with the library, when a witness of a
    non-monochromatic side is not admissible, or when a convex hull is not
    interior-never and exterior-always monochromatic.
    """
    problems = []
    if result.get("meshes_examined") != budget or len(truth) != budget:
        return set(range(budget)), ["examined %r of %d meshes" % (result.get("meshes_examined"), budget)]
    skipped = sum(1 for t in truth if t is None)
    if result.get("skipped_invalid") != skipped:
        problems.append("skipped_invalid %r, expected %d" % (result.get("skipped_invalid"), skipped))
    records = {r.get("id"): r for r in result.get("meshes", [])}
    failed = set()
    for index, t in enumerate(truth):
        if t is None:
            continue
        rec = records.get(t["id"])
        why = None
        if rec is None:
            why = "missing from report"
        elif rec.get("faces") != t["faces"]:
            why = "faces %r, expected %d" % (rec.get("faces"), t["faces"])
        else:
            for side in ("interior", "exterior"):
                mono, witness_ok = t[side]
                if rec.get(side + "_monochromatic") is not mono:
                    why = "%s monochromatic %r, library says %r" % (side, rec.get(side + "_monochromatic"), mono)
                elif not mono and not witness_ok:
                    why = "%s witness is not an admissible nontrivial partition" % side
                if why:
                    break
            if why is None and family == "hulls" and (t["interior"][0] or not t["exterior"][0]):
                why = "convex hull must be interior-never, exterior-always monochromatic"
        if why:
            failed.add(index)
            problems.append("%s: %s" % (t["id"], why))
    if problems and not failed:
        failed = set(range(budget))
    return failed, problems


def oracle_problems(name, side, brute, enumerated):
    """The enumerated admissible set must equal the brute-force set."""
    if brute == enumerated:
        return []
    missing = len(brute - enumerated)
    extra = len(enumerated - brute)
    return ["%s/%s: enumeration misses %d and adds %d labelings" % (name, side, missing, extra)]


def rellich_problems(result, sigmas=RELLICH_SIGMAS):
    """Identity residuals and estimate slacks must sit within noise."""
    problems = []
    for r in result.get("identity", []):
        if not abs(r["residual"]) <= sigmas * r["combined_stderr"]:
            problems.append("identity u=%s: |residual| %.3g > %g * stderr %.3g"
                            % (r["u"], abs(r["residual"]), sigmas, r["combined_stderr"]))
    estimates = result.get("estimate")
    if not estimates:
        problems.append("report carries no estimate section")
    for e in estimates or []:
        if not e["slack"] >= -sigmas * e["combined_stderr"]:
            problems.append("estimate u=%s: slack %.3g < -%g * stderr %.3g"
                            % (e["u"], e["slack"], sigmas, e["combined_stderr"]))
    return problems


def rellich_relative_stderr(results):
    """Median over arches and non-constant u of stderr / max(|lhs|, |rhs|)."""
    ratios = sorted(
        r["combined_stderr"] / max(abs(r["lhs"]), abs(r["rhs"]))
        for result in results
        for r in result.get("identity", [])
        if max(abs(r["lhs"]), abs(r["rhs"])) > 0.0
    )
    if not ratios:
        return 0.0
    mid = len(ratios) // 2
    return ratios[mid] if len(ratios) % 2 else 0.5 * (ratios[mid - 1] + ratios[mid])


def _study_problems(result, vertex_counts, solver_rtol):
    problems = []
    if list(result.get("vertex_counts", [])) != list(vertex_counts):
        problems.append("vertex counts %r, expected %r" % (result.get("vertex_counts"), list(vertex_counts)))
    limit = RESIDUAL_FACTOR * solver_rtol
    for level, res in zip(result.get("levels", []), result.get("residuals", [])):
        if not res < limit:
            problems.append("level %d: CG relative residual %.3g >= %.3g" % (level, res, limit))
    return problems


def step_study_problems(result, vertex_counts, solver_rtol):
    """Pyramid step data: growing energies at the predicted log rate, DIVERGENT."""
    problems = _study_problems(result, vertex_counts, solver_rtol)
    energies = result.get("energies", [])
    inc = [b - a for a, b in zip(energies, energies[1:])]
    if not inc or not all(d > 0.0 for d in inc):
        problems.append("energies do not strictly increase")
    elif abs(inc[-1] / STEP_RATE - 1.0) > STEP_RATE_REL_TOL:
        problems.append("last increment %.6g is not within %g of 6 ln2/pi = %.6g"
                        % (inc[-1], STEP_RATE_REL_TOL, STEP_RATE))
    if result.get("classification") != "DIVERGENT":
        problems.append("classification %r, expected DIVERGENT" % (result.get("classification"),))
    return problems


def smooth_study_problems(result, vertex_counts, solver_rtol):
    """Smooth one-face data must settle: CONVERGENT."""
    problems = _study_problems(result, vertex_counts, solver_rtol)
    if result.get("classification") != "CONVERGENT":
        problems.append("classification %r, expected CONVERGENT" % (result.get("classification"),))
    return problems


def refined_vertex_counts(vertices, triangles, levels):
    """Vertex count of a closed genus-0 triangulation after each midpoint level."""
    v, f = vertices, triangles
    e = v + f - 2
    counts = {}
    for level in range(max(levels) + 1):
        counts[level] = v
        v, e, f = v + e, 2 * e + 3 * f, 4 * f
    return [counts[level] for level in levels]
