"""Dirichlet/Neumann face labelings: admissibility, enumeration,
monochromaticity, and the search harness over generated mesh families.

A labeling is admissible when at least one face is Dirichlet and every
edge where the labels change is strictly convex on the chosen side
(interior angle < pi for the interior problem, exterior angle < pi for
the exterior problem).  Edges at or beyond the threshold forbid a label
change, which merges their faces into quotient classes; admissible
labelings are exactly the labelings constant on classes, minus all-N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import fixtures
from .geometry import interior_angle_table, _rng
from .mesh import validate_surface

# Angles within TAU_ANGLE of pi count as >= pi: the boundary case must be
# rejected conservatively.
TAU_ANGLE = 1e-9

SIDES = ("interior", "exterior")

# Full enumeration refuses beyond this many quotient classes.
MAX_ENUM_CLASSES = 30


@dataclass(frozen=True)
class Partition:
    labels: tuple
    side: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError("side must be 'interior' or 'exterior'")
        if any(l not in ("D", "N") for l in self.labels):
            raise ValueError("labels must be 'D' or 'N'")

    @classmethod
    def from_json_dict(cls, data):
        return cls(labels=tuple(data["labels"]), side=data["side"])

    def to_json_dict(self):
        return {"labels": list(self.labels), "side": self.side}

    @property
    def dirichlet_faces(self):
        return tuple(i for i, l in enumerate(self.labels) if l == "D")

    @property
    def neumann_faces(self):
        return tuple(i for i, l in enumerate(self.labels) if l == "N")


@dataclass
class AdmissibilityReport:
    admissible: bool
    side: str
    dirichlet_empty: bool
    violating_edges: tuple  # ((a, b), (face0, face1), side-relevant angle)

    def to_json_dict(self):
        return {
            "admissible": self.admissible,
            "side": self.side,
            "dirichlet_empty": self.dirichlet_empty,
            "violating_edges": [
                {"edge": list(e), "faces": list(f), "angle": ang}
                for e, f, ang in self.violating_edges
            ],
        }


def side_angles(surface, side):
    """Side-relevant angle per edge: interior as stored, exterior mirrored."""
    if side not in SIDES:
        raise ValueError("side must be 'interior' or 'exterior'")
    interior = interior_angle_table(surface)
    return interior if side == "interior" else 2.0 * math.pi - interior


def _side_edge_data(surface):
    """Per side: per-edge tuples (edge, f0, f1, side-relevant angle)."""
    return MappingProxyType({
        side: tuple(
            (edge, f0, f1, float(angle))
            for edge, (f0, f1), angle in zip(
                surface.edge_list, surface.edge_faces, side_angles(surface, side))
        )
        for side in SIDES
    })


def validate_partition(surface, partition, tau=TAU_ANGLE):
    """Check the admissibility conditions, reporting all violations.

    `tau` is the conservative angle tolerance: a label change is rejected
    whenever the side-relevant angle reaches pi - tau.
    """
    labels = partition.labels
    if len(labels) != len(surface.faces):
        raise ValueError(
            "partition has %d labels for %d faces" % (len(labels), len(surface.faces))
        )
    threshold = math.pi - tau
    violating = []
    for edge, f0, f1, angle in surface.cached(_side_edge_data)[partition.side]:
        if labels[f0] != labels[f1] and angle >= threshold:
            violating.append((edge, (f0, f1), angle))
    d_empty = "D" not in labels
    return AdmissibilityReport(
        admissible=not d_empty and not violating,
        side=partition.side,
        dirichlet_empty=d_empty,
        violating_edges=tuple(violating),
    )


# ----------------------------------------------------------------------
# quotient structure


@dataclass
class QuotientGraph:
    side: str
    classes: tuple          # face groups, ordered by least face index
    face_class: tuple       # face -> class id
    class_adjacency: tuple  # (ci, cj) pairs joined by label-change-permitting edges

    @property
    def class_count(self):
        return len(self.classes)


def quotient_graph(surface, side, tau=TAU_ANGLE):
    """Merge faces across every edge whose side-relevant angle is >= pi - tau."""
    nf = len(surface.faces)
    blocked = side_angles(surface, side) >= math.pi - tau
    f0, f1 = np.array(surface.edge_faces, dtype=np.int64).reshape(-1, 2).T
    merged = sparse.coo_matrix(
        (np.ones(blocked.sum()), (f0[blocked], f1[blocked])), shape=(nf, nf)
    )
    # components are numbered in order of their least face, the class order
    count, face_class = connected_components(merged, directed=False)
    members = [[] for _ in range(count)]
    for f, c in enumerate(face_class.tolist()):
        members[c].append(f)
    adjacency = {
        (min(ci, cj), max(ci, cj))
        for ci, cj in zip(face_class[f0[~blocked]].tolist(), face_class[f1[~blocked]].tolist())
        if ci != cj
    }
    return QuotientGraph(
        side=side,
        classes=tuple(tuple(m) for m in members),
        face_class=tuple(face_class.tolist()),
        class_adjacency=tuple(sorted(adjacency)),
    )


class AdmissiblePartitions:
    """Sized, deterministic iterable of all admissible partitions.

    Iteration order: classes sorted by least face index; counter m runs
    0, 1, 2, ... with bit i of m giving class i the label N (so m = 0 is
    the trivial all-Dirichlet partition and all-N never occurs).
    """

    def __init__(self, surface, side, tau=TAU_ANGLE):
        self.side = side
        self.quotient = quotient_graph(surface, side, tau=tau)
        self.count = 2 ** self.quotient.class_count - 1

    def __len__(self):
        return self.count

    def __iter__(self):
        k = self.quotient.class_count
        if k > MAX_ENUM_CLASSES:
            raise ValueError(
                "refusing full enumeration over %d classes (> %d); count is %d"
                % (k, MAX_ENUM_CLASSES, self.count)
            )
        nf = len(self.quotient.face_class)
        for m in range(self.count):
            labels = tuple(
                "N" if (m >> self.quotient.face_class[f]) & 1 else "D"
                for f in range(nf)
            )
            yield Partition(labels=labels, side=self.side)


def enumerate_admissible(surface, side, tau=TAU_ANGLE):
    return AdmissiblePartitions(surface, side, tau=tau)


def is_monochromatic(surface, side, tau=TAU_ANGLE):
    """True iff only the trivial (all-Dirichlet) partition is admissible.

    Returns (flag, witness): the witness is a nontrivial admissible
    partition when the answer is False, else None.  A surface without faces
    has no partition to decide on and raises ValueError.
    """
    if not surface.faces:
        raise ValueError("surface has no faces")
    q = quotient_graph(surface, side, tau=tau)
    if q.class_count == 1:
        return True, None
    witness_class = q.face_class[0]
    labels = tuple("N" if q.face_class[f] == witness_class else "D"
                   for f in range(len(q.face_class)))
    return False, Partition(labels=labels, side=side)


# ----------------------------------------------------------------------
# search harness


@dataclass(frozen=True)
class GeneratorSpec:
    """Built-in mesh family plus seed and size ranges.

    family: 'hulls' (random convex hulls, size = point count),
    'star-spheres' (perturbed triangulated spheres, size = subdivisions),
    or 'notched-boxes' (crenellated prisms, size = notch count).
    """

    family: str
    seed: int = 0
    min_size: int = 0
    max_size: int = 0

    def __post_init__(self):
        if self.family not in ("hulls", "star-spheres", "notched-boxes"):
            raise ValueError("unknown generator family %r" % (self.family,))

    def default_sizes(self):
        if self.min_size or self.max_size:
            return max(self.min_size, 1), max(self.max_size, self.min_size, 1)
        return {"hulls": (6, 10), "star-spheres": (1, 2), "notched-boxes": (1, 4)}[self.family]

    def build(self, index):
        lo, hi = self.default_sizes()
        g = _rng(self.seed, index, 0x5EA7C4)
        size = int(g.integers(lo, hi + 1))
        sub_seed = int(g.integers(0, 2 ** 62))
        if self.family == "hulls":
            mesh = fixtures.generate_hull(sub_seed, n_points=max(size, 4))
        elif self.family == "star-spheres":
            amp = float(g.uniform(0.05, 0.35))
            mesh = fixtures.generate_star_sphere(sub_seed, subdivisions=size, amplitude=amp)
        else:
            mesh = fixtures.notched_box(notches=size)
        return "%s-%d-%d" % (self.family, self.seed, index), mesh


@dataclass
class SearchReport:
    spec: GeneratorSpec
    budget: int
    meshes_examined: int
    skipped_invalid: int
    records: tuple  # (mesh_id, faces, interior_mono, exterior_mono)

    @property
    def both_monochromatic_found(self):
        return tuple(r[0] for r in self.records if r[2] and r[3])

    def to_json_dict(self):
        return {
            "family": self.spec.family,
            "seed": self.spec.seed,
            "budget": self.budget,
            "meshes_examined": self.meshes_examined,
            "skipped_invalid": self.skipped_invalid,
            "both_monochromatic_found": list(self.both_monochromatic_found),
            "meshes": [
                {
                    "id": mid,
                    "faces": faces,
                    "interior_monochromatic": im,
                    "exterior_monochromatic": em,
                }
                for mid, faces, im, em in self.records
            ],
        }


def search_both_monochromatic(spec, budget):
    """Examine up to `budget` generated meshes for double monochromaticity.

    An exploration harness: it reports what it saw and never claims
    nonexistence.  Invalid generated meshes are skipped and counted.
    """
    records = []
    skipped = 0
    examined = 0
    for index in range(int(budget)):
        mesh_id, mesh = spec.build(index)
        examined += 1
        if not validate_surface(mesh).ok:
            skipped += 1
            continue
        im, _ = is_monochromatic(mesh, "interior")
        em, _ = is_monochromatic(mesh, "exterior")
        records.append((mesh_id, len(mesh.faces), im, em))
    return SearchReport(
        spec=spec,
        budget=int(budget),
        meshes_examined=examined,
        skipped_invalid=skipped,
        records=tuple(records),
    )
