"""Dirichlet/Neumann face labelings: admissibility, enumeration,
monochromaticity, and the search harness over generated mesh families.

A labeling is admissible when at least one face is Dirichlet and every
edge where the labels change is strictly convex on the chosen side
(interior angle < pi for the interior problem, exterior angle < pi for
the exterior problem).  Edges at or beyond the threshold forbid a label
change, which merges their faces into quotient classes; admissible
labelings are exactly the labelings constant on classes, minus all-N.

Each edge's face pair and interior angle come as arrays from the surface's
`geometry.edge_table`.  An edge is blocked when its side-relevant angle is
>= pi - tau (tau finite, >= 0); only blocked edges can violate, and a
violation names its faces in ascending order.  Each surface keeps in its memo,
``surface.memo[compute, side, tau]``, the blocked mask and, for
`validate_partition`, the blocked edges' violation records with two
`itemgetter`s over their lower and higher faces: validation decides from one
comparison of the two gathered label tuples, and a report builds its
violation records from them only when its ``violating_edges`` is read.
One entry per tau, ``surface.memo[_quotient_graphs, tau]``, holds the
quotient graphs of both sides, merged by one component call over a
block-diagonal graph and served per side by `quotient_graph`.  A
`Partition` built by its constructor checks its side and labels in one
hand-written ``__init__``.
Enumeration gathers face labels from class labels via `face_class` in one
C-level `itemgetter` call and builds its partitions unchecked, in a chain
of `map` calls: the side is checked once per enumeration and the labels
come from "DN".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, islice, product, repeat
from types import MappingProxyType

import numpy as np

from . import fixtures
from .geometry import edge_table, _rng
from .mesh import undirected_components, validate_surface

# Angles within TAU_ANGLE of pi count as >= pi: the boundary case must be
# rejected conservatively.
TAU_ANGLE = 1e-9

SIDES = ("interior", "exterior")

# Full enumeration refuses beyond this many quotient classes.
MAX_ENUM_CLASSES = 30


@dataclass(frozen=True, slots=True, init=False)
class Partition:
    """A Dirichlet/Neumann labeling of a surface's faces on one side.

    ``labels`` is a tuple or list over "D" and "N", one per face in OFF
    order, kept as given; ``side`` is "interior" or "exterior".
    Construction checks the side, then the labels, and raises ValueError
    for a side outside `SIDES` or a label other than "D" or "N"; the
    label count is checked against a surface by `validate_partition`.
    Enumerations build their partitions unchecked.
    """
    labels: tuple
    side: str

    def __init__(self, labels, side):
        # hand-written: a generated frozen __init__ stores each field through
        # object.__setattr__ and then calls __post_init__; the slot setters
        # and one call are cheaper
        if side not in SIDES:
            raise ValueError("side must be 'interior' or 'exterior'")
        if labels.count("D") + labels.count("N") != len(labels):
            raise ValueError("labels must be 'D' or 'N'")
        _set_labels(self, labels)
        _set_side(self, side)

    @classmethod
    def _unchecked(cls, labels, side):
        """A partition without the checks of ``__init__``: for callers
        whose labels are a tuple over "DN" and whose side is checked."""
        self = object.__new__(cls)
        _set_labels(self, labels)
        _set_side(self, side)
        return self

    @classmethod
    def from_json_dict(cls, data):
        """The partition of a ``{"labels": [...], "side": ...}`` object;
        ValueError when ``data`` is not one, lacks either key, or its labels
        are not a list or a tuple (a string would be split into
        characters)."""
        try:
            labels = data["labels"]
        except TypeError:  # data is not an object
            labels = None
        except KeyError:
            raise ValueError("a partition object needs a 'labels' key") from None
        if not isinstance(labels, (list, tuple)):
            raise ValueError("a partition is an object with a list of labels")
        if "side" not in data:
            raise ValueError("a partition object needs a 'side' key")
        return cls(tuple(labels), data["side"])

    def to_json_dict(self):
        return {"labels": list(self.labels), "side": self.side}


# the slots' own setters, which a frozen dataclass's __setattr__ does not guard
_set_labels, _set_side = Partition.labels.__set__, Partition.side.__set__


class AdmissibilityReport:
    """The verdict on one labeling: ``admissible``, ``side``,
    ``dirichlet_empty`` and ``violating_edges``, a tuple of
    ((a, b), (face0, face1), side-relevant angle) records in edge order.

    `validate_partition` decides the verdict alone; on an inadmissible
    labeling it keeps the labels of the blocked edges' low and high faces,
    gathered at the call, and builds ``violating_edges`` from them on its
    first read.  Reports compare equal when their four fields do.
    """

    __slots__ = ("admissible", "side", "dirichlet_empty", "_violating", "_pending")

    def __init__(self, admissible, side, dirichlet_empty, violating_edges):
        self.admissible = admissible
        self.side = side
        self.dirichlet_empty = dirichlet_empty
        self._violating = violating_edges
        self._pending = None

    @property
    def violating_edges(self):
        if self._pending is not None:
            records, low, high = self._pending
            self._violating = tuple(compress(records, map(operator.ne, low, high)))
            self._pending = None
        return self._violating

    def _fields(self):
        return self.admissible, self.side, self.dirichlet_empty, self.violating_edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("%s(admissible=%r, side=%r, dirichlet_empty=%r, violating_edges=%r)"
                % ((self.__class__.__qualname__,) + self._fields()))

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


def _check_side(side):
    if side not in SIDES:
        raise ValueError("side must be 'interior' or 'exterior'")


def side_angles(surface, side):
    """Side-relevant angle per edge: interior, the read-only column of the
    surface's :func:`edge_table` itself; exterior, a new array 2 pi minus it."""
    _check_side(side)
    interior = edge_table(surface).interior
    return interior if side == "interior" else 2.0 * math.pi - interior


def _blocked_edges(surface, side, tau):
    """Mask of the edges whose side-relevant angle is >= pi - tau, the only
    ones that can forbid a label change."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and >= 0, got %r" % (tau,))
    blocked = side_angles(surface, side) >= math.pi - tau
    blocked.flags.writeable = False
    return blocked


def _violation_table(surface, side, tau):
    """None when no edge is blocked; else, over the blocked edges in edge
    order, the violation records (edge, (f0, f1), angle), f0 < f1 and not the
    edge table's walk order, and two itemgetters gathering a labeling's labels
    at the f0s and at the f1s (a bare label for a single blocked edge)."""
    blocked = np.flatnonzero(surface.memo[_blocked_edges, side, tau])
    if not len(blocked):
        return None
    faces = np.sort(edge_table(surface).faces[blocked], axis=1)
    angles, edges = side_angles(surface, side)[blocked].tolist(), surface.edge_list
    records = tuple((edges[e], (f0, f1), angle)
                    for e, (f0, f1), angle in zip(blocked.tolist(), faces.tolist(), angles))
    low, high = faces.T.tolist()
    return records, operator.itemgetter(*low), operator.itemgetter(*high)


def validate_partition(surface, partition, tau=TAU_ANGLE):
    """Check the admissibility conditions, reporting all violations.

    `tau` is the conservative angle tolerance: a label change is rejected
    whenever the side-relevant angle reaches pi - tau.  A non-finite or
    negative `tau` raises ValueError.  The verdict is one comparison of the
    labels gathered at the blocked edges' two faces; the violation records
    are built from those labels when the report's ``violating_edges`` is
    first read.
    """
    labels = partition.labels
    if len(labels) != len(surface.faces):
        raise ValueError(
            "partition has %d labels for %d faces" % (len(labels), len(surface.faces))
        )
    table = surface.memo[_violation_table, partition.side, tau]
    if table is not None:
        records, low, high = table
        low, high = low(labels), high(labels)
        if low != high:
            # positional: keyword arguments cost a quarter of a call here
            report = AdmissibilityReport(False, partition.side, "D" not in labels, None)
            report._pending = records, low, high
            return report
    d_empty = "D" not in labels
    return AdmissibilityReport(not d_empty, partition.side, d_empty, ())


# ----------------------------------------------------------------------
# quotient structure


@dataclass(frozen=True)
class QuotientGraph:
    side: str
    classes: tuple          # face groups, ordered by least face index
    face_class: tuple       # face -> class id
    class_adjacency: tuple  # (ci, cj) pairs joined by label-change-permitting edges

    @property
    def class_count(self):
        return len(self.classes)


def quotient_graph(surface, side, tau=TAU_ANGLE):
    """Merge faces across every edge whose side-relevant angle is >= pi - tau;
    both sides are kept in one entry of the surface's memo per tau."""
    _check_side(side)
    return surface.memo[_quotient_graphs, tau][side]


def _quotient_graphs(surface, tau):
    """Both sides' quotient graphs, read-only by side, from one
    :func:`undirected_components` call: the interior's blocked-edge graph
    on faces 0..F-1 and the exterior's on F..2F-1, one block-diagonal graph
    whose labels, in least-node order, number the interior classes first."""
    nf = len(surface.faces)
    inner, outer = (surface.memo[_blocked_edges, side, tau] for side in SIDES)
    f0, f1 = edge_table(surface).faces.T
    count, labels = undirected_components(2 * nf, np.concatenate([f0[inner], f0[outer] + nf]),
                                          np.concatenate([f1[inner], f1[outer] + nf]))
    # components are numbered in order of their least face, the class order;
    # the exterior's first class is the one of its face 0
    split = int(labels[nf]) if nf else 0
    return MappingProxyType({
        "interior": _quotient("interior", split, labels[:nf], f0, f1, inner),
        "exterior": _quotient("exterior", count - split, labels[nf:] - split, f0, f1, outer),
    })


def _quotient(side, count, face_class, f0, f1, blocked):
    """One side's quotient graph from its ``count`` face classes, numbered
    in order of their least face, and its blocked-edge mask."""
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
        _check_side(side)  # once: iteration builds its partitions unchecked
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
        # product("DN", repeat=k) runs through m = 0, 1, ... with bit i of m
        # as entry k - 1 - i; gather each face's label from its class's entry
        gather = [k - 1 - c for c in self.quotient.face_class]
        if len(gather) > 1:
            labels_of = operator.itemgetter(*gather)
        else:  # itemgetter returns a bare item for one index and needs one
            labels_of = lambda bits: tuple([bits[c] for c in gather])
        bits = islice(product("DN", repeat=k), self.count)
        return map(Partition._unchecked, map(labels_of, bits), repeat(self.side))


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
    nonexistence.  Invalid generated meshes are skipped and counted; a
    negative `budget` raises ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0, got %d" % budget)
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
