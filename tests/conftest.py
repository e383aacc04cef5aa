import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import settings

from polymix import fixtures
from polymix.mesh import PolyhedralSurface
from polymix.trace_energy import _refinement_chain

# every property test draws the same examples on every run and has no time
# limit per example; each test sets its own max_examples
settings.register_profile("polymix", derandomize=True, deadline=None)
settings.load_profile("polymix")


def edge_incidence(surface):
    """The per-corner dict walk the half-edge table must agree with:
    (a, b) with a < b -> list of (face, traverses_a_to_b), in face order."""
    inc = {}
    for fi, face in enumerate(surface.faces):
        k = len(face)
        for i in range(k):
            a, b = face[i], face[(i + 1) % k]
            key = (a, b) if a < b else (b, a)
            inc.setdefault(key, []).append((fi, a < b))
    return inc


def edge_index(surface):
    """Edge -> its rank in sorted order, from :func:`edge_incidence`."""
    return {e: i for i, e in enumerate(sorted(edge_incidence(surface)))}


def refine(base, level, fan_offset=0):
    """Level `level` of the library's refinement chain of `base`: every face
    fan/ear triangulated, then midpoint-refined `level` times."""
    return next(islice(_refinement_chain(base, fan_offset), int(level), None))


def two_tetrahedra_shared_vertex():
    """Two closed tetrahedra glued at one vertex: non-manifold fixture."""
    t = fixtures.regular_tetrahedron()
    v = np.asarray(t.vertices)
    shift = v[0] * 2.0  # second copy touches the first only at vertex 0
    verts = np.vstack([v, (shift - v)[1:]])
    faces = list(t.faces)
    remap = {0: 0, 1: 4, 2: 5, 3: 6}
    for f in t.faces:
        faces.append(tuple(remap[i] for i in reversed(f)))
    return PolyhedralSurface(verts, faces)


def open_box():
    """Cube with the top face removed: an open surface with 4 boundary edges."""
    c = fixtures.cube()
    return PolyhedralSurface(c.vertices, [f for i, f in enumerate(c.faces) if i != 1])


@pytest.fixture(scope="session")
def cube():
    return fixtures.cube()


@pytest.fixture(scope="session")
def tetrahedron():
    return fixtures.regular_tetrahedron()


@pytest.fixture(scope="session")
def pyramid():
    return fixtures.square_pyramid()


@pytest.fixture(scope="session")
def l_prism():
    return fixtures.l_prism()


CUBE_OFF = """\
OFF
8 6 12
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
4 0 3 2 1
4 4 5 6 7
4 0 1 5 4
4 2 3 7 6
4 1 2 6 5
4 3 0 4 7
"""

PYRAMID_OFF = """\
OFF
5 5 8
0 0 0
1 0 1
0 1 1
-1 0 1
0 -1 1
3 0 2 1
3 0 3 2
3 0 4 3
3 0 1 4
4 1 2 3 4
"""


# the U-shaped section [0, 3] x [0, 3] less [1, 2] x [1, 3], counterclockwise
U_SHAPE = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]


def u_pyramid():
    """The cone from the apex (3/2, 2, 1), vertex 8, over the U-shaped base
    [0, 3] x [0, 3] less [1, 2] x [1, 3] in the plane z = 0.

    The apex link is the U seen from the apex, and the U has no kernel: the
    inner wall of its left arm keeps a kernel point at x <= 1, that of its
    right arm at x >= 2.  No fan from one point tiles its cone.
    """
    verts = np.array([(x, y, 0.0) for x, y in U_SHAPE] + [(1.5, 2.0, 1.0)])
    faces = [tuple(range(7, -1, -1))] + [(i, (i + 1) % 8, 8) for i in range(8)]
    return PolyhedralSurface(verts, faces)


def u_pyramid_solid_angle():
    """Solid angle of the U from the apex: the rectangle rule
    ``sum +-atan(x y / (h sqrt(x^2 + y^2 + h^2)))`` over the corners of its
    three rectangles, relative to the foot of the apex."""
    def rectangle(x0, x1, y0, y1, h=1.0):
        f = lambda x, y: math.atan(x * y / (h * math.sqrt(x * x + y * y + h * h)))
        return f(x1, y1) - f(x0, y1) - f(x1, y0) + f(x0, y0)
    rects = [(0, 1, 0, 3), (1, 2, 0, 1), (2, 3, 0, 3)]
    return math.fsum(rectangle(x0 - 1.5, x1 - 1.5, y0 - 2.0, y1 - 2.0) for x0, x1, y0, y1 in rects)


def dented_box():
    """The box [0, 3] x [0, 3] x [0, 2] less the U pyramid hung from its
    top: the U in the plane z = 2, the apex (3/2, 2, 1), vertex 12.

    The top keeps only the U's gap [1, 2] x [1, 3].  At the apex the solid
    is the complement of the U pyramid's cone, of solid angle
    ``4 pi - u_pyramid_solid_angle()``: its link has no kernel, and the cone
    lies in no open hemisphere.
    """
    verts = np.array([(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0)]
                     + [(x, y, 2.0) for x, y in U_SHAPE] + [(1.5, 2.0, 1.0)], dtype=float)
    faces = [(0, 3, 2, 1), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 11, 10, 7, 6), (3, 0, 4, 11),
             (9, 8, 7, 10)] + [(4 + i, 4 + (i + 1) % 8, 12) for i in range(8)]
    return PolyhedralSurface(verts, faces)


def dented_box_solid_angle():
    """Solid angle of the dented box at the dent apex: the U pyramid's
    apex cone is all that the box's ball there lacks."""
    return 4.0 * math.pi - u_pyramid_solid_angle()
