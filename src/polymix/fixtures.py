"""Built-in meshes and random mesh generators.

The shipped fixtures are the workhorses of the test and acceptance suites:
a unit cube, a regular tetrahedron, a square pyramid with its apex at the
origin, an L-shaped prism (one reflex edge), and crenellated "notched box"
prisms with a parameterized notch count.  Random families (convex hulls of
sphere points, radially perturbed triangulated spheres) back the search and
property tests.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from .mesh import PolyhedralSurface, midpoint_subdivide


def cube(edge=1.0):
    """Axis-aligned cube [0, edge]^3, quad faces, outward orientation."""
    e = float(edge)
    verts = np.array(
        [
            [0, 0, 0], [e, 0, 0], [e, e, 0], [0, e, 0],
            [0, 0, e], [e, 0, e], [e, e, e], [0, e, e],
        ],
        dtype=float,
    )
    faces = [
        (0, 3, 2, 1),  # bottom, seen from below
        (4, 5, 6, 7),  # top
        (0, 1, 5, 4),  # front (y = 0)
        (2, 3, 7, 6),  # back
        (1, 2, 6, 5),  # right (x = e)
        (3, 0, 4, 7),  # left
    ]
    return PolyhedralSurface(verts, faces)


def regular_tetrahedron(edge=1.0):
    s = float(edge) / (2.0 * np.sqrt(2.0))
    verts = s * np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return PolyhedralSurface(verts, faces)


def square_pyramid():
    """Solid |x| + |y| <= z <= 1: apex at the origin, square top at z = 1.

    Faces in order: the four lateral triangles around the apex
    (+x+y, -x+y, -x-y, +x-y octant planes), then the top square.
    Adjacent lateral faces meet at interior angle pi - arccos(1/3); the
    opposite-pair lateral faces 0 and 2 share only the apex.
    """
    verts = np.array(
        [
            [0, 0, 0],   # apex
            [1, 0, 1],
            [0, 1, 1],
            [-1, 0, 1],
            [0, -1, 1],
        ],
        dtype=float,
    )
    faces = [
        (0, 2, 1),  # plane x + y = z
        (0, 3, 2),  # plane -x + y = z
        (0, 4, 3),  # plane -x - y = z
        (0, 1, 4),  # plane x - y = z
        (1, 2, 3, 4),  # top
    ]
    return PolyhedralSurface(verts, faces)


def _prism(polygon2d, height):
    """Right prism over a simple CCW polygon; walls then bottom, top."""
    poly = np.asarray(polygon2d, dtype=float)
    k = len(poly)
    bottom = np.column_stack([poly, np.zeros(k)])
    top = np.column_stack([poly, np.full(k, float(height))])
    verts = np.vstack([bottom, top])
    faces = []
    for i in range(k):
        j = (i + 1) % k
        faces.append((i, j, j + k, i + k))  # outward for CCW cross-section
    faces.append(tuple(range(k - 1, -1, -1)))  # bottom cap, seen from below
    faces.append(tuple(range(k, 2 * k)))       # top cap
    return PolyhedralSurface(verts, faces)


def l_prism(height=2.0):
    """Square cross-section with a square corner notch, extruded in z.

    Cross-section: [0,2]^2 minus [1,2]^2.  Faces: walls 0..5 (wall i covers
    cross-section edge i -> i+1), then bottom, top.  Walls 2 and 3 meet at
    the vertical notch edge with interior dihedral angle 3*pi/2.
    """
    hexagon = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    return _prism(hexagon, height)


def notched_box(notches=1, height=2.0):
    """Crenellated prism: a box with `notches` square cuts in its top edge.

    Cross-section: width 2*notches + 1, height 2, unit-square notches at
    x in [2i+1, 2i+2].  Each notch contributes two reflex vertical edges.
    Faces: walls in cross-section order, then bottom, top caps (the caps are
    nonconvex polygons).
    """
    if notches < 1:
        raise ValueError("need at least one notch")
    w = 2 * notches + 1
    poly = [(0.0, 0.0), (float(w), 0.0), (float(w), 2.0)]
    for i in range(notches - 1, -1, -1):
        poly += [
            (2.0 * i + 2.0, 2.0),
            (2.0 * i + 2.0, 1.0),
            (2.0 * i + 1.0, 1.0),
            (2.0 * i + 1.0, 2.0),
        ]
    poly.append((0.0, 2.0))
    return _prism(poly, height)


def two_tetrahedra_shared_vertex():
    """Two closed tetrahedra glued at one vertex: non-manifold fixture."""
    t = regular_tetrahedron()
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
    c = cube()
    return PolyhedralSurface(c.vertices, [f for i, f in enumerate(c.faces) if i != 1])


# ----------------------------------------------------------------------
# random families


def generate_hull(seed, n_points=8):
    """Convex hull of random unit-sphere points, outward triangle faces."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x48)))
    pts = rng.normal(size=(int(n_points), 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    hull = ConvexHull(pts)
    used = sorted(set(hull.simplices.ravel().tolist()))
    remap = {old: new for new, old in enumerate(used)}
    faces = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (pts[i] for i in simplex)
        geom_n = np.cross(b - a, c - a)
        cyc = tuple(simplex) if geom_n @ eq[:3] > 0 else tuple(simplex[::-1])
        faces.append(tuple(remap[i] for i in cyc))
    return PolyhedralSurface(pts[used], faces)


_OCTAHEDRON_VERTS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=float,
)
_OCTAHEDRON_FACES = [
    (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
]


def generate_star_sphere(seed, subdivisions=1, amplitude=0.25):
    """Radially perturbed triangulated sphere, star-shaped from the origin.

    Starts from an octahedron and applies :func:`midpoint_subdivide`
    `subdivisions` times, projecting each new midpoint to the unit sphere,
    then scales each vertex radius by a uniform factor in
    [1 - amplitude, 1 + amplitude].
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must be in [0, 1)")
    v, faces = _OCTAHEDRON_VERTS, _OCTAHEDRON_FACES
    for _ in range(int(subdivisions)):
        old = len(v)
        v, faces = midpoint_subdivide(v, faces)
        p = v[old:]
        # rounds as np.linalg.norm of each 3-vector; norm(axis=1) may not
        v[old:] = p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x57)))
    radii = 1.0 + amplitude * (2.0 * rng.uniform(size=len(v)) - 1.0)
    return PolyhedralSurface(v * radii[:, None], faces)


# ----------------------------------------------------------------------
# registry

BUILTIN = {
    "cube": cube,
    "tetrahedron": regular_tetrahedron,
    "square-pyramid": square_pyramid,
    "l-prism": l_prism,
    "notched-box-1": lambda: notched_box(1),
    "notched-box-2": lambda: notched_box(2),
}


def builtin(name):
    try:
        return BUILTIN[name]()
    except KeyError:
        raise KeyError("unknown fixture %r (have: %s)" % (name, ", ".join(sorted(BUILTIN)))) from None
