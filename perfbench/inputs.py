"""Input complexes for the benchmark, generated here without importing lochom.

A complex is a list of facets (tuples of int vertex labels).  The generators
give the classical small triangulations and barycentric subdivision; `render`
applies a seeded relabelling and a seeded `order:` header and writes the text
format lochom parses.  `validate` checks each generated complex against facts
that do not depend on lochom (face counts, Euler characteristic, and on
closed pseudomanifolds that every codimension-one face lies in exactly two
facets).
"""

from itertools import combinations, permutations

RP6_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def rp6():
    """The six-vertex real projective plane."""
    return list(RP6_FACETS)


def torus7():
    """The seven-vertex (Moebius) torus."""
    return ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
            + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


def boundary_simplex(n):
    """The boundary of the n-simplex, an (n-1)-sphere on n+1 vertices."""
    return list(combinations(range(n + 1), n))


def closure(facets):
    """Every nonempty face of the given facets, as sorted tuples."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    return faces


def sd(facets):
    """Barycentric subdivision.  Returns (facets, label) where label maps each
    face of the input to its barycentre's vertex label in the subdivision."""
    faces = sorted(closure(facets), key=lambda s: (len(s), s))
    label = {s: i for i, s in enumerate(faces)}
    out = set()
    for f in facets:
        for perm in permutations(sorted(f)):
            out.add(tuple(sorted(label[tuple(sorted(perm[:k]))]
                                 for k in range(1, len(perm) + 1))))
    return sorted(out), label


def wedge(facets_a, facets_b, va, vb):
    """Glue two complexes at one vertex: vb of B is identified with va of A;
    the other vertices of B are shifted past those of A."""
    shift = 1 + max(v for f in facets_a for v in f)
    rename = {}
    for f in facets_b:
        for v in f:
            rename[v] = va if v == vb else v + shift
    return list(facets_a) + [tuple(rename[v] for v in f) for f in facets_b]


def face_counts(facets):
    counts = {}
    for s in closure(facets):
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return [counts[k] for k in sorted(counts)]


def euler(facets):
    return sum((-1) ** k * c for k, c in enumerate(face_counts(facets)))


def is_closed_pseudomanifold(facets):
    """Every codimension-one face lies in exactly two facets."""
    seen = {}
    for f in facets:
        f = tuple(sorted(f))
        for ridge in combinations(f, len(f) - 1):
            seen[ridge] = seen.get(ridge, 0) + 1
    return bool(seen) and all(c == 2 for c in seen.values())


def validate(name, facets, counts, chi):
    """Raise ValueError unless the complex has the stated face counts and
    Euler characteristic and is a closed pseudomanifold."""
    if face_counts(facets) != counts:
        raise ValueError(f"{name}: face counts {face_counts(facets)}, "
                         f"expected {counts}")
    if euler(facets) != chi:
        raise ValueError(f"{name}: Euler characteristic {euler(facets)}, "
                         f"expected {chi}")
    if not is_closed_pseudomanifold(facets):
        raise ValueError(f"{name}: not a closed pseudomanifold")


def relabelling(facets, rng):
    """A seeded bijection from the vertices to fresh int labels, and a seeded
    vertex order for the `order:` header."""
    verts = sorted({v for f in facets for v in f})
    fresh = rng.sample(range(10 * len(verts) + 10), len(verts))
    rename = dict(zip(verts, fresh))
    order = [rename[v] for v in verts]
    rng.shuffle(order)
    return rename, order


def render(facets, rename, order):
    """Text in lochom's complex format, facets in a relabelled order."""
    lines = ["order: " + " ".join(map(str, order))]
    for f in sorted(tuple(rename[v] for v in f) for f in facets):
        lines.append("simplex: " + " ".join(map(str, f)))
    return "\n".join(lines) + "\n"


def render_vertices(vertices, rename):
    labels = " ".join(str(rename[v]) for v in sorted(vertices))
    return "vertices: " + labels + "\n"
