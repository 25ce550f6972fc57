"""File formats for simplicial maps, user-supplied sheaves, and filtrations.

Complex and subcomplex files live next to the complex type itself; this
module covers the remaining text formats: vertex maps (`map: v -> w` lines),
the sheaf DSL (`stalk: <simplex> rank r` and
`map: <face> < <coface> matrix [[..],[..]]` lines), and filtrations
(repeated `stage: v1 v2 ...` lines).  `#` starts a comment everywhere.
"""

import ast

from .complexes import _parse_token, _strip
from .matrices import Matrix
from .sheaves import DictSheaf
from .simplicialmaps import SimplicialMap


def parse_map(text, source, target):
    """Simplicial-map file: one `map: v -> w` line per source vertex."""
    vm = {}
    for line, raw in _strip(text):
        if not line.startswith("map:"):
            raise ValueError(f"unrecognized line {raw!r}")
        body = line[len("map:"):]
        if "->" not in body:
            raise ValueError(f"missing '->' in line {raw!r}")
        left, right = body.split("->", 1)
        v, w = _parse_token(left.strip()), _parse_token(right.strip())
        if v in vm:
            raise ValueError(f"vertex {v!r} mapped twice")
        vm[v] = w
    return SimplicialMap(source, target, vm)


def serialize_map(f):
    lines = [f"map: {v} -> {f.vertex_map[v]}"
             for v in f.source.order if v in f.vertex_map]
    return "\n".join(lines) + "\n"


def parse_sheaf(text, X, ring):
    """Sheaf DSL: `stalk: <simplex> rank r` declares a free stalk;
    `map: <face> < <coface> matrix [[..],[..]]` gives the restriction along a
    codimension-one coface (rows indexed by the coface stalk).  Every simplex
    needs a stalk and every codimension-one face pair a map of the stalks'
    shape, and the maps must compose functorially; ValueError otherwise."""
    stalks = {}
    steps = {}
    for line, raw in _strip(text):
        if line.startswith("stalk:"):
            toks = line[len("stalk:"):].split()
            if len(toks) < 2 or toks[-2] != "rank":
                raise ValueError(f"expected 'stalk: <simplex> rank r': {raw!r}")
            simplex = X.canon(_parse_token(t) for t in toks[:-2])
            stalks[simplex] = tuple(range(int(toks[-1])))
        elif line.startswith("map:"):
            body = line[len("map:"):]
            head, mat_text = body.split("matrix", 1)
            face_text, coface_text = head.split("<", 1)
            face = X.canon(_parse_token(t) for t in face_text.split())
            coface = X.canon(_parse_token(t) for t in coface_text.split())
            if not (X.contains(coface) and len(coface) == len(face) + 1
                    and set(face) < set(coface)):
                raise ValueError(f"map {face} < {coface} is not along a "
                                 "codimension-one face of the complex")
            steps[(face, coface)] = ast.literal_eval(mat_text.strip())
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    for s in X.all_simplices():
        if s not in stalks:
            raise ValueError(f"no stalk declared for {s!r}")
    matrices = {}
    for face in X.all_simplices():
        for coface in X.cofaces(face):
            rows = steps.get((face, coface))
            if rows is None:
                raise ValueError(f"no map declared for {face} < {coface}")
            shape = (len(stalks[coface]), len(stalks[face]))
            if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
                raise ValueError(f"map {face} < {coface}: matrix must be "
                                 f"{shape[0]}x{shape[1]} (coface rank x "
                                 "face rank)")
            matrices[(face, coface)] = Matrix(
                ring, stalks[coface], stalks[face],
                {(r, c): ring.from_int(v) for r, row in enumerate(rows)
                 for c, v in enumerate(row) if v})
    F = DictSheaf(ring, X, stalks, matrices)
    F.check_functorial()
    return F


def serialize_sheaf(F):
    X, ring = F.X, F.ring
    lines = []
    for s in X.all_simplices():
        lines.append("stalk: " + " ".join(str(v) for v in s)
                     + f" rank {len(F.stalk(s))}")
    for s in X.all_simplices():
        for t in X.all_simplices():
            if len(t) != len(s) + 1 or not set(s) <= set(t):
                continue
            m = F.restriction_step(s, t)
            rows = [[int(str(m.entries.get((r, c), ring.zero())))
                     for c in m.col_labels] for r in m.row_labels]
            lines.append("map: " + " ".join(str(v) for v in s) + " < "
                         + " ".join(str(v) for v in t) + " matrix " + str(rows))
    return "\n".join(lines) + "\n"


def parse_filtration(text):
    """Filtration file: repeated `stage: v1 v2 ...` lines, one per stage, in
    increasing order."""
    stages = []
    for line, raw in _strip(text):
        if not line.startswith("stage:"):
            raise ValueError(f"unrecognized line {raw!r}")
        stages.append([_parse_token(t) for t in line[len("stage:"):].split()])
    if not stages:
        raise ValueError("filtration file declares no stages")
    return stages
