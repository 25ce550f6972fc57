"""Finite oriented simplicial complexes and simplex combinatorics.

A complex carries a global total order on its vertices; every simplex is the
tuple of its vertices sorted by that order, and all face/front/back indexing
refers to positions in the tuple.  Simplices are plain tuples of vertex
labels; the empty simplex is ().
"""


def _default_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def perm_sign(seq, key):
    """Sign of the permutation sorting seq by key (seq has distinct entries)."""
    sign = 1
    items = list(seq)
    n = len(items)
    for i in range(n):
        for j in range(i + 1, n):
            if key(items[i]) > key(items[j]):
                sign = -sign
    return sign


class SimplicialComplex:
    def __init__(self, maximal_simplices, order=None):
        vertices = set()
        closed = set()
        for s in maximal_simplices:
            s = tuple(s)
            if len(set(s)) != len(s):
                raise ValueError(f"duplicate vertices in simplex {s!r}")
            vertices.update(s)
            for sub in _subsets(s):
                closed.add(frozenset(sub))
        if order is None:
            order = sorted(vertices, key=_default_key)
        self.order = tuple(order)
        if len(set(self.order)) != len(self.order):
            raise ValueError("duplicate vertices in order")
        unknown = vertices - set(self.order)
        if unknown:
            raise ValueError(f"vertices missing from order: {sorted(map(str, unknown))}")
        self.pos = {v: i for i, v in enumerate(self.order)}
        self._simplices = set()
        self.by_dim = {}
        for fs in closed:
            if not fs:
                continue
            tup = tuple(sorted(fs, key=self.pos.__getitem__))
            self._simplices.add(tup)
            self.by_dim.setdefault(len(tup) - 1, []).append(tup)
        for k in self.by_dim:
            self.by_dim[k].sort(key=self._position_key)
        self.dim = max(self.by_dim, default=-1)
        self._coface_cache = None

    def _position_key(self, simplex):
        return tuple(self.pos[v] for v in simplex)

    # -- basic access ------------------------------------------------------
    def vertices(self):
        return tuple(v for v in self.order if (v,) in self._simplices)

    def canon(self, vs):
        vs = list(vs)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate vertices in {vs!r}")
        return tuple(sorted(vs, key=self.pos.__getitem__))

    def contains(self, simplex):
        return tuple(simplex) in self._simplices

    def simplices(self, k):
        return tuple(self.by_dim.get(k, ()))

    def all_simplices(self):
        for k in sorted(self.by_dim):
            yield from self.by_dim[k]

    def maximal_simplices(self):
        out = []
        for s in self.all_simplices():
            if not self.cofaces(s):
                out.append(s)
        return out

    # -- Notation 2.1 combinatorics ---------------------------------------
    def face(self, simplex, j):
        return simplex[:j] + simplex[j + 1:]

    def cofaces(self, simplex):
        """Simplices one dimension up containing `simplex`."""
        if self._coface_cache is None:
            cache = {s: [] for s in self._simplices}
            for s in self._simplices:
                for j in range(len(s)):
                    f = self.face(s, j)
                    if f:
                        cache[f].append(s)
            for lst in cache.values():
                lst.sort(key=self._position_key)
            self._coface_cache = cache
        return tuple(self._coface_cache.get(tuple(simplex), ()))

    def open_star(self, simplex):
        """Simplices containing `simplex` (a simplex of this complex), in the
        order of `all_simplices`: read from the coface table one dimension
        up at a time."""
        level = [tuple(simplex)] if self.contains(simplex) else []
        out = []
        while level:
            out.extend(level)
            level = sorted({c for s in level for c in self.cofaces(s)},
                           key=self._position_key)
        return tuple(out)

    def star(self, simplex):
        """Closed star: all faces of simplices containing `simplex`."""
        out = set()
        for a in self.open_star(simplex):
            for sub in _subsets(a):
                if sub:
                    out.add(self.canon(sub))
        return frozenset(out)

    def link_complex(self, simplex):
        """The link {a minus simplex : a in the open star, a != simplex} as a
        complex in the inherited order, built without the constructor: the
        link is already closed under faces, and removing the same vertices
        from simplices of one dimension keeps their order, so the open
        star's lists are already the link's `by_dim` lists."""
        s = set(simplex)
        by_dim = {}
        for a in self.open_star(simplex)[1:]:
            t = tuple(v for v in a if v not in s)
            by_dim.setdefault(len(t) - 1, []).append(t)
        link = SimplicialComplex.__new__(SimplicialComplex)
        link.order = tuple(t[0] for t in by_dim.get(0, ()))
        link.pos = {v: i for i, v in enumerate(link.order)}
        link._simplices = {t for level in by_dim.values() for t in level}
        link.by_dim = by_dim
        link.dim = max(by_dim, default=-1)
        link._coface_cache = None
        return link

    # -- orientation -------------------------------------------------------
    def with_order(self, new_order):
        return SimplicialComplex(list(self._simplices), order=new_order)

    def __repr__(self):
        counts = [len(self.by_dim.get(k, ())) for k in range(self.dim + 1)]
        return f"SimplicialComplex(dim={self.dim}, counts={counts})"


class Subcomplex:
    """Full subcomplex spanned by a vertex subset."""

    def __init__(self, parent, vertex_set):
        self.parent = parent
        self.vertex_set = frozenset(vertex_set)
        unknown = self.vertex_set - set(parent.order)
        if unknown:
            raise ValueError(f"unknown vertices {sorted(map(str, unknown))}")
        self._complement = None
        # (order, whether it puts the vertex complement first), for the
        # last order `is_vc_before` was asked about
        self._vc_before = (None, None)

    def contains(self, simplex):
        return (self.parent.contains(simplex)
                and all(v in self.vertex_set for v in simplex))

    def simplices(self, k):
        return tuple(s for s in self.parent.simplices(k) if self.contains(s))

    def all_simplices(self):
        for s in self.parent.all_simplices():
            if self.contains(s):
                yield s

    def vertices(self):
        return tuple(v for v in self.parent.order if v in self.vertex_set
                     and (v,) in self.parent._simplices)

    def vertex_complement(self):
        """The full subcomplex on the other vertices, built once."""
        if self._complement is None:
            rest = [v for v in self.parent.order if v not in self.vertex_set]
            self._complement = Subcomplex(self.parent, rest)
        return self._complement

    def __repr__(self):
        return f"Subcomplex({sorted(map(str, self.vertex_set))})"


def orient_vc_before(X, L):
    """Total order placing the vertices of L^vc before those of L (stable)."""
    inside = set(L.vertex_set)
    return tuple([v for v in X.order if v not in inside]
                 + [v for v in X.order if v in inside])


def is_vc_before(X, L):
    """Whether X's order puts every vertex outside L before every vertex in
    L; the answer is kept on L until it is asked about another order."""
    order, holds = L._vc_before
    if order is not X.order:
        inside = L.vertex_set
        seen_inside = False
        holds = True
        for v in X.order:
            if v in inside:
                seen_inside = True
            elif seen_inside:
                holds = False
                break
        L._vc_before = (X.order, holds)
    return holds


def reorient_vc_before(X, L):
    """(X', L') with the same simplices and an L^vc-before-L vertex order."""
    order = orient_vc_before(X, L)
    X2 = X.with_order(order)
    return X2, Subcomplex(X2, L.vertex_set)


def _subsets(s):
    out = [()]
    for v in s:
        out += [t + (v,) for t in out]
    return out


# -- file format --------------------------------------------------------------

def _parse_token(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def _strip(text):
    """(line without its `#` comment, raw line) for each line that is not
    blank after the cut; error messages quote the raw line."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line, raw


# The most faces the `simplex:` lines of a complex file may close to, counted
# as the sum of 2^k - 1 over lines of k vertices.  The largest fixture or
# benchmark input, sd(torus), counts 84 * 7 = 588; a single line of 17
# vertices already passes the bound, one of 40 would need 2^40 subsets.
MAX_CLOSURE = 100_000


def parse_complex(text):
    """Complex file: optional `order: v1 v2 ...` line, then `simplex: v1 v2 ...`
    lines listing maximal simplices; `#` starts a comment.  A file whose face
    closure could pass MAX_CLOSURE faces is refused before it is built."""
    order = None
    maximal = []
    closure = 0
    for line, raw in _strip(text):
        if line.startswith("order:"):
            order = [_parse_token(t) for t in line[len("order:"):].split()]
        elif line.startswith("simplex:"):
            verts = [_parse_token(t) for t in line[len("simplex:"):].split()]
            if len(set(verts)) != len(verts):
                raise ValueError(f"duplicate vertices in line {raw!r}")
            closure += (1 << len(verts)) - 1
            if closure > MAX_CLOSURE:
                raise ValueError(f"line {raw!r} takes the face closure past "
                                 f"{MAX_CLOSURE} faces")
            maximal.append(verts)
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    if order is not None:
        known = set(order)
        for s in maximal:
            for v in s:
                if v not in known:
                    raise ValueError(f"vertex {v!r} missing from order header")
    return SimplicialComplex(maximal, order=order)


def serialize_complex(X):
    lines = ["order: " + " ".join(str(v) for v in X.order)]
    for s in X.maximal_simplices():
        lines.append("simplex: " + " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def parse_subcomplex(text, X):
    """Subcomplex file: `vertices: v1 v2 ...` (whitespace/newline separated)."""
    verts = []
    for line, raw in _strip(text):
        if line.startswith("vertices:"):
            verts += [_parse_token(t) for t in line[len("vertices:"):].split()]
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    if not verts:
        raise ValueError("subcomplex file lists no vertices")
    L = Subcomplex(X, verts)
    if not L.vertices():
        raise ValueError("subcomplex has no vertex of the complex")
    return L
